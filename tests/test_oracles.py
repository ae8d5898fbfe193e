import math
import random
import tracemalloc

import pytest

from conftest import make_set, random_bpp, random_tsp
from coevo.errors import OracleLimitError
from coevo.heuristics import (
    capacity_slack,
    fit_packing,
    tour_length,
    validate_packing,
    validate_tour,
)
from coevo.instances import BppInstance, TspInstance, coords_to_matrix
from coevo.oracles import (
    BRUTE_FORCE_LIMIT,
    HELD_KARP_LIMIT,
    brute_force_tsp,
    ensure_optima,
    exact_bpp,
    held_karp,
    relative_error,
)


def bpp_subset_dp(sizes, capacity):
    """Independent oracle: O(3^n) DP over item subsets that fit one bin."""
    n = len(sizes)
    eps = capacity_slack(capacity)
    full = (1 << n) - 1
    fits = [False] * (full + 1)
    for mask in range(1, full + 1):
        total = sum(sizes[i] for i in range(n) if (mask >> i) & 1)
        fits[mask] = total <= capacity + eps
    dp = [n + 1] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        sub = mask
        while sub:
            if fits[sub] and dp[mask ^ sub] + 1 < dp[mask]:
                dp[mask] = dp[mask ^ sub] + 1
            sub = (sub - 1) & mask
    return dp[full]


# --- TSP oracles -------------------------------------------------------------


def test_brute_force_trivial_cases(unit_square):
    two = TspInstance("p", 2, [[0, 5], [5, 0]])
    assert brute_force_tsp(two).optimal_value == 10
    rng = random.Random(1)
    tri = random_tsp(rng, 3)
    assert brute_force_tsp(tri).optimal_value == pytest.approx(
        tour_length(tri, brute_force_tsp(tri).witness)
    )
    assert brute_force_tsp(unit_square).optimal_value == 4.0


def test_brute_force_refuses_large():
    rng = random.Random(2)
    with pytest.raises(OracleLimitError, match="n <= 9"):
        brute_force_tsp(random_tsp(rng, 10))


def test_held_karp_matches_brute_force_exactly():
    rng = random.Random(3)
    # "nearest" rounds to integers, whose tied sums exercise the predecessor walk
    for rounding in ("exact", "nearest"):
        for _ in range(20):
            inst = random_tsp(rng, rng.randint(4, BRUTE_FORCE_LIMIT), rounding)
            result = held_karp(inst)
            assert result.optimal_value == brute_force_tsp(inst).optimal_value
            assert tour_length(inst, result.witness) == result.optimal_value


@pytest.mark.parametrize("seed", range(3))
def test_held_karp_convex_position_at_limit(seed):
    """At n = HELD_KARP_LIMIT the optimum is known: points in convex position
    are toured in hull order."""
    rng = random.Random(seed)
    n = HELD_KARP_LIMIT
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    labels = list(range(n))
    rng.shuffle(labels)  # labels[p] is the vertex at the p-th hull position
    coords = [None] * n
    for p, a in enumerate(angles):
        coords[labels[p]] = (500 + 400 * math.cos(a), 500 + 400 * math.sin(a))
    inst = TspInstance("convex", n, coords_to_matrix(coords, "exact"))
    start = labels.index(0)
    hull = tuple(labels[start:] + labels[:start])
    result = held_karp(inst)
    assert result.witness.order in (hull, hull[:1] + hull[:0:-1])
    assert tour_length(inst, result.witness) == result.optimal_value
    assert result.expanded_states == (n - 1) * 2 ** (n - 2)


def test_held_karp_memory_at_limit():
    """The DP holds one subset layer at a time; the full 2^17 x 17 float table
    alone would be 17.8 MB at n = 18."""
    inst = random_tsp(random.Random(15), HELD_KARP_LIMIT)
    tracemalloc.start()
    try:
        held_karp(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20_000_000


def test_held_karp_unit_square_and_small(unit_square):
    from coevo.heuristics import Tour

    assert held_karp(unit_square).optimal_value == 4.0
    rng = random.Random(4)
    tri = random_tsp(rng, 3)
    # n=3 has a single cycle up to direction
    assert held_karp(tri).optimal_value == pytest.approx(tour_length(tri, Tour((0, 1, 2))))


def test_held_karp_witness_achieves_value():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_tsp(rng, rng.randint(4, 10))
        result = held_karp(inst)
        assert validate_tour(inst, result.witness) is None
        assert tour_length(inst, result.witness) == result.optimal_value


def test_held_karp_refuses_over_limit():
    rng = random.Random(6)
    with pytest.raises(OracleLimitError, match="n <= 18"):
        held_karp(random_tsp(rng, 19))
    with pytest.raises(OracleLimitError, match="n <= 5"):
        held_karp(random_tsp(rng, 6), limit=5)


def test_held_karp_time_budget():
    rng = random.Random(7)
    inst = random_tsp(rng, 14)
    with pytest.raises(OracleLimitError, match="time budget"):
        held_karp(inst, time_limit=0.0)


# --- BPP oracle ----------------------------------------------------------------


def test_exact_bpp_examples():
    inst = BppInstance("b", 4, [50, 70, 50, 30], 100)
    # volume bound ceil(200/100)=2 and first-fit achieves 2
    result = exact_bpp(inst)
    assert result.optimal_value == 2
    assert validate_packing(inst, result.witness) is None

    same = BppInstance("s", 5, [10, 10, 10, 10, 10], 10)
    assert exact_bpp(same).optimal_value == 5

    onebin = BppInstance("o", 4, [2, 3, 2, 3], 10)
    assert exact_bpp(onebin).optimal_value == 1


def test_exact_bpp_matches_independent_subset_dp():
    rng = random.Random(8)
    for _ in range(40):
        inst = random_bpp(rng, rng.randint(2, 9))
        assert exact_bpp(inst).optimal_value == bpp_subset_dp(inst.sizes, inst.capacity)


def test_exact_bpp_bounds_and_witness():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_bpp(rng, rng.randint(1, 14))
        result = exact_bpp(inst)
        volume = math.ceil(sum(inst.sizes) / inst.capacity - 1e-9)
        assert volume <= result.optimal_value <= fit_packing(inst, "first").bin_count()
        assert validate_packing(inst, result.witness) is None
        assert result.witness.bin_count() == result.optimal_value


def test_exact_bpp_refuses_over_limit():
    rng = random.Random(10)
    with pytest.raises(OracleLimitError, match="n <= 20"):
        exact_bpp(random_bpp(rng, 21))


# --- relative error ---------------------------------------------------------------


def test_relative_error_examples():
    assert relative_error(6, 6) == 0.0
    assert relative_error(1.2 * 50, 50) == pytest.approx(20.0)
    assert relative_error(100, 80) == 25.0


def test_relative_error_requires_positive_optimum():
    with pytest.raises(ValueError, match="positive"):
        relative_error(5, 0)
    with pytest.raises(ValueError, match="positive"):
        relative_error(5, -1)


def test_relative_error_monotone_and_signed():
    rng = random.Random(11)
    for _ in range(200):
        o = rng.uniform(0.1, 100)
        a1 = rng.uniform(o, o * 3)
        a2 = a1 + rng.uniform(0.01, 5)
        assert relative_error(a1, o) >= 0
        assert relative_error(a2, o) > relative_error(a1, o)
    assert relative_error(4, 5) < 0  # super-optimal inputs yield negative values


# --- ensure_optima ------------------------------------------------------------------


def test_ensure_optima_fills_missing(unit_square):
    import dataclasses

    rng = random.Random(12)
    known = dataclasses.replace(unit_square, known_optimal=4.0)
    missing = random_tsp(rng, 5)
    out = ensure_optima(make_set(known, missing))
    values = {inst.name: inst.known_optimal for inst in out}
    assert values["square"] == 4.0
    assert values["rand5"] == held_karp(missing).optimal_value


def test_ensure_optima_refuses_oversized():
    rng = random.Random(13)
    big = random_tsp(rng, 12)
    with pytest.raises(OracleLimitError):
        ensure_optima(make_set(big), tsp_limit=10)


def test_ensure_optima_bpp_is_integral():
    rng = random.Random(14)
    inst = random_bpp(rng, 6)
    out = ensure_optima(make_set(inst))
    assert isinstance(out.instances[0].known_optimal, int)
