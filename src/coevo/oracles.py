"""Exact small-instance optima and the relative-error metric.

These oracles stand in for industrial solvers at desk scale: subset dynamic
programming for TSP, depth-first branch and bound for bin packing. Both
refuse instances over a size limit (and optionally over a wall-clock
budget) instead of grinding.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import OracleLimitError
from .heuristics import Packing, Tour, capacity_slack, fit_packing
from .instances import BppInstance, Instance, InstanceSet, TspInstance, write_instance

HELD_KARP_LIMIT = 18
BRUTE_FORCE_LIMIT = 9
EXACT_BPP_LIMIT = 20


@dataclass
class OracleResult:
    optimal_value: float
    witness: Tour | Packing
    expanded_states: int = 0


def relative_error(a_sol: float, o_sol: float) -> float:
    """Percent gap of a heuristic value over the optimum: (a-o)/o * 100."""
    if not o_sol > 0:
        raise ValueError(f"optimal value must be positive, got {o_sol}")
    return (a_sol - o_sol) / o_sol * 100.0


def _check_deadline(deadline: float | None, what: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OracleLimitError(f"{what}: time budget exceeded")


def brute_force_tsp(instance: TspInstance, limit: int = BRUTE_FORCE_LIMIT) -> OracleResult:
    """Exact optimum by enumerating every tour starting at vertex 0.

    Both orientations of each cycle are scored so float summation order
    can never make this disagree with held_karp.
    """
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"brute_force_tsp limited to n <= {limit}, got {n}")
    m = instance.matrix
    if n == 1:
        return OracleResult(0.0, Tour((0,)), 1)
    if n == 2:
        return OracleResult(m[0][1] + m[1][0], Tour((0, 1)), 1)
    best_value = None
    best_order = None
    count = 0
    for perm in itertools.permutations(range(1, n)):
        total = m[0][perm[0]]
        for k in range(len(perm) - 1):
            total = total + m[perm[k]][perm[k + 1]]
        total = total + m[perm[-1]][0]
        count += 1
        if best_value is None or total < best_value:
            best_value = total
            best_order = (0,) + perm
    return OracleResult(best_value, Tour(best_order), count)


def held_karp(
    instance: TspInstance,
    limit: int = HELD_KARP_LIMIT,
    time_limit: float | None = None,
) -> OracleResult:
    """Exact minimum tour via subset DP, one popcount layer at a time.

    A mask is a set of vertices among 1..n-1; the value of (mask, j) is the
    cheapest path from vertex 0 through ``mask`` ending at j. Only the
    previous layer's values are kept, as a rows-by-end-vertex array with
    ``inf`` where j is not in the mask, plus one ``int8`` table per layer of
    each entry's predecessor, from which the witness is walked back.
    Additions follow visit order, so values are bit-identical to a running
    sum along the tour.
    """
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"held_karp limited to n <= {limit}, got {n}")
    matrix = instance.matrix
    if n == 1:
        return OracleResult(0.0, Tour((0,)), 1)
    if n == 2:
        return OracleResult(matrix[0][1] + matrix[1][0], Tour((0, 1)), 1)
    deadline = time.monotonic() + time_limit if time_limit is not None else None

    m = n - 1  # vertices 1..n-1 tracked in the bitmask
    D = np.asarray(matrix, dtype=np.float64)
    masks = np.arange(1 << m, dtype=np.int32)
    popcount = np.zeros(1 << m, dtype=np.int32)
    for b in range(m):
        popcount += (masks >> b) & 1
    # rank[mask] is the mask's row within its layer; layers list masks ascending
    rank = np.empty(1 << m, dtype=np.int32)
    layers = []
    for k in range(m + 1):
        layer = np.flatnonzero(popcount == k).astype(np.int32)
        rank[layer] = np.arange(layer.size, dtype=np.int32)
        layers.append(layer)
    del popcount

    prev = np.full((m, m), np.inf)
    prev[np.arange(m), np.arange(m)] = D[0, 1:]
    parents = []  # parents[k - 2][rank, j]: the vertex before j on a layer-k path
    for k in range(2, m + 1):
        _check_deadline(deadline, "held_karp")
        layer = layers[k]
        values = np.full((layer.size, m), np.inf)
        parent = np.zeros((layer.size, m), dtype=np.int8)
        for j in range(m):
            rows = np.flatnonzero((layer >> j) & 1)
            cand = prev[rank[layer[rows] ^ (1 << j)]]
            cand += D[1:, j + 1]
            best = cand.argmin(axis=1)  # lowest predecessor among equal sums
            values[rows, j] = cand[np.arange(rows.size), best]
            parent[rows, j] = best
        parents.append(parent)
        prev = values

    closing = prev[0] + D[1:, 0]
    j = int(np.argmin(closing))
    value = float(closing[j])

    order_rev = [j]
    mask = (1 << m) - 1
    for k in range(m, 1, -1):
        i = int(parents[k - 2][rank[mask], j])
        mask ^= 1 << j
        j = i
        order_rev.append(j)

    order = (0,) + tuple(v + 1 for v in reversed(order_rev))
    # the finite entries: every (mask, j) with j in mask, as the matrix is finite
    return OracleResult(value, Tour(order), m << (m - 1))


def exact_bpp(
    instance: BppInstance,
    limit: int = EXACT_BPP_LIMIT,
    time_limit: float | None = None,
) -> OracleResult:
    """Minimum bin count by branch and bound.

    Items are considered largest-first; identical residual bins are skipped
    (bin symmetry breaking) and branches are pruned against the volume
    lower bound ceil(sum(sizes)/C).
    """
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"exact_bpp limited to n <= {limit}, got {n}")
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    capacity = instance.capacity
    eps = capacity_slack(capacity)

    order = sorted(range(n), key=lambda i: (-instance.sizes[i], i))
    sizes = [instance.sizes[i] for i in order]
    suffix_sum = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_sum[i] = suffix_sum[i + 1] + sizes[i]

    start = fit_packing(instance, "first")
    best_count = start.bin_count()
    best_assign: list[int] | None = None

    assign = [-1] * n
    loads: list[float] = []
    expanded = 0

    def lower_bound(k: int) -> int:
        free = sum(capacity - load for load in loads)
        need = suffix_sum[k] - free
        if need <= eps:
            return 0
        return int(math.ceil(need / capacity - 1e-9))

    def dfs(k: int) -> None:
        nonlocal best_count, best_assign, expanded
        expanded += 1
        if expanded % 4096 == 0:
            _check_deadline(deadline, "exact_bpp")
        if k == n:
            if len(loads) < best_count:
                best_count = len(loads)
                best_assign = assign.copy()
            return
        if len(loads) + lower_bound(k) >= best_count:
            return
        s = sizes[k]
        tried: set[float] = set()
        for b in range(len(loads)):
            if loads[b] + s > capacity + eps:
                continue
            key = round(loads[b], 12)
            if key in tried:
                continue
            tried.add(key)
            loads[b] += s
            assign[k] = b
            dfs(k + 1)
            loads[b] -= s
            assign[k] = -1
        if len(loads) + 1 < best_count:
            loads.append(s)
            assign[k] = len(loads) - 1
            dfs(k + 1)
            loads.pop()
            assign[k] = -1

    dfs(0)

    if best_assign is None:
        witness = start
    else:
        bins: list[list[int]] = [[] for _ in range(best_count)]
        for k, b in enumerate(best_assign):
            bins[b].append(order[k])
        for b in bins:
            b.sort()
        bins.sort(key=lambda items: items[0])
        witness = Packing(tuple(tuple(b) for b in bins))
    value = witness.bin_count()
    return OracleResult(value, witness, expanded)


def exact_optimum(
    instance: Instance, tsp_limit: int, bpp_limit: int, time_limit: float | None
) -> OracleResult:
    """The instance's exact oracle: held_karp for TSP, exact_bpp for bin packing."""
    if isinstance(instance, TspInstance):
        return held_karp(instance, limit=tsp_limit, time_limit=time_limit)
    return exact_bpp(instance, limit=bpp_limit, time_limit=time_limit)


def ensure_optima(
    instance_set: InstanceSet,
    tsp_limit: int = HELD_KARP_LIMIT,
    bpp_limit: int = EXACT_BPP_LIMIT,
    time_limit: float | None = None,
    solved: dict[str, float] | None = None,
) -> InstanceSet:
    """Fill missing optima via the exact oracles; refuses oversized instances.

    ``solved`` maps ``instance_key`` to an optimum already found: an instance
    found there is not solved again, and each new solve is added to it.
    """
    solved = {} if solved is None else solved
    filled = []
    for inst in instance_set:
        if inst.known_optimal is None:
            key = instance_key(inst)
            if key not in solved:
                solved[key] = exact_optimum(inst, tsp_limit, bpp_limit, time_limit).optimal_value
            inst = replace(inst, known_optimal=solved[key])
        filled.append(inst)
    return InstanceSet(filled, kind=instance_set.kind, source=instance_set.source)


def instance_key(instance: Instance) -> str:
    """sha256 of the instance's canonical text: equal for equal name and content."""
    return hashlib.sha256(write_instance(instance).encode()).hexdigest()
