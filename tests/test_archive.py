import json
import random

import pytest

from coevo.archive import (
    ACCEPTED_NEW,
    REJECTED,
    REPLACED,
    Descriptor,
    EvolutionState,
    IslandArchive,
    MigrationConfig,
    descriptor,
    epsilon_schedule,
    lineage_cells,
    migrate,
    replay_log,
    select_island,
    select_parent,
)
from coevo.evaluator import Candidate

CHI2_CRIT_DF4_P01 = 13.2767  # upper 1% point, 4 degrees of freedom


def scored(cid, perf, pbin=0, cbin=0, parent=None, source="x"):
    return Candidate(
        id=cid,
        source=source,
        parent_id=parent,
        performance=perf,
        descriptor=Descriptor(pbin, cbin),
    )


def with_error(candidate, error):
    candidate.performance = -error
    return candidate


# --- descriptor ---------------------------------------------------------------


def test_descriptor_first_bins():
    cand = Candidate(id="a", source="x" * 512)  # 0.5 KiB
    assert descriptor(with_error(cand, 0.0)) == Descriptor(0, 0)


def test_descriptor_bins_published_base_value():
    # 20.64 lands in the [16, 32) bucket
    cand = Candidate(id="a", source="x")
    assert descriptor(with_error(cand, 20.64)).performance_bin == 5


def test_descriptor_mid_bins():
    cand = Candidate(id="a", source="x" * (3 * 1024))
    assert descriptor(with_error(cand, 3.0)) == Descriptor(2, 2)


def test_descriptor_edges_are_half_open():
    cand = Candidate(id="a", source="x" * 1024)
    assert descriptor(with_error(cand, 1.0)) == Descriptor(1, 1)
    assert descriptor(with_error(cand, 32.0)).performance_bin == 6
    assert descriptor(with_error(cand, 1e9)).performance_bin == 6


def test_descriptor_requires_performance():
    cand = Candidate(id="a", source="x")
    with pytest.raises(ValueError, match="no performance"):
        descriptor(cand)


# --- archive update rule -------------------------------------------------------


def test_insert_outcomes_follow_update_rule():
    island = IslandArchive(island_id=0)
    assert island.insert(scored("c1", -5.0)) == ACCEPTED_NEW
    assert island.insert(scored("c2", -5.0)) == REPLACED  # >= admits equality
    assert island.cells[Descriptor(0, 0)].id == "c2"
    assert island.insert(scored("c3", -10.0)) == REJECTED
    assert island.cells[Descriptor(0, 0)].id == "c2"
    assert [e.outcome for e in island.log] == [ACCEPTED_NEW, REPLACED, REJECTED]


def test_insert_requires_scored_candidate():
    island = IslandArchive(island_id=0)
    with pytest.raises(ValueError, match="not scored"):
        island.insert(Candidate(id="raw", source="x"))


def test_cell_performance_monotone_under_random_sequences():
    rng = random.Random(0)
    for _ in range(200):
        island = IslandArchive(island_id=0)
        floor: dict[Descriptor, float] = {}
        for k in range(40):
            cand = scored(f"c{k}", rng.uniform(-50, 0), rng.randrange(3), rng.randrange(2))
            outcome = island.insert(cand)
            cell = cand.descriptor
            prev = floor.get(cell)
            now = island.cells[cell].performance
            if prev is not None:
                assert now >= prev
                assert outcome == (REJECTED if cand.performance < prev else REPLACED)
            else:
                assert outcome == ACCEPTED_NEW
            floor[cell] = now


def test_replay_log_reconstructs_archive():
    rng = random.Random(1)
    island = IslandArchive(island_id=0)
    registry = {}
    for k in range(60):
        cand = scored(f"c{k:03d}", rng.uniform(-40, 0), rng.randrange(4), rng.randrange(3))
        registry[cand.id] = cand
        island.insert(cand, generation=k)
    rebuilt = replay_log(island.log, registry)
    assert {d.key(): c.id for d, c in rebuilt.occupied()} == {
        d.key(): c.id for d, c in island.occupied()
    }


# --- island and parent selection ----------------------------------------------


def test_select_island_single_nonempty():
    state = EvolutionState.fresh(3, seed=0)
    state.islands[1].insert(scored("c1", -1.0))
    for _ in range(20):
        assert select_island(state, state.rng) == 1


def test_select_island_empty_errors():
    state = EvolutionState.fresh(2, seed=0)
    with pytest.raises(ValueError, match="empty"):
        select_island(state, state.rng)


def test_select_island_uniform_chi_square():
    state = EvolutionState.fresh(5, seed=7)
    for i in range(5):
        state.islands[i].insert(scored(f"c{i}", -1.0))
    counts = [0] * 5
    for _ in range(10000):
        counts[select_island(state, state.rng)] += 1
    expected = 10000 / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT_DF4_P01


def test_select_parent_single_occupant_any_epsilon():
    island = IslandArchive(island_id=0)
    only = scored("c1", -3.0)
    island.insert(only)
    rng = random.Random(0)
    assert select_parent(island, rng, epsilon=0.0) is only
    assert select_parent(island, rng, epsilon=1.0) is only


def test_select_parent_exploitation_is_pure_and_consumes_no_rng():
    island = IslandArchive(island_id=0)
    island.insert(scored("c1", -9.0, 0, 0))
    island.insert(scored("c2", -2.0, 1, 0))
    island.insert(scored("c3", -5.0, 2, 0))
    rng = random.Random(42)
    before = rng.getstate()
    picked = select_parent(island, rng, epsilon=0.0)
    assert picked.id == "c2"
    assert rng.getstate() == before


def test_select_parent_exploration_uniform_chi_square():
    island = IslandArchive(island_id=0)
    for k in range(4):
        island.insert(scored(f"c{k}", -float(k + 1), k, 0))
    rng = random.Random(11)
    counts = {f"c{k}": 0 for k in range(4)}
    for _ in range(10000):
        counts[select_parent(island, rng, epsilon=1.0).id] += 1
    expected = 10000 / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 11.3449  # df=3, p=0.01


def test_select_parent_lineage_tiebreak():
    island = IslandArchive(island_id=0)
    a = scored("a", -5.0, 0, 0)
    b = scored("b", -5.0, 1, 0)
    child_of_b = scored("kid", -7.0, 2, 0, parent="b")
    registry = {c.id: c for c in (a, b, child_of_b)}
    for cand in (a, b, child_of_b):
        island.insert(cand)
    assert lineage_cells(island, b, registry) == 2
    assert lineage_cells(island, a, registry) == 1
    picked = select_parent(island, random.Random(0), epsilon=0.0, registry=registry)
    assert picked.id == "b"


def test_select_parent_id_tiebreak():
    island = IslandArchive(island_id=0)
    island.insert(scored("z", -5.0, 0, 0))
    island.insert(scored("a", -5.0, 1, 0))
    picked = select_parent(island, random.Random(0), epsilon=0.0, registry={})
    assert picked.id == "a"


def test_select_parent_empty_island_errors():
    with pytest.raises(ValueError, match="empty"):
        select_parent(IslandArchive(island_id=0), random.Random(0), epsilon=0.5)


def test_epsilon_schedule():
    assert epsilon_schedule(0, 0.2, 0.4, 3) == 0.2
    assert epsilon_schedule(2, 0.2, 0.4, 3) == 0.2
    assert epsilon_schedule(3, 0.2, 0.4, 3) == 0.4
    assert epsilon_schedule(10, 0.2, 0.4, 3) == 0.4


# --- migration --------------------------------------------------------------------


def two_island_state(seed=0):
    state = EvolutionState.fresh(2, seed=seed)
    return state


def test_migrate_into_empty_cell_accepted():
    state = two_island_state()
    best = scored("c1", -1.0)
    state.islands[0].insert(best)
    report = migrate(state)
    assert (0, 1, "c1", ACCEPTED_NEW) in report.offers
    assert state.islands[1].cells[Descriptor(0, 0)].id == "c1"


def test_migrant_worse_than_incumbent_rejected():
    state = two_island_state()
    state.islands[0].insert(scored("weak", -9.0))
    state.islands[1].insert(scored("strong", -1.0))
    report = migrate(state)
    outcomes = {(src, dst): out for src, dst, _, out in report.offers}
    assert outcomes[(0, 1)] == REJECTED
    assert state.islands[1].cells[Descriptor(0, 0)].id == "strong"
    # the reverse offer replaces (equal-or-better wins)
    assert state.islands[0].cells[Descriptor(0, 0)].id == "strong"


def test_migrant_strictly_better_replaces():
    state = two_island_state()
    state.islands[0].insert(scored("best", -1.0))
    state.islands[1].insert(scored("meh", -5.0))
    migrate(state)
    assert state.islands[1].cells[Descriptor(0, 0)].id == "best"


def test_migration_never_decreases_target_cells():
    rng = random.Random(3)
    for _ in range(200):
        state = EvolutionState.fresh(2, seed=rng.randrange(10**6))
        for island in state.islands:
            for k in range(rng.randrange(1, 6)):
                island.insert(
                    scored(
                        f"i{island.island_id}k{k}",
                        rng.uniform(-40, 0),
                        rng.randrange(3),
                        rng.randrange(2),
                    )
                )
        before = [
            {d: c.performance for d, c in island.cells.items()} for island in state.islands
        ]
        migrate(state)
        for island, prior in zip(state.islands, before):
            for cell, perf in prior.items():
                assert island.cells[cell].performance >= perf


def test_migrate_single_island_noop():
    state = EvolutionState.fresh(1, seed=0)
    state.islands[0].insert(scored("c", -1.0))
    assert migrate(state).offers == []


def test_migrants_per_event_config():
    state = two_island_state()
    state.islands[0].insert(scored("a", -1.0, 0, 0))
    state.islands[0].insert(scored("b", -2.0, 1, 0))
    report = migrate(state, MigrationConfig(migrants_per_event=2))
    from_zero = [o for o in report.offers if o[0] == 0]
    assert len(from_zero) == 2


# --- evolution state --------------------------------------------------------------


def test_update_best_tracks_max_over_cells():
    state = EvolutionState.fresh(2, seed=0)
    a = scored("a", -5.0)
    b = scored("b", -2.0, 1, 0)
    state.islands[0].insert(a)
    state.update_best(a)
    state.islands[1].insert(b)
    assert state.update_best(b)
    assert state.best_so_far.id == "b"
    assert not state.update_best(scored("c", -2.0, 2, 0))  # equal is not an improvement
    best = max(
        (c.performance for island in state.islands for _, c in island.occupied()),
    )
    assert state.best_so_far.performance == best


def test_state_roundtrip_preserves_rng_stream():
    state = EvolutionState.fresh(3, seed=9)
    for i in range(3):
        cand = scored(f"c{i}", -float(i + 1), i, 0)
        state.register(cand)
        state.islands[i].insert(cand, generation=1)
    state.update_best(state.candidates["c0"])
    state.generation = 4
    state.stagnation = 2
    state.rng.random()  # advance the stream

    clone = EvolutionState.from_dict(json.loads(json.dumps(state.to_dict())))
    assert clone.generation == 4
    assert clone.stagnation == 2
    assert clone.best_so_far.id == "c0"
    assert {d.key() for d, _ in clone.islands[1].occupied()} == {
        d.key() for d, _ in state.islands[1].occupied()
    }
    assert [e.outcome for e in clone.islands[2].log] == [e.outcome for e in state.islands[2].log]
    assert clone.rng.random() == state.rng.random()
