"""Island elite archives: descriptor grid, update rule, selection, migration.

Each island keeps one elite per behavioral cell. A new candidate takes a
cell when the cell is empty or its performance is greater than or equal to
the incumbent's, so equal performance favors newer genetic material and
cell performance is monotone non-decreasing over any insertion sequence.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field

from .evaluator import Candidate, Descriptor

ACCEPTED_NEW = "accepted-new"
REPLACED = "replaced"
REJECTED = "rejected"

# Fixed descriptor bin edges: relative error in percent, source size in KiB.
PERFORMANCE_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
COMPLEXITY_EDGES_KIB = (1.0, 2.0, 4.0, 8.0, 16.0)


def descriptor(candidate: Candidate) -> Descriptor:
    """Project a scored candidate into its archive cell."""
    if candidate.performance is None:
        raise ValueError(f"candidate {candidate.id} has no performance to map")
    error = max(-candidate.performance, 0.0)
    kib = len(candidate.source.encode("utf-8")) / 1024.0
    return Descriptor(
        performance_bin=bisect_right(PERFORMANCE_EDGES, error),
        complexity_bin=bisect_right(COMPLEXITY_EDGES_KIB, kib),
    )


@dataclass
class IslandArchive:
    island_id: int
    cells: dict[Descriptor, Candidate] = field(default_factory=dict)

    def insert(self, candidate: Candidate) -> str:
        if candidate.descriptor is None or candidate.performance is None:
            raise ValueError(f"candidate {candidate.id} is not scored/mapped")
        cell = candidate.descriptor
        incumbent = self.cells.get(cell)
        if incumbent is not None and candidate.performance < incumbent.performance:
            return REJECTED
        self.cells[cell] = candidate
        return ACCEPTED_NEW if incumbent is None else REPLACED

    def occupied(self) -> list[tuple[Descriptor, Candidate]]:
        return sorted(
            self.cells.items(),
            key=lambda item: (item[0].performance_bin, item[0].complexity_bin),
        )


@dataclass
class EvolutionState:
    """All islands plus the shared bookkeeping the loop needs."""

    islands: list[IslandArchive]
    generation: int = 0
    best_so_far: Candidate | None = None
    stagnation: int = 0
    candidates: dict[str, Candidate] = field(default_factory=dict)

    @classmethod
    def fresh(cls, n_islands: int) -> "EvolutionState":
        return cls(islands=[IslandArchive(island_id=i) for i in range(n_islands)])

    def admit(self, candidate: Candidate) -> None:
        """Register an evaluated candidate; if it scored, map it, archive it on its
        island and track it as the global elite."""
        self.candidates[candidate.id] = candidate
        if candidate.performance is not None:
            candidate.descriptor = descriptor(candidate)
            self.islands[candidate.island].insert(candidate)
            self.update_best(candidate)

    def update_best(self, candidate: Candidate) -> bool:
        """Track the global elite; True when strictly improved."""
        if candidate.performance is None:
            return False
        if self.best_so_far is None or candidate.performance > self.best_so_far.performance:
            self.best_so_far = candidate
            return True
        return False


def select_island(state: EvolutionState, rng: random.Random) -> int:
    """Uniform over islands that already hold at least one elite."""
    nonempty = [isl.island_id for isl in state.islands if isl.cells]
    if not nonempty:
        raise ValueError("all island archives are empty")
    return nonempty[rng.randrange(len(nonempty))]


def epsilon_schedule(stagnation: int, base: float, raised: float, window: int) -> float:
    """Exploration probability: raised after ``window`` stagnant generations."""
    return raised if stagnation >= window else base


def lineage_cells(
    island: IslandArchive, root: Candidate, registry: dict[str, Candidate]
) -> int:
    """Distinct cells in this island held by the candidate or its descendants."""
    count = 0
    for _, occupant in island.occupied():
        cursor: Candidate | None = occupant
        while cursor is not None:
            if cursor.id == root.id:
                count += 1
                break
            cursor = registry.get(cursor.parent_id) if cursor.parent_id else None
    return count


def select_parent(
    island: IslandArchive,
    rng: random.Random,
    epsilon: float,
    registry: dict[str, Candidate] | None = None,
) -> Candidate:
    """Exploration: uniform over occupied cells. Exploitation: max performance,
    ties to the candidate whose lineage spans the most cells, then lowest id.

    With epsilon == 0 this is a pure function of the archive (no rng
    consumption).
    """
    occupied = island.occupied()
    if not occupied:
        raise ValueError(f"island {island.island_id} is empty")
    if epsilon > 0 and rng.random() < epsilon:
        return occupied[rng.randrange(len(occupied))][1]
    registry = registry if registry is not None else {}
    best_perf = max(c.performance for _, c in occupied)
    contenders = [c for _, c in occupied if c.performance == best_perf]
    if len(contenders) == 1:
        return contenders[0]
    return min(contenders, key=lambda c: (-lineage_cells(island, c, registry), c.id))


@dataclass
class MigrationReport:
    offers: list[tuple[int, int, str, str]] = field(default_factory=list)  # src, dst, id, outcome


def migrate(state: EvolutionState, migrants_per_event: int = 1) -> MigrationReport:
    """Ring migration: island i offers its best ``migrants_per_event`` elites to
    island (i+1) mod N.

    Offers are snapshotted before any insertion so a migrant cannot cascade
    around the ring within one event; targets apply the normal archive
    update rule.
    """
    report = MigrationReport()
    n = len(state.islands)
    if n < 2:
        return report
    offers: list[tuple[int, int, Candidate]] = []
    for i, island in enumerate(state.islands):
        elites = sorted(
            (c for _, c in island.occupied()),
            key=lambda c: (-c.performance, c.id),
        )
        for migrant in elites[:migrants_per_event]:
            offers.append((i, (i + 1) % n, migrant))
    for src, dst, migrant in offers:
        outcome = state.islands[dst].insert(migrant)
        report.offers.append((src, dst, migrant.id, outcome))
    return report
