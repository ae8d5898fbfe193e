"""Island elite archives: descriptor grid, update rule, selection, migration.

Each island keeps one elite per behavioral cell. A new candidate takes a
cell when the cell is empty or its performance is greater than or equal to
the incumbent's, so equal performance favors newer genetic material and
cell performance is monotone non-decreasing over any insertion sequence.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field

from .codec import decode
from .errors import ConfigError
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
class LogEntry:
    candidate_id: str
    descriptor_key: str
    outcome: str
    generation: int


@dataclass
class IslandArchive:
    island_id: int
    cells: dict[Descriptor, Candidate] = field(default_factory=dict)
    log: list[LogEntry] = field(default_factory=list)

    def insert(self, candidate: Candidate, generation: int = 0) -> str:
        if candidate.descriptor is None or candidate.performance is None:
            raise ValueError(f"candidate {candidate.id} is not scored/mapped")
        cell = candidate.descriptor
        incumbent = self.cells.get(cell)
        if incumbent is None:
            outcome = ACCEPTED_NEW
            self.cells[cell] = candidate
        elif candidate.performance >= incumbent.performance:
            outcome = REPLACED
            self.cells[cell] = candidate
        else:
            outcome = REJECTED
        self.log.append(LogEntry(candidate.id, cell.key(), outcome, generation))
        return outcome

    def occupied(self) -> list[tuple[Descriptor, Candidate]]:
        return sorted(
            self.cells.items(),
            key=lambda item: (item[0].performance_bin, item[0].complexity_bin),
        )

    def best(self) -> Candidate | None:
        elites = [c for _, c in self.occupied()]
        if not elites:
            return None
        return min(elites, key=lambda c: (-c.performance, c.id))


def replay_log(
    log: list[LogEntry], registry: dict[str, Candidate], island_id: int = 0
) -> IslandArchive:
    """Rebuild an archive by re-applying its insertion log; the log must replay exactly."""
    island = IslandArchive(island_id=island_id)
    for entry in log:
        candidate = registry.get(entry.candidate_id)
        if candidate is None:
            raise ConfigError(f"island {island_id} log: unknown candidate {entry.candidate_id!r}")
        try:
            island.insert(candidate, entry.generation)
        except ValueError as exc:
            raise ConfigError(f"island {island_id} log: {exc}") from None
        if island.log[-1] != entry:
            raise ConfigError(f"island {island_id} log: replay diverged at {entry}")
    return island


@dataclass
class StateSnapshot:
    """What a checkpoint holds of an EvolutionState; island cells are rebuilt from the logs."""

    generation: int
    stagnation: int
    best_id: str | None
    rng_state: tuple[int, tuple[int, ...], float | None]
    candidates: dict[str, Candidate]
    logs: list[list[LogEntry]]  # one insertion log per island


@dataclass
class EvolutionState:
    """All islands plus the shared bookkeeping the loop needs."""

    islands: list[IslandArchive]
    rng: random.Random
    generation: int = 0
    best_so_far: Candidate | None = None
    stagnation: int = 0
    candidates: dict[str, Candidate] = field(default_factory=dict)

    @classmethod
    def fresh(cls, n_islands: int, seed: int) -> "EvolutionState":
        return cls(
            islands=[IslandArchive(island_id=i) for i in range(n_islands)],
            rng=random.Random(seed),
        )

    def register(self, candidate: Candidate) -> None:
        self.candidates[candidate.id] = candidate

    def update_best(self, candidate: Candidate) -> bool:
        """Track the global elite; True when strictly improved."""
        if candidate.performance is None:
            return False
        if self.best_so_far is None or candidate.performance > self.best_so_far.performance:
            self.best_so_far = candidate
            return True
        return False

    def to_dict(self) -> dict:
        return asdict(StateSnapshot(
            generation=self.generation,
            stagnation=self.stagnation,
            best_id=self.best_so_far.id if self.best_so_far else None,
            rng_state=self.rng.getstate(),
            candidates=dict(sorted(self.candidates.items())),
            logs=[isl.log for isl in self.islands],
        ))

    @classmethod
    def from_dict(cls, d: dict) -> "EvolutionState":
        """Restore the RNG, resolve ids and replay each island's log into its cells."""
        snap = decode(StateSnapshot, d, "state")
        rng = random.Random()
        try:
            rng.setstate(snap.rng_state)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"state/rng_state: {exc}") from None
        islands = [replay_log(log, snap.candidates, i) for i, log in enumerate(snap.logs)]
        best = snap.candidates.get(snap.best_id)
        if best is None and (snap.best_id is not None or any(snap.logs)):
            raise ConfigError(f"state/best_id: no candidate {snap.best_id!r}")
        return cls(
            islands=islands,
            rng=rng,
            generation=snap.generation,
            best_so_far=best,
            stagnation=snap.stagnation,
            candidates=snap.candidates,
        )


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
class MigrationConfig:
    migrants_per_event: int = 1  # top-k elites offered per island


@dataclass
class MigrationReport:
    offers: list[tuple[int, int, str, str]] = field(default_factory=list)  # src, dst, id, outcome


def migrate(state: EvolutionState, config: MigrationConfig = MigrationConfig()) -> MigrationReport:
    """Ring migration: island i offers its best elites to island (i+1) mod N.

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
        for migrant in elites[: config.migrants_per_event]:
            offers.append((i, (i + 1) % n, migrant))
    for src, dst, migrant in offers:
        outcome = state.islands[dst].insert(migrant, state.generation)
        report.offers.append((src, dst, migrant.id, outcome))
    return report
