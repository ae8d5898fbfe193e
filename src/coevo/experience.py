"""Append-only record of generation outcomes and its distillations.

Records accumulate one per generated offspring. Summaries are pure
projections over a recent window; strategy statistics use additive
smoothing so unattempted strategies start from a neutral prior.
"""

from __future__ import annotations

import json
from collections.abc import Container
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .codec import decode
from .errors import ConfigError, DanglingReferenceError

OUTCOME_IMPROVED = "improved"
OUTCOME_NO_IMPROVEMENT = "no-improvement"
OUTCOME_FAILURE = "failure"

SMOOTHING_WEIGHT = 1.0
SMOOTHING_PRIOR = 0.0


@dataclass(frozen=True)
class ExperienceRecord:
    generation: int
    island: int
    parent_id: str | None
    child_id: str
    strategy_used: str
    prompt_version: int
    outcome: str  # improved | no-improvement | failure
    delta: float | None = None  # parent error - child error; scored outcomes only
    child_error: float | None = None
    failure_class: str | None = None
    diagnostic: str = ""

    def __post_init__(self) -> None:
        if self.outcome not in (OUTCOME_IMPROVED, OUTCOME_NO_IMPROVEMENT, OUTCOME_FAILURE):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.outcome == OUTCOME_FAILURE:
            if self.delta is not None:
                raise ValueError("failure records carry no delta")
        elif self.delta is None:
            raise ValueError(f"{self.outcome} records require a delta")


@dataclass
class ExperienceLog:
    """What a checkpoint holds of an ExperienceStore."""

    records: list[ExperienceRecord]


def make_outcome(parent_error: float, child_error: float) -> tuple[str, float]:
    """Classify a scored offspring against its parent; delta > 0 improves."""
    delta = parent_error - child_error
    return (OUTCOME_IMPROVED if delta > 0 else OUTCOME_NO_IMPROVEMENT), delta


class ExperienceStore:
    """Append-only store, optionally mirrored to a JSONL file; records name ids in ``known``."""

    def __init__(self, path: str | Path | None = None, known: Container[str] = ()):
        self._records: list[ExperienceRecord] = []
        self._by_child: dict[str, ExperienceRecord] = {}
        self._known = known
        self.mirror_to(path)

    def mirror_to(self, path: str | Path | None) -> None:
        """Write the records held so far to ``path`` in one write, then append each new one."""
        self._path = Path(path) if path is not None else None
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._path.write_text("".join(map(_jsonl, self._records)))

    def record(self, rec: ExperienceRecord) -> None:
        if rec.child_id not in self._known:
            raise DanglingReferenceError(f"unknown child candidate {rec.child_id!r}")
        if rec.parent_id is not None and rec.parent_id not in self._known:
            raise DanglingReferenceError(f"unknown parent candidate {rec.parent_id!r}")
        self._records.append(rec)
        self._by_child[rec.child_id] = rec
        if self._path is not None:
            with self._path.open("a") as fh:
                fh.write(_jsonl(rec))

    def for_child(self, child_id: str | None) -> ExperienceRecord | None:
        """The record of the offspring ``child_id``; None for a seed or an unknown id."""
        return self._by_child.get(child_id)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[ExperienceRecord, ...]:
        return tuple(self._records)

    def to_dict(self) -> dict:
        return asdict(ExperienceLog(self._records))

    @classmethod
    def from_dict(
        cls, d: dict, path: str | Path | None = None, known: Container[str] = ()
    ) -> "ExperienceStore":
        """Replay checkpointed records, then mirror them to ``path``.

        A record naming a candidate not in ``known`` is a ConfigError, raised before any write.
        """
        store = cls(known=known)
        for i, rec in enumerate(decode(ExperienceLog, d, "experience").records):
            try:
                store.record(rec)
            except DanglingReferenceError as exc:
                raise ConfigError(f"experience/records/{i}: {exc}") from None
        store.mirror_to(path)
        return store


def _jsonl(rec: ExperienceRecord) -> str:
    return json.dumps(asdict(rec), sort_keys=True) + "\n"


@dataclass
class StrategyStat:
    attempts: int = 0
    successes: int = 0
    mean_improvement: float = 0.0


@dataclass
class FailureDigest:
    failure_class: str
    count: int
    example: str


@dataclass
class TopSketch:
    candidate_id: str
    mean_error: float
    strategy_lineage: tuple[str, ...]


@dataclass
class ExperienceSummary:
    window: tuple[int, int]  # inclusive generation range
    strategies: dict[str, StrategyStat] = field(default_factory=dict)
    failures: list[FailureDigest] = field(default_factory=list)
    top: TopSketch | None = None


def summarize(store: ExperienceStore, window: int = 5) -> ExperienceSummary:
    """Deterministic aggregation over the last ``window`` generations."""
    records = store.records
    if not records:
        return ExperienceSummary(window=(0, 0))
    hi = max(r.generation for r in records)
    lo = max(hi - window + 1, 0)
    recent = [r for r in records if r.generation >= lo]

    strategies: dict[str, StrategyStat] = {}
    for r in recent:
        stat = strategies.setdefault(r.strategy_used, StrategyStat())
        stat.attempts += 1
        if r.outcome == OUTCOME_IMPROVED:
            stat.successes += 1
    for name, stat in strategies.items():
        deltas = [r.delta for r in recent if r.strategy_used == name and r.delta is not None]
        if deltas:
            stat.mean_improvement = sum(deltas) / len(deltas)

    by_class: dict[str, list[ExperienceRecord]] = {}
    for r in recent:
        if r.outcome == OUTCOME_FAILURE and r.failure_class:
            by_class.setdefault(r.failure_class, []).append(r)
    failures = [
        FailureDigest(cls, len(rs), rs[0].diagnostic)
        for cls, rs in sorted(by_class.items())
    ]

    top = None
    scored = [r for r in records if r.child_error is not None]
    if scored:
        best = min(scored, key=lambda r: (r.child_error, r.child_id))
        lineage = [best.strategy_used]
        cursor = store.for_child(best.parent_id)
        while cursor is not None:
            lineage.append(cursor.strategy_used)
            cursor = store.for_child(cursor.parent_id)
        lineage.append("seed")
        top = TopSketch(best.child_id, best.child_error, tuple(reversed(lineage)))

    return ExperienceSummary(window=(lo, hi), strategies=strategies, failures=failures, top=top)


def strategy_stats(store: ExperienceStore) -> dict[str, float]:
    """Additively smoothed mean improvement per strategy over the whole store.

    Failures count as attempts with delta 0, so strategies that keep
    breaking candidates decay toward the prior instead of being forgotten.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for r in store.records:
        counts[r.strategy_used] = counts.get(r.strategy_used, 0) + 1
        sums[r.strategy_used] = sums.get(r.strategy_used, 0.0) + (r.delta or 0.0)
    return {
        name: (sums[name] + SMOOTHING_WEIGHT * SMOOTHING_PRIOR)
        / (counts[name] + SMOOTHING_WEIGHT)
        for name in counts
    }


def render_summary(summary: ExperienceSummary) -> str:
    """Fixed-template text rendering injected into prompts."""
    lines = [f"Generations {summary.window[0]}-{summary.window[1]}:"]
    if not summary.strategies:
        lines.append("  no mutation outcomes recorded yet")
    for name in sorted(summary.strategies):
        s = summary.strategies[name]
        lines.append(
            f"  {name}: {s.attempts} attempts, {s.successes} improvements, "
            f"mean delta {s.mean_improvement:+.2f}%"
        )
    if summary.failures:
        lines.append("Recent failures:")
        for digest in summary.failures:
            example = digest.example.splitlines()[-1] if digest.example else ""
            lines.append(f"  {digest.failure_class} x{digest.count}: {example}")
    if summary.top is not None:
        lines.append(
            f"Best heuristic so far: {summary.top.candidate_id} "
            f"(mean error {summary.top.mean_error:.2f}%), "
            f"lineage {' -> '.join(summary.top.strategy_lineage)}"
        )
    return "\n".join(lines)
