"""Sandboxed candidate execution and scoring.

A candidate is a standalone program. It receives one JSON document on
stdin — ``{"type":"tsp","n":N,"matrix":[[...],...]}`` or
``{"type":"bpp","n":N,"capacity":C,"sizes":[...]}`` — and must print one
JSON document — ``{"tour":[...]}`` or ``{"bins":[[...],...]}`` — then exit
0 before the per-instance timeout. Everything else is a classified
failure. A candidate's performance is minus its mean relative error over
the instance set, defined only when every instance produced a valid
solution.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

from .codec import decode
from .errors import MissingOptimumError
from .heuristics import Packing, Tour, tour_length_core, validate_packing, validate_tour
from .instances import Instance, InstanceSet, TspInstance
from .oracles import relative_error

FAIL_START = "syntax/start-failure"
FAIL_TIMEOUT = "timeout"
FAIL_INVALID = "invalid-output"
FAIL_CONSTRAINT = "constraint-violation"
FAIL_SUPER_OPTIMAL = "super-optimal"

DIAGNOSTIC_LIMIT = 4096
ENV_ALLOWLIST = ("PATH",)  # the only variables a candidate inherits


@dataclass(frozen=True)
class Descriptor:
    """A scored candidate's archive cell: solution-quality bin x source-size bin."""

    performance_bin: int
    complexity_bin: int

    def key(self) -> str:
        return f"{self.performance_bin},{self.complexity_bin}"


@dataclass
class Candidate:
    """A heuristic program plus its evolutionary bookkeeping."""

    id: str
    source: str
    parent_id: str | None = None
    island: int = 0
    generation: int = 0
    strategy_used: str = "seed"
    descriptor: Descriptor | None = None
    performance: float | None = None


@dataclass
class RunnerConfig:
    """How candidate processes are bounded."""

    timeout_s: float = 600.0
    total_timeout_s: float | None = None  # optional per-candidate budget
    max_output_bytes: int = 1 << 20
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.timeout_s > 0:
            raise ValueError("timeout must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class RawResult:
    """Unjudged facts from one candidate execution."""

    started: bool = True
    start_error: str = ""
    timed_out: bool = False
    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""
    oversized: bool = False
    parse_error: str | None = None
    violation_kind: str | None = None  # "tour" | "coverage" | "capacity"
    violation: str | None = None
    super_optimal_gap: float | None = None


@dataclass
class InstanceOutcome:
    instance_name: str
    objective: float | None = None
    rel_error: float | None = None
    valid: bool = False
    failure_class: str | None = None
    diagnostic: str = ""


@dataclass
class EvalReport:
    """Per-instance outcomes plus the aggregate used for archiving."""

    candidate_id: str
    records: list[InstanceOutcome] = field(default_factory=list)
    mean_relative_error: float | None = None
    failure_class: str | None = None
    diagnostic: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return decode(cls, d, "report")


def instance_document(instance: Instance) -> str:
    """Single-line JSON document a candidate reads on stdin."""
    if isinstance(instance, TspInstance):
        doc = {"type": "tsp", "n": instance.n, "matrix": instance.matrix}
    else:
        doc = {"type": "bpp", "n": instance.n, "capacity": instance.capacity,
               "sizes": instance.sizes}
    return json.dumps(doc, separators=(",", ":"))


def classify_failure(raw: RawResult, limit: int = DIAGNOSTIC_LIMIT) -> tuple[str, str]:
    """Map raw execution facts to (failure_class, diagnostic)."""
    if not raw.started:
        return FAIL_START, _trunc(raw.start_error, limit)
    if raw.timed_out:
        return FAIL_TIMEOUT, _trunc("process terminated at timeout; " + raw.stderr, limit)
    if raw.exit_code != 0:
        return FAIL_START, _trunc(raw.stderr or f"exit code {raw.exit_code}", limit)
    if raw.oversized:
        return FAIL_INVALID, _trunc("output exceeds size cap", limit)
    if raw.parse_error is not None:
        return FAIL_INVALID, _trunc(f"{raw.parse_error}; stdout: {raw.stdout}", limit)
    if raw.violation is not None:
        cls = FAIL_CONSTRAINT if raw.violation_kind == "capacity" else FAIL_INVALID
        return cls, _trunc(raw.violation, limit)
    if raw.super_optimal_gap is not None:
        return FAIL_SUPER_OPTIMAL, _trunc(
            f"objective beats the known optimum by {raw.super_optimal_gap}; "
            "solution or optimum data is corrupt",
            limit,
        )
    raise ValueError("outcome is not a failure")


def _trunc(text: str, limit: int) -> str:
    text = text.strip()
    return text if len(text) <= limit else text[:limit]


def _parse_solution(stdout: str, instance: Instance) -> tuple[Any, str | None]:
    try:
        doc = json.loads(stdout)
    except (ValueError, RecursionError):  # RecursionError: nesting too deep to decode
        return None, "output is not a JSON document"
    if not isinstance(doc, dict):
        return None, "output is not a JSON object"
    if isinstance(instance, TspInstance):
        if set(doc.keys()) != {"tour"} or not isinstance(doc["tour"], list):
            return None, 'expected exactly {"tour": [...]}'
        return Tour(tuple(doc["tour"])), None
    if set(doc.keys()) != {"bins"} or not isinstance(doc["bins"], list):
        return None, 'expected exactly {"bins": [[...], ...]}'
    if not all(isinstance(b, list) for b in doc["bins"]):
        return None, "bins must be lists of item indices"
    return Packing(tuple(tuple(b) for b in doc["bins"])), None


def _objective(solution: Tour | Packing, instance: Instance) -> float:
    if isinstance(instance, TspInstance):
        return tour_length_core(instance.matrix, solution.order)
    return solution.bin_count()


def run_candidate(
    candidate: Candidate, instance: Instance, cfg: RunnerConfig
) -> InstanceOutcome:
    """Execute one candidate on one instance and judge the result."""
    raw = RawResult()
    with tempfile.TemporaryDirectory(prefix="coevo-run-") as tmp:
        program = Path(tmp) / "candidate.py"
        program.write_text(candidate.source)
        # tracebacks name the program by this path; dropping the random
        # directory keeps diagnostics, and the files they reach, reproducible
        private = tmp + os.sep
        env = {k: os.environ[k] for k in ENV_ALLOWLIST if k in os.environ}
        env["PYTHONHASHSEED"] = "0"
        try:
            proc = subprocess.run(
                [sys.executable, str(program)],
                input=instance_document(instance) + "\n",
                capture_output=True,
                text=True,
                timeout=cfg.timeout_s,
                cwd=tmp,
                env=env,
            )
            raw.exit_code = proc.returncode
            raw.stdout = proc.stdout
            raw.stderr = proc.stderr.replace(private, "")
        except subprocess.TimeoutExpired as exc:
            raw.timed_out = True
            # partial output is bytes even in text mode
            raw.stderr = (exc.stderr or b"").decode(errors="replace").replace(private, "")
        except OSError as exc:
            raw.started = False
            raw.start_error = str(exc)

    outcome = InstanceOutcome(instance_name=instance.name)
    solution = None
    if raw.started and not raw.timed_out and raw.exit_code == 0:
        if len(raw.stdout.encode("utf-8", errors="replace")) > cfg.max_output_bytes:
            raw.oversized = True
        else:
            solution, raw.parse_error = _parse_solution(raw.stdout, instance)
            if solution is not None:
                if isinstance(instance, TspInstance):
                    raw.violation = validate_tour(instance, solution)
                    raw.violation_kind = "tour" if raw.violation else None
                else:
                    raw.violation = validate_packing(instance, solution)
                    if raw.violation:
                        raw.violation_kind = (
                            "capacity" if "over capacity" in raw.violation else "coverage"
                        )
                if raw.violation is None:
                    value = _objective(solution, instance)
                    opt = instance.known_optimal
                    if opt is not None:
                        tol = 1e-9 * max(1.0, abs(opt))
                        if value < opt - tol:
                            raw.super_optimal_gap = opt - value

    if (
        raw.started
        and not raw.timed_out
        and raw.exit_code == 0
        and not raw.oversized
        and raw.parse_error is None
        and raw.violation is None
        and raw.super_optimal_gap is None
        and solution is not None
    ):
        outcome.valid = True
        outcome.objective = _objective(solution, instance)
        if instance.known_optimal is not None:
            outcome.rel_error = relative_error(outcome.objective, instance.known_optimal)
        return outcome

    outcome.failure_class, outcome.diagnostic = classify_failure(raw)
    return outcome


def evaluate_candidate(
    candidate: Candidate, instance_set: InstanceSet, cfg: RunnerConfig
) -> EvalReport:
    """Run a candidate over all instances; score it only if all are valid.

    Missing optima are a configuration error detected before any process
    starts. Instances may run in parallel (cfg.workers) but records are
    assembled in instance order and the first failure in that order
    dominates the report's failure class.
    """
    missing = [inst.name for inst in instance_set if inst.known_optimal is None]
    if missing:
        raise MissingOptimumError(f"instances without a known optimum: {', '.join(missing)}")

    deadline = (
        time.monotonic() + cfg.total_timeout_s if cfg.total_timeout_s is not None else None
    )

    def run_one(instance: Instance) -> InstanceOutcome:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return InstanceOutcome(
                    instance_name=instance.name,
                    failure_class=FAIL_TIMEOUT,
                    diagnostic="per-candidate budget exhausted before start",
                )
            local = replace(cfg, timeout_s=min(cfg.timeout_s, remaining))
            return run_candidate(candidate, instance, local)
        return run_candidate(candidate, instance, cfg)

    instances = list(instance_set)
    if cfg.workers > 1 and len(instances) > 1:
        with ThreadPoolExecutor(max_workers=min(cfg.workers, len(instances))) as pool:
            records = list(pool.map(run_one, instances))
    else:
        records = [run_one(inst) for inst in instances]

    report = EvalReport(candidate_id=candidate.id, records=records)
    failures = [r for r in records if not r.valid]
    if failures:
        report.failure_class = failures[0].failure_class
        report.diagnostic = failures[0].diagnostic
        candidate.performance = None
    else:
        errors = [r.rel_error for r in records]
        report.mean_relative_error = math.fsum(errors) / len(errors)
        candidate.performance = -report.mean_relative_error
    return report
