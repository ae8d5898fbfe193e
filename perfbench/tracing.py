"""Spans recorded from outside the program, and the per-layer numbers they give.

The tracer replaces a function at the name its caller looks it up under
(``coevo.orchestrator.evaluate_candidate``, not ``coevo.evaluator``'s own
binding, because the orchestrator imported it by name). Each call becomes a
span (name, start, end, parent, run id) kept in memory; spans are written out
once, at the end. A span opened on a pool thread whose own stack is empty
takes the innermost span open on the main thread as its parent, which is the
``evaluate_candidate`` that started the pool.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from coevo.archive import ACCEPTED_NEW, REJECTED, REPLACED
from coevo.evaluator import (
    FAIL_CONSTRAINT,
    FAIL_INVALID,
    FAIL_START,
    FAIL_SUPER_OPTIMAL,
    FAIL_TIMEOUT,
)

# (module, attribute, span name); "Class.method" patches the class attribute.
POINTS = (
    ("coevo.orchestrator", "load_benchmark", "instances.load_benchmark"),
    ("coevo.orchestrator", "ensure_optima", "oracles.ensure_optima"),
    ("coevo.orchestrator", "seed_source", "seeds.seed_source"),
    ("coevo.orchestrator", "evaluate_candidate", "evaluator.evaluate_candidate"),
    ("coevo.orchestrator", "complete", "llm.complete"),
    ("coevo.orchestrator", "extract_code", "llm.extract_code"),
    ("coevo.orchestrator", "compose_prompt", "promptevo.compose_prompt"),
    ("coevo.orchestrator", "sample_strategy", "promptevo.sample_strategy"),
    ("coevo.orchestrator", "evolve_prompt", "promptevo.evolve_prompt"),
    ("coevo.orchestrator", "summarize", "experience.summarize"),
    ("coevo.orchestrator", "strategy_stats", "experience.strategy_stats"),
    ("coevo.orchestrator", "write_report", "orchestrator.write_report"),
    ("coevo.orchestrator", "EvolutionRun.__init__", "orchestrator.construct"),
    ("coevo.orchestrator", "EvolutionRun.init_population", "orchestrator.init_population"),
    ("coevo.orchestrator", "EvolutionRun.step", "orchestrator.step"),
    ("coevo.orchestrator", "EvolutionRun._write_checkpoint", "orchestrator.checkpoint"),
    ("coevo.orchestrator", "EvolutionRun.from_checkpoint", "orchestrator.from_checkpoint"),
    ("coevo.promptevo", "complete", "llm.complete"),
    ("coevo.evaluator", "run_candidate", "evaluator.run_candidate"),
    ("coevo.evaluator", "instance_document", "evaluator.instance_document"),
    ("coevo.evaluator", "validate_tour", "evaluator.validate"),
    ("coevo.evaluator", "validate_packing", "evaluator.validate"),
    ("coevo.archive", "select_parent", "archive.select_parent"),
    ("coevo.archive", "migrate", "archive.migrate"),
    ("coevo.archive", "IslandArchive.insert", "archive.insert"),
    ("coevo.experience", "ExperienceStore.record", "experience.record"),
)


def _note(name: str, args: tuple, result) -> dict | None:
    """Per-span facts the per-layer numbers need, taken from arguments or result."""
    if name == "evaluator.instance_document":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "archive.insert":
        return {"outcome": result}
    if name == "archive.migrate":
        return {"offers": len(result.offers),
                "accepted": sum(1 for *_, outcome in result.offers if outcome != REJECTED)}
    if name == "orchestrator.checkpoint":
        run = args[0]
        path = run.out / "checkpoints" / f"gen-{run.state.generation:04d}.json"
        return {"bytes": path.stat().st_size}
    if name == "evaluator.run_candidate":
        return {"failure_class": result.failure_class}
    return None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = {"name": name, "run": tracer.run_id, "parent": parent,
                    "thread": threading.get_ident(), "start": time.perf_counter(), "end": None}
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            note = _note(name, args, result)
            if note:
                span.update(note)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name in POINTS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name))
                else:
                    wrapped = self.wrap(raw, name)
            else:
                raw = getattr(owner, attr)
                wrapped = self.wrap(raw, name)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with path.open("a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# -- derived numbers -----------------------------------------------------------


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times of one traced run (spans indexed as recorded)."""
    selfs = [sum(end - start for start, end in free) for free in _self_intervals(spans)]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def busy(name: str) -> float:
        return sum(spans[i]["end"] - spans[i]["start"] for i in by_name[name])

    def self_s(name: str) -> float:
        return sum(selfs[i] for i in by_name[name])

    def total(name: str, key: str) -> float:
        return sum(spans[i].get(key, 0) for i in by_name[name])

    out: dict[str, float] = {}
    rc = by_name["evaluator.run_candidate"]
    out["evaluator.run_candidate.count"] = len(rc)
    out["evaluator.run_candidate.busy_s"] = busy("evaluator.run_candidate")
    out["evaluator.run_candidate.self_s"] = self_s("evaluator.run_candidate")
    out["evaluator.run_candidate.p50_ms"] = (
        statistics.median(spans[i]["end"] - spans[i]["start"] for i in rc) * 1e3 if rc else 0.0
    )
    out["evaluator.instance_document.count"] = len(by_name["evaluator.instance_document"])
    out["evaluator.instance_document.busy_s"] = busy("evaluator.instance_document")
    out["evaluator.instance_document.bytes"] = total("evaluator.instance_document", "bytes")
    out["evaluator.validate.busy_s"] = busy("evaluator.validate")
    out["evaluator.evaluate_candidate.busy_s"] = busy("evaluator.evaluate_candidate")
    fails: dict[str, int] = defaultdict(int)
    for i in rc:
        if spans[i].get("failure_class"):
            fails[spans[i]["failure_class"]] += 1
    for cls in FAILURE_CLASSES:
        out[f"evaluator.fail.{metric_safe(cls)}.count"] = fails.get(cls, 0)

    out["llm.complete.count"] = len(by_name["llm.complete"])
    out["llm.complete.busy_s"] = busy("llm.complete")
    out["llm.extract_code.busy_s"] = busy("llm.extract_code")

    out["promptevo.compose_prompt.busy_s"] = busy("promptevo.compose_prompt")
    out["promptevo.sample_strategy.busy_s"] = busy("promptevo.sample_strategy")
    out["promptevo.evolve_prompt.self_s"] = self_s("promptevo.evolve_prompt")

    out["experience.summarize.busy_s"] = busy("experience.summarize")
    out["experience.strategy_stats.busy_s"] = busy("experience.strategy_stats")
    out["experience.record.count"] = len(by_name["experience.record"])
    out["experience.record.busy_s"] = busy("experience.record")

    out["archive.select_parent.busy_s"] = busy("archive.select_parent")
    inserts = [spans[i]["outcome"] for i in by_name["archive.insert"]]
    out["archive.insert.count"] = len(inserts)
    for outcome in (ACCEPTED_NEW, REPLACED, REJECTED):
        out[f"archive.insert.{outcome}.count"] = inserts.count(outcome)
    out["archive.insert.useful_ratio"] = (
        (len(inserts) - inserts.count(REJECTED)) / len(inserts) if inserts else 0.0
    )
    out["archive.migrate.count"] = len(by_name["archive.migrate"])
    out["archive.migrate.busy_s"] = busy("archive.migrate")
    out["archive.migrate.offers"] = total("archive.migrate", "offers")
    out["archive.migrate.accepted"] = total("archive.migrate", "accepted")

    out["orchestrator.checkpoint.count"] = len(by_name["orchestrator.checkpoint"])
    out["orchestrator.checkpoint.busy_s"] = busy("orchestrator.checkpoint")
    out["orchestrator.checkpoint.bytes"] = total("orchestrator.checkpoint", "bytes")
    out["orchestrator.from_checkpoint.busy_s"] = busy("orchestrator.from_checkpoint")
    out["orchestrator.step.count"] = len(by_name["orchestrator.step"])
    out["orchestrator.step.busy_s"] = busy("orchestrator.step")
    out["orchestrator.step.self_s"] = self_s("orchestrator.step")
    step_busy = out["orchestrator.step.busy_s"]
    out["orchestrator.step.covered_ratio"] = (
        1.0 - out["orchestrator.step.self_s"] / step_busy if step_busy else 0.0
    )

    out["instances.load_benchmark.busy_s"] = busy("instances.load_benchmark")
    out["oracles.ensure_optima.busy_s"] = busy("oracles.ensure_optima")
    out["seeds.seed_source.busy_s"] = busy("seeds.seed_source")
    return out


def _self_intervals(spans: list[dict]) -> list[list[tuple[float, float]]]:
    """Each span's interval minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for i, s in enumerate(spans):
        free, cursor = [], s["start"]
        for start, end in sorted(children.get(i, [])):
            if start > cursor:
                free.append((cursor, min(start, s["end"])))
            cursor = max(cursor, end)
        if cursor < s["end"]:
            free.append((cursor, s["end"]))
        out.append(free)
    return out


def wall_by_name(spans: list[dict], within: str = "orchestrator.step") -> dict[str, float]:
    """Wall time inside ``within`` spans, split over the innermost spans running.

    Where two evaluations overlap on the worker pool, each instant is shared
    evenly between them, so the rows add up to the ``within`` spans' wall time.
    """
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s["parent"]
        inside[i] = s["name"] == within or (p is not None and inside[p])
    events = []
    for i, free in enumerate(_self_intervals(spans)):
        if inside[i]:
            for start, end in free:
                events.append((start, 1, spans[i]["name"]))
                events.append((end, -1, spans[i]["name"]))
    events.sort(key=lambda e: (e[0], e[1]))
    table: dict[str, float] = defaultdict(float)
    active: dict[str, int] = defaultdict(int)
    last = None
    for t, delta, name in events:
        running = sum(active.values())
        if last is not None and running:
            for n, k in active.items():
                if k:
                    table[n] += (t - last) * k / running
        active[name] += delta
        last = t
    return dict(table)


FAILURE_CLASSES = (FAIL_START, FAIL_TIMEOUT, FAIL_INVALID, FAIL_CONSTRAINT, FAIL_SUPER_OPTIMAL)


def metric_safe(text: str) -> str:
    return text.replace("/", "-")
