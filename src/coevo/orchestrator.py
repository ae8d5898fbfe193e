"""The closed evolution loop.

Each generation, every island selects a parent from its archive, samples a
mutation strategy from experience, composes a prompt, asks the LLM for an
offspring, evaluates it in a sandboxed subprocess, records the outcome,
and archives it if scored. Islands plan from the experience as it stood at
the start of the generation, one after another, and each island's
evaluation runs on the generation's pool while the next island waits on
its LLM call; outcomes are then applied in island order. The prompt then
evolves from the generation's experience and islands exchange elites on the
migration schedule. Each generation draws its islands, parents and
strategies from its own RNG, seeded with ``"<rng_seed>/<generation>"``, so
with the mock backend and a fixed seed the whole run is reproducible bit for
bit, and every generation is checkpointed for exact resume.

A run directory holds five append-only journals: ``sources.jsonl`` (each
distinct candidate source once, as a JSON string), ``candidates.jsonl`` (one
line per registered candidate, in the order the run admitted them, its source
given by the sha256 of its bytes), ``experience.jsonl``, ``prompts.jsonl``
(one line per prompt version) and ``events.jsonl`` (one JSON string per
event). A checkpoint, ``checkpoints/gen-NNNN.json``, holds what of the run the
journals cannot tell and, for each journal, how many of its bytes it counts
and their sha256, so its size does not grow with the run. The island archives
are not stored: a resume rebuilds them by admitting the candidates again, in
order, and replaying the migrations the schedule made.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import re
import time
import typing
from collections import Counter, defaultdict
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import archive as arch
from .archive import EvolutionState, descriptor
from .codec import EXPECTED, decode
from .errors import ConfigError, EmptyResponseError, LlmError
from .evaluator import (
    Candidate,
    RunnerConfig,
    check_timeout,
    evaluate_candidate,
    start_evaluation,
)
from .experience import (
    JOURNAL as EXPERIENCE_JOURNAL,
    OUTCOME_FAILURE,
    ExperienceRecord,
    ExperienceStore,
    ExperienceSummary,
    make_outcome,
    strategy_stats,
    summarize,
)
from .instances import load_benchmark
from .llm import Backend, CompletionRequest, HttpBackend, MockBackend, complete, extract_code
from .oracles import ensure_optima
from .promptevo import (
    PromptState,
    PromptVersion,
    compose_prompt,
    evolve_prompt,
    sample_strategy,
    strategy_pool,
)
from .seeds import SEEDS, seed_source

CHECKPOINT_VERSION = 12
REPORT_VERSION = 1
SOURCE_JOURNAL = "sources.jsonl"
CANDIDATE_JOURNAL = "candidates.jsonl"
PROMPT_JOURNAL = "prompts.jsonl"
EVENT_JOURNAL = "events.jsonl"
JOURNALS = (SOURCE_JOURNAL, CANDIDATE_JOURNAL, EXPERIENCE_JOURNAL, PROMPT_JOURNAL,
            EVENT_JOURNAL)
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


@dataclass
class RunConfig:
    problem: str = "tsp"
    instances: str = ""
    seeds: tuple[str, ...] = ("nearest-neighbor",)
    iterations: int = 20
    islands: int = 5
    migration_interval: int = 4
    migrants_per_event: int = 1
    timeout_s: float = 600.0
    total_timeout_s: float | None = None
    rng_seed: int = 0
    backend: str = "mock"  # "mock" | "live"
    mock_script: str | None = None
    endpoint: str = ""
    api_key: str = ""
    model: str = "default"
    temperature: float = 0.8
    top_p: float = 0.95
    max_tokens: int = 4096
    parallelism: int = 1
    experience_window: int = 5
    strategy_temperature: float = 1.0
    epsilon_base: float = 0.2
    epsilon_raised: float = 0.4
    stagnation_window: int = 3
    prompt_update_interval: int = 1
    per_island_prompts: bool = False
    island_per_iteration: bool = False
    repair_failed_offspring: bool = False
    llm_call_cap: int | None = None
    checkpoint_interval: int = 1
    oracle_tsp_limit: int = 18
    oracle_bpp_limit: int = 20

    def validate(self) -> None:
        if self.problem not in ("tsp", "bpp"):
            raise ConfigError(f"problem must be tsp or bpp, got {self.problem!r}")
        if not self.instances:
            raise ConfigError("instances path is required")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.islands < 1:
            raise ConfigError("islands must be >= 1")
        check_timeout("timeout", self.timeout_s)
        if self.total_timeout_s is not None:
            check_timeout("total timeout", self.total_timeout_s)
        if self.migration_interval < 0:
            raise ConfigError("migration_interval must be >= 0 (0 disables migration)")
        if self.migrants_per_event < 0:
            raise ConfigError("migrants_per_event must be >= 0")
        if self.prompt_update_interval < 1:
            raise ConfigError("prompt_update_interval must be >= 1")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.experience_window < 1:
            raise ConfigError("experience_window must be >= 1")
        if not self.strategy_temperature > 0:
            raise ConfigError("strategy_temperature must be positive")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError("temperature must be finite and >= 0")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        for name in ("epsilon_base", "epsilon_raised"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.backend not in ("mock", "live"):
            raise ConfigError(f"backend must be mock or live, got {self.backend!r}")
        if self.backend == "mock" and not self.mock_script:
            raise ConfigError("mock backend requires a mock_script path")
        if self.backend == "live" and not self.endpoint:
            raise ConfigError("live backend requires an endpoint")
        if not self.seeds:
            raise ConfigError("at least one seed heuristic is required")
        for name in self.seeds:
            if name not in SEEDS:
                raise ConfigError(f"unknown seed heuristic {name!r}")
            if SEEDS[name].problem != self.problem:
                raise ConfigError(f"seed {name!r} does not solve problem {self.problem!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """JSON values, as ``to_dict`` gives them; each is checked against its field's type."""
        return decode(cls, d, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Flat ``key = value`` text; '#' starts a comment; seeds comma-separated."""
        values: dict = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            values[key] = _coerce(key, value.strip(), f"{path} line {lineno}")
        return cls(**values)


_FIELD_TYPES = typing.get_type_hints(RunConfig)
_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(key: str, text: str, where: str) -> object:
    """Config text as the type of RunConfig field ``key``.

    ``none`` or empty unsets an optional field, flags take
    true/false/yes/no/1/0, tuples are comma-separated.
    """
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if type(None) in typing.get_args(kind):  # T | None
        if text.lower() in ("none", ""):
            return None
        kind = next(t for t in typing.get_args(kind) if t is not type(None))
    if kind is bool:
        if text.lower() in _BOOL_WORDS:
            return _BOOL_WORDS[text.lower()]
    elif kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    elif kind is str:
        return text
    else:  # tuple[str, ...]
        items = tuple(item.strip() for item in text.split(","))
        if all(items):
            return items
    raise ConfigError(f"{where}: {key} must be {EXPECTED.get(kind, 'comma-separated names')}")


@dataclass
class RunReport:
    problem: str
    dataset: str
    seeds: tuple[str, ...]
    iterations: int
    islands: int
    migration_interval: int
    rng_seed: int
    backend: str
    base_errors: dict[str, float]
    best_id: str = ""
    best_source: str = ""
    best_error: float | None = None
    trace: list[float] = field(default_factory=list)
    strategy_usage: dict[str, int] = field(default_factory=dict)
    generated_per_generation: list[int] = field(default_factory=list)
    executable_per_generation: list[int] = field(default_factory=list)
    executable_rate: float | None = None
    executable_rate_per_generation: list[float | None] = field(default_factory=list)
    prompt_versions: list[dict] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    llm_calls: int = 0
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["best"] = {"id": d.pop("best_id"), "source": d.pop("best_source"),
                     "mean_relative_error": d.pop("best_error")}
        return {"version": REPORT_VERSION, **d}


def build_backend(config: RunConfig) -> Backend:
    if config.backend == "mock":
        return MockBackend.from_file(config.mock_script)
    return HttpBackend(endpoint=config.endpoint, api_key=config.api_key)


class EvolutionRun:
    """One configured run: owns the state, the loop, and its files."""

    def __init__(
        self,
        config: RunConfig,
        out_dir: str | Path | None = None,
        backend: Backend | None = None,
        optima: dict[str, float] | None = None,
    ):
        """``optima`` maps ``oracles.instance_key`` to solved optima; the run adds its own."""
        config.validate()
        self.config = config
        self.out = Path(out_dir) if out_dir is not None else None
        self.instances = load_benchmark(config.instances)
        if self.instances.kind != config.problem:
            raise ConfigError(
                f"instance set is {self.instances.kind}, config says {config.problem}"
            )
        self.optima = {} if optima is None else optima
        self.instances = ensure_optima(
            self.instances, tsp_limit=config.oracle_tsp_limit,
            bpp_limit=config.oracle_bpp_limit, solved=self.optima,
        )
        self.backend = backend if backend is not None else build_backend(config)
        self.runner_cfg = RunnerConfig(
            timeout_s=config.timeout_s,
            total_timeout_s=config.total_timeout_s,
            workers=config.parallelism,
        )
        self.state = EvolutionState.fresh(config.islands)
        self.experience = ExperienceStore(self.state.candidates)
        n_prompts = config.islands if config.per_island_prompts else 1
        self.prompts = [PromptState.initial(config.problem) for _ in range(n_prompts)]
        self.events: list[str] = []
        self.llm_calls = 0
        self.next_seq = 0
        self.pending_repair: dict[int, str] = {}
        # What the out directory already holds: the journals, opened by the first
        # checkpoint or by a resume, each journaled source's sha256 and each prompt
        # state's versions.
        self._journals: dict[str, Journal] | None = None
        self._stored: set[str] = set()
        self._versioned = [0] * n_prompts
        if self.out is not None:  # last, so a refused start leaves no directory behind
            (self.out / "checkpoints").mkdir(parents=True, exist_ok=True)

    # -- id and prompt helpers ------------------------------------------

    def _next_id(self) -> str:
        cid = f"c{self.next_seq:06d}"
        self.next_seq += 1
        return cid

    @property
    def base_errors(self) -> dict[str, float]:
        """Each seed's mean relative error: island 0's seeds are registered first, in order."""
        return {name: -c.performance
                for name, c in zip(self.config.seeds, self.state.candidates.values())}

    def _prompt_for(self, island: int) -> PromptState:
        return self.prompts[island if self.config.per_island_prompts else 0]

    def _request(self, prompt: str, tag: str) -> CompletionRequest:
        return CompletionRequest(
            messages=(("user", prompt),),
            temperature=self.config.temperature,
            top_p=self.config.top_p,
            max_tokens=self.config.max_tokens,
            model=self.config.model,
            tag=tag,
        )

    def _complete(self, prompt: str, tag: str, generation: int) -> str | None:
        """One guarded completion; None means the call failed or was capped."""
        if self.config.llm_call_cap is not None and self.llm_calls >= self.config.llm_call_cap:
            self.events.append(f"gen {generation}: llm call cap reached")
            return None
        self.llm_calls += 1
        try:
            return complete(self.backend, self._request(prompt, tag)).text
        except LlmError as exc:
            self.events.append(f"gen {generation}: llm failure ({exc})")
            return None

    # -- loop phases -----------------------------------------------------

    def init_population(self) -> EvolutionState:
        """Evaluate the configured seeds and plant them on every island."""
        if self.state.candidates:
            return self.state
        errors = {}
        for name in self.config.seeds:
            probe = Candidate(id=f"probe-{name}", source=seed_source(name))
            report = evaluate_candidate(probe, self.instances, self.runner_cfg)
            if report.mean_relative_error is None:
                raise ConfigError(
                    f"seed {name!r} failed evaluation ({report.failure_class}): "
                    f"{report.diagnostic}"
                )
            errors[name] = report.mean_relative_error
        for island in self.state.islands:
            for name in self.config.seeds:
                self.state.admit(Candidate(
                    id=self._next_id(),
                    source=seed_source(name),
                    island=island.island_id,
                    generation=0,
                    strategy_used="seed",
                    performance=-errors[name],
                ))
        self._write_checkpoint()
        return self.state

    def _plan(
        self,
        island_idx: int,
        generation: int,
        rng: random.Random,
        stats: dict[str, float],
        summary: ExperienceSummary,
        pool: Executor,
    ) -> tuple[Candidate, list[Future]] | None:
        """Ask the LLM for one island's offspring and queue its evaluation on ``pool``.

        ``rng`` is the generation's; ``stats`` and ``summary`` are the experience at
        the start of the generation. None, with an event where there is one, when
        nothing came back.
        """
        island = self.state.islands[island_idx]
        if not island.cells:
            return None
        pstate = self._prompt_for(island_idx)

        repair_id = self.pending_repair.pop(island_idx, None)
        failure = None
        if repair_id is not None and self.config.repair_failed_offspring:
            parent = self.state.candidates[repair_id]
            failure = self.experience.for_child(repair_id)
            strategy_name = "repair"
            strategy = strategy_pool()[0]  # ignored by compose in failure mode
        else:
            cfg = self.config
            epsilon = arch.epsilon_schedule(
                self.state.stagnation, cfg.epsilon_base, cfg.epsilon_raised, cfg.stagnation_window
            )
            parent = arch.select_parent(island, rng, epsilon, self.state.candidates)
            strategy = sample_strategy(stats, temperature=cfg.strategy_temperature, rng=rng)
            strategy_name = strategy.name

        prompt = compose_prompt(pstate, strategy, parent, summary, failure)
        text = self._complete(prompt, "generate", generation)
        if text is None:
            return None
        try:
            source = extract_code(text)
        except EmptyResponseError:
            self.events.append(f"gen {generation}: island {island_idx} empty completion")
            return None

        child = Candidate(
            id=self._next_id(),
            source=source,
            parent_id=parent.id,
            island=island_idx,
            generation=generation,
            strategy_used=strategy_name,
        )
        return child, start_evaluation(child, self.instances, self.runner_cfg, pool)

    def _apply(self, child: Candidate, runs: list[Future]) -> None:
        """Wait for a planned offspring's evaluation; admit and record it.

        The wait is inside ``evaluate_candidate``, so a tracer that times that
        call sees this thread's waiting as evaluation.
        """
        report = evaluate_candidate(child, self.instances, self.runner_cfg, runs)
        self.state.admit(child)
        parent = self.state.candidates[child.parent_id]

        error = report.mean_relative_error
        if error is None:
            outcome, delta = OUTCOME_FAILURE, None
            if self.config.repair_failed_offspring:
                self.pending_repair[child.island] = child.id
        else:
            parent_error = error if parent.performance is None else -parent.performance
            outcome, delta = make_outcome(parent_error, error)
        self.experience.record(ExperienceRecord(
            generation=child.generation,
            island=child.island,
            parent_id=child.parent_id,
            child_id=child.id,
            strategy_used=child.strategy_used,
            prompt_version=self._prompt_for(child.island).current_id,
            outcome=outcome,
            delta=delta,
            child_error=error,
            failure_class=report.failure_class,
            diagnostic=report.diagnostic,
        ))

    def step(self) -> EvolutionState:
        """Run exactly one generation across the islands."""
        if not self.state.candidates:
            raise ConfigError("run not initialized; call init_population first")
        generation = self.state.generation + 1
        # a str seed goes through sha512: the same draws in any process, on any Python version
        rng = random.Random(f"{self.config.rng_seed}/{generation}")
        if self.config.island_per_iteration:
            island_ids = [arch.select_island(self.state, rng)]
        else:
            island_ids = [isl.island_id for isl in self.state.islands]

        best_before = self.state.best_so_far.performance
        stats = strategy_stats(self.experience)
        summary = summarize(self.experience, self.config.experience_window)
        # LLM calls stay on this thread, in island order, so a scripted mock
        # answers each island the same way on every run
        pool = ThreadPoolExecutor(max_workers=self.config.parallelism)
        try:
            planned = [self._plan(i, generation, rng, stats, summary, pool) for i in island_ids]
            for offspring in filter(None, planned):
                self._apply(*offspring)
        finally:
            pool.shutdown(cancel_futures=True)  # if planning raised, what it queued never runs

        self.state.generation = generation
        improved = self.state.best_so_far.performance > best_before
        self.state.stagnation = 0 if improved else self.state.stagnation + 1
        best_error = -self.state.best_so_far.performance

        evolve_now = generation % self.config.prompt_update_interval == 0
        summary = summarize(self.experience, self.config.experience_window)
        cap = self.config.llm_call_cap
        for i, pstate in enumerate(self.prompts):
            events = [pstate.observe(generation, best_error)]
            if evolve_now and cap is not None and self.llm_calls >= cap:
                events.append(f"gen {generation}: llm call cap reached; prompt kept")
            elif evolve_now:
                self.llm_calls += 1
                events.append(
                    evolve_prompt(pstate, summary, self.backend, generation, self._request)
                )
            # "gen 5: reverted ..." names its island when each island has its own prompt
            where = f": island {i} " if self.config.per_island_prompts else ": "
            self.events += [event.replace(": ", where, 1) for event in events if event]

        if _migrates(self.config, generation):
            mig = arch.migrate(self.state, self.config.migrants_per_event)
            accepted = sum(1 for *_rest, outcome in mig.offers if outcome != arch.REJECTED)
            self.events.append(
                f"gen {generation}: migration, {len(mig.offers)} offers, {accepted} accepted"
            )

        if generation % self.config.checkpoint_interval == 0:
            self._write_checkpoint()
        return self.state

    def run(self) -> RunReport:
        started = time.monotonic()
        self.init_population()
        while self.state.generation < self.config.iterations:
            self.step()
        report = self.build_report()
        report.wall_time_s = time.monotonic() - started
        if self.out is not None:
            self._append_journals()  # the last generations may fall between checkpoints
            write_report(report, self.out / "report.json")
            write_atomic(self.out / "best_candidate.py", report.best_source)
        return report

    @property
    def generated(self) -> list[int]:
        """Offspring recorded in each generation so far, 0 where a generation has none."""
        counts = Counter(r.generation for r in self.experience.records)
        return [counts[g] for g in range(1, self.state.generation + 1)]

    def build_report(self) -> RunReport:
        """The run's report; its counts and best-error trace come from the experience records."""
        best = self.state.best_so_far
        records = self.experience.records
        generated = self.generated
        lowest = dict.fromkeys(range(1, len(generated) + 1), min(self.base_errors.values()))
        scored = dict.fromkeys(lowest, 0)
        for r in records:
            if r.child_error is not None:
                lowest[r.generation] = min(lowest[r.generation], r.child_error)
                scored[r.generation] += 1
        executable = list(scored.values())
        rates: list[float | None] = [(e / g) if g else None for g, e in zip(generated, executable)]
        total_gen = sum(generated)
        outcomes: dict[tuple[int, int], Counter] = defaultdict(Counter)  # by prompt, version
        for r in records:
            prompt = r.island if self.config.per_island_prompts else 0
            outcomes[prompt, r.prompt_version][r.outcome] += 1
        prompt_versions = []
        for i, pstate in enumerate(self.prompts):
            for v in pstate.versions:
                entry = {
                    "id": v.id,
                    "created_at_generation": v.created_at_generation,
                    "discarded": v.id in pstate.discarded,
                    "outcomes": dict(sorted(outcomes[i, v.id].items())),
                }
                if self.config.per_island_prompts:
                    entry["island"] = i
                prompt_versions.append(entry)
        return RunReport(
            problem=self.config.problem,
            dataset=Path(self.config.instances).name,
            seeds=self.config.seeds,
            iterations=self.config.iterations,
            islands=self.config.islands,
            migration_interval=self.config.migration_interval,
            rng_seed=self.config.rng_seed,
            backend=self.config.backend,
            base_errors=dict(sorted(self.base_errors.items())),
            best_id=best.id,
            best_source=best.source,
            best_error=-best.performance,
            trace=list(itertools.accumulate(lowest.values(), min)),
            strategy_usage=dict(sorted(Counter(r.strategy_used for r in records).items())),
            generated_per_generation=generated,
            executable_per_generation=executable,
            executable_rate=(sum(executable) / total_gen) if total_gen else None,
            executable_rate_per_generation=rates,
            prompt_versions=prompt_versions,
            events=list(self.events),
            llm_calls=self.llm_calls,
        )

    # -- checkpointing ----------------------------------------------------

    def _append_journals(self) -> None:
        """Journal what the run registered and recorded since the last call; sync it."""
        if self._journals is None:  # a fresh run
            self._journals = {name: Journal(self.out / name) for name in JOURNALS}
        sources, candidates, experience, prompts, events = (
            self._journals[name] for name in JOURNALS)
        new_sources, lines = [], []
        for c in itertools.islice(self.state.candidates.values(), candidates.lines, None):
            digest = _source_sha256(c.source)
            if digest not in self._stored:
                self._stored.add(digest)
                new_sources.append(c.source)
            lines.append({**dataclasses.asdict(c), "source": digest})
        sources.append(new_sources)
        candidates.append(lines)
        records = self.experience.records[experience.lines:]
        experience.append([dataclasses.asdict(r) for r in records])
        prompts.append([{"prompt": i, **dataclasses.asdict(v)}
                        for i, (p, done) in enumerate(zip(self.prompts, self._versioned))
                        for v in p.versions[done:]])
        self._versioned = [len(p.versions) for p in self.prompts]
        events.append(self.events[events.lines:])

    def _write_checkpoint(self) -> None:
        """Sync the journals first, so a checkpoint never counts bytes a crash could lose."""
        if self.out is None:
            return
        self._append_journals()
        doc = dataclasses.asdict(Checkpoint(
            version=CHECKPOINT_VERSION,
            config=self.config,
            state=SavedState(self.state.generation, self.state.stagnation),
            prompts=[dataclasses.replace(p, versions=[]) for p in self.prompts],
            llm_state=self.backend.state_dict() if isinstance(self.backend, MockBackend) else {},
            counters=Counters(self.llm_calls, self.optima,
                              {str(k): v for k, v in self.pending_repair.items()}),
            journals={name: journal.mark() for name, journal in self._journals.items()},
        ))
        path = self.out / "checkpoints" / f"gen-{self.state.generation:04d}.json"
        write_atomic(path, json.dumps(doc, sort_keys=True))

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        out_dir: str | Path | None = None,
        backend: Backend | None = None,
    ) -> "EvolutionRun":
        """Rebuild a run from its checkpoint and the journals beside it.

        The run directory is the checkpoint's grandparent (``<run>/checkpoints/gen-NNNN.json``).
        Everything is read and checked before any file is written: bad content, a journal
        that differs from what the checkpoint counts, or a candidate whose source the
        counted sources do not hold is a ConfigError. The islands' cells, the best
        candidate, the seeds' errors and the next candidate id come from the candidates.
        """
        root = Path(path).parent.parent
        try:
            doc = json.loads(Path(path).read_text())
            if doc["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported version {doc['version']!r}")
            ckpt = decode(Checkpoint, doc, "checkpoint")
            config, counters = ckpt.config, ckpt.counters
            if sorted(ckpt.journals) != sorted(JOURNALS):
                raise ConfigError(f"journals must name {', '.join(JOURNALS)}")
            prefixes = {name: _read_journal(root / name, ckpt.journals[name]) for name in JOURNALS}
            sources = {_source_sha256(s): s
                       for s in _decode_lines(str, SOURCE_JOURNAL, prefixes[SOURCE_JOURNAL])}
            registered = _decode_lines(Candidate, CANDIDATE_JOURNAL, prefixes[CANDIDATE_JOURNAL])
            seeds = registered[:len(config.seeds)]
            if len(seeds) < len(config.seeds) or any(
                c.island != 0 or c.strategy_used != "seed" or c.performance is None for c in seeds
            ):
                raise ConfigError(f"{CANDIDATE_JOURNAL} must open with island 0's scored seeds, "
                                  "one per config seed")
            state = EvolutionState.fresh(config.islands)
            state.generation, state.stagnation = ckpt.state.generation, ckpt.state.stagnation
            # Admit the candidates as the run did, each generation's migration once the
            # generation's candidates are all in: that rebuilds every island's cells.
            done = 0  # the generations below this one are all in
            for i, c in enumerate(registered, start=1):
                where = f"{CANDIDATE_JOURNAL} line {i}"
                # ids in sequence: unique, and the next one is c{len(state.candidates):06d}
                if c.id != f"c{i - 1:06d}":
                    raise ConfigError(f"{where}: {c.id!r} is out of sequence, "
                                      f"expected 'c{i - 1:06d}'")
                if c.source not in sources:
                    raise ConfigError(f"{where}: {SOURCE_JOURNAL} holds no source with "
                                      f"sha256 {c.source!r}")
                c.source = sources[c.source]
                if not 0 <= c.island < config.islands:
                    raise ConfigError(f"{where}: the run has no island {c.island}")
                if not done <= c.generation <= state.generation:
                    raise ConfigError(f"{where}: generation {c.generation} is out of order, "
                                      f"expected {done} to {state.generation}")
                cell = None if c.performance is None else descriptor(c)
                if c.descriptor != cell:
                    raise ConfigError(f"{where}: descriptor {c.descriptor} should be {cell}")
                for generation in range(done, c.generation):
                    if _migrates(config, generation):
                        arch.migrate(state, config.migrants_per_event)
                done = c.generation
                state.admit(c)
            for generation in range(done, state.generation + 1):
                if _migrates(config, generation):
                    arch.migrate(state, config.migrants_per_event)
            prompts = ckpt.prompts
            n_prompts = config.islands if config.per_island_prompts else 1
            if len(prompts) != n_prompts:
                raise ConfigError(f"prompts holds {len(prompts)} states, expected {n_prompts}")
            lines = _decode_lines(JournaledVersion, PROMPT_JOURNAL, prefixes[PROMPT_JOURNAL])
            for i, v in enumerate(lines, start=1):
                if not 0 <= v.prompt < n_prompts:
                    raise ConfigError(f"{PROMPT_JOURNAL} line {i}: the run has no prompt "
                                      f"{v.prompt}")
                held = prompts[v.prompt].versions
                if v.id != len(held):
                    raise ConfigError(f"{PROMPT_JOURNAL} line {i}: version {v.id} of prompt "
                                      f"{v.prompt} is out of sequence, expected {len(held)}")
                held.append(PromptVersion(v.id, v.text, v.created_at_generation))
            for i, pstate in enumerate(prompts):
                named = [pstate.current_id, *pstate.discarded]
                if pstate.watch is not None:
                    named += [pstate.watch.prior_id, pstate.watch.new_id]
                if not all(0 <= v < len(pstate.versions) for v in named):
                    raise ConfigError(f"prompts/{i} names a version it does not hold")
            experience = ExperienceStore.replay(_decode_lines(
                ExperienceRecord, EXPERIENCE_JOURNAL, prefixes[EXPERIENCE_JOURNAL]
            ), state.candidates)
            if not all(1 <= r.generation <= state.generation for r in experience.records):
                raise ConfigError("experience records must name generations 1 to state/generation")
            for i, r in enumerate(experience.records, start=1):
                if not 0 <= r.island < config.islands:
                    raise ConfigError(f"{EXPERIENCE_JOURNAL} line {i}: the run has no island "
                                      f"{r.island}")
                held = prompts[r.island if config.per_island_prompts else 0].versions
                if not 0 <= r.prompt_version < len(held):
                    raise ConfigError(f"{EXPERIENCE_JOURNAL} line {i}: prompt version "
                                      f"{r.prompt_version} is not held")
            events = _decode_lines(str, EVENT_JOURNAL, prefixes[EVENT_JOURNAL])
            pending_repair = {int(k): v for k, v in counters.pending_repair.items()}
            for island, cid in pending_repair.items():
                failed = experience.for_child(cid)
                if failed is None or failed.outcome != OUTCOME_FAILURE or failed.island != island:
                    raise ConfigError(f"counters/pending_repair/{island}: {cid!r} is no failed "
                                      "offspring of that island")
            for key, value in counters.optima.items():
                if not _SHA256_HEX.fullmatch(key):
                    raise ConfigError(f"counters/optima key {key!r} is not a sha256 hex digest")
                if not 0 < value < math.inf or (config.problem == "bpp" and value != int(value)):
                    raise ConfigError(f"counters/optima/{key} = {value} cannot be an optimum")
        except KeyError as exc:
            raise ConfigError(f"malformed checkpoint {path}: missing key {exc}") from None
        except (ConfigError, LookupError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed checkpoint {path}: {exc}") from None
        backend = backend if backend is not None else build_backend(config)
        if isinstance(backend, MockBackend):
            try:
                backend.load_state_dict(ckpt.llm_state)
            except ValueError as exc:
                raise ConfigError(f"malformed checkpoint {path}: llm_state: {exc}") from None
        run = cls(config, out_dir=out_dir, backend=backend, optima=counters.optima)
        run.state, run.prompts, run.experience, run.events = state, prompts, experience, events
        run.llm_calls, run.pending_repair = counters.llm_calls, pending_repair
        run.next_seq = len(state.candidates)  # a checkpoint registers every id handed out
        if run.out is not None:
            run._continue_files(prefixes, sources)
        return run

    def _continue_files(self, prefixes: dict[str, bytes], sources: dict[str, str]) -> None:
        """Make out hold the journal bytes the checkpoint counts, then journal onwards."""
        for name, data in prefixes.items():
            write_atomic(self.out / name, data)
        self._stored.update(sources)
        self._journals = {name: Journal(self.out / name, data) for name, data in prefixes.items()}
        self._versioned = [len(p.versions) for p in self.prompts]


def _migrates(config: RunConfig, generation: int) -> bool:
    """Whether the islands exchange elites at the end of ``generation``."""
    interval = config.migration_interval
    return config.islands > 1 and interval > 0 and generation > 0 and generation % interval == 0


def resume(checkpoint: str | Path, out_dir: str | Path | None = None,
           backend: Backend | None = None) -> RunReport:
    """Continue a checkpointed run to completion and write its report."""
    return EvolutionRun.from_checkpoint(checkpoint, out_dir=out_dir, backend=backend).run()


def write_report(report: RunReport, path: str | Path) -> None:
    write_atomic(Path(path), json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")


def write_atomic(path: Path, text: str | bytes) -> None:
    """Replace ``path`` with ``text`` through a synced file beside it; a crash leaves old or new."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(text.encode() if isinstance(text, str) else text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class SavedState:
    """What a checkpoint holds of the EvolutionState; the journals hold the rest."""

    generation: int
    stagnation: int


@dataclass
class Counters:
    llm_calls: int
    optima: dict[str, float]  # oracles.instance_key -> the optimum the run's oracle found
    pending_repair: dict[str, str]  # island, as a JSON key -> its failed offspring's id


@dataclass
class Checkpoint:
    """``checkpoints/gen-NNNN.json``: what of a run its journals cannot tell."""

    version: int
    config: RunConfig
    state: SavedState
    prompts: list[PromptState]  # with empty versions: prompts.jsonl holds them
    llm_state: dict[str, int]  # the mock script's cursors
    counters: Counters
    journals: dict[str, JournalMark]


@dataclass
class JournaledVersion(PromptVersion):  # one line of prompts.jsonl
    prompt: int  # the index of the prompt state in EvolutionRun.prompts


@dataclass
class JournalMark:
    """How much of a journal a checkpoint counts: its first ``bytes`` bytes, and their sha256."""

    bytes: int
    sha256: str


class Journal:
    """An append-only JSONL file, with its line count and the length and sha256 of its bytes."""

    def __init__(self, path: Path, data: bytes = b""):
        self.path = path
        self.lines = data.count(b"\n")
        self.size = len(data)
        self._hash = hashlib.sha256(data)

    def append(self, records: list) -> None:
        """One sorted-key JSON line per record, synced to disk."""
        data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()
        if not self.size:  # the first bytes replace any file a former run left there
            write_atomic(self.path, data)
        elif data:
            with self.path.open("ab") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        self.lines += len(records)
        self.size += len(data)
        self._hash.update(data)

    def mark(self) -> JournalMark:
        return JournalMark(self.size, self._hash.hexdigest())


def _read_journal(path: Path, mark: JournalMark) -> bytes:
    """The bytes of ``path`` that ``mark`` counts; ConfigError unless they hash as it says."""
    if mark.bytes < 0:
        raise ConfigError(f"journals/{path.name}/bytes must be >= 0")
    try:
        with path.open("rb") as fh:
            data = fh.read(mark.bytes)
    except FileNotFoundError:
        raise ConfigError(f"journal {path} is missing") from None
    if len(data) < mark.bytes:
        raise ConfigError(f"{path.name} holds {len(data)} bytes, "
                          f"the checkpoint counts {mark.bytes}")
    if hashlib.sha256(data).hexdigest() != mark.sha256:
        raise ConfigError(f"{path.name}: its first {mark.bytes} bytes do not match the "
                          "checkpoint's sha256")
    return data


def _decode_lines(tp, name: str, data: bytes) -> list:
    """Each line of journal bytes, decoded as ``tp``."""
    lines = data.decode().split("\n")
    if lines.pop():
        raise ConfigError(f"{name}: the checkpoint counts part of a line")
    out = []
    for i, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise ConfigError(f"{name} line {i}: {exc}") from None
        out.append(decode(tp, obj, f"{name} line {i}"))
    return out


def _source_sha256(source: str) -> str:
    """How ``candidates.jsonl`` names a source: the sha256 of its bytes."""
    return hashlib.sha256(source.encode("utf-8", "surrogatepass")).hexdigest()
