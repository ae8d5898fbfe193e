"""The closed evolution loop.

Each generation, every island selects a parent from its archive, samples a
mutation strategy from experience, composes a prompt, asks the LLM for an
offspring, evaluates it in a sandboxed subprocess, records the outcome,
and archives it if scored. The prompt then evolves from the generation's
experience and islands exchange elites on the migration schedule. With the
mock backend and a fixed seed the whole run is reproducible bit for bit,
and every generation is checkpointed for exact resume.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import re
import time
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import archive as arch
from .archive import EvolutionState, MigrationConfig, descriptor
from .codec import EXPECTED, decode
from .errors import ConfigError, EmptyResponseError, LlmError
from .evaluator import Candidate, RunnerConfig, evaluate_candidate
from .experience import (
    OUTCOME_FAILURE,
    ExperienceRecord,
    ExperienceStore,
    make_outcome,
    strategy_stats,
    summarize,
)
from .instances import InstanceSet, load_benchmark
from .llm import Backend, CompletionRequest, HttpBackend, MockBackend, complete, extract_code
from .oracles import ensure_optima
from .promptevo import (
    PromptState,
    compose_prompt,
    evolve_prompt,
    sample_strategy,
    strategy_pool,
)
from .seeds import SEEDS, seed_source

CHECKPOINT_VERSION = 6
REPORT_VERSION = 1
# EvolutionRun attributes a checkpoint holds besides the state, prompts,
# experience and llm cursors it rebuilds, with their JSON types.
# "optima" maps oracles.instance_key to the optimum the run's oracle found.
COUNTERS = {
    "base_errors": dict[str, float], "events": list[str], "llm_calls": int,
    "next_seq": int, "optima": dict[str, float], "pending_repair": dict[str, str],
}
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
        if not self.timeout_s > 0:
            raise ConfigError("timeout must be positive")
        if self.total_timeout_s is not None and not self.total_timeout_s > 0:
            raise ConfigError("total timeout must be positive when set")
        if self.migration_interval < 0:
            raise ConfigError("migration_interval must be >= 0 (0 disables migration)")
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
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
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
        """JSON values, as a checkpoint holds them; each is checked against its field's type."""
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
        instance_set: InstanceSet | None = None,
        optima: dict[str, float] | None = None,
    ):
        """``optima`` maps ``oracles.instance_key`` to solved optima; the run adds its own."""
        config.validate()
        self.config = config
        self.out = Path(out_dir) if out_dir is not None else None
        if self.out is not None:
            (self.out / "checkpoints").mkdir(parents=True, exist_ok=True)
        self.instances = instance_set if instance_set is not None else load_benchmark(
            config.instances
        )
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
        self.state = EvolutionState.fresh(config.islands, config.rng_seed)
        exp_path = self.out / "experience.jsonl" if self.out else None
        self.experience = ExperienceStore(exp_path, self.state.candidates)
        n_prompts = config.islands if config.per_island_prompts else 1
        self.prompts = [PromptState.initial(config.problem) for _ in range(n_prompts)]
        self.base_errors: dict[str, float] = {}
        self.events: list[str] = []
        self.llm_calls = 0
        self.next_seq = 0
        self.pending_repair: dict[int, str] = {}

    # -- id and prompt helpers ------------------------------------------

    def _next_id(self) -> str:
        cid = f"c{self.next_seq:06d}"
        self.next_seq += 1
        return cid

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

    def _complete(self, prompt: str, tag: str) -> str | None:
        """One guarded completion; None means the call failed or was capped."""
        if self.config.llm_call_cap is not None and self.llm_calls >= self.config.llm_call_cap:
            self.events.append(f"gen {self.state.generation}: llm call cap reached")
            return None
        self.llm_calls += 1
        try:
            return complete(self.backend, self._request(prompt, tag)).text
        except LlmError as exc:
            self.events.append(f"gen {self.state.generation}: llm failure ({exc})")
            return None

    # -- loop phases -----------------------------------------------------

    def _admit(self, candidate: Candidate) -> None:
        """Register an evaluated candidate; archive it if it scored."""
        self.state.register(candidate)
        if candidate.performance is not None:
            candidate.descriptor = descriptor(candidate)
            self.state.islands[candidate.island].insert(candidate, candidate.generation)
            self.state.update_best(candidate)

    def init_population(self) -> EvolutionState:
        """Evaluate the configured seeds and plant them on every island."""
        if self.state.candidates:
            return self.state
        for name in self.config.seeds:
            probe = Candidate(id=f"probe-{name}", source=seed_source(name))
            report = evaluate_candidate(probe, self.instances, self.runner_cfg)
            if report.mean_relative_error is None:
                raise ConfigError(
                    f"seed {name!r} failed evaluation ({report.failure_class}): "
                    f"{report.diagnostic}"
                )
            self.base_errors[name] = report.mean_relative_error
        for island in self.state.islands:
            for name in self.config.seeds:
                self._admit(Candidate(
                    id=self._next_id(),
                    source=seed_source(name),
                    island=island.island_id,
                    generation=0,
                    strategy_used="seed",
                    performance=-self.base_errors[name],
                ))
        self._write_checkpoint()
        return self.state

    def _evolve_island(self, island_idx: int, generation: int) -> None:
        """One offspring attempt: evaluated, admitted and recorded, or skipped with an event."""
        island = self.state.islands[island_idx]
        if not island.cells:
            return
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
            parent = arch.select_parent(
                island, self.state.rng, epsilon, self.state.candidates
            )
            strategy = sample_strategy(
                strategy_stats(self.experience),
                temperature=self.config.strategy_temperature,
                rng=self.state.rng,
            )
            strategy_name = strategy.name

        summary = summarize(self.experience, self.config.experience_window)
        prompt = compose_prompt(pstate, strategy, parent, summary, failure)

        text = self._complete(prompt, tag="generate")
        if text is None:
            return
        try:
            source = extract_code(text)
        except EmptyResponseError:
            self.events.append(f"gen {generation}: island {island_idx} empty completion")
            return

        child = Candidate(
            id=self._next_id(),
            source=source,
            parent_id=parent.id,
            island=island_idx,
            generation=generation,
            strategy_used=strategy_name,
        )
        report = evaluate_candidate(child, self.instances, self.runner_cfg)
        self._admit(child)

        error = report.mean_relative_error
        if error is None:
            outcome, delta = OUTCOME_FAILURE, None
            if self.config.repair_failed_offspring:
                self.pending_repair[island_idx] = child.id
        else:
            parent_error = error if parent.performance is None else -parent.performance
            outcome, delta = make_outcome(parent_error, error)
        self.experience.record(ExperienceRecord(
            generation=generation,
            island=island_idx,
            parent_id=parent.id,
            child_id=child.id,
            strategy_used=strategy_name,
            prompt_version=pstate.current_id,
            outcome=outcome,
            delta=delta,
            child_error=error,
            failure_class=report.failure_class,
            diagnostic=report.diagnostic,
        ))
        pstate.attribute(pstate.current_id, outcome)

    def step(self) -> EvolutionState:
        """Run exactly one generation across the islands."""
        if not self.state.candidates:
            raise ConfigError("run not initialized; call init_population first")
        generation = self.state.generation + 1
        if self.config.island_per_iteration:
            island_ids = [arch.select_island(self.state, self.state.rng)]
        else:
            island_ids = [isl.island_id for isl in self.state.islands]

        best_before = self.state.best_so_far.performance
        for island_idx in island_ids:
            self._evolve_island(island_idx, generation)

        self.state.generation = generation
        improved = self.state.best_so_far.performance > best_before
        self.state.stagnation = 0 if improved else self.state.stagnation + 1
        best_error = -self.state.best_so_far.performance

        evolve_now = generation % self.config.prompt_update_interval == 0
        summary = summarize(self.experience, self.config.experience_window)
        for pstate in self.prompts:
            pstate.observe(generation, best_error)
            if not evolve_now:
                continue
            if self.config.llm_call_cap is not None and self.llm_calls >= self.config.llm_call_cap:
                self.events.append(f"gen {generation}: llm call cap reached; prompt kept")
                continue
            self.llm_calls += 1
            evolve_prompt(
                pstate,
                summary,
                self.backend,
                generation,
                request_defaults={
                    "temperature": self.config.temperature,
                    "top_p": self.config.top_p,
                    "max_tokens": self.config.max_tokens,
                    "model": self.config.model,
                },
            )

        if (
            self.config.migration_interval > 0
            and generation % self.config.migration_interval == 0
            and len(self.state.islands) > 1
        ):
            mig = arch.migrate(
                self.state,
                MigrationConfig(migrants_per_event=self.config.migrants_per_event),
            )
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
        prompt_versions = []
        for i, pstate in enumerate(self.prompts):
            for v in pstate.versions:
                entry = {
                    "id": v.id,
                    "created_at_generation": v.created_at_generation,
                    "discarded": v.discarded,
                    "outcomes": dict(sorted(v.outcomes.items())),
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

    def checkpoint_dict(self) -> dict:
        llm_state = self.backend.state_dict() if isinstance(self.backend, MockBackend) else {}
        counters = {name: getattr(self, name) for name in COUNTERS}
        counters["pending_repair"] = {str(k): v for k, v in self.pending_repair.items()}
        return {
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "state": self.state.to_dict(),
            "prompts": [p.to_dict() for p in self.prompts],
            "experience": self.experience.to_dict(),
            "llm_state": llm_state,
            "counters": counters,
        }

    def _write_checkpoint(self) -> None:
        if self.out is None:
            return
        path = self.out / "checkpoints" / f"gen-{self.state.generation:04d}.json"
        write_atomic(path, json.dumps(self.checkpoint_dict(), sort_keys=True))

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        out_dir: str | Path | None = None,
        backend: Backend | None = None,
    ) -> "EvolutionRun":
        """Rebuild a run from its checkpoint; bad content is a ConfigError, before any write."""
        try:
            doc = json.loads(Path(path).read_text())
            if doc["version"] != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported version {doc['version']!r}")
            config = RunConfig.from_dict(doc["config"])
            state = EvolutionState.from_dict(doc["state"])
            if len(state.islands) != config.islands:
                raise ConfigError(
                    f"state/logs holds {len(state.islands)} islands, config has {config.islands}"
                )
            prompts = decode(list[PromptState], doc["prompts"], "prompts")
            n_prompts = config.islands if config.per_island_prompts else 1
            if len(prompts) != n_prompts:
                raise ConfigError(f"prompts holds {len(prompts)} states, expected {n_prompts}")
            for i, pstate in enumerate(prompts):
                named = [pstate.current_id]
                if pstate.watch is not None:
                    named += [pstate.watch.prior_id, pstate.watch.new_id]
                if not all(0 <= v < len(pstate.versions) for v in named):
                    raise ConfigError(f"prompts/{i} names a version it does not hold")
            experience = ExperienceStore.from_dict(doc["experience"], known=state.candidates)
            if not all(1 <= r.generation <= state.generation for r in experience.records):
                raise ConfigError("experience records must name generations 1 to state/generation")
            llm_state = decode(dict[str, int], doc["llm_state"], "llm_state")
            counters = {name: decode(kind, doc["counters"][name], f"counters/{name}")
                        for name, kind in COUNTERS.items()}
            counters["pending_repair"] = {int(k): v for k, v in counters["pending_repair"].items()}
            for island, cid in counters["pending_repair"].items():
                failed = experience.for_child(cid)
                if failed is None or failed.outcome != OUTCOME_FAILURE or failed.island != island:
                    raise ConfigError(f"counters/pending_repair/{island}: {cid!r} is no failed "
                                      "offspring of that island")
            for key, value in counters["optima"].items():
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
                backend.load_state_dict(llm_state)
            except ValueError as exc:
                raise ConfigError(f"malformed checkpoint {path}: llm_state: {exc}") from None
        run = cls(config, out_dir=out_dir, backend=backend, optima=counters.pop("optima"))
        run.state, run.prompts, run.experience = state, prompts, experience
        experience.mirror_to(run.out / "experience.jsonl" if run.out else None)
        for name, value in counters.items():
            setattr(run, name, value)
        return run


def resume(checkpoint: str | Path, out_dir: str | Path | None = None,
           backend: Backend | None = None) -> RunReport:
    """Continue a checkpointed run to completion and write its report."""
    return EvolutionRun.from_checkpoint(checkpoint, out_dir=out_dir, backend=backend).run()


def write_report(report: RunReport, path: str | Path) -> None:
    write_atomic(Path(path), json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` through a synced file beside it; a crash leaves old or new."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
