"""Mutation-prompt state, the five-strategy pool, and prompt composition.

Prompts are versioned: the meta-prompt asks the LLM to rewrite the current
version from experience, and a version that fails to beat the pre-switch
baseline for two straight generations is reverted. Strategy directives are
sampled by softmax over experience-smoothed improvement means.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import asdict, dataclass, field
from importlib import resources

from .codec import decode
from .errors import LlmError
from .evaluator import Candidate
from .experience import ExperienceRecord, ExperienceSummary, render_summary
from .llm import Backend, CompletionRequest, complete

REVERT_PROBATION = 2  # generations a new version has to beat the baseline
BASELINE_SPAN = 3  # pre-switch moving-average width


@dataclass(frozen=True)
class Strategy:
    name: str
    directive: str
    rank: int  # 1 = most conservative ... 5 = most exploratory


_POOL = (
    Strategy(
        "parameter-modification",
        "Keep the algorithm's control flow and logic exactly as they are. Find the "
        "hard-coded constants, thresholds, weights, or other tunable values and adjust "
        "them to squeeze more quality out of the existing approach.",
        1,
    ),
    Strategy(
        "redundancy-removal",
        "Make the program leaner without changing what it computes: eliminate repeated "
        "work, hoist loop-invariant computation, simplify convoluted passages, and delete "
        "dead code, so the same logic runs faster within the time limit.",
        2,
    ),
    Strategy(
        "structural-modification",
        "Reorganize the implementation: change how loops nest, swap in different data "
        "structures, or reorder the main phases. The underlying idea may stay "
        "recognizable, but its structure should genuinely change.",
        3,
    ),
    Strategy(
        "heuristic-rewrite",
        "Pick one core decision rule or submodule and replace it with new logic that "
        "plays the same role, equivalent or better. Leave the rest of the algorithm "
        "intact so the innovation is isolated to that key step.",
        4,
    ),
    Strategy(
        "complete-rewrite",
        "Abandon the current implementation entirely and write a new program from "
        "scratch for the same problem. Do not feel bound by the previous approach; only "
        "the input/output contract must be preserved.",
        5,
    ),
)

REPAIR_DIRECTIVE = (
    "The program above is broken: it did not produce a valid solution. Your only task "
    "is to repair it. Read the error report, find the fault, fix it, and verify the "
    "program emits a well-formed solution document. Do not attempt performance "
    "optimization until the program runs correctly."
)


def strategy_pool() -> tuple[Strategy, ...]:
    """All five strategies in exploration-rank order."""
    return _POOL


def get_strategy(name: str) -> Strategy:
    for s in _POOL:
        if s.name == name:
            return s
    raise KeyError(f"unknown strategy {name!r}")


def sample_strategy(
    stats: dict[str, float], temperature: float = 1.0, rng: random.Random | None = None
) -> Strategy:
    """Softmax over smoothed mean improvements; empty stats means uniform."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    rng = rng or random.Random()
    scores = [stats.get(s.name, 0.0) / temperature for s in _POOL]
    peak = max(scores)
    weights = [math.exp(v - peak) for v in scores]
    total = sum(weights)
    draw = rng.random() * total
    acc = 0.0
    for strategy, w in zip(_POOL, weights):
        acc += w
        if draw < acc:
            return strategy
    return _POOL[-1]


@functools.cache
def _load_template(name: str) -> str:
    return resources.files("coevo.templates").joinpath(f"{name}.txt").read_text()


@dataclass
class PromptVersion:
    id: int
    text: str
    created_at_generation: int
    discarded: bool = False


@dataclass
class Watch:
    """An armed revert watchdog: the switch it judges and the baseline to beat."""

    switch_generation: int
    prior_id: int
    new_id: int
    baseline: float


@dataclass
class PromptState:
    """Append-only version history with a revert watchdog."""

    task: str  # "tsp" | "bpp"
    versions: list[PromptVersion] = field(default_factory=list)
    current_id: int = 0
    events: list[str] = field(default_factory=list)
    history: list[tuple[int, float]] = field(default_factory=list)  # (generation, best error)
    watch: Watch | None = None

    @classmethod
    def initial(cls, task: str) -> "PromptState":
        if task not in ("tsp", "bpp"):
            raise ValueError(f"unknown task {task!r}")
        state = cls(task=task)
        state.versions.append(PromptVersion(0, _load_template(task), 0))
        return state

    def current(self) -> PromptVersion:
        return self.versions[self.current_id]

    def adopt(self, text: str, generation: int) -> PromptVersion:
        """Append a new version, switch to it, and arm the revert watchdog."""
        prior_id = self.current_id
        version = PromptVersion(len(self.versions), text, generation)
        self.versions.append(version)
        self.current_id = version.id
        recent = [err for _, err in self.history[-BASELINE_SPAN:]]
        baseline = sum(recent) / len(recent) if recent else math.inf
        self.watch = Watch(generation, prior_id, version.id, baseline)
        self.events.append(f"gen {generation}: adopted version {version.id}")
        return version

    def observe(self, generation: int, best_error: float) -> bool:
        """Record a generation's best error; True when a revert fired.

        A switch is judged on the two generations after it: if neither
        strictly beats the pre-switch moving-average baseline, the switch
        is reverted. A newer switch supersedes the watchdog.
        """
        self.history.append((generation, best_error))
        if self.watch is None:
            return False
        post = [err for g, err in self.history if g > self.watch.switch_generation]
        if len(post) < REVERT_PROBATION:
            return False
        baseline = self.watch.baseline
        if all(err >= baseline for err in post[:REVERT_PROBATION]):
            new_id = self.watch.new_id
            prior_id = self.watch.prior_id
            self.versions[new_id].discarded = True
            self.current_id = prior_id
            self.events.append(
                f"gen {generation}: reverted version {new_id} to {prior_id} "
                f"(no improvement over baseline {baseline:.4f})"
            )
            self.watch = None
            return True
        self.watch = None
        return False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PromptState":
        return decode(cls, d, "prompt")


_PLACEHOLDER = re.compile(
    r"\{(parent-source|performance|diagnostics|experience-summary|strategy-directive)\}"
)

_SECTION_LABELS = {
    "parent-source": "Current heuristic",
    "performance": "Execution record",
    "diagnostics": "Diagnostics",
    "experience-summary": "Recent experience",
    "strategy-directive": "Your task",
}


def compose_prompt(
    state: PromptState,
    strategy: Strategy,
    parent: Candidate,
    summary: ExperienceSummary,
    failure: ExperienceRecord | None = None,
) -> str:
    """Deterministic prompt assembly from the current version.

    Given ``failure``, the parent's failure record, repair instructions replace
    the strategy directive entirely; otherwise exactly one strategy directive
    is embedded. Placeholders are filled in a single pass, and any required
    section missing from an evolved version is appended so the parent
    source always reaches the model verbatim.
    """
    if failure is not None:
        performance = "The program FAILED evaluation: no valid solution on every instance."
        diagnostics = f"Failure class: {failure.failure_class}\nError report:\n{failure.diagnostic}"
        directive = REPAIR_DIRECTIVE
    else:
        performance = (
            f"Mean relative error over the instance set: {-parent.performance:.4f}% "
            "(lower is better; 0% matches the optimum)."
        )
        diagnostics = "No errors: the program produced valid solutions on every instance."
        directive = strategy.directive

    values = {
        "parent-source": parent.source,
        "performance": performance,
        "diagnostics": diagnostics,
        "experience-summary": render_summary(summary),
        "strategy-directive": directive,
    }

    filled: set[str] = set()

    def substitute(match: re.Match) -> str:
        key = match.group(1)
        filled.add(key)
        return values[key]

    text = _PLACEHOLDER.sub(substitute, state.current().text)
    for key in ("parent-source", "performance", "diagnostics", "experience-summary",
                "strategy-directive"):
        if key not in filled:
            text += f"\n\n{_SECTION_LABELS[key]}:\n{values[key]}"
    return text


def evolve_prompt(
    state: PromptState,
    summary: ExperienceSummary,
    backend: Backend,
    generation: int,
    request_defaults: dict | None = None,
) -> bool:
    """One meta-evolution round trip; True when a new version was adopted.

    Transport failures leave the current version in place and only log the
    event — the evolution loop continues.
    """
    values = {
        "current-prompt": state.current().text,
        "experience-summary": render_summary(summary),
    }
    # single pass so placeholders inside the embedded prompt survive intact
    meta = re.sub(
        r"\{(current-prompt|experience-summary)\}",
        lambda m: values[m.group(1)],
        _load_template("meta"),
    )
    defaults = request_defaults or {}
    request = CompletionRequest(
        messages=(("user", meta),),
        tag="prompt-evolve",
        **defaults,
    )
    try:
        response = complete(backend, request)
    except LlmError as exc:
        state.events.append(f"gen {generation}: prompt evolution failed ({exc}); version kept")
        return False
    text = response.text.strip()
    if not text:
        state.events.append(f"gen {generation}: prompt evolution returned empty text; version kept")
        return False
    state.adopt(text, generation)
    return True
