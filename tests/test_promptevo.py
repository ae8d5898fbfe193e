import json
import random
from dataclasses import asdict

import pytest

from coevo.codec import decode
from coevo.evaluator import Candidate
from coevo.experience import OUTCOME_FAILURE, ExperienceRecord, ExperienceStore, summarize
from coevo.llm import MockBackend
from coevo.promptevo import (
    BASELINE_SPAN,
    REPAIR_DIRECTIVE,
    REVERT_PROBATION,
    PromptState,
    compose_prompt,
    evolve_prompt,
    sample_strategy,
    strategy_pool,
)

CHI2_CRIT_DF4_P01 = 13.2767


def empty_summary():
    return summarize(ExperienceStore())


def failed_record():
    return ExperienceRecord(
        generation=1,
        island=0,
        parent_id="grandparent",
        child_id="parent",
        strategy_used="complete-rewrite",
        prompt_version=0,
        outcome=OUTCOME_FAILURE,
        failure_class="timeout",
        diagnostic="process terminated at timeout; stuck in loop",
    )


PARENT = Candidate(id="parent", source="def solve():\n    return [0, 1, 2]\n",
                   performance=-5.0)


# --- strategy pool ------------------------------------------------------------


def test_pool_has_five_ranked_strategies():
    pool = strategy_pool()
    assert len(pool) == 5
    assert [s.rank for s in pool] == [1, 2, 3, 4, 5]
    assert len({s.name for s in pool}) == 5
    assert pool[0].name == "parameter-modification"
    assert pool[-1].name == "complete-rewrite"
    assert all(s.directive for s in pool)


# --- sampling -------------------------------------------------------------------


def test_sampling_uniform_on_empty_stats():
    rng = random.Random(5)
    counts = {s.name: 0 for s in strategy_pool()}
    for _ in range(10000):
        counts[sample_strategy({}, rng=rng).name] += 1
    expected = 10000 / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_DF4_P01
    assert all(c > 0 for c in counts.values())  # no strategy starved


def test_dominant_mean_is_modal():
    rng = random.Random(6)
    stats = {"heuristic-rewrite": 5.0}
    counts = {s.name: 0 for s in strategy_pool()}
    for _ in range(4000):
        counts[sample_strategy(stats, rng=rng).name] += 1
    assert max(counts, key=counts.get) == "heuristic-rewrite"
    assert all(c > 0 for c in counts.values())


def test_low_temperature_approaches_argmax():
    rng = random.Random(7)
    stats = {"complete-rewrite": 1.0}
    picks = [sample_strategy(stats, temperature=0.01, rng=rng).name for _ in range(300)]
    assert set(picks) == {"complete-rewrite"}


def test_sampling_rejects_bad_temperature():
    with pytest.raises(ValueError, match="positive"):
        sample_strategy({}, temperature=0.0, rng=random.Random(0))


def test_sampling_deterministic_given_seed():
    stats = {"structural-modification": 2.0}
    a = [sample_strategy(stats, rng=random.Random(3)).name for _ in range(50)]
    b = [sample_strategy(stats, rng=random.Random(3)).name for _ in range(50)]
    assert a == b


# --- prompt state ----------------------------------------------------------------


def test_initial_state_loads_task_template():
    for task in ("tsp", "bpp"):
        state = PromptState.initial(task)
        assert state.current_id == 0
        assert "{parent-source}" in state.current().text
        assert "{strategy-directive}" in state.current().text
    with pytest.raises(ValueError):
        PromptState.initial("sat")


def test_state_roundtrip():
    state = PromptState.initial("tsp")
    state.adopt("new prompt {parent-source}", generation=3)
    state.observe(4, 5.0)
    clone = decode(PromptState, json.loads(json.dumps(asdict(state))), "prompt")
    assert clone.current_id == state.current_id
    assert clone.versions[1].text == "new prompt {parent-source}"
    assert clone.history == state.history


# --- composition --------------------------------------------------------------------


def test_compose_embeds_parent_source_verbatim():
    state = PromptState.initial("tsp")
    strategy = strategy_pool()[2]
    text = compose_prompt(state, strategy, PARENT, empty_summary())
    assert PARENT.source in text
    assert text.count(strategy.directive) == 1
    assert REPAIR_DIRECTIVE not in text


def test_compose_failure_parent_switches_to_repair():
    state = PromptState.initial("tsp")
    strategy = strategy_pool()[4]
    text = compose_prompt(state, strategy, PARENT, empty_summary(), failed_record())
    assert "stuck in loop" in text  # diagnostic excerpt
    assert REPAIR_DIRECTIVE in text
    for s in strategy_pool():
        assert s.directive not in text


def test_compose_is_deterministic():
    state = PromptState.initial("bpp")
    strategy = strategy_pool()[0]
    a = compose_prompt(state, strategy, PARENT, empty_summary())
    b = compose_prompt(state, strategy, PARENT, empty_summary())
    assert a == b


def test_compose_appends_sections_missing_from_evolved_version():
    state = PromptState.initial("tsp")
    state.adopt("Just improve the code.", generation=1)  # no placeholders at all
    strategy = strategy_pool()[1]
    text = compose_prompt(state, strategy, PARENT, empty_summary())
    assert PARENT.source in text
    assert text.count(strategy.directive) == 1
    assert text.startswith("Just improve the code.")


def test_compose_does_not_rescan_inserted_content():
    state = PromptState.initial("tsp")
    sneaky = Candidate(id="sneak", source="print('{strategy-directive}')", performance=-1.0)
    strategy = strategy_pool()[0]
    text = compose_prompt(state, strategy, sneaky, empty_summary())
    assert "print('{strategy-directive}')" in text


# --- evolution and revert --------------------------------------------------------------


def test_evolve_adopts_mock_response():
    state = PromptState.initial("tsp")
    backend = MockBackend(["shiny new prompt {parent-source}"])
    event = evolve_prompt(state, empty_summary(), backend, generation=2)
    assert event == "gen 2: adopted version 1"
    assert state.current().text == "shiny new prompt {parent-source}"
    assert len(state.versions) == 2
    assert state.versions[1].created_at_generation == 2


def test_evolve_meta_prompt_preserves_embedded_placeholders():
    state = PromptState.initial("tsp")

    captured = {}

    class Spy:
        def complete_once(self, request):
            captured["prompt"] = request.messages[0][1]
            from coevo.llm import CompletionResponse

            return CompletionResponse(text="ok prompt")

    evolve_prompt(state, empty_summary(), Spy(), generation=1)
    # the embedded current prompt keeps its substitution tokens for reuse
    assert "{parent-source}" in captured["prompt"]
    assert captured["prompt"].count("{current-prompt}") == 0


def test_evolve_llm_failure_keeps_version():
    state = PromptState.initial("tsp")
    backend = MockBackend([])  # exhausted from the start
    event = evolve_prompt(state, empty_summary(), backend, generation=1)
    assert state.current_id == 0
    assert len(state.versions) == 1
    assert "failed" in event


def test_two_stagnant_generations_revert_to_prior_version():
    state = PromptState.initial("tsp")
    for gen, err in ((1, 10.0), (2, 9.0), (3, 8.0)):
        state.observe(gen, err)
    state.adopt("risky rewrite", generation=3)
    assert state.current_id == 1
    state.observe(4, 9.5)  # baseline is mean(10, 9, 8) = 9.0; both fail to beat it
    reverted = state.observe(5, 9.0)
    assert "reverted" in reverted
    assert state.current_id == 0
    assert state.discarded == [1]
    assert len(state.versions) == 2  # versions are immutable; a revert only marks the id


def test_improvement_below_baseline_cancels_revert():
    state = PromptState.initial("tsp")
    for gen, err in ((1, 10.0), (2, 9.0), (3, 8.0)):
        state.observe(gen, err)
    state.adopt("useful rewrite", generation=3)
    state.observe(4, 7.0)  # beats the 9.0 baseline immediately
    reverted = state.observe(5, 12.0)
    assert reverted is None
    assert state.current_id == 1
    assert state.discarded == []


def test_newer_switch_supersedes_watchdog():
    state = PromptState.initial("tsp")
    state.observe(1, 10.0)
    state.adopt("v1", generation=1)
    state.observe(2, 10.0)
    state.adopt("v2", generation=2)  # supersedes the v1 watch
    state.observe(3, 10.0)
    reverted = state.observe(4, 10.0)
    assert "reverted version 2" in reverted  # v2 judged and reverted
    assert state.current_id == 1
    assert state.discarded == [2]


def test_history_keeps_only_what_the_watchdog_reads():
    # the trim is exact only while every post-switch entry the watchdog reads is kept
    assert REVERT_PROBATION <= BASELINE_SPAN
    state = PromptState.initial("tsp")
    for gen in range(1, 200):
        state.observe(gen, 100.0 - gen / 10)
        if gen % 7 == 0:
            state.adopt(f"v{gen}", generation=gen)
        assert len(state.history) <= BASELINE_SPAN
    assert state.history == [(gen, 100.0 - gen / 10) for gen in (197, 198, 199)]
