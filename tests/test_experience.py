import json
from dataclasses import asdict

import pytest

from coevo.codec import decode
from coevo.errors import ConfigError, DanglingReferenceError
from coevo.experience import (
    ExperienceRecord,
    ExperienceStore,
    make_outcome,
    render_summary,
    strategy_stats,
    summarize,
)


def rec(gen=1, child="c1", parent="c0", strategy="parameter-modification",
        outcome="improved", delta=1.0, child_error=None, failure_class=None, diag=""):
    if outcome == "failure":
        delta = None
    return ExperienceRecord(
        generation=gen,
        island=0,
        parent_id=parent,
        child_id=child,
        strategy_used=strategy,
        prompt_version=0,
        outcome=outcome,
        delta=delta,
        child_error=child_error,
        failure_class=failure_class,
        diagnostic=diag,
    )


def store_with(*records):
    known = {r.parent_id for r in records if r.parent_id} | {r.child_id for r in records}
    store = ExperienceStore(known=known)
    for r in records:
        store.record(r)
    return store


def test_append_and_read_back_in_order():
    a = rec(child="c1")
    b = rec(child="c2", outcome="no-improvement", delta=-0.5)
    store = store_with(a, b)
    assert len(store) == 2
    assert store.records == (a, b)


def test_dangling_references_rejected():
    known = {"c0"}
    store = ExperienceStore(known=known)
    with pytest.raises(DanglingReferenceError, match="ghost"):
        store.record(rec(child="ghost", parent="c0"))
    known.add("c1")
    with pytest.raises(DanglingReferenceError, match="nope"):
        store.record(rec(child="c1", parent="nope"))


def test_records_are_validated():
    with pytest.raises(ValueError, match="delta"):
        ExperienceRecord(1, 0, "p", "c", "s", 0, "improved", delta=None)
    with pytest.raises(ValueError, match="no delta"):
        ExperienceRecord(1, 0, "p", "c", "s", 0, "failure", delta=1.0)
    with pytest.raises(ValueError, match="unknown outcome"):
        ExperienceRecord(1, 0, "p", "c", "s", 0, "sideways", delta=1.0)


def test_make_outcome_sign_convention():
    assert make_outcome(10.0, 7.0) == ("improved", 3.0)
    assert make_outcome(5.0, 5.0) == ("no-improvement", 0.0)
    assert make_outcome(5.0, 9.0) == ("no-improvement", -4.0)


def test_store_roundtrip():
    store = store_with(rec(child="c1"), rec(child="c2", outcome="failure",
                                            failure_class="timeout", diag="slow"))
    lines = [json.dumps(asdict(r), sort_keys=True) for r in store.records]
    records = [decode(ExperienceRecord, json.loads(line), "line") for line in lines]
    again = ExperienceStore.replay(records, {"c0", "c1", "c2"})
    assert again.records == store.records


def test_replayed_record_naming_an_unknown_candidate_is_a_config_error():
    records = store_with(rec(child="c1"), rec(child="c2", parent="c1")).records
    for known, message in [
        ({"c0", "c1"}, "experience.jsonl line 2: unknown child candidate 'c2'"),
        ({"c1", "c2"}, "experience.jsonl line 1: unknown parent candidate 'c0'"),
    ]:
        with pytest.raises(ConfigError, match=message):
            ExperienceStore.replay(records, known)


def test_summarize_empty_store():
    summary = summarize(ExperienceStore())
    assert summary.window == (0, 0)
    assert summary.strategies == {}
    assert summary.failures == []
    assert summary.top is None


def test_summarize_single_improvement():
    store = store_with(rec(delta=3.0, child_error=5.0))
    summary = summarize(store)
    stat = summary.strategies["parameter-modification"]
    assert (stat.attempts, stat.successes) == (1, 1)
    assert stat.mean_improvement == 3.0


def test_summarize_two_strategies_means():
    store = store_with(
        rec(child="c1", strategy="heuristic-rewrite", delta=2.0),
        rec(child="c2", strategy="heuristic-rewrite", delta=4.0),
        rec(child="c3", strategy="complete-rewrite", outcome="no-improvement", delta=-1.0),
    )
    summary = summarize(store)
    assert summary.strategies["heuristic-rewrite"].mean_improvement == 3.0
    assert summary.strategies["complete-rewrite"].mean_improvement == -1.0


def test_summarize_window_excludes_old_generations():
    store = store_with(
        rec(gen=1, child="c1", delta=9.0),
        rec(gen=8, child="c2", strategy="complete-rewrite", delta=1.0),
    )
    summary = summarize(store, window=5)
    assert summary.window == (4, 8)
    assert "parameter-modification" not in summary.strategies
    assert "complete-rewrite" in summary.strategies


def test_summarize_failure_digests_and_top():
    store = store_with(
        rec(child="c1", delta=1.0, child_error=4.0),
        rec(child="c2", outcome="failure", failure_class="timeout", diag="too slow"),
        rec(child="c3", outcome="failure", failure_class="timeout", diag="again"),
    )
    summary = summarize(store)
    assert len(summary.failures) == 1
    digest = summary.failures[0]
    assert (digest.failure_class, digest.count, digest.example) == ("timeout", 2, "too slow")
    assert summary.top.candidate_id == "c1"
    assert summary.top.mean_error == 4.0
    assert summary.top.strategy_lineage[-1] == "parameter-modification"
    assert summary.top.strategy_lineage[0] == "seed"


def test_summary_is_pure_projection():
    store = store_with(rec(child="c1", delta=2.0), rec(child="c2", delta=1.0))
    assert summarize(store) == summarize(store)


def test_strategy_stats_smoothing():
    assert strategy_stats(ExperienceStore()) == {}
    one = store_with(rec(delta=4.0))
    assert strategy_stats(one)["parameter-modification"] == 2.0  # (4 + 0) / (1 + 1)


def test_strategy_stats_failures_count_as_zero_delta():
    store = store_with(
        rec(child="c1", delta=4.0),
        rec(child="c2", outcome="failure", failure_class="timeout"),
    )
    # (4 + 0 + prior 0) / (2 + 1)
    assert strategy_stats(store)["parameter-modification"] == pytest.approx(4 / 3)


def test_strategy_stats_converges_to_constant_delta():
    records = [rec(gen=i, child=f"c{i}", delta=2.5) for i in range(1, 401)]
    store = store_with(*records)
    assert strategy_stats(store)["parameter-modification"] == pytest.approx(2.5, abs=0.01)


def test_attempt_totals_match_generation_events():
    records = [
        rec(child="c1", strategy="parameter-modification", delta=1.0),
        rec(child="c2", strategy="complete-rewrite", outcome="failure", failure_class="x"),
        rec(child="c3", strategy="heuristic-rewrite", outcome="no-improvement", delta=0.0),
    ]
    store = store_with(*records)
    summary = summarize(store)
    assert sum(s.attempts for s in summary.strategies.values()) == len(records)


def test_render_summary_fixed_template():
    store = store_with(rec(delta=3.0, child_error=2.0))
    text = render_summary(summarize(store))
    assert "parameter-modification: 1 attempts, 1 improvements" in text
    assert "+3.00%" in text
    assert render_summary(summarize(store)) == text
    assert "no mutation outcomes" in render_summary(summarize(ExperienceStore()))
