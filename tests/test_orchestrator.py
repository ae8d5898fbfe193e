import dataclasses
import hashlib
import json
import os
import random
import shutil
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    TRAP4,
    UNIT_SQUARE,
    edit_journal_line,
    run_files,
    write_euc2d_file,
    write_mock_script,
    write_tsp_file,
)
from coevo import archive, evaluator, oracles, orchestrator
from coevo.errors import ConfigError
from coevo.evaluator import FAIL_START
from coevo.experience import render_summary, summarize
from coevo.instances import load_benchmark
from coevo.llm import MockBackend
from coevo.orchestrator import JOURNALS, EvolutionRun, RunConfig, resume
from coevo.promptevo import REPAIR_DIRECTIVE
from coevo.seeds import seed_source

NN = seed_source("nearest-neighbor")
TWO_OPT = seed_source("two-opt")
BROKEN = "def broken(:\n"


def bench_dir(tmp_path):
    inst = tmp_path / "instances"
    inst.mkdir(exist_ok=True)
    write_tsp_file(inst / "trap4.tsp", "trap4", TRAP4)
    write_euc2d_file(inst / "square.tsp", "square", UNIT_SQUARE)
    (inst / "optima.txt").write_text("trap4 6\nsquare 4\n")
    return inst


def config_for(tmp_path, script_path, **kw):
    defaults = dict(
        problem="tsp",
        instances=str(bench_dir(tmp_path)),
        seeds=("nearest-neighbor",),
        iterations=3,
        islands=2,
        migration_interval=2,
        timeout_s=30.0,
        rng_seed=1,
        backend="mock",
        mock_script=str(script_path),
        parallelism=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def fenced(src):
    return f"```python\n{src}\n```"


# --- config ---------------------------------------------------------------------


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "problem = tsp\n"
        "instances = ./bench\n"
        "seeds = nearest-neighbor, two-opt\n"
        "iterations = 7\n"
        "islands = 3\n"
        "timeout_s = 12.5\n"
        "per_island_prompts = true\n"
        "mock_script = script.jsonl\n"
        "total_timeout_s = none\n"
    )
    cfg = RunConfig.from_file(path)
    assert cfg.seeds == ("nearest-neighbor", "two-opt")
    assert cfg.iterations == 7
    assert cfg.timeout_s == 12.5
    assert cfg.per_island_prompts is True
    assert cfg.total_timeout_s is None


def test_every_config_field_parses_from_file_and_dict(tmp_path):
    values = dict(
        problem="bpp", instances="bench/x", seeds=("first-fit", "best-fit"), iterations=7,
        islands=3, migration_interval=2, migrants_per_event=2, timeout_s=12.5,
        total_timeout_s=30.0, rng_seed=9, backend="live", mock_script="s.jsonl",
        endpoint="http://localhost:1/v1", api_key="k", model="m", temperature=0.5,
        top_p=0.5, max_tokens=100, parallelism=3, experience_window=4,
        strategy_temperature=2.0, epsilon_base=0.1, epsilon_raised=0.3, stagnation_window=5,
        prompt_update_interval=2, per_island_prompts=True, island_per_iteration=True,
        repair_failed_offspring=True, llm_call_cap=50, checkpoint_interval=2,
        oracle_tsp_limit=10, oracle_bpp_limit=12,
    )
    assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}
    defaults = RunConfig()
    assert all(getattr(defaults, key) != value for key, value in values.items())
    cfg = RunConfig(**values)
    path = tmp_path / "all.cfg"
    path.write_text("".join(
        f"{key} = {', '.join(v) if isinstance(v, tuple) else v}\n" for key, v in values.items()
    ))
    assert RunConfig.from_file(path) == cfg
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    bad_text = {"iterations": "twelve", "timeout_s": "fast", "per_island_prompts": "maybe",
                "seeds": "two-opt,,christofides"}
    for key, value in bad_text.items():
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_file(path)
    bad_json = {"iterations": 1.5, "timeout_s": [30], "per_island_prompts": 1, "seeds": [1]}
    for key, value in bad_json.items():
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict({**cfg.to_dict(), key: value})
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        RunConfig.from_dict({"bogus": 1})


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("problme = tsp\n")
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_file(path)


def test_config_validation():
    with pytest.raises(ConfigError, match="iterations"):
        RunConfig(problem="tsp", instances="x", mock_script="s", iterations=0).validate()
    with pytest.raises(ConfigError, match="unknown seed"):
        RunConfig(problem="tsp", instances="x", mock_script="s",
                  seeds=("3-opt",)).validate()
    with pytest.raises(ConfigError, match="does not solve"):
        RunConfig(problem="bpp", instances="x", mock_script="s",
                  seeds=("nearest-neighbor",)).validate()
    with pytest.raises(ConfigError, match="mock_script"):
        RunConfig(problem="tsp", instances="x").validate()
    bad_values = [
        {"prompt_update_interval": 0},
        {"checkpoint_interval": 0},
        {"parallelism": 0},
        {"strategy_temperature": 0.0},
        {"temperature": -1.0},
        {"top_p": 0.0},
        {"total_timeout_s": 0.0},
        {"timeout_s": float("inf")},
        {"timeout_s": float("nan")},
        {"timeout_s": 2.2e6},
        {"total_timeout_s": float("inf")},
        {"total_timeout_s": 2.2e6},
        {"temperature": float("nan")},
        {"temperature": float("inf")},
        {"migration_interval": -1},
        {"experience_window": 0},
        {"migrants_per_event": -1},
        {"epsilon_base": -0.1},
        {"epsilon_base": 1.5},
        {"epsilon_raised": 1.5},
        {"max_tokens": 0},
    ]
    for override in bad_values:
        with pytest.raises(ConfigError):
            RunConfig(problem="tsp", instances="x", mock_script="s", **override).validate()


# --- init ------------------------------------------------------------------------


def test_init_population_seeds_every_island(tmp_path):
    script = write_mock_script(tmp_path / "s.jsonl", generate=[fenced(NN)] * 6,
                               evolve=["p"] * 3)
    cfg = config_for(tmp_path, script, islands=5)
    run = EvolutionRun(cfg, backend=MockBackend.from_file(script))
    run.init_population()
    occupied = sum(len(isl.cells) for isl in run.state.islands)
    assert occupied == 5  # one seed cell per island
    # trap4 error (13-6)/6 and square 0 -> mean 58.33%
    assert run.base_errors["nearest-neighbor"] == pytest.approx(58.3333333, abs=1e-5)
    assert -run.state.best_so_far.performance == pytest.approx(58.3333333, abs=1e-5)


def test_init_population_on_solved_set_reaches_zero(tmp_path):
    inst = tmp_path / "only-square"
    inst.mkdir()
    write_euc2d_file(inst / "square.tsp", "square", UNIT_SQUARE)
    (inst / "optima.txt").write_text("square 4\n")
    script = write_mock_script(tmp_path / "s.jsonl", generate=[fenced(NN)] * 5)
    cfg = config_for(tmp_path, script, instances=str(inst), islands=1, iterations=1)
    run = EvolutionRun(cfg)
    run.init_population()
    assert run.base_errors["nearest-neighbor"] == 0.0
    assert run.state.best_so_far.performance == 0.0


def test_unknown_seed_rejected_at_validation(tmp_path):
    script = write_mock_script(tmp_path / "s.jsonl", flat=["x"])
    with pytest.raises(ConfigError, match="unknown seed"):
        config_for(tmp_path, script, seeds=("simulated-annealing",)).validate()


# --- stepping ----------------------------------------------------------------------


def run_generations(tmp_path, generate, evolve=None, **kw):
    iterations = kw.pop("iterations", len(generate) // kw.get("islands", 2))
    evolve = evolve if evolve is not None else ["meta"] * iterations
    script = write_mock_script(tmp_path / "script.jsonl", generate=generate, evolve=evolve)
    cfg = config_for(tmp_path, script, iterations=iterations, **kw)
    run = EvolutionRun(cfg, out_dir=tmp_path / "out")
    report = run.run()
    return run, report


def test_parent_echo_gives_no_improvement_records(tmp_path):
    run, report = run_generations(tmp_path, [fenced(NN)] * 4, islands=2, iterations=2)
    records = run.experience.records
    assert len(records) == 4  # one per generated candidate
    assert {r.outcome for r in records} == {"no-improvement"}
    assert report.trace == [pytest.approx(58.3333333, abs=1e-5)] * 2
    # equal performance still replaces the incumbent cell (newer material wins)
    assert all(c.strategy_used != "seed" for isl in run.state.islands for _, c in isl.occupied())


def test_strictly_better_source_drops_best_error(tmp_path):
    generate = [fenced(NN), fenced(NN), fenced(TWO_OPT), fenced(NN)]
    run, report = run_generations(tmp_path, generate, islands=2, iterations=2)
    assert report.trace[0] == pytest.approx(58.3333333, abs=1e-5)
    assert report.trace[1] == 0.0
    assert report.best_error == 0.0
    improved = [r for r in run.experience.records if r.outcome == "improved"]
    assert improved and improved[0].delta == pytest.approx(58.3333333, abs=1e-5)


def test_unparseable_source_records_failure_without_archiving(tmp_path):
    run, report = run_generations(tmp_path, [BROKEN] * 2, islands=2, iterations=1)
    records = run.experience.records
    assert [r.outcome for r in records] == ["failure", "failure"]
    assert all(r.failure_class == "syntax/start-failure" for r in records)
    occupied = sum(len(isl.cells) for isl in run.state.islands)
    assert occupied == 2  # only the seeds
    assert report.executable_rate == 0.0
    assert report.trace[0] == pytest.approx(58.3333333, abs=1e-5)


def test_exhausted_script_degrades_to_recorded_skip(tmp_path):
    # only one generate response for 2 islands x 1 generation
    run, report = run_generations(tmp_path, [fenced(NN)], islands=2, iterations=1)
    assert report.generated_per_generation == [1]
    # the event names the generation being run, not the last one finished
    assert any(e.startswith("gen 1: llm failure (") for e in report.events), report.events
    assert len(run.experience.records) == 1


def test_llm_call_accounting(tmp_path):
    run, report = run_generations(tmp_path, [fenced(NN)] * 6, islands=2, iterations=3)
    # per generation: islands + 1 prompt evolution
    assert report.llm_calls == 3 * (2 + 1)


def test_every_generated_candidate_has_one_record(tmp_path):
    generate = [fenced(NN), BROKEN, fenced(TWO_OPT), fenced(NN)]
    run, _ = run_generations(tmp_path, generate, islands=2, iterations=2)
    generated_ids = [
        cid for cid, cand in run.state.candidates.items() if cand.strategy_used != "seed"
    ]
    record_ids = [r.child_id for r in run.experience.records]
    assert sorted(record_ids) == sorted(generated_ids)
    assert len(record_ids) == len(set(record_ids))


def test_trace_is_monotone_and_full_length(tmp_path):
    generate = [fenced(NN), BROKEN, fenced(NN), fenced(TWO_OPT), fenced(NN), BROKEN]
    _, report = run_generations(tmp_path, generate, islands=2, iterations=3)
    assert len(report.trace) == 3
    assert all(a >= b for a, b in zip(report.trace, report.trace[1:]))


def test_executable_rate_accounting(tmp_path):
    generate = [fenced(NN), BROKEN, fenced(NN), fenced(NN)]
    _, report = run_generations(tmp_path, generate, islands=2, iterations=2)
    assert report.generated_per_generation == [2, 2]
    assert report.executable_per_generation == [1, 2]
    assert report.executable_rate == 0.75
    assert report.executable_rate_per_generation == [0.5, 1.0]


def test_generations_without_offspring_count_zero(tmp_path):
    # the script runs out after generation 1, so generations 2 and 3 record nothing
    run, report = run_generations(tmp_path, [fenced(NN)] * 2, islands=2, iterations=3)
    assert report.generated_per_generation == [2, 0, 0] == run.generated
    assert report.executable_per_generation == [2, 0, 0]
    assert report.executable_rate_per_generation[1:] == [None, None]
    assert len(report.trace) == 3
    assert report.trace[1:] == [report.trace[0]] * 2 == [report.best_error] * 2


def test_strategy_usage_counts_repairs(tmp_path):
    generate = [BROKEN, fenced(NN), fenced(NN), fenced(NN)]
    run, report = run_generations(
        tmp_path, generate, islands=2, iterations=2, repair_failed_offspring=True
    )
    assert report.strategy_usage["repair"] == 1
    assert sum(report.strategy_usage.values()) == len(run.experience.records) == 4


def test_prompt_versions_grow_each_generation(tmp_path):
    run, report = run_generations(tmp_path, [fenced(NN)] * 4, islands=2, iterations=2)
    assert len(run.prompts[0].versions) == 3  # initial + one per generation
    assert [v["created_at_generation"] for v in report.prompt_versions] == [0, 1, 2]


def test_prompt_outcomes_are_counted_from_the_experience_journal(tmp_path):
    generate = [BROKEN, fenced(TWO_OPT), fenced(NN)] * 2
    for per_island in (False, True):
        base = tmp_path / f"per-island-{per_island}"
        base.mkdir()
        run_generations(base, generate, evolve=["m"] * 6, islands=2, iterations=3,
                        per_island_prompts=per_island)
        out = base / "out"
        records = [json.loads(line)
                   for line in (out / "experience.jsonl").read_text().splitlines()]
        expected = Counter((r["island"] if per_island else 0, r["prompt_version"], r["outcome"])
                           for r in records)
        reported = Counter()
        for entry in json.loads((out / "report.json").read_text())["prompt_versions"]:
            assert ("island" in entry) == per_island
            for outcome, n in entry["outcomes"].items():
                reported[entry.get("island", 0), entry["id"], outcome] += n
        assert reported == expected
        assert len({v for _, v, _ in expected}) > 1 and len({o for *_, o in expected}) > 1


def test_migration_fires_on_schedule(tmp_path):
    _, report = run_generations(
        tmp_path, [fenced(NN)] * 8, islands=2, iterations=4, migration_interval=2
    )
    migration_events = [e for e in report.events if "migration" in e]
    assert len(migration_events) == 2  # generations 2 and 4


def test_island_per_iteration_mode(tmp_path):
    run, report = run_generations(
        tmp_path, [fenced(NN)] * 3, islands=2, iterations=3, island_per_iteration=True
    )
    assert report.generated_per_generation == [1, 1, 1]
    assert report.llm_calls == 3 * (1 + 1)


def test_per_island_prompt_states(tmp_path):
    run, report = run_generations(
        tmp_path, [fenced(NN)] * 4, evolve=["m"] * 4, islands=2, iterations=2,
        per_island_prompts=True,
    )
    assert len(run.prompts) == 2
    # one evolution call per island per generation on top of generation calls
    assert report.llm_calls == 2 * (2 + 2)
    assert all(len(p.versions) == 3 for p in run.prompts)


def test_determinism_two_runs_byte_identical(tmp_path):
    generate = [fenced(NN), fenced(TWO_OPT)] * 3
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 3)
    cfg = config_for(tmp_path, script, iterations=3, islands=2)
    a = EvolutionRun(cfg, out_dir=tmp_path / "A").run()
    b = EvolutionRun(cfg, out_dir=tmp_path / "B").run()
    da, db = a.to_dict(), b.to_dict()
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_resume_matches_uninterrupted_run(tmp_path):
    generate = [fenced(NN)] * 4 + [fenced(TWO_OPT)] * 2 + [fenced(NN)] * 2
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 4)
    cfg = config_for(tmp_path, script, iterations=4, islands=2)
    full = EvolutionRun(cfg, out_dir=tmp_path / "full").run()
    resumed = resume(tmp_path / "full" / "checkpoints" / "gen-0002.json",
                     out_dir=tmp_path / "resumed")
    da, db = full.to_dict(), resumed.to_dict()
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_resume_from_every_checkpoint_matches_the_uninterrupted_run(tmp_path):
    # the best improves mid-run, so a resume must work it out from the candidates;
    # island 0's broken child is repaired in generation 2, and islands migrate at 2 and 4
    generate = [BROKEN, fenced(NN), fenced(NN), fenced(TWO_OPT)] + [fenced(NN)] * 4
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 4)
    cfg = config_for(tmp_path, script, iterations=4, islands=2, repair_failed_offspring=True)
    full = EvolutionRun(cfg, out_dir=tmp_path / "full")
    full.run()
    report = report_without_wall(tmp_path / "full" / "report.json")
    assert report["best"]["id"] == "c000005"
    assert report["best"]["mean_relative_error"] < report["base_errors"]["nearest-neighbor"]
    assert report["strategy_usage"]["repair"] == 1
    assert sum("migration" in e for e in report["events"]) == 2
    assert full.experience.records[0].failure_class == FAIL_START
    for generation in range(5):
        out = tmp_path / f"resumed-{generation}"
        resume(tmp_path / "full" / "checkpoints" / f"gen-{generation:04d}.json", out_dir=out)
        assert report_without_wall(out / "report.json") == report, generation


def rng_config(tmp_path, **kw):
    """Every draw a run makes: the island of each generation, a parent among the island's
    two seeded cells (exploitation would take two-opt's every time), and a strategy."""
    generate = [fenced(NN), fenced(TWO_OPT)] * 3
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 6)
    return config_for(tmp_path, script, iterations=6, islands=2, island_per_iteration=True,
                      seeds=("nearest-neighbor", "two-opt"), epsilon_base=0.5, **kw)


def test_a_resume_from_every_checkpoint_draws_as_the_uninterrupted_run(tmp_path):
    cfg = rng_config(tmp_path)
    full = EvolutionRun(cfg, out_dir=tmp_path / "full")
    full.run()
    offspring = [c for c in full.state.candidates.values() if c.strategy_used != "seed"]
    assert {c.island for c in offspring} == {0, 1}
    parents = {full.state.candidates[c.parent_id].source.strip() for c in offspring}
    assert parents == {NN.strip(), TWO_OPT.strip()}  # select_parent's random branch is taken
    assert len({c.strategy_used for c in offspring}) > 1
    report = report_without_wall(tmp_path / "full" / "report.json")
    for generation in range(cfg.iterations + 1):
        out = tmp_path / f"resumed-{generation}"
        resume(tmp_path / "full" / "checkpoints" / f"gen-{generation:04d}.json", out_dir=out)
        assert report_without_wall(out / "report.json") == report, generation


def test_the_rng_seed_reaches_the_draws(tmp_path):
    usage = [EvolutionRun(rng_config(tmp_path, rng_seed=seed)).run().strategy_usage
             for seed in (1, 2)]
    assert usage[0] != usage[1]


def test_a_resume_rebuilds_every_islands_cells(tmp_path):
    # three islands migrate at generations 2 and 4: checkpoints 2 and 4 fall on a
    # migration, 1 and 3 between them; two-opt opens a cell that migrants carry on
    generate = ([fenced(TWO_OPT), fenced(NN), BROKEN, fenced(NN), BROKEN, fenced(NN)]
                + [fenced(NN), fenced(NN), fenced(TWO_OPT)] + [fenced(NN)] * 3)
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 4)
    cfg = config_for(tmp_path, script, iterations=4, islands=3)

    def cells(state):
        return [[(d, c.id) for d, c in isl.occupied()] for isl in state.islands]

    full = EvolutionRun(cfg, out_dir=tmp_path / "full")
    full.init_population()
    expected = [cells(full.state)]
    while full.state.generation < cfg.iterations:
        full.step()
        expected.append(cells(full.state))
    assert sum("migration" in e for e in full.events) == 2
    assert any(c.island != isl.island_id for isl in full.state.islands for _, c in isl.occupied())
    for generation in range(cfg.iterations + 1):
        checkpoint = tmp_path / "full" / "checkpoints" / f"gen-{generation:04d}.json"
        resumed = EvolutionRun.from_checkpoint(checkpoint, out_dir=tmp_path / f"r{generation}")
        assert cells(resumed.state) == expected[generation], generation
        resumed.run()
        assert cells(resumed.state) == expected[-1], generation


def plain_bench_dir(tmp_path, trap4=TRAP4, sidecar=""):
    """trap4 and square, with only the optima the sidecar text gives; the oracle fills the rest."""
    inst = tmp_path / "plain"
    inst.mkdir(exist_ok=True)
    write_tsp_file(inst / "trap4.tsp", "trap4", trap4)
    write_euc2d_file(inst / "square.tsp", "square", UNIT_SQUARE)
    if sidecar:
        (inst / "optima.txt").write_text(sidecar)
    return inst


def run_without_sidecar(tmp_path, **kw):
    generate = [fenced(NN)] * 8
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 4)
    cfg = config_for(tmp_path, script, iterations=4, islands=2,
                     instances=str(plain_bench_dir(tmp_path, **kw)))
    EvolutionRun(cfg, out_dir=tmp_path / "full").run()
    return tmp_path / "full" / "checkpoints" / "gen-0002.json"


def report_without_wall(path):
    doc = json.loads(path.read_text())
    doc.pop("wall_time_s")
    return doc


def test_resume_reuses_the_optima_set_up_solved(tmp_path, monkeypatch):
    checkpoint = run_without_sidecar(tmp_path)
    assert len(json.loads(checkpoint.read_text())["counters"]["optima"]) == 2

    def refuse(*args):
        raise AssertionError("the oracle ran on resume")

    monkeypatch.setattr(oracles, "exact_optimum", refuse)
    resume(checkpoint, out_dir=tmp_path / "resumed")
    assert report_without_wall(tmp_path / "resumed" / "report.json") == report_without_wall(
        tmp_path / "full" / "report.json"
    )


def test_resume_solves_again_only_an_edited_instance(tmp_path, monkeypatch):
    checkpoint = run_without_sidecar(tmp_path)
    # a longer 1-3 edge moves trap4's optimum from 6 to 13, the tour nearest-neighbor finds
    edited = [row[:] for row in TRAP4]
    edited[1][3] = edited[3][1] = 20
    write_tsp_file(tmp_path / "plain" / "trap4.tsp", "trap4", edited)
    solved = []
    exact_optimum = oracles.exact_optimum

    def counted(instance, *args):
        solved.append(instance.name)
        return exact_optimum(instance, *args)

    monkeypatch.setattr(oracles, "exact_optimum", counted)
    run = EvolutionRun.from_checkpoint(checkpoint, out_dir=tmp_path / "resumed")
    run.run()
    assert solved == ["trap4"]
    assert {inst.name: inst.known_optimal for inst in run.instances} == {
        "square": 4.0, "trap4": 13.0
    }
    errors = {r.generation: r.child_error for r in run.experience.records}
    assert errors[2] == pytest.approx(58.3333333, abs=1e-5)  # scored before the edit
    assert errors[3] == errors[4] == 0.0


def test_sidecar_optimum_leaves_no_stored_optimum(tmp_path):
    checkpoint = run_without_sidecar(tmp_path, sidecar="trap4 6\n")
    square = next(i for i in load_benchmark(tmp_path / "plain") if i.name == "square")
    assert json.loads(checkpoint.read_text())["counters"]["optima"] == {
        oracles.instance_key(square): 4.0
    }


def checkpoint_leaves(node, path=()):
    """Paths to every scalar and every empty container in a JSON document."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from checkpoint_leaves(child, (*path, key))
    else:
        yield path


def test_checkpoint_leaf_mutations_fail_cleanly(tmp_path):
    # one wrong-typed leaf per trial, in the checkpoint or in a journal line it counts:
    # the resume is a ConfigError that leaves the run directory as it was, or a finished run
    generate = [fenced(NN), BROKEN, fenced(TWO_OPT)]
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 3)
    cfg = config_for(tmp_path, script, iterations=3, islands=1)
    EvolutionRun(cfg, out_dir=tmp_path / "full").run()
    ckpt = Path("checkpoints") / "gen-0002.json"
    text = (tmp_path / "full" / ckpt).read_text()
    doc = json.loads(text)
    paths = list(checkpoint_leaves(doc))
    for name, mark in doc["journals"].items():
        counted = (tmp_path / "full" / name).read_bytes()[:mark["bytes"]]
        for i, line in enumerate(counted.decode().splitlines()):
            paths += [(name, i, *p) for p in checkpoint_leaves(json.loads(line))]
    rng = random.Random(6)
    outcomes = {"ConfigError": 0, "completed": 0}
    for k, path in enumerate(rng.sample(paths, 30)):
        run_dir = tmp_path / f"run{k}"
        shutil.copytree(tmp_path / "full", run_dir)

        def wrong_type(old):
            return rng.choice(
                [v for v in ("x", 7, 1.5, True, None, [], {}) if type(v) is not type(old)]
            )

        def mutate(node):
            keys = path[2:] if path[0] in doc["journals"] else path
            if not keys:  # a sources.jsonl line is a string, a leaf of its own
                return wrong_type(node)
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = wrong_type(node[keys[-1]])

        if path[0] in doc["journals"]:
            edit_journal_line(run_dir, run_dir / ckpt, path[0], path[1], mutate)
        else:
            mutated = json.loads(text)
            mutate(mutated)
            (run_dir / ckpt).write_text(json.dumps(mutated))
        before = run_files(run_dir)
        try:
            resume(run_dir / ckpt, out_dir=tmp_path / f"trial{k}")
            outcomes["completed"] += 1
        except ConfigError:
            outcomes["ConfigError"] += 1
            with pytest.raises(ConfigError):
                resume(run_dir / ckpt, out_dir=run_dir)
            assert run_files(run_dir) == before, path
    assert outcomes["ConfigError"] > 0, outcomes


def test_failing_candidate_runs_write_identical_files(tmp_path):
    generate = [BROKEN, fenced(NN)] * 2
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 2)
    cfg = config_for(tmp_path, script, iterations=2, islands=2)
    runs = {name: EvolutionRun(cfg, out_dir=tmp_path / name) for name in ("A", "B")}
    for run in runs.values():
        run.run()
    a, b = tmp_path / "A", tmp_path / "B"
    names = sorted(p.name for p in (a / "checkpoints").glob("gen-*.json"))
    assert names == ["gen-0000.json", "gen-0001.json", "gen-0002.json"]
    # the seed, the broken program, the seed stripped of its fence
    assert len((a / "sources.jsonl").read_text().splitlines()) == 3
    for rel in [f"checkpoints/{name}" for name in names] + list(JOURNALS):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    failure = runs["A"].experience.records[0]
    assert failure.failure_class == "syntax/start-failure"
    assert 'File "candidate.py", line 1' in failure.diagnostic


def test_failed_write_keeps_the_old_run_file(tmp_path, monkeypatch):
    script = write_mock_script(tmp_path / "s.jsonl", generate=[fenced(NN)], evolve=["m"])
    run = EvolutionRun(config_for(tmp_path, script, iterations=1, islands=1),
                       out_dir=tmp_path / "out")
    run.run()
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir() if p.is_file()}

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    run.llm_calls += 1  # a different report.json, were it written
    with pytest.raises(OSError, match="replace refused"):
        run.run()
    after = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir() if p.is_file()}
    assert after == before
    assert "report.json" in after


def test_checkpoint_holds_only_stored_counters(tmp_path):
    run_generations(tmp_path, [fenced(NN)] * 2, islands=2, iterations=1)
    path = tmp_path / "out" / "checkpoints" / "gen-0001.json"
    doc = json.loads(path.read_text())
    assert doc["version"] == 12
    assert sorted(doc["counters"]) == ["llm_calls", "optima", "pending_repair"]
    doc["version"] = 11
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unsupported version 11"):
        EvolutionRun.from_checkpoint(path)


def test_a_revert_reaches_the_report_and_survives_resume(tmp_path):
    # the best error stays flat, so version 1, adopted at gen 3, is reverted at gen 5
    for per_island in (False, True):
        root = tmp_path / f"per-island-{per_island}"
        root.mkdir()
        n_prompts = 2 if per_island else 1
        script = write_mock_script(root / "s.jsonl", generate=[fenced(NN)] * 12,
                                   evolve=["rewrite {parent-source}"] * 2 * n_prompts)
        cfg = config_for(root, script, iterations=6, islands=2, prompt_update_interval=3,
                         per_island_prompts=per_island)
        EvolutionRun(cfg, out_dir=root / "full").run()
        report = report_without_wall(root / "full" / "report.json")
        reverts = [e for e in report["events"] if "reverted" in e]
        islands = [f"island {i} " for i in range(n_prompts)] if per_island else [""]
        assert reverts == [f"gen 5: {island}reverted version 1 to 0 (no improvement over "
                           "baseline 58.3333)" for island in islands]
        adopted = [e for e in report["events"] if "adopted" in e]
        assert adopted == [f"gen {g}: {island}adopted version {v}"
                           for g, v in ((3, 1), (6, 2)) for island in islands]
        assert [v["discarded"] for v in report["prompt_versions"]] == [False, True, False] * n_prompts
        resume(root / "full" / "checkpoints" / "gen-0004.json", out_dir=root / "resumed")
        resumed = report_without_wall(root / "resumed" / "report.json")
        assert json.dumps(resumed, sort_keys=True) == json.dumps(report, sort_keys=True)


def test_checkpoint_size_does_not_grow_with_the_run(tmp_path):
    # one 2 KB prompt rewrite per generation: prompts.jsonl holds each once, no checkpoint does
    sizes = {}
    for iterations in (10, 30):
        root = tmp_path / f"g{iterations}"
        root.mkdir()
        script = write_mock_script(root / "s.jsonl", generate=[fenced(NN)] * iterations,
                                   evolve=[f"rewrite {g}\n" + "x" * 2048 for g in range(iterations)])
        cfg = config_for(root, script, iterations=iterations, islands=1)
        EvolutionRun(cfg, out_dir=root / "out").run()
        last = root / "out" / "checkpoints" / f"gen-{iterations:04d}.json"
        sizes[iterations] = len(last.read_bytes())
    assert abs(sizes[30] - sizes[10]) < 64, sizes
    assert sizes[30] < 2500, sizes  # no RNG state: each generation's draws derive from its number


def test_a_candidate_journal_not_opening_with_the_seeds_is_malformed(tmp_path):
    # a resume reads the seeds' base errors from the first candidates
    run_generations(tmp_path, [fenced(NN)] * 2, islands=2, iterations=1)
    ckpt = Path("checkpoints") / "gen-0001.json"
    for field, value in (("performance", None), ("strategy_used", "two-opt"), ("island", 1)):
        run_dir = tmp_path / field
        shutil.copytree(tmp_path / "out", run_dir)
        edit_journal_line(run_dir, run_dir / ckpt, "candidates.jsonl", 0,
                          lambda c: c.update({field: value}))
        with pytest.raises(ConfigError, match="must open with island 0's scored seeds"):
            EvolutionRun.from_checkpoint(run_dir / ckpt)


def test_record_outside_the_run_generations_is_malformed(tmp_path):
    # the report's per-generation counts and trace are indexed by record generation
    run_generations(tmp_path, [fenced(NN)] * 2, islands=2, iterations=1)
    ckpt = Path("checkpoints") / "gen-0001.json"
    for generation in (0, 2):
        run_dir = tmp_path / f"gen{generation}"
        shutil.copytree(tmp_path / "out", run_dir)
        edit_journal_line(run_dir, run_dir / ckpt, "experience.jsonl", 0,
                          lambda r: r.update(generation=generation))
        before = run_files(run_dir)
        for out in (tmp_path / f"fresh{generation}", run_dir):
            with pytest.raises(ConfigError, match="generations 1 to state/generation"):
                EvolutionRun.from_checkpoint(run_dir / ckpt, out_dir=out)
            assert run_files(run_dir) == before


def test_record_naming_no_prompt_version_of_its_island_is_malformed(tmp_path):
    # the report counts each prompt version's outcomes from the records that name it
    run_generations(tmp_path, [fenced(NN)] * 2, islands=2, iterations=1)
    ckpt = Path("checkpoints") / "gen-0001.json"
    for field, value, message in (("prompt_version", 99, "prompt version 99 is not held"),
                                  ("island", 2, "the run has no island 2")):
        run_dir = tmp_path / field
        shutil.copytree(tmp_path / "out", run_dir)
        edit_journal_line(run_dir, run_dir / ckpt, "experience.jsonl", 0,
                          lambda r: r.update({field: value}))
        before = run_files(run_dir)
        for out in (tmp_path / f"fresh-{field}", run_dir):
            with pytest.raises(ConfigError, match=f"experience.jsonl line 1: {message}"):
                EvolutionRun.from_checkpoint(run_dir / ckpt, out_dir=out)
            assert run_files(run_dir) == before


def test_checkpoint_holds_offsets_not_the_run(tmp_path):
    run, _ = run_generations(tmp_path, [BROKEN, fenced(NN)] * 2, islands=2, iterations=2)
    out = tmp_path / "out"
    doc = json.loads((out / "checkpoints" / "gen-0002.json").read_text())
    assert sorted(doc) == [
        "config", "counters", "journals", "llm_state", "prompts", "state", "version"
    ]
    assert sorted(doc["state"]) == ["generation", "stagnation"]
    for name in JOURNALS:
        data = (out / name).read_bytes()
        assert doc["journals"][name] == {
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()
        }
    assert len((out / "candidates.jsonl").read_text().splitlines()) == len(run.state.candidates)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [*JOURNALS, "best_candidate.py", "checkpoints", "report.json"])
    assert len((out / "experience.jsonl").read_text().splitlines()) == 4
    # each distinct source once, named in candidates.jsonl by its sha256
    sources = [json.loads(line) for line in (out / "sources.jsonl").read_text().splitlines()]
    assert sorted(sources) == sorted({c.source for c in run.state.candidates.values()})
    digests = {hashlib.sha256(s.encode()).hexdigest() for s in sources}
    named = [json.loads(line)["source"]
             for line in (out / "candidates.jsonl").read_text().splitlines()]
    assert set(named) == digests
    assert not (out / "sources").exists()
    # an earlier checkpoint counts a prefix of what a later one counts
    first = json.loads((out / "checkpoints" / "gen-0001.json").read_text())["journals"]
    for name in JOURNALS:
        counted = (out / name).read_bytes()[:first[name]["bytes"]]
        assert hashlib.sha256(counted).hexdigest() == first[name]["sha256"]


def test_crash_before_the_checkpoint_resumes_exactly(tmp_path, monkeypatch):
    # the generation-2 journals are appended, then the checkpoint that would count them fails
    generate = [BROKEN, fenced(NN), fenced(TWO_OPT), fenced(NN)] * 2
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 4)
    cfg = config_for(tmp_path, script, iterations=4, islands=2)
    EvolutionRun(cfg, out_dir=tmp_path / "whole").run()
    write_atomic = orchestrator.write_atomic

    def crash(path, text):
        if path.name == "gen-0002.json":
            raise OSError("crashed")
        write_atomic(path, text)

    monkeypatch.setattr(orchestrator, "write_atomic", crash)
    with pytest.raises(OSError, match="crashed"):
        EvolutionRun(cfg, out_dir=tmp_path / "crashed").run()
    monkeypatch.undo()
    crashed = tmp_path / "crashed"
    counted = json.loads((crashed / "checkpoints" / "gen-0001.json").read_text())["journals"]
    assert all((crashed / name).stat().st_size > counted[name]["bytes"] for name in JOURNALS)
    resume(crashed / "checkpoints" / "gen-0001.json", out_dir=crashed)
    assert report_without_wall(crashed / "report.json") == report_without_wall(
        tmp_path / "whole" / "report.json"
    )
    whole = run_files(tmp_path / "whole")
    after = run_files(crashed)
    del whole[Path("report.json")], after[Path("report.json")]
    assert after == whole


def test_repair_mode_retries_failed_offspring(tmp_path):
    generate = [BROKEN, fenced(NN), fenced(NN), fenced(NN)]
    run, _ = run_generations(
        tmp_path, generate, islands=2, iterations=2, repair_failed_offspring=True
    )
    repairs = [r for r in run.experience.records if r.strategy_used == "repair"]
    assert len(repairs) == 1
    # the repair child's parent is the broken candidate, not an archive elite
    broken_ids = [
        cid for cid, cand in run.state.candidates.items() if cand.source == BROKEN.strip()
    ]
    assert repairs[0].parent_id in broken_ids


class RecordingBackend(MockBackend):
    """A mock that keeps the text of every generate prompt it answers."""

    def __init__(self, script):
        super().__init__(script)
        self.prompts = []

    def complete_once(self, request):
        if request.tag == "generate":
            self.prompts.append(request.messages[0][1])
        return super().complete_once(request)


def test_repair_prompt_after_resume_carries_the_failure(tmp_path):
    # island 0's generation-1 child is broken, so the generation-1 checkpoint
    # holds its pending repair, and generation 2 opens with the repair prompt
    generate = [BROKEN] + [fenced(NN)] * 5
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 3)
    cfg = config_for(tmp_path, script, iterations=3, islands=2, repair_failed_offspring=True)
    full = RecordingBackend.from_file(script)
    EvolutionRun(cfg, out_dir=tmp_path / "full", backend=full).run()
    ckpt = tmp_path / "full" / "checkpoints" / "gen-0001.json"
    assert json.loads(ckpt.read_text())["counters"]["pending_repair"] == {"0": "c000002"}

    resumed = RecordingBackend.from_file(script)
    run = EvolutionRun.from_checkpoint(ckpt, out_dir=tmp_path / "resumed", backend=resumed)
    broken = run.experience.for_child("c000002")
    run.run()
    assert broken.failure_class == FAIL_START and broken.diagnostic
    repair_prompt = resumed.prompts[0]
    assert REPAIR_DIRECTIVE in repair_prompt
    assert f"Failure class: {FAIL_START}\nError report:\n{broken.diagnostic}" in repair_prompt
    assert resumed.prompts == full.prompts[2:]
    assert (report_without_wall(tmp_path / "resumed" / "report.json")
            == report_without_wall(tmp_path / "full" / "report.json"))


# --- one generation: LLM calls in island order, evaluations on one pool ------------


def test_an_island_evaluates_while_the_next_waits_on_its_llm_call(tmp_path, monkeypatch):
    # island 0's runs wait for island 1's generate request; a loop that awaited
    # each island's evaluation before the next island's LLM call would time out
    asked = threading.Event()

    class SignallingBackend(MockBackend):
        calls = 0

        def complete_once(self, request):
            if request.tag == "generate":
                self.calls += 1
                if self.calls == 2:
                    asked.set()
            return super().complete_once(request)

    real = evaluator.run_candidate

    def run_candidate(candidate, instance, cfg):
        if candidate.island == 0 and not asked.wait(10):
            raise AssertionError("island 1 was not asked while island 0 was evaluated")
        return real(candidate, instance, cfg)

    script = write_mock_script(tmp_path / "s.jsonl", generate=[fenced(NN)] * 2, evolve=["m"])
    cfg = config_for(tmp_path, script, iterations=1, islands=2)
    run = EvolutionRun(cfg, backend=SignallingBackend.from_file(script))
    run.init_population()
    monkeypatch.setattr(evaluator, "run_candidate", run_candidate)
    run.step()
    assert [r.outcome for r in run.experience.records] == ["no-improvement"] * 2


def test_outcomes_apply_in_island_order_when_a_later_island_finishes_first(tmp_path, monkeypatch):
    finished: list[str] = []
    island1_done = threading.Event()
    real = evaluator.run_candidate

    def run_candidate(candidate, instance, cfg):
        if candidate.island == 0 and not island1_done.wait(10):
            raise AssertionError("island 1's evaluation did not finish")
        outcome = real(candidate, instance, cfg)
        finished.append(candidate.id)
        if finished.count(candidate.id) == 2 and candidate.island == 1:  # both instances
            island1_done.set()
        return outcome

    inserted: list[str] = []
    insert = archive.IslandArchive.insert

    def recording_insert(self, candidate):
        inserted.append(candidate.id)
        return insert(self, candidate)

    generate = [fenced(NN), fenced(TWO_OPT)]
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"])
    cfg = config_for(tmp_path, script, iterations=1, islands=2, parallelism=4)
    run = EvolutionRun(cfg)
    run.init_population()
    seeds = list(run.state.candidates)
    monkeypatch.setattr(evaluator, "run_candidate", run_candidate)
    monkeypatch.setattr(archive.IslandArchive, "insert", recording_insert)
    run.step()
    children = [cid for cid in run.state.candidates if cid not in seeds]
    assert finished[:2] == [children[1]] * 2  # island 1's evaluation finished first
    assert [run.state.candidates[cid].island for cid in children] == [0, 1]
    assert children == sorted(children)
    assert [(r.island, r.child_id) for r in run.experience.records] == list(enumerate(children))
    assert inserted == children
    assert [r.outcome for r in run.experience.records] == ["no-improvement", "improved"]


def test_every_prompt_of_a_generation_renders_the_same_summary(tmp_path):
    generate = [fenced(NN), BROKEN, fenced(TWO_OPT)] * 3
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 3)
    cfg = config_for(tmp_path, script, iterations=3, islands=3)
    backend = RecordingBackend.from_file(script)
    run = EvolutionRun(cfg, backend=backend)
    run.init_population()
    rendered = []
    for _ in range(cfg.iterations):
        rendered.append(render_summary(summarize(run.experience, cfg.experience_window)))
        asked = len(backend.prompts)
        run.step()
        prompts = backend.prompts[asked:]
        assert len(prompts) == cfg.islands
        assert all(rendered[-1] in prompt for prompt in prompts)
    assert len(set(rendered)) == cfg.iterations  # each generation saw new experience


def test_the_run_does_not_depend_on_parallelism(tmp_path):
    # more pool threads than cores, switching threads as often as the interpreter can
    generate = [fenced(NN), BROKEN, fenced(TWO_OPT), fenced(NN), BROKEN] * 2
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 2)
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for parallelism in (1, 8):
            cfg = config_for(tmp_path, script, iterations=2, islands=5, parallelism=parallelism)
            out = tmp_path / f"p{parallelism}"
            EvolutionRun(cfg, out_dir=out).run()
            journals = [(out / name).read_bytes() for name in JOURNALS]
            reports.append((report_without_wall(out / "report.json"), journals))
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1]


def test_a_failed_plan_cancels_the_queued_evaluations(tmp_path, monkeypatch):
    # island 0's first run is in flight and its second queued when island 1's
    # LLM call raises: step() waits for the first and cancels the second
    started, release = threading.Event(), threading.Event()
    calls: list[str] = []

    class FailingBackend(MockBackend):
        asked = 0

        def complete_once(self, request):
            if request.tag == "generate":
                self.asked += 1
                if self.asked == 2:
                    assert started.wait(10)
                    release.set()
                    raise RuntimeError("backend broke")
            return super().complete_once(request)

    def run_candidate(candidate, instance, cfg):
        calls.append(instance.name)
        started.set()
        release.wait(10)
        return evaluator.InstanceOutcome(instance.name, failure_class=FAIL_START)

    script = write_mock_script(tmp_path / "s.jsonl", generate=[fenced(NN)] * 2, evolve=["m"])
    cfg = config_for(tmp_path, script, iterations=1, islands=2, parallelism=1)
    run = EvolutionRun(cfg, backend=FailingBackend.from_file(script))
    run.init_population()
    monkeypatch.setattr(evaluator, "run_candidate", run_candidate)
    with pytest.raises(RuntimeError, match="backend broke"):
        run.step()
    assert calls == ["square"]  # trap4's run never started
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


def test_a_cap_reached_while_planning_is_logged_in_island_order(tmp_path):
    # island 0's call comes back empty after island 1 has met the cap: the
    # events still read in island order
    script = write_mock_script(tmp_path / "s.jsonl", generate=["   "], evolve=["m"])
    cfg = config_for(tmp_path, script, iterations=1, islands=2, llm_call_cap=1)
    run = EvolutionRun(cfg)
    run.init_population()
    run.step()
    assert run.events[:2] == ["gen 1: island 0 empty completion", "gen 1: llm call cap reached"]
    assert run.llm_calls == 1


def test_an_exhausted_script_fails_each_call_and_its_run_resumes(tmp_path):
    # three answers for two islands over three generations: island 1 runs out
    # in generation 2, both islands in generation 3
    script = write_mock_script(tmp_path / "s.jsonl", generate=[fenced(NN)] * 3,
                               evolve=["m"] * 3)
    cfg = config_for(tmp_path, script, iterations=3, islands=2)
    report = EvolutionRun(cfg, out_dir=tmp_path / "full").run()
    exhausted = "llm failure (mock script exhausted for key 'generate' after 3 responses)"
    failures = [e for e in report.events if "llm failure" in e]
    assert failures == [f"gen 2: {exhausted}", f"gen 3: {exhausted}", f"gen 3: {exhausted}"]
    assert report.generated_per_generation == [2, 1, 0]
    for generation, cursor in ((1, 2), (2, 3), (3, 3)):
        ckpt = tmp_path / "full" / "checkpoints" / f"gen-{generation:04d}.json"
        assert json.loads(ckpt.read_text())["llm_state"]["generate"] == cursor
        out = tmp_path / f"resumed{generation}"
        resume(ckpt, out_dir=out)
        assert (report_without_wall(out / "report.json")
                == report_without_wall(tmp_path / "full" / "report.json"))


def test_a_script_without_generate_answers_fails_every_island(tmp_path):
    script = write_mock_script(tmp_path / "s.jsonl", evolve=["m"] * 2)
    cfg = config_for(tmp_path, script, iterations=2, islands=3)
    report = EvolutionRun(cfg).run()
    failure = "llm failure (no scripted responses for tag 'generate')"
    assert [e for e in report.events if "llm failure" in e] == (
        [f"gen 1: {failure}"] * 3 + [f"gen 2: {failure}"] * 3)
    assert report.generated_per_generation == [0, 0]
    assert report.llm_calls == 2 * (3 + 1)


def test_the_islands_llm_calls_overlap(tmp_path):
    # island 0's call waits for island 1's: calls made one after another would
    # time out; each island still gets the answer reserved for it
    island1_asked = threading.Event()

    class WaitingBackend(MockBackend):
        def complete_once(self, request):
            if request.tag == "generate" and request.slot == 0:
                if not island1_asked.wait(10):
                    raise AssertionError("island 1 was not asked while island 0 waited")
            elif request.tag == "generate" and request.slot == 1:
                island1_asked.set()
            return super().complete_once(request)

    script = write_mock_script(tmp_path / "s.jsonl", generate=[fenced(NN), fenced(TWO_OPT)],
                               evolve=["m"])
    cfg = config_for(tmp_path, script, iterations=1, islands=2)
    run = EvolutionRun(cfg, backend=WaitingBackend.from_file(script))
    run.init_population()
    run.step()
    records = run.experience.records
    assert [run.state.candidates[r.child_id].source for r in records] == [NN.strip(),
                                                                          TWO_OPT.strip()]
    assert [r.island for r in records] == [0, 1]


def test_llm_threads_are_bounded_and_none_outlives_the_step(tmp_path, monkeypatch):
    # the first LLM_THREADS calls block until that many are in flight at once
    monkeypatch.setattr(orchestrator, "LLM_THREADS", 3)
    lock, full = threading.Lock(), threading.Event()
    in_flight, most, threads = [0], [0], []

    def llm_threads():
        return [t for t in threading.enumerate() if t.name.startswith("coevo-llm")]

    class BlockingBackend(MockBackend):
        def complete_once(self, request):
            with lock:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
                threads.append(len(llm_threads()))
                if in_flight[0] == orchestrator.LLM_THREADS:
                    full.set()
            try:
                if request.tag == "generate" and not full.wait(10):
                    raise AssertionError("fewer calls than LLM_THREADS were in flight")
                return super().complete_once(request)
            finally:
                with lock:
                    in_flight[0] -= 1

    script = write_mock_script(tmp_path / "s.jsonl", generate=[fenced(NN)] * 5, evolve=["m"])
    cfg = config_for(tmp_path, script, iterations=1, islands=5)
    run = EvolutionRun(cfg, backend=BlockingBackend.from_file(script))
    run.init_population()
    run.step()
    assert most[0] == 3
    assert len(threads) == 6 and max(threads) == 3  # 5 generate calls and the prompt rewrite
    assert not llm_threads()
    assert len(run.experience.records) == 5


FFD_NOVEL = """\
import json, sys
doc = json.loads(sys.stdin.read())
sizes = doc["sizes"]
cap = doc["capacity"]
order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
bins, loads = [], []
for i in order:
    for b in range(len(bins)):
        if loads[b] + sizes[i] <= cap + 1e-9:
            bins[b].append(i)
            loads[b] += sizes[i]
            break
    else:
        bins.append([i])
        loads.append(sizes[i])
sys.stdout.write(json.dumps({"bins": bins}))
"""


def test_bpp_run_with_novel_evolved_heuristic(tmp_path, monkeypatch):
    # first-fit needs 4 bins here; the optimum (filled by the oracle, no
    # sidecar) is 3, and a decreasing-order rewrite reaches it
    inst = tmp_path / "bpp"
    inst.mkdir()
    (inst / "six.bpp").write_text("6\n100\n40\n40\n40\n60\n60\n60\n")
    seeds = ("first-fit", "best-fit", "next-fit", "worst-fit")
    generate = [fenced(seed_source("first-fit"))] * 2 + [fenced(FFD_NOVEL)] * 2
    script = write_mock_script(tmp_path / "s.jsonl", generate=generate, evolve=["m"] * 2)
    cfg = config_for(
        tmp_path, script, problem="bpp", instances=str(inst), seeds=seeds,
        islands=2, iterations=2,
    )
    seed_outcomes: dict[int, list[str]] = {0: [], 1: []}
    insert = archive.IslandArchive.insert

    def recording_insert(self, candidate):
        outcome = insert(self, candidate)
        if candidate.generation == 0:
            seed_outcomes[self.island_id].append(outcome)
        return outcome

    monkeypatch.setattr(archive.IslandArchive, "insert", recording_insert)
    run = EvolutionRun(cfg, out_dir=tmp_path / "out")
    report = run.run()
    assert set(report.base_errors) == set(seeds)
    base = pytest.approx(100 * (4 - 3) / 3, abs=1e-9)
    assert all(report.base_errors[s] == base for s in seeds)
    # the four equal-performance seeds collide into one cell per island
    # (three replacements), the evolved candidate opens a second
    for isl in run.state.islands:
        assert seed_outcomes[isl.island_id] == ["accepted-new", "replaced", "replaced", "replaced"]
        assert len(isl.cells) == 2
    assert report.trace[0] == base
    assert report.trace[1] == 0.0
    assert run.state.best_so_far.source == FFD_NOVEL.strip()


def test_mismatched_problem_kind_rejected(tmp_path):
    script = write_mock_script(tmp_path / "s.jsonl", flat=["x"])
    inst = tmp_path / "bppdir"
    inst.mkdir()
    (inst / "a.bpp").write_text("2\n10\n5\n5\n")
    cfg = config_for(tmp_path, script, instances=str(inst))
    with pytest.raises(ConfigError, match="instance set is bpp"):
        EvolutionRun(cfg)
