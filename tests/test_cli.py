import json
import shutil
from pathlib import Path

from conftest import (
    TRAP4,
    UNIT_SQUARE,
    edit_journal_line,
    rewrite_journal,
    run_files,
    write_euc2d_file,
    write_mock_script,
    write_tsp_file,
)
from coevo.cli import main
from coevo.seeds import seed_source


def bench_dir(tmp_path, name="instances"):
    inst = tmp_path / name
    inst.mkdir(exist_ok=True)
    write_tsp_file(inst / "trap4.tsp", "trap4", TRAP4)
    write_euc2d_file(inst / "square.tsp", "square", UNIT_SQUARE)
    (inst / "optima.txt").write_text("trap4 6\nsquare 4\n")
    return inst


def bpp_dir(tmp_path):
    inst = tmp_path / "bpp"
    inst.mkdir(exist_ok=True)
    (inst / "pack4.bpp").write_text("4\n100\n50\n70\n50\n30\n")
    (inst / "optima.txt").write_text("pack4 2\n")
    return inst


def write_config(tmp_path, inst_dir, script, **overrides):
    lines = {
        "problem": "tsp",
        "instances": str(inst_dir),
        "seeds": "nearest-neighbor",
        "iterations": "2",
        "islands": "2",
        "migration_interval": "2",
        "timeout_s": "30",
        "rng_seed": "5",
        "backend": "mock",
        "mock_script": str(script),
        "parallelism": "2",
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n")
    return path


def fenced(src):
    return f"```python\n{src}\n```"


# --- run -------------------------------------------------------------------------


def test_cmd_run_writes_report(tmp_path, capsys):
    inst = bench_dir(tmp_path)
    script = write_mock_script(
        tmp_path / "s.jsonl",
        generate=[fenced(seed_source("nearest-neighbor"))] * 4,
        evolve=["meta"] * 2,
    )
    cfg = write_config(tmp_path, inst, script)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 2
    assert (out / "best_candidate.py").exists()
    assert (out / "experience.jsonl").exists()
    assert "run complete" in capsys.readouterr().out


def test_cmd_run_missing_instance_dir(tmp_path, capsys):
    script = write_mock_script(tmp_path / "s.jsonl", flat=["x"])
    cfg = write_config(tmp_path, tmp_path / "nope", script)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err


def test_cmd_run_reruns_identically(tmp_path):
    inst = bench_dir(tmp_path)
    responses = [fenced(seed_source("nearest-neighbor"))] * 4
    script1 = write_mock_script(tmp_path / "s1.jsonl", generate=responses, evolve=["m"] * 2)
    script2 = write_mock_script(tmp_path / "s2.jsonl", generate=responses, evolve=["m"] * 2)
    cfg1 = write_config(tmp_path, inst, script1)
    assert main(["run", "--config", str(cfg1), "--out", str(tmp_path / "o1")]) == 0
    cfg2 = write_config(tmp_path, inst, script2)
    assert main(["run", "--config", str(cfg2), "--out", str(tmp_path / "o2")]) == 0
    a = json.loads((tmp_path / "o1" / "report.json").read_text())
    b = json.loads((tmp_path / "o2" / "report.json").read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


# --- eval -------------------------------------------------------------------------


def test_cmd_eval_first_fit_spec_example(tmp_path, capsys):
    inst = bpp_dir(tmp_path)
    assert main(["eval", "--target", "first-fit", "--instances", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "0.00" in out
    assert "pack4" in out


def test_cmd_eval_nearest_neighbor_unit_square(tmp_path, capsys):
    inst = tmp_path / "sq"
    inst.mkdir()
    write_euc2d_file(inst / "square.tsp", "square", UNIT_SQUARE)
    (inst / "optima.txt").write_text("square 4\n")
    assert main(["eval", "--target", "nearest-neighbor", "--instances", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "mean" in out and "0.00" in out


def test_cmd_eval_candidate_file(tmp_path, capsys):
    inst = bpp_dir(tmp_path)
    prog = tmp_path / "my.py"
    prog.write_text(seed_source("best-fit"))
    assert main(["eval", "--target", str(prog), "--instances", str(inst)]) == 0


def test_cmd_eval_unknown_target(tmp_path, capsys):
    inst = bpp_dir(tmp_path)
    assert main(["eval", "--target", "simulated-annealing", "--instances", str(inst)]) == 1


def test_cmd_eval_bad_runner_value_exit_1(tmp_path, capsys):
    inst = bpp_dir(tmp_path)
    for flag, message in (("--workers", "workers must be >= 1"),
                          ("--timeout", "timeout must be positive")):
        assert main(["eval", "--target", "first-fit", "--instances", str(inst), flag, "0"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_cmd_eval_failing_candidate_exit_2(tmp_path, capsys):
    inst = bpp_dir(tmp_path)
    prog = tmp_path / "broken.py"
    prog.write_text("def broken(:\n")
    assert main(["eval", "--target", str(prog), "--instances", str(inst)]) == 2


# --- oracle ------------------------------------------------------------------------


def test_cmd_oracle_square(tmp_path, capsys):
    inst = tmp_path / "square.tsp"
    write_euc2d_file(inst, "square", UNIT_SQUARE)
    witness = tmp_path / "witness.json"
    assert main(["oracle", "--instance", str(inst), "--out", str(witness)]) == 0
    assert "optimal value 4" in capsys.readouterr().out
    doc = json.loads(witness.read_text())
    assert sorted(doc["tour"]) == [0, 1, 2, 3]


def test_cmd_oracle_bpp(tmp_path, capsys):
    inst = tmp_path / "pack.bpp"
    inst.write_text("4\n100\n50\n70\n50\n30\n")
    assert main(["oracle", "--instance", str(inst)]) == 0
    assert "optimal value 2" in capsys.readouterr().out


def test_cmd_oracle_refuses_oversized(tmp_path, capsys):
    import random

    rng = random.Random(0)
    pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(25)]
    inst = tmp_path / "big.tsp"
    write_euc2d_file(inst, "big", pts)
    assert main(["oracle", "--instance", str(inst)]) == 2
    assert "n <= 18" in capsys.readouterr().err


def test_cmd_oracle_missing_file(tmp_path):
    assert main(["oracle", "--instance", str(tmp_path / "ghost.tsp")]) == 1


# --- bench -------------------------------------------------------------------------


def test_cmd_bench_excludes_oversized(tmp_path, capsys):
    import random

    rng = random.Random(1)
    raw = tmp_path / "raw"
    raw.mkdir()
    write_tsp_file(raw / "a.tsp", "a", TRAP4)
    write_euc2d_file(raw / "b.tsp", "b", UNIT_SQUARE)
    (raw / "c.bpp").write_text("3\n10\n4\n5\n6\n")
    big = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(25)]
    write_euc2d_file(raw / "huge.tsp", "huge", big)
    out = tmp_path / "bench"
    assert main(["bench", "--src", str(raw), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "kept 3 instances, excluded 1" in printed
    assert "huge" in printed
    sidecar = (out / "optima.txt").read_text()
    assert "a 6" in sidecar and "b 4" in sidecar and "c 2" in sidecar
    assert not (out / "huge.tsp").exists()

    # rerun is deterministic
    out2 = tmp_path / "bench2"
    assert main(["bench", "--src", str(raw), "--out", str(out2)]) == 0
    assert (out2 / "optima.txt").read_text() == sidecar


def test_cmd_bench_sidecar_is_lossless_for_float_optima(tmp_path, capsys):
    import random

    from coevo.instances import load_benchmark
    from coevo.oracles import held_karp

    rng = random.Random(9)
    raw = tmp_path / "raw"
    raw.mkdir()
    # an explicit float matrix whose optimum is not representable in 6 digits
    pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(7)]
    from coevo.instances import TspInstance, coords_to_matrix, write_tsplib

    inst = TspInstance("floaty", 7, coords_to_matrix(pts, "exact"))
    (raw / "floaty.tsp").write_text(write_tsplib(inst))
    out = tmp_path / "bench"
    assert main(["bench", "--src", str(raw), "--out", str(out)]) == 0
    loaded = load_benchmark(out)
    assert loaded.instances[0].known_optimal == held_karp(inst).optimal_value
    # the optimal tour itself must evaluate to exactly 0% error, not super-optimal
    assert main(["eval", "--target", "two-opt", "--instances", str(out)]) in (0, 2)
    assert "super-optimal" not in capsys.readouterr().out


def test_cmd_bench_empty_dir(tmp_path):
    raw = tmp_path / "empty"
    raw.mkdir()
    assert main(["bench", "--src", str(raw), "--out", str(tmp_path / "o")]) == 1


# --- report -------------------------------------------------------------------------


def run_once(tmp_path):
    inst = bench_dir(tmp_path)
    script = write_mock_script(
        tmp_path / "s.jsonl",
        generate=[fenced(seed_source("two-opt"))] * 4,
        evolve=["m"] * 2,
    )
    cfg = write_config(tmp_path, inst, script)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "report.json"


def test_cmd_report_table_and_exports(tmp_path, capsys):
    report = run_once(tmp_path)
    prefix = tmp_path / "table"
    assert main(["report", str(report), "--out", str(prefix)]) == 0
    text = capsys.readouterr().out
    assert "nearest-neighbor" in text
    assert "58.33" in text  # base column equals the seed's standalone error
    assert "0.00" in text  # evolved column
    rows = json.loads((tmp_path / "table.json").read_text())
    assert rows[0]["base_error_pct"] == 58.33
    assert rows[0]["evolved_error_pct"] == 0.0
    csv_text = (tmp_path / "table.csv").read_text()
    assert "58.33" in csv_text


def test_cmd_report_base_matches_eval(tmp_path, capsys):
    report_path = run_once(tmp_path)
    doc = json.loads(report_path.read_text())
    assert main(["eval", "--target", "nearest-neighbor",
                 "--instances", str(tmp_path / "instances")]) == 0
    eval_out = capsys.readouterr().out
    base = doc["base_errors"]["nearest-neighbor"]
    assert f"{base:.2f}" in eval_out


def test_cmd_report_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", str(bad)]) == 1
    good = {"dataset": "d", "base_errors": {"nearest-neighbor": 1.5},
            "best": {"mean_relative_error": 0.5}}
    for case in ({"base_errors": [1.5]}, {"base_errors": {"nearest-neighbor": "x"}},
                 {"best": {"mean_relative_error": None}}):
        bad.write_text(json.dumps({**good, **case}))
        capsys.readouterr()
        assert main(["report", str(bad)]) == 1, case
        assert capsys.readouterr().err == f"error: malformed report file: {bad}\n", case
    bad.write_text(json.dumps(good))
    assert main(["report", str(bad)]) == 0


def test_cmd_run_resume_flag(tmp_path):
    inst = bench_dir(tmp_path)
    responses = [fenced(seed_source("nearest-neighbor"))] * 4
    script = write_mock_script(tmp_path / "s.jsonl", generate=responses, evolve=["m"] * 2)
    cfg = write_config(tmp_path, inst, script)
    out = tmp_path / "full"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    resumed = tmp_path / "resumed"
    checkpoint = out / "checkpoints" / "gen-0001.json"
    assert main(["run", "--resume", str(checkpoint), "--out", str(resumed)]) == 0
    a = json.loads((out / "report.json").read_text())
    b = json.loads((resumed / "report.json").read_text())
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b
    # without --resume, --config is mandatory
    assert main(["run", "--out", str(tmp_path / "x")]) == 1


def test_cmd_run_resume_malformed_checkpoint_exit_1(tmp_path, capsys):
    inst = bench_dir(tmp_path)
    responses = [fenced(seed_source("nearest-neighbor"))] * 2
    script = write_mock_script(tmp_path / "s.jsonl", generate=responses, evolve=["m"])
    cfg = write_config(tmp_path, inst, script, iterations=1)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "full")]) == 0
    ckpt = Path("checkpoints") / "gen-0001.json"
    text = (tmp_path / "full" / ckpt).read_text()

    def edited(edit):
        def apply(run):
            doc = json.loads(text)
            edit(doc)
            (run / ckpt).write_text(json.dumps(doc))
        return apply

    def journal(name, index, edit):
        return lambda run: edit_journal_line(run, run / ckpt, name, index, edit)

    def rewrite(rel, change):
        def apply(run):
            path = sorted(run.glob(rel))[0]
            path.write_bytes(change(path.read_bytes()))
        return apply

    broken = {
        "truncated": lambda run: (run / ckpt).write_text(text[: len(text) // 2]),
        "unknown-key": edited(lambda d: d["config"].update(bogus=1)),
        "mistyped-key": edited(lambda d: d["config"].update(iterations="twelve")),
        "wrong-version": edited(lambda d: d.update(version=99)),
        "previous-version": edited(lambda d: d.update(version=7)),
        "missing-section": edited(lambda d: d.pop("state")),
        "wrong-typed-section": edited(lambda d: d.update(counters=[])),
        "nested-leaf": journal("experience.jsonl", 0, lambda r: r.update(child_error="x")),
        "unknown-id": edited(lambda d: d["state"].update(best_id="c999999")),
        "dangling-child": journal("experience.jsonl", 0, lambda r: r.update(child_id="c999999")),
        "dangling-parent": journal("experience.jsonl", 0,
                                   lambda r: r.update(parent_id="c999999")),
        "log-mismatch": journal("archive.jsonl", 0, lambda r: r.update(outcome="rejected")),
        "repair-of-seed": edited(
            lambda d: d["counters"]["pending_repair"].update({"0": "c000000"})
        ),
        "repair-of-scored": edited(
            lambda d: d["counters"]["pending_repair"].update({"0": "c000002"})
        ),
        "no-prompts": edited(lambda d: d.update(prompts=[])),
        "unknown-version": edited(lambda d: d["prompts"][0].update(current_id=99)),
        "no-such-island": journal("archive.jsonl", 0, lambda r: r.update(island=2)),
        "no-such-prompt": journal("prompts.jsonl", 1, lambda v: v.update(prompt=1)),
        "version-out-of-sequence": journal("prompts.jsonl", 1, lambda v: v.update(id=2)),
        "unheld-discard": edited(lambda d: d["prompts"][0].update(discarded=[2])),
        "event-not-a-string": journal("events.jsonl", 0, lambda e: 7),
        "negative-cursor": edited(lambda d: d["llm_state"].update(generate=-1)),
        "cursor-past-script": edited(lambda d: d["llm_state"].update(generate=3)),
        "unknown-cursor-key": edited(lambda d: d["llm_state"].update(bogus=0)),
        "bad-optimum-value": edited(lambda d: d["counters"]["optima"].update({"0" * 64: -4})),
        "bad-optimum-key": edited(lambda d: d["counters"]["optima"].update({"ab12": 4})),
        "missing-journal-mark": edited(lambda d: d["journals"].pop("archive.jsonl")),
        "source-not-a-hash": journal("candidates.jsonl", 0, lambda r: r.update(source="x")),
        # a source line that no longer hashes as the candidates name it, or is gone
        "changed-source": journal("sources.jsonl", 0, lambda s: s + "# edited\n"),
        "missing-source": lambda run: rewrite_journal(run, run / ckpt, "sources.jsonl",
                                                      lambda lines: lines[1:]),
        # the journals no longer hold what the checkpoint counts
        "truncated-journal": rewrite("experience.jsonl", lambda data: data[:-10]),
        "changed-journal": rewrite(
            "archive.jsonl", lambda data: data.replace(b'"generation": 0', b'"generation": 1', 1)
        ),
        "missing-journal": lambda run: (run / "candidates.jsonl").unlink(),
    }
    capsys.readouterr()
    for name, damage in broken.items():
        run = tmp_path / f"{name}-run"
        shutil.copytree(tmp_path / "full", run)
        damage(run)
        before = run_files(run)
        for out in (tmp_path / name, run):  # a fresh directory, then the run's own
            assert main(["run", "--resume", str(run / ckpt), "--out", str(out)]) == 1, name
            err = capsys.readouterr().err
            assert err.startswith("error: malformed checkpoint") and err.count("\n") == 1, err
            assert run_files(run) == before, name
        assert not (tmp_path / name).exists(), name


def test_cmd_run_resume_refuses_run_flags(tmp_path, capsys):
    inst = bench_dir(tmp_path)
    responses = [fenced(seed_source("nearest-neighbor"))] * 2
    script = write_mock_script(tmp_path / "s.jsonl", generate=responses, evolve=["m"])
    cfg = write_config(tmp_path, inst, script, iterations=1)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "full")]) == 0
    checkpoint = tmp_path / "full" / "checkpoints" / "gen-0000.json"
    capsys.readouterr()
    for flag, value in (("--config", str(cfg)), ("--seed", "3"), ("--backend", "mock"),
                        ("--mock-script", str(script))):
        out = tmp_path / flag.strip("-")
        assert main(["run", "--resume", str(checkpoint), "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} cannot change a resumed run\n"
        assert not out.exists()


def test_cmd_run_seed_flag_overrides_config(tmp_path):
    inst = bench_dir(tmp_path)
    responses = [fenced(seed_source("nearest-neighbor"))] * 4
    script = write_mock_script(tmp_path / "s.jsonl", generate=responses, evolve=["m"] * 2)
    cfg = write_config(tmp_path, inst, script)
    out = tmp_path / "seeded"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
    assert json.loads((out / "report.json").read_text())["rng_seed"] == 99


def test_usage_errors_exit_1():
    assert main(["run"]) == 1
    assert main(["definitely-not-a-command"]) == 1
