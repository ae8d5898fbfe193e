import dataclasses
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import make_set, random_bpp, random_tsp
from coevo.errors import MissingOptimumError
from coevo.evaluator import (
    FAIL_CONSTRAINT,
    FAIL_INVALID,
    FAIL_START,
    FAIL_SUPER_OPTIMAL,
    FAIL_TIMEOUT,
    FILE_SIZE_LIMIT,
    MEMORY_LIMIT,
    Candidate,
    RunnerConfig,
    evaluate_candidate,
    instance_document,
    run_candidate,
)
from coevo.heuristics import (
    christofides,
    fit_packing,
    insertion_tour,
    nearest_neighbor,
    tour_length,
    two_opt,
)
from coevo.oracles import ensure_optima
from coevo.seeds import SEEDS, seed_names, seed_source

FAST = RunnerConfig(timeout_s=30.0)


def scored_set(*instances):
    return ensure_optima(make_set(*instances))


def emit_program(payload: str) -> str:
    return f"import sys\nsys.stdout.write({payload!r})\n"


# --- protocol documents -------------------------------------------------------


def test_instance_documents_are_single_line_json(unit_square):
    doc = json.loads(instance_document(unit_square))
    assert doc["type"] == "tsp"
    assert doc["n"] == 4
    assert "\n" not in instance_document(unit_square)
    bpp = random_bpp(random.Random(0), 3)
    doc = json.loads(instance_document(bpp))
    assert doc["type"] == "bpp"
    assert doc["sizes"] == bpp.sizes
    assert doc["capacity"] == bpp.capacity


# --- seed parity: subprocess equals native -------------------------------------


def native_objective(name: str, instance) -> float:
    if name == "nearest-neighbor":
        return tour_length(instance, nearest_neighbor(instance, 0))
    if name == "nearest-insertion":
        return tour_length(instance, insertion_tour(instance, "nearest"))
    if name == "farthest-insertion":
        return tour_length(instance, insertion_tour(instance, "farthest"))
    if name == "random-insertion":
        return tour_length(instance, insertion_tour(instance, "random", random.Random(0)))
    if name == "two-opt":
        return tour_length(instance, two_opt(instance, nearest_neighbor(instance, 0)))
    if name == "christofides":
        return tour_length(instance, christofides(instance))
    policy = name.split("-")[0]
    return fit_packing(instance, policy).bin_count()


@pytest.mark.parametrize("name", seed_names())
def test_seed_subprocess_matches_native(name):
    rng = random.Random(17)
    if SEEDS[name].problem == "tsp":
        instances = [random_tsp(rng, rng.randint(4, 9)) for _ in range(2)]
    else:
        instances = [random_bpp(rng, rng.randint(3, 10)) for _ in range(2)]
    iset = scored_set(*instances)
    candidate = Candidate(id=f"seed-{name}", source=seed_source(name))
    report = evaluate_candidate(candidate, iset, FAST)
    assert report.mean_relative_error is not None, report.diagnostic
    by_name = {inst.name: inst for inst in iset}
    for record in report.records:
        assert record.objective == native_objective(name, by_name[record.instance_name])


# --- failure classes -------------------------------------------------------------


def test_first_fit_seed_on_spec_example():
    from coevo.instances import BppInstance

    inst = BppInstance("b", 4, [50, 70, 50, 30], 100, known_optimal=2)
    candidate = Candidate(id="ff", source=seed_source("first-fit"))
    outcome = run_candidate(candidate, inst, FAST)
    assert outcome.valid
    assert outcome.objective == 2


def test_timeout_is_classified(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    sleeper = Candidate(id="sleep", source="import time\ntime.sleep(60)\n")
    cfg = RunnerConfig(timeout_s=0.5)
    outcome = run_candidate(sleeper, inst, cfg)
    assert outcome.failure_class == FAIL_TIMEOUT


def test_timeout_diagnostic_carries_decoded_stderr(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    source = (
        "import sys, time\nsys.stderr.write('warming up\\n')\nsys.stderr.flush()\n"
        "time.sleep(60)\n"
    )
    outcome = run_candidate(Candidate(id="warm", source=source), inst, RunnerConfig(timeout_s=1.0))
    assert outcome.failure_class == FAIL_TIMEOUT
    assert "warming up" in outcome.diagnostic
    assert "b'" not in outcome.diagnostic


def test_deeply_nested_output_is_invalid(unit_square):
    # 200 KB, under the output cap, but too deep for the JSON decoder
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    nested = '{"tour":' + "[" * 100_000 + "]" * 100_000 + "}"
    outcome = run_candidate(Candidate(id="deep", source=emit_program(nested)), inst, FAST)
    assert outcome.failure_class == FAIL_INVALID
    assert "not a JSON document" in outcome.diagnostic


def test_duplicate_vertex_is_invalid_output(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    bad = Candidate(id="dup", source=emit_program('{"tour": [0, 0, 1, 2]}'))
    outcome = run_candidate(bad, inst, FAST)
    assert outcome.failure_class == FAIL_INVALID
    assert "duplicate vertex" in outcome.diagnostic


def test_capacity_violation_names_bin():
    from coevo.instances import BppInstance

    inst = BppInstance("b", 2, [0.7, 0.5], 1.0, known_optimal=2)
    bad = Candidate(id="over", source=emit_program('{"bins": [[0, 1]]}'))
    outcome = run_candidate(bad, inst, FAST)
    assert outcome.failure_class == FAIL_CONSTRAINT
    assert "bin 0" in outcome.diagnostic


def test_super_optimal_flags_corruption(unit_square):
    # sidecar claims the optimum is 10 although valid tours reach 4
    inst = dataclasses.replace(unit_square, known_optimal=10.0)
    candidate = Candidate(id="nn", source=seed_source("nearest-neighbor"))
    outcome = run_candidate(candidate, inst, FAST)
    assert outcome.failure_class == FAIL_SUPER_OPTIMAL


def test_crash_is_start_failure_with_traceback(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    broken = Candidate(id="broken", source="def oops(:\n")
    outcome = run_candidate(broken, inst, FAST)
    assert outcome.failure_class == FAIL_START
    assert "SyntaxError" in outcome.diagnostic


def test_garbage_stdout_is_invalid(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    chatty = Candidate(id="chat", source="print('hello world')\n")
    outcome = run_candidate(chatty, inst, FAST)
    assert outcome.failure_class == FAIL_INVALID


def test_oversized_output_is_invalid(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    spam = Candidate(id="spam", source="print('x' * 1000)\n")
    cfg = dataclasses.replace(FAST, max_output_bytes=100)
    outcome = run_candidate(spam, inst, cfg)
    assert outcome.failure_class == FAIL_INVALID
    assert "size cap" in outcome.diagnostic


@pytest.mark.parametrize(
    "source, failure_class, needle",
    [
        ("import sys\nsys.stdout.buffer.write(b'\\xff\\xfe')\n", FAIL_INVALID, "not a JSON"),
        ("import sys\nsys.stderr.buffer.write(b'\\xff oops')\nsys.exit(3)\n", FAIL_START, "oops"),
        ("print('\ud800')\n", FAIL_START, "Non-UTF-8"),
    ],
    ids=["stdout", "stderr", "source"],
)
def test_non_utf8_bytes_are_classified(unit_square, source, failure_class, needle):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    outcome = run_candidate(Candidate(id="bytes", source=source), inst, FAST)
    assert outcome.failure_class == failure_class
    assert needle in outcome.diagnostic


def test_long_diagnostic_is_truncated(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    source = "import sys\nsys.stderr.write('x' * 10000)\nsys.exit(1)\n"
    outcome = run_candidate(Candidate(id="loud", source=source), inst, FAST)
    assert outcome.failure_class == FAIL_START
    assert len(outcome.diagnostic) == 4096


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process state from /proc")
def test_timeout_kills_the_candidates_process_group(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    source = (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen(['sleep', '30'])\n"
        "sys.stderr.write(f'grandchild {child.pid}\\n')\n"
        "sys.stderr.flush()\n"
        "time.sleep(60)\n"
    )
    outcome = run_candidate(Candidate(id="fork", source=source), inst, RunnerConfig(timeout_s=0.7))
    assert outcome.failure_class == FAIL_TIMEOUT
    pid = int(re.search(r"grandchild (\d+)", outcome.diagnostic).group(1))
    deadline = time.monotonic() + 2.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(pid)


def test_output_flood_is_cut_at_the_cap(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    source = "import sys, time\nsys.stdout.write('x' * (16 << 20))\nsys.stdout.flush()\ntime.sleep(60)\n"
    started = time.monotonic()
    outcome = run_candidate(Candidate(id="flood", source=source), inst, RunnerConfig(timeout_s=10))
    assert outcome.failure_class == FAIL_INVALID
    assert "size cap" in outcome.diagnostic
    assert time.monotonic() - started < 5


def _wait_gone(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not _running(pid)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process state from /proc")
def test_escaped_session_is_reaped(unit_square, tmp_path):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    pidfile = tmp_path / "grandchild"
    source = (
        "import pathlib, subprocess\n"
        "child = subprocess.Popen(['sleep', '30'], start_new_session=True,\n"
        "                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
        f"pathlib.Path({str(pidfile)!r}).write_text(str(child.pid))\n"
        "print('{\"tour\": [0, 1, 2, 3]}')\n"
    )
    outcome = run_candidate(Candidate(id="escape", source=source), inst, FAST)
    assert outcome.valid, outcome.diagnostic
    assert _wait_gone(int(pidfile.read_text()), 2.0)


# a candidate that fails with its parent's pid (the helper's) and its hash of 'abc'
REPORT_HELPER = "import os, sys\nsys.exit(f'{os.getppid()} {hash(\"abc\")}')\n"


def _helper_pid_and_hash(instance) -> tuple[int, int]:
    outcome = run_candidate(Candidate(id="report", source=REPORT_HELPER), instance, FAST)
    assert outcome.failure_class == FAIL_START
    pid, value = map(int, outcome.diagnostic.split())
    assert pid != os.getpid()
    return pid, value


def test_helper_killed_between_evaluations_is_replaced(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    helper, _ = _helper_pid_and_hash(inst)
    os.kill(helper, signal.SIGKILL)
    candidate = Candidate(id="nn", source=seed_source("nearest-neighbor"))
    assert run_candidate(candidate, inst, FAST).valid


def test_helper_killed_during_evaluation_is_classified(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    source = (
        "import os, signal, time\n"
        f"if os.getppid() != {os.getpid()}:  # never the test process itself\n"
        "    os.kill(os.getppid(), signal.SIGKILL)\n"
        "time.sleep(0.2)\n"
        "print('{\"tour\": [0, 1, 2, 3]}')\n"
    )
    outcome = run_candidate(Candidate(id="regicide", source=source), inst, FAST)
    assert outcome.failure_class == FAIL_START
    candidate = Candidate(id="nn", source=seed_source("nearest-neighbor"))
    assert run_candidate(candidate, inst, FAST).valid


def test_hash_seed_is_the_same_in_every_helper(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    first, first_hash = _helper_pid_and_hash(inst)
    os.kill(first, signal.SIGKILL)
    second, second_hash = _helper_pid_and_hash(inst)
    assert second != first
    assert first_hash == second_hash
    fresh = subprocess.run([sys.executable, "-c", "print(hash('abc'))"], capture_output=True,
                           text=True, env={"PYTHONHASHSEED": "0"}, check=True)
    assert first_hash == int(fresh.stdout)


def test_forked_process_starts_its_own_helper(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    ours, _ = _helper_pid_and_hash(inst)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(write_end, str(_helper_pid_and_hash(inst)[0]).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    os.waitpid(pid, 0)
    with open(read_end, "rb") as f:
        theirs = int(f.read())
    assert theirs != ours
    assert _helper_pid_and_hash(inst)[0] == ours


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process state from /proc")
def test_no_helper_outlives_its_coevo_process():
    src = str(Path(__file__).resolve().parent.parent / "src")
    program = (
        "from coevo.evaluator import Candidate, RunnerConfig, run_candidate\n"
        "from coevo.instances import TspInstance\n"
        "inst = TspInstance('t', 3, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])\n"
        f"outcome = run_candidate(Candidate(id='r', source={REPORT_HELPER!r}), inst, RunnerConfig())\n"
        "print(outcome.diagnostic.split()[0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert _wait_gone(int(proc.stdout), 5.0)


def test_memory_is_limited(unit_square):
    assert MEMORY_LIMIT < 8 << 30
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    outcome = run_candidate(Candidate(id="hog", source="bytearray(8 << 30)\n"), inst, FAST)
    assert outcome.failure_class == FAIL_START
    assert "MemoryError" in outcome.diagnostic


def test_file_size_is_limited(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    assert FILE_SIZE_LIMIT % (1 << 20) == 0
    source = (
        "import os\n"
        "with open('big', 'wb', buffering=0) as f:\n"
        f"    for _ in range({FILE_SIZE_LIMIT >> 20}):\n"
        "        f.write(bytes(1 << 20))\n"
        f"    assert os.path.getsize('big') == {FILE_SIZE_LIMIT}\n"
        "    f.write(b'x')\n"
    )
    outcome = run_candidate(Candidate(id="filler", source=source), inst, FAST)
    assert outcome.failure_class == FAIL_START
    assert "File too large" in outcome.diagnostic
    assert "AssertionError" not in outcome.diagnostic


def test_file_size_error_can_be_caught(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    source = (
        "import errno\n"
        "try:\n"
        "    with open('big', 'wb', buffering=0) as f:\n"
        f"        f.seek({FILE_SIZE_LIMIT})\n"
        "        f.write(b'x')\n"
        "except OSError as exc:\n"
        "    assert exc.errno == errno.EFBIG\n"
        "else:\n"
        "    raise SystemExit('the write past the cap succeeded')\n"
        "print('{\"tour\": [0, 1, 2, 3]}')\n"
    )
    outcome = run_candidate(Candidate(id="careful", source=source), inst, FAST)
    assert outcome.valid, outcome.diagnostic


def run_cold(source, tmp_path):
    """What a fresh interpreter does with source saved as candidate.py in tmp_path."""
    (tmp_path / "candidate.py").write_text(source)
    return subprocess.run([sys.executable, "-s", "-S", "-P", "candidate.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=30,
                          env={"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"})


@pytest.mark.parametrize("source, error", [
    ("import json\n\ndef main(:\n    pass\n", "SyntaxError"),
    ("def main():\nreturn 1\n", "IndentationError"),
])
def test_compile_errors_match_a_cold_interpreter(unit_square, tmp_path, source, error):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    cold = run_cold(source, tmp_path)
    assert cold.returncode == 1
    assert error in cold.stderr
    outcome = run_candidate(Candidate(id="broken", source=source), inst, FAST)
    assert outcome.failure_class == FAIL_START
    # the evaluator drops the temporary directory from the paths it reports
    assert outcome.diagnostic == cold.stderr.replace(f"{tmp_path}{os.sep}", "").strip()


def test_recursion_depth_matches_a_cold_interpreter(unit_square, tmp_path):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    source = (
        "import sys\n"
        "def down(n):\n"
        "    try:\n"
        "        return down(n + 1)\n"
        "    except RecursionError:\n"
        "        return n\n"
        "sys.stderr.write(f'{down(1)}\\n')\n"
        "sys.exit(3)\n"
    )
    program = tmp_path / "candidate.py"
    program.write_text(source)
    cold = subprocess.run([sys.executable, "-s", "-S", "-P", str(program)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=30,
                          env={"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"})
    assert cold.returncode == 3
    outcome = run_candidate(Candidate(id="deep", source=source), inst, FAST)
    assert outcome.failure_class == FAIL_START
    assert outcome.diagnostic == cold.stderr.strip()


# --- evaluate_candidate -----------------------------------------------------------


def test_perfect_candidate_scores_zero(unit_square, trap4):
    iset = scored_set(unit_square, trap4)
    candidate = Candidate(id="best", source=seed_source("two-opt"))
    report = evaluate_candidate(candidate, iset, FAST)
    assert report.mean_relative_error == 0.0
    assert candidate.performance == 0.0


def test_uniformly_worse_candidate_mean(unit_square):
    inst = dataclasses.replace(unit_square, known_optimal=4.0)
    # fixed crossing tour: length 2 + 2*sqrt(2) = 4.8284.. -> 20.71..%
    fixed = Candidate(id="cross", source=emit_program('{"tour": [0, 2, 1, 3]}'))
    report = evaluate_candidate(fixed, make_set(inst), FAST)
    assert report.mean_relative_error == pytest.approx(20.710678, abs=1e-5)
    assert fixed.performance == pytest.approx(-20.710678, abs=1e-5)


def test_one_failure_dominates_and_blocks_score(unit_square, trap4):
    iset = scored_set(unit_square, trap4)
    # valid only on 4-vertex tours; sleeps forever otherwise is overkill — use
    # a program that answers square but crashes on trap4 via name check
    source = (
        "import json, sys\n"
        "doc = json.loads(sys.stdin.read())\n"
        "if doc['matrix'][0][3] == 10:\n"
        "    raise RuntimeError('refuse trap')\n"
        "sys.stdout.write(json.dumps({'tour': [0, 1, 2, 3]}))\n"
    )
    candidate = Candidate(id="partial", source=source)
    report = evaluate_candidate(candidate, iset, FAST)
    assert report.mean_relative_error is None
    assert candidate.performance is None
    # instances are name-sorted: square then trap4; first failure is trap4's
    assert report.failure_class == FAIL_START
    assert report.records[0].valid
    assert not report.records[1].valid


def test_missing_optimum_fails_before_execution(unit_square):
    iset = make_set(unit_square)  # no optimum attached
    candidate = Candidate(id="nn", source=seed_source("nearest-neighbor"))
    with pytest.raises(MissingOptimumError, match="square"):
        evaluate_candidate(candidate, iset, FAST)


def test_parallel_execution_preserves_instance_order():
    rng = random.Random(23)
    instances = [random_tsp(rng, 5) for _ in range(4)]
    for i, inst in enumerate(instances):
        instances[i] = dataclasses.replace(inst, name=f"inst{i}")
    iset = scored_set(*instances)
    candidate = Candidate(id="nn", source=seed_source("nearest-neighbor"))
    parallel = dataclasses.replace(FAST, workers=4)
    report = evaluate_candidate(candidate, iset, parallel)
    assert [r.instance_name for r in report.records] == sorted(inst.name for inst in instances)
    assert report.mean_relative_error is not None


def test_evaluation_reproducible(unit_square, trap4):
    iset = scored_set(unit_square, trap4)
    candidate = Candidate(id="nn", source=seed_source("nearest-neighbor"))
    a = evaluate_candidate(candidate, iset, FAST)
    b = evaluate_candidate(candidate, iset, FAST)
    strip = lambda rep: [
        (r.instance_name, r.objective, r.rel_error, r.valid, r.failure_class)
        for r in rep.records
    ]
    assert strip(a) == strip(b)
    assert a.mean_relative_error == b.mean_relative_error


def test_total_budget_knob(unit_square, trap4):
    iset = scored_set(unit_square, trap4)
    sleeper = Candidate(id="slow", source="import time\ntime.sleep(5)\n")
    cfg = RunnerConfig(timeout_s=30.0, total_timeout_s=0.5)
    report = evaluate_candidate(sleeper, iset, cfg)
    assert report.mean_relative_error is None
    assert report.failure_class == FAIL_TIMEOUT


def test_performance_ordering_equals_error_ordering():
    # argmax over performance must agree with argmin over mean error
    rng = random.Random(31)
    errors = [rng.uniform(0, 50) for _ in range(40)]
    candidates = []
    for i, err in enumerate(errors):
        cand = Candidate(id=f"c{i}", source="x")
        cand.performance = -err
        candidates.append(cand)
    by_performance = max(candidates, key=lambda c: c.performance)
    by_error = min(range(len(errors)), key=lambda i: errors[i])
    assert by_performance.id == f"c{by_error}"
    ranked_perf = sorted(candidates, key=lambda c: c.performance, reverse=True)
    ranked_err = sorted(candidates, key=lambda c: -c.performance)
    assert [c.id for c in ranked_perf] == [c.id for c in ranked_err]
