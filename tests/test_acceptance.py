"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (the assertion itself is the gate; the print
carries the measured runtime)."""

import json
import math
import random
import time

from conftest import (
    TRAP4,
    UNIT_SQUARE,
    random_bpp,
    random_tsp,
    write_euc2d_file,
    write_mock_script,
    write_tsp_file,
)
from coevo.archive import (
    ACCEPTED_NEW,
    REJECTED,
    REPLACED,
    Descriptor,
    EvolutionState,
    IslandArchive,
    migrate,
)
from coevo.evaluator import Candidate, RunnerConfig, evaluate_candidate
from coevo.heuristics import (
    FIT_POLICIES,
    Tour,
    christofides,
    fit_packing,
    tour_length,
    two_opt,
    validate_packing,
)
from coevo.instances import load_benchmark
from coevo.oracles import brute_force_tsp, ensure_optima, exact_bpp, held_karp, relative_error
from coevo.orchestrator import EvolutionRun, RunConfig, resume
from coevo.promptevo import sample_strategy, strategy_pool
from coevo.seeds import seed_source

CHI2_CRIT_DF4_P01 = 13.2767  # df=4 upper 1% point


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.started = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.started
        status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
        print(f"acceptance: {self.name}: {status} in {elapsed:.2f}s (budget {self.seconds:.0f}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"


def scored(cid, perf, pbin, cbin=0):
    return Candidate(id=cid, source="x", performance=perf,
                     descriptor=Descriptor(pbin, cbin))


def bench_dir(tmp_path):
    inst = tmp_path / "instances"
    inst.mkdir(exist_ok=True)
    write_tsp_file(inst / "trap4.tsp", "trap4", TRAP4)
    write_euc2d_file(inst / "square.tsp", "square", UNIT_SQUARE)
    (inst / "optima.txt").write_text("trap4 6\nsquare 4\n")
    return inst


def full_config(tmp_path, script, **kw):
    defaults = dict(
        problem="tsp",
        instances=str(bench_dir(tmp_path)),
        seeds=("nearest-neighbor",),
        iterations=20,
        islands=5,
        migration_interval=4,
        timeout_s=30.0,
        rng_seed=2024,
        backend="mock",
        mock_script=str(script),
        parallelism=4,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def fenced(src):
    return f"```python\n{src}\n```"


def report_minus_wallclock(path):
    doc = json.loads(path.read_text())
    doc.pop("wall_time_s")
    return json.dumps(doc, sort_keys=True)


def test_criterion_01_metric_exactness():
    budget = Budget("1 metric exactness", 1.0)
    rng = random.Random(101)
    for _ in range(1000):
        o = rng.uniform(0.1, 1000.0)
        a = o * rng.uniform(0.5, 3.0)
        got = relative_error(a, o)
        want = (a - o) / o * 100.0
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    budget.done()


def test_criterion_02_oracle_equivalence():
    budget = Budget("2 oracle equivalence", 10.0)
    rng = random.Random(202)
    for _ in range(200):
        inst = random_tsp(rng, rng.randint(4, 8))
        assert held_karp(inst).optimal_value == brute_force_tsp(inst).optimal_value
    budget.done()


def test_criterion_03_christofides_guarantee():
    budget = Budget("3 christofides 1.5x", 60.0)
    rng = random.Random(303)
    violations = 0
    for _ in range(100):
        inst = random_tsp(rng, rng.randint(6, 14))
        ratio = tour_length(inst, christofides(inst)) / held_karp(inst).optimal_value
        violations += ratio > 1.5
    assert violations == 0
    budget.done()


def test_criterion_04_two_opt_local_optimality():
    budget = Budget("4 two-opt local optimality", 60.0)
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(8, 30)
        inst = random_tsp(rng, n, rounding="nearest")  # integer matrix, exact arithmetic
        start = list(range(n))
        rng.shuffle(start)
        initial = Tour(tuple(start))
        out = two_opt(inst, initial)
        base = tour_length(inst, out)
        assert base <= tour_length(inst, initial)
        order = list(out.order)
        for p in range(n - 2):
            limit = n if p > 0 else n - 1
            for q in range(p + 2, limit):
                cand = order[: p + 1] + order[p + 1 : q + 1][::-1] + order[q + 1 :]
                assert tour_length(inst, Tour(tuple(cand))) >= base - 1e-6
    budget.done()


def test_criterion_05_bpp_validity_and_bounds():
    budget = Budget("5 bpp validity + bounds", 120.0)
    rng = random.Random(505)
    for _ in range(500):
        inst = random_bpp(rng, rng.randint(1, 50))
        volume = math.ceil(sum(inst.sizes) / inst.capacity - 1e-9)
        for policy in FIT_POLICIES:
            packing = fit_packing(inst, policy)
            assert validate_packing(inst, packing) is None
            assert volume <= packing.bin_count() <= inst.n
    matches = 0
    for _ in range(100):
        inst = random_bpp(rng, rng.randint(6, 14))
        optimum = exact_bpp(inst).optimal_value
        first = fit_packing(inst, "first").bin_count()
        assert first >= optimum
        matches += first == optimum
    assert matches >= 50, f"first-fit matched optimum on only {matches}/100"
    budget.done()


def test_criterion_06_archive_update_law():
    budget = Budget("6 archive update law", 5.0)
    rng = random.Random(606)
    for seq in range(10000):
        island = IslandArchive(island_id=0)
        floor = {}
        for k in range(rng.randint(1, 8)):
            cand = scored(f"s{seq}k{k}", rng.uniform(-50.0, 0.0), rng.randrange(3),
                          rng.randrange(2))
            outcome = island.insert(cand)
            cell = cand.descriptor
            prev = floor.get(cell)
            if prev is None:
                assert outcome == ACCEPTED_NEW
            elif cand.performance >= prev:
                assert outcome == REPLACED
                assert island.cells[cell].id == cand.id
            else:
                assert outcome == REJECTED
            now = island.cells[cell].performance
            assert prev is None or now >= prev
            floor[cell] = now
    budget.done()


def test_criterion_07_migration_safety():
    budget = Budget("7 migration safety", 5.0)
    rng = random.Random(707)
    for trial in range(1000):
        state = EvolutionState.fresh(2)
        for island in state.islands:
            for k in range(rng.randint(1, 5)):
                island.insert(
                    scored(f"t{trial}i{island.island_id}k{k}", rng.uniform(-40.0, 0.0),
                           rng.randrange(3), rng.randrange(2))
                )
        before = [{d: c.performance for d, c in isl.cells.items()} for isl in state.islands]
        migrate(state)
        for island, prior in zip(state.islands, before):
            for cell, perf in prior.items():
                assert island.cells[cell].performance >= perf
    budget.done()


def mixed_script(tmp_path, name):
    nn = fenced(seed_source("nearest-neighbor"))
    topt = fenced(seed_source("two-opt"))
    texts = []
    for g in range(20):
        for i in range(5):
            texts.append(topt if (g * 5 + i) % 7 == 3 else nn)
    return write_mock_script(tmp_path / name, generate=texts,
                             evolve=[f"meta prompt {g}" for g in range(20)])


def test_criterion_08_determinism(tmp_path):
    budget = Budget("8 determinism", 60.0)
    script = mixed_script(tmp_path, "det.jsonl")
    cfg = full_config(tmp_path, script)
    EvolutionRun(cfg, out_dir=tmp_path / "A").run()
    EvolutionRun(cfg, out_dir=tmp_path / "B").run()
    a = report_minus_wallclock(tmp_path / "A" / "report.json")
    b = report_minus_wallclock(tmp_path / "B" / "report.json")
    assert a == b
    budget.done()


def test_criterion_09_loop_efficacy(tmp_path):
    budget = Budget("9 loop efficacy", 60.0)
    inst_dir = bench_dir(tmp_path)
    instances = ensure_optima(load_benchmark(inst_dir))
    runner = RunnerConfig(timeout_s=30.0, workers=4)
    nn_probe = Candidate(id="probe-nn", source=seed_source("nearest-neighbor"))
    nn_error = evaluate_candidate(nn_probe, instances, runner).mean_relative_error
    topt_probe = Candidate(id="probe-2opt", source=seed_source("two-opt"))
    topt_error = evaluate_candidate(topt_probe, instances, runner).mean_relative_error
    assert topt_error < nn_error  # the injection must be a strict improvement

    nn = fenced(seed_source("nearest-neighbor"))
    topt = fenced(seed_source("two-opt"))
    texts = [nn] * 10 + [topt] * 5 + [nn] * 85  # two-opt arrives exactly at generation 3
    script = write_mock_script(tmp_path / "eff.jsonl", generate=texts,
                               evolve=["meta"] * 20)
    cfg = full_config(tmp_path, script)
    report = EvolutionRun(cfg, out_dir=tmp_path / "out").run()

    assert report.trace[0] == nn_error
    assert report.trace[1] == nn_error
    assert report.trace[2] < report.trace[1]  # strict drop at generation 3
    assert report.trace[2] == topt_error
    assert report.trace[-1] == topt_error
    assert all(x >= y for x, y in zip(report.trace, report.trace[1:]))
    budget.done()


def test_criterion_10_executable_rate(tmp_path):
    budget = Budget("10 executable-rate accounting", 30.0)
    nn = fenced(seed_source("nearest-neighbor"))
    invalid = "def broken(:\n"
    texts = [nn, invalid, nn, nn, invalid] + [nn, nn, invalid, nn, nn]  # 7 valid, 3 invalid
    script = write_mock_script(tmp_path / "rate.jsonl", generate=texts, evolve=["m"] * 2)
    cfg = full_config(tmp_path, script, iterations=2)
    report = EvolutionRun(cfg, out_dir=tmp_path / "out").run()
    assert sum(report.generated_per_generation) == 10
    assert report.executable_rate == 0.7
    budget.done()


def test_criterion_11_strategy_sampling():
    budget = Budget("11 strategy sampling", 5.0)
    rng = random.Random(1111)
    counts = {s.name: 0 for s in strategy_pool()}
    for _ in range(10000):
        counts[sample_strategy({}, rng=rng).name] += 1
    expected = 10000 / 5
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_DF4_P01, f"chi2={chi2:.2f}"

    dominant = {"structural-modification": 6.0}
    counts = {s.name: 0 for s in strategy_pool()}
    for _ in range(10000):
        counts[sample_strategy(dominant, rng=rng).name] += 1
    assert max(counts, key=counts.get) == "structural-modification"
    budget.done()


def test_criterion_12_resume_fidelity(tmp_path):
    budget = Budget("12 resume fidelity", 60.0)
    script = mixed_script(tmp_path, "resume.jsonl")
    cfg = full_config(tmp_path, script)
    EvolutionRun(cfg, out_dir=tmp_path / "full").run()
    resume(tmp_path / "full" / "checkpoints" / "gen-0010.json", out_dir=tmp_path / "resumed")
    a = report_minus_wallclock(tmp_path / "full" / "report.json")
    b = report_minus_wallclock(tmp_path / "resumed" / "report.json")
    assert a == b
    budget.done()
