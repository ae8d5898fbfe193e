"""One measured coevo process: a full run, a resume, or the spawn floor.

``run.py`` starts a fresh interpreter on this file for every
measurement, so ``ru_maxrss`` is the peak of that one job. The job arrives
as a JSON argument; the result is one JSON line on stdout.

Every time reported here is steal-free wall time (``Stopwatch``): on a
virtual machine whose host lends its CPUs to other guests, the time those
guests took is left out, so that a run measures the program and not the
host's load.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coevo import orchestrator  # noqa: E402
from coevo.evaluator import Candidate, RunnerConfig  # noqa: E402
from coevo.instances import TspInstance  # noqa: E402
from coevo.llm import MockBackend  # noqa: E402
from coevo.orchestrator import EvolutionRun, RunConfig  # noqa: E402


class DelayedMockBackend(MockBackend):
    """The scripted mock with a fixed wait per completion, as a remote model would add.

    It stays a ``MockBackend``, so checkpoints keep its cursor state.
    """

    delay_s = 0.0
    waited_s = 0.0  # the delays so far: simulated remote time, not the host's

    def complete_once(self, request):
        time.sleep(self.delay_s)
        self.waited_s += self.delay_s
        return super().complete_once(request)


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks of all CPUs since boot; (0, 0) where /proc/stat has none."""
    try:
        t = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
        return t[0] + t[1] + t[2] + t[5] + t[6], t[7]  # user nice system irq softirq; steal
    except (OSError, ValueError, IndexError):
        return 0, 0


class Stopwatch:
    """Wall time, less the share of CPU time the hypervisor gave to other guests.

    Over the interval, the busy CPU ticks are the time this machine's CPUs ran,
    and the steal ticks the time they were ready to run but held off. Wall time
    scales by busy / (busy + steal); without steal it is plain wall time. On a
    2-vCPU guest, as steal rose from near 0 to 30% of the CPU time that was
    not idle, tsp-large-encode's loop took up to 50% longer in wall time and up to
    11% longer in this time. What is left is mostly the host slowing the CPU
    itself, which shows in the busy ticks too.
    """

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.busy, self.steal = cpu_ticks()

    def seconds(self) -> float:
        wall = time.perf_counter() - self.started
        busy, steal = cpu_ticks()
        busy, steal = busy - self.busy, steal - self.steal
        return wall * busy / (busy + steal) if busy > 0 and steal > 0 else wall


def make_backend(job: dict) -> MockBackend:
    backend = DelayedMockBackend.from_file(job["config"]["mock_script"])
    backend.delay_s = job["llm_delay_s"]
    return backend


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def set_up(job: dict, out: Path, backend: MockBackend) -> tuple[EvolutionRun, float]:
    """Construct the run and plant the seeds: load, oracles, seed probes, first checkpoint."""
    clock = Stopwatch()
    evo = EvolutionRun(RunConfig.from_dict(job["config"]), out_dir=out, backend=backend)
    evo.init_population()
    return evo, clock.seconds()


def probe_s() -> float:
    """Steal-free time to start and stop a bare interpreter: how fast the host runs now.

    It runs no coevo code, so a change to coevo cannot move it.
    """
    clock = Stopwatch()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return clock.seconds()


def do_full(job: dict) -> dict:
    """Set up, then step to the last generation and write the report.

    A probe runs before each step and after the last one, while no coevo
    work is in flight; ``run.py`` scales every time by the probes' median.
    """
    out = Path(job["out"])
    backend = make_backend(job)
    evo, setup_s = set_up(job, out, backend)
    step_s, wait_s, probes, cpu_s = [], [], [], 0.0
    while evo.state.generation < evo.config.iterations:
        probes.append(probe_s())
        cpu_before, waited = child_cpu_s(), backend.waited_s
        clock = Stopwatch()
        evo.step()
        step_s.append(clock.seconds())
        wait_s.append(backend.waited_s - waited)
        cpu_s += child_cpu_s() - cpu_before
    probes.append(probe_s())
    clock = Stopwatch()
    evo.run()  # the loop is done: this builds and writes report.json and best_candidate.py
    report_s = clock.seconds()
    records = [json.loads(line) for line in (out / "experience.jsonl").read_text().splitlines()]
    return {
        "setup_s": setup_s,
        "step_s": step_s,
        "wait_s": wait_s,
        "report_s": report_s,
        "probe_s": probes,
        "attempted": sum(evo.generated),
        "child_cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_dir_mb": dir_bytes(out) / 1e6,
        "report": json.loads((out / "report.json").read_text()),
        "records": [{k: r[k] for k in ("child_id", "child_error", "failure_class")}
                    for r in records],
    }


def do_resume(job: dict) -> dict:
    """Resume from the checkpoint until report.json is written."""
    out = Path(job["out"])
    backend = make_backend(job)
    clock = Stopwatch()
    orchestrator.resume(job["checkpoint"], out_dir=out, backend=backend)
    return {"resume_s": clock.seconds(), "wait_s": backend.waited_s,
            "report": json.loads((out / "report.json").read_text())}


ECHO = "import sys\nsys.stdin.read()\nprint('{\"tour\": [0, 1, 2, 3]}')\n"


def do_floor(job: dict) -> dict:
    """run_candidate on a trivial echo candidate and a 4-city instance."""
    from coevo.evaluator import run_candidate

    inst = TspInstance("floor4", 4, [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
                       known_optimal=4)
    cand = Candidate(id="echo", source=ECHO)
    cfg = RunnerConfig(timeout_s=30.0)
    times = []
    for _ in range(job["count"]):
        clock = Stopwatch()
        outcome = run_candidate(cand, inst, cfg)
        times.append(clock.seconds())
        if not outcome.valid:
            raise RuntimeError(f"echo candidate failed: {outcome.failure_class}")
    return {"spawn_floor_ms": statistics.median(times) * 1e3}


MODES = {"full": do_full, "resume": do_resume, "floor": do_floor}


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("trace"):
        from tracing import Tracer, layer_metrics, wall_by_name

        tracer = Tracer(run_id=f"{job['trace']}/{job['mode']}")
        tracer.install()
    result = MODES[job["mode"]](job)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(job["spans"]))
        result["layers"] = layer_metrics(tracer.spans)
        result["step_wall_by_name"] = wall_by_name(tracer.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
