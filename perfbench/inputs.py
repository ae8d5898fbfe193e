"""Generated benchmark inputs: instances, mock scripts and expected outcomes.

Everything here is a pure function of the workload and its seed. The
instance generators plant a known optimum so that sets beyond the exact
oracles' limits can still be scored; ``build_script`` emits, next to every
scripted offspring, the outcome the evaluator must report for it (a mean
relative error computed in-process from ``coevo.heuristics``, or a failure
class).
"""

from __future__ import annotations

import inspect
import json
import math
import random
import textwrap
from dataclasses import dataclass
from pathlib import Path

from coevo import heuristics
from coevo.evaluator import FAIL_CONSTRAINT, FAIL_INVALID, FAIL_START
from coevo.instances import (
    SIDECAR_NAME,
    BppInstance,
    Instance,
    TspInstance,
    coords_to_matrix,
    write_instance,
)
from coevo.oracles import exact_bpp, held_karp, relative_error
from coevo.seeds import seed_source


@dataclass(frozen=True)
class Workload:
    """One benchmark shape; BENCHMARK.json says why each exists.

    Runs are closed loop: one process, islands in turn, each generation
    waiting for the last.
    """

    name: str
    problem: str
    islands: int
    iterations: int
    sizes: tuple[int, ...]  # one instance per entry: n cities (TSP) or k full bins (BPP)
    sidecar: bool  # write optima.txt; otherwise the oracles fill optima at set-up
    resume_from: int  # generation of the late checkpoint the resume starts from
    llm_delay_s: float = 0.0
    failure_every: int = 0  # every k-th scripted offspring is a failure (0: none)
    inputs: str = ""  # share another workload's generated inputs

    @property
    def input_key(self) -> str:
        return self.inputs or self.name


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tsp-small-spawn",
            problem="tsp",
            islands=5,
            iterations=7,
            sizes=(16, 18),
            sidecar=False,
            resume_from=6,
            failure_every=9,
        ),
        Workload(
            name="tsp-large-encode",
            problem="tsp",
            islands=2,
            iterations=6,
            sizes=(600, 700),
            sidecar=True,
            resume_from=5,
        ),
        Workload(
            name="bpp-long-archive",
            problem="bpp",
            islands=5,
            iterations=12,
            sizes=(4,),
            sidecar=False,
            resume_from=11,
            failure_every=4,
        ),
        Workload(
            name="tsp-slow-llm",
            problem="tsp",
            islands=5,
            iterations=4,
            sizes=(16, 18),
            sidecar=False,
            resume_from=3,
            llm_delay_s=0.05,
            failure_every=9,
            inputs="tsp-small-spawn",
        ),
    )
}


# -- instances with known optima ----------------------------------------------


def planted_tsp(rng: random.Random, n: int, name: str) -> TspInstance:
    """A hidden Hamiltonian cycle of weight-1 edges; every other edge weighs 2-3.

    Every tour has n edges of weight >= 1 and the hidden cycle reaches n, so
    the optimum is n. Pairs two steps apart on the cycle weigh exactly 2, which
    keeps the matrix metric: only they close a path of two weight-1 edges.
    """
    cycle = list(range(n))
    rng.shuffle(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(pos[i] - pos[j])
            gap = min(gap, n - gap)
            w = 1 if gap == 1 else 2 if gap == 2 else rng.randint(2, 3)
            matrix[i][j] = matrix[j][i] = w
    return TspInstance(name, n, matrix, known_optimal=n)


def planted_bpp(rng: random.Random, k: int, name: str, capacity: int = 100) -> BppInstance:
    """Items cut from k full bins of integer capacity, four per bin: the optimum is k.

    The sizes sum to k * capacity, so no packing uses fewer than k bins, and
    the cut itself is a packing into k.
    """
    sizes: list[int] = []
    for _ in range(k):
        cuts = sorted(rng.sample(range(1, capacity), 3))
        bounds = [0, *cuts, capacity]
        sizes.extend(b - a for a, b in zip(bounds, bounds[1:]))
    rng.shuffle(sizes)
    return BppInstance(name, len(sizes), sizes, capacity, known_optimal=k)


def euclidean_tsp(rng: random.Random, n: int, name: str) -> TspInstance:
    """Random points on a 1000x1000 grid, TSPLIB nearest-integer rounding; no optimum."""
    coords = [(rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(n)]
    return TspInstance(name, n, coords_to_matrix(coords, rounding="nearest"))


def make_instances(w: Workload, seed: int) -> list[Instance]:
    """The workload's instances, each with the optimum the benchmark expects."""
    rng = random.Random(f"{w.input_key}/{seed}/instances")
    out: list[Instance] = []
    for i, size in enumerate(w.sizes):
        name = f"{w.problem}{i}-{size}"
        if w.problem == "bpp":
            out.append(planted_bpp(rng, size, name))
        elif w.sidecar:
            out.append(planted_tsp(rng, size, name))
        else:
            inst = euclidean_tsp(rng, size, name)
            out.append(TspInstance(inst.name, inst.n, inst.matrix,
                                   known_optimal=held_karp(inst).optimal_value))
    return out


def write_instances(instances: list[Instance], directory: Path, sidecar: bool) -> None:
    """Instance files as coevo reads them; optima only in an optional sidecar."""
    directory.mkdir(parents=True, exist_ok=True)
    ext = "tsp" if isinstance(instances[0], TspInstance) else "bpp"
    for inst in instances:
        (directory / f"{inst.name}.{ext}").write_text(write_instance(inst))
    if sidecar:
        (directory / SIDECAR_NAME).write_text(
            "".join(f"{inst.name} {inst.known_optimal}\n" for inst in instances)
        )


def self_test(seed: int, cases: int = 4) -> list[str]:
    """Cross-check the planted optima against the exact oracles at small n."""
    rng = random.Random(f"self-test/{seed}")
    problems = []
    for i in range(cases):
        tsp = planted_tsp(rng, rng.randint(5, 11), f"planted{i}")
        exact = held_karp(tsp).optimal_value
        if exact != tsp.known_optimal or not heuristics.is_metric(tsp.matrix):
            problems.append(f"planted TSP {tsp.name}: held_karp {exact}, planted "
                            f"{tsp.known_optimal}, metric {heuristics.is_metric(tsp.matrix)}")
        bpp = planted_bpp(rng, rng.randint(2, 5), f"planted{i}")
        exact = exact_bpp(bpp).optimal_value
        if exact != bpp.known_optimal:
            problems.append(f"planted BPP {bpp.name}: exact_bpp {exact}, "
                            f"planted {bpp.known_optimal}")
    return problems


# -- scripted programs and their expected outcomes ------------------------------

SEED_HEURISTIC = {"tsp": "nearest-neighbor", "bpp": "first-fit"}


def seed_error(problem: str, instances: list[Instance]) -> float:
    """In-process mean relative error of the run's seed heuristic."""
    if problem == "tsp":
        tours = [heuristics.nearest_neighbor_core(i.matrix, 0) for i in instances]
        values = [heuristics.tour_length_core(i.matrix, t) for i, t in zip(instances, tours)]
    else:
        values = [len(heuristics.fit_packing_core(i.sizes, i.capacity, "first"))
                  for i in instances]
    return _mean_error(values, instances)


@dataclass(frozen=True)
class Program:
    source: str
    expect_error: float | None = None  # mean relative error when it scores
    expect_failure: str | None = None  # failure class when it does not

    def expectation(self) -> dict:
        if self.expect_failure is not None:
            return {"failure_class": self.expect_failure}
        return {"child_error": self.expect_error}


def _mean_error(values: list[float], instances: list[Instance]) -> float:
    errors = [relative_error(v, inst.known_optimal) for v, inst in zip(values, instances)]
    return math.fsum(errors) / len(errors)


def _tour_program(body: str, cores: tuple[str, ...]) -> str:
    """A standalone candidate whose ``body`` sets ``tour`` from ``m`` (the matrix)."""
    return _program(cores, f'm = doc["matrix"]\n    {body}\n    solution = {{"tour": tour}}')


def _program(cores: tuple[str, ...], body: str) -> str:
    """A standalone candidate embedding ``cores`` from heuristics; ``body`` sets ``solution``."""
    parts = ["import json\nimport math\nimport random\nimport sys"]
    parts += [textwrap.dedent(inspect.getsource(getattr(heuristics, name))).rstrip()
              for name in cores]
    parts.append(
        "def main():\n"
        "    doc = json.loads(sys.stdin.read())\n"
        f"    {body}\n"
        "    sys.stdout.write(json.dumps(solution))\n\n\n"
        "main()\n"
    )
    return "\n\n".join(parts)


SYNTAX_ERROR = "import json\n\ndef main(:\n    pass\n"


def _tsp_programs(instances: list[TspInstance], rng: random.Random) -> list[Program]:
    """Distinct valid TSP programs with their in-process expected errors.

    Insertion, 2-opt and Christofides are too slow for large instances, so
    those get nearest-neighbor variants and fixed orders only.
    """
    def scored(source: str, tours: list[list[int]]) -> Program:
        values = [heuristics.tour_length_core(i.matrix, t) for i, t in zip(instances, tours)]
        return Program(source, expect_error=_mean_error(values, instances))

    progs = []
    n_min = min(i.n for i in instances)
    starts = rng.sample(range(n_min), min(n_min, 6))
    for s in starts:
        progs.append(scored(
            _tour_program(f"tour = nearest_neighbor_core(m, {s})", ("nearest_neighbor_core",)),
            [heuristics.nearest_neighbor_core(i.matrix, s) for i in instances],
        ))
    if max(i.n for i in instances) <= 100:
        for name, mode in (("nearest-insertion", "nearest"), ("farthest-insertion", "farthest")):
            progs.append(scored(
                seed_source(name),
                [heuristics.insertion_tour_core(i.matrix, mode, None) for i in instances],
            ))
        for k in rng.sample(range(1000), 3):
            progs.append(scored(
                _tour_program(f'tour = insertion_tour_core(m, "random", random.Random({k}))',
                              ("insertion_tour_core",)),
                [heuristics.insertion_tour_core(i.matrix, "random", random.Random(k))
                 for i in instances],
            ))
        progs.append(scored(
            seed_source("two-opt"),
            [heuristics.two_opt_core(i.matrix, heuristics.nearest_neighbor_core(i.matrix, 0))
             for i in instances],
        ))
        progs.append(scored(
            seed_source("christofides"),
            [heuristics.christofides_core(i.matrix) for i in instances],
        ))
    else:
        progs.append(scored(_tour_program("tour = list(range(len(m)))", ()),
                            [list(range(i.n)) for i in instances]))
        for k in rng.sample(range(1000), 2):
            tours = []
            for i in instances:
                order = list(range(i.n))
                random.Random(k).shuffle(order)
                tours.append(order)
            progs.append(scored(
                _tour_program(f"tour = list(range(len(m)))\n    random.Random({k}).shuffle(tour)",
                              ()),
                tours,
            ))
    return progs


def _bpp_programs(instances: list[BppInstance]) -> list[Program]:
    def scored(source: str, packings: list[list[list[int]]]) -> Program:
        return Program(source, expect_error=_mean_error([len(p) for p in packings], instances))

    progs = []
    for policy in heuristics.FIT_POLICIES:
        progs.append(scored(
            seed_source(f"{policy}-fit"),
            [heuristics.fit_packing_core(i.sizes, i.capacity, policy) for i in instances],
        ))
        # the same policy over items in decreasing size
        body = (
            'order = sorted(range(len(doc["sizes"])), key=lambda i: (-doc["sizes"][i], i))\n'
            '    bins = fit_packing_core([doc["sizes"][i] for i in order], doc["capacity"], '
            f'"{policy}")\n'
            '    solution = {"bins": [[order[i] for i in b] for b in bins]}'
        )
        packings = []
        for inst in instances:
            order = sorted(range(inst.n), key=lambda i: (-inst.sizes[i], i))
            bins = heuristics.fit_packing_core([inst.sizes[i] for i in order], inst.capacity,
                                               policy)
            packings.append([[order[i] for i in b] for b in bins])
        progs.append(scored(_program(("fit_packing_core",), body), packings))
    return progs


def _bpp_failures() -> list[Program]:
    return [
        Program(SYNTAX_ERROR, expect_failure=FAIL_START),
        Program(_program((), 'solution = {"tour": []}'), expect_failure=FAIL_INVALID),
        Program(_program((), 'solution = {"bins": [list(range(len(doc["sizes"])))]}'),
                expect_failure=FAIL_CONSTRAINT),
    ]


EVOLVED_PROMPT = (
    "Revision {r}: improve the heuristic below for the same input/output contract.\n\n"
    "```\n{{parent-source}}\n```\n\n{{performance}}\n{{diagnostics}}\n\n"
    "{{experience-summary}}\n\n{{strategy-directive}}\n"
)


def build_script(w: Workload, instances: list[Instance],
                 seed: int) -> tuple[list[dict], list[dict]]:
    """Mock-script lines for a whole run, and the expected outcome of every offspring.

    Each generation asks for one offspring per island, in island order, and
    one prompt rewrite, so the run consumes exactly ``iterations * islands``
    generate responses and ``iterations`` prompt-evolve responses.
    """
    rng = random.Random(f"{w.input_key}/{seed}/script")
    if w.problem == "bpp":
        valid = _bpp_programs(instances)
        failures = _bpp_failures()
    else:
        valid = _tsp_programs(instances, rng)
        failures = [Program(SYNTAX_ERROR, expect_failure=FAIL_START)]
    rng.shuffle(valid)
    lines: list[dict] = []
    expected: list[dict] = []
    n_valid = n_fail = 0
    for k in range(1, w.iterations * w.islands + 1):
        if w.failure_every and k % w.failure_every == 0:
            prog = failures[n_fail % len(failures)]
            n_fail += 1
        else:
            prog = valid[n_valid % len(valid)]
            n_valid += 1
        lines.append({"key": "generate", "text": f"```python\n{prog.source}```\n"})
        expected.append(prog.expectation())
    for r in range(1, w.iterations + 1):
        lines.append({"key": "prompt-evolve", "text": EVOLVED_PROMPT.format(r=r)})
    return lines, expected


def write_script(lines: list[dict], path: Path) -> None:
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
