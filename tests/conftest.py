import hashlib
import json
import random

import pytest

from coevo.instances import BppInstance, InstanceSet, TspInstance, coords_to_matrix

UNIT_SQUARE = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]

# nearest-neighbor trap: greedy from 0 walks 0-1-2-3 for 13, optimum 6
TRAP4 = [
    [0, 1, 2, 10],
    [1, 0, 1, 2],
    [2, 1, 0, 1],
    [10, 2, 1, 0],
]


@pytest.fixture
def unit_square():
    return TspInstance("square", 4, coords_to_matrix(UNIT_SQUARE, "exact"))


@pytest.fixture
def trap4():
    return TspInstance("trap4", 4, [row[:] for row in TRAP4])


def random_tsp(rng: random.Random, n: int, rounding: str = "exact") -> TspInstance:
    pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]
    return TspInstance(f"rand{n}", n, coords_to_matrix(pts, rounding))


def random_bpp(rng: random.Random, n: int, capacity: int = 100) -> BppInstance:
    sizes = [rng.randint(15, 60) for _ in range(n)]
    return BppInstance(f"rand{n}", n, sizes, capacity)


def make_set(*instances, kind=None) -> InstanceSet:
    kind = kind or ("tsp" if isinstance(instances[0], TspInstance) else "bpp")
    return InstanceSet(list(instances), kind=kind, source="test")


def write_tsp_file(path, name, matrix):
    n = len(matrix)
    rows = "\n".join(" ".join(str(v) for v in row) for row in matrix)
    path.write_text(
        f"NAME : {name}\nTYPE : TSP\nDIMENSION : {n}\n"
        "EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\n"
        f"EDGE_WEIGHT_SECTION\n{rows}\nEOF\n"
    )


def write_euc2d_file(path, name, coords):
    nodes = "\n".join(f"{i + 1} {x} {y}" for i, (x, y) in enumerate(coords))
    path.write_text(
        f"NAME : {name}\nTYPE : TSP\nDIMENSION : {len(coords)}\n"
        f"EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n{nodes}\nEOF\n"
    )


def write_mock_script(path, generate=(), evolve=(), flat=()):
    lines = []
    for text in generate:
        lines.append({"key": "generate", "text": text})
    for text in evolve:
        lines.append({"key": "prompt-evolve", "text": text})
    for text in flat:
        lines.append({"text": text})
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    return path


def run_files(root):
    """Every file under a run directory, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def rewrite_journal(run_dir, checkpoint, journal, change):
    """Replace the lines of a journal that the checkpoint counts with ``change(lines)``,
    and record the new length and sha256 in that checkpoint."""
    doc = json.loads(checkpoint.read_text())
    mark = doc["journals"][journal]
    data = (run_dir / journal).read_bytes()
    head = "".join(change(data[:mark["bytes"]].decode().splitlines(keepends=True))).encode()
    (run_dir / journal).write_bytes(head + data[mark["bytes"]:])
    mark.update(bytes=len(head), sha256=hashlib.sha256(head).hexdigest())
    checkpoint.write_text(json.dumps(doc))


def edit_journal_line(run_dir, checkpoint, journal, index, edit):
    """Apply ``edit`` to the value on line ``index`` of a journal, as ``rewrite_journal``
    does. ``edit`` changes a dict in place, or returns the new value: a line of
    ``sources.jsonl`` is a string."""
    def change(lines):
        value = json.loads(lines[index])
        edited = edit(value)
        lines[index] = json.dumps(value if edited is None else edited, sort_keys=True) + "\n"
        return lines

    rewrite_journal(run_dir, checkpoint, journal, change)
