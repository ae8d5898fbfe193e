"""TSP and bin-packing instance parsing, validation, and benchmark loading.

The supported TSPLIB subset is EDGE_WEIGHT_TYPE EUC_2D (node coordinates,
nearest-integer rounding) and EXPLICIT with EDGE_WEIGHT_FORMAT FULL_MATRIX.
Bin-packing files follow the BPPlib convention: item count, capacity, then
one size per item. Optima arrive via an ``optima.txt`` sidecar manifest with
one ``name value`` record per line.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError

Matrix = list[list[float]]

SIDECAR_NAME = "optima.txt"
INSTANCE_SUFFIXES = (".tsp", ".bpp")


@dataclass
class TspInstance:
    """Symmetric TSP instance on a complete graph, given as a distance matrix."""

    name: str
    n: int
    matrix: Matrix
    known_optimal: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"instance {self.name!r}: vertex count must be positive")
        if len(self.matrix) != self.n:
            raise ValueError(
                f"instance {self.name!r}: matrix has {len(self.matrix)} rows, expected {self.n}"
            )
        if not _clean_matrix(self.matrix, self.n):  # name the first defect in row-major order
            for i, row in enumerate(self.matrix):
                if len(row) != self.n:
                    raise ValueError(f"instance {self.name!r}: row {i} has {len(row)} entries")
                for j, v in enumerate(row):
                    if not math.isfinite(v) or v < 0:
                        raise ValueError(f"instance {self.name!r}: bad distance at ({i},{j}): {v}")
                    if i == j and v != 0:
                        raise ValueError(f"instance {self.name!r}: nonzero diagonal at {i}")
                    if self.matrix[j][i] != v:
                        raise ValueError(f"instance {self.name!r}: asymmetric at ({i},{j})")
        if self.known_optimal is not None and not self.known_optimal > 0:
            raise ValueError(f"instance {self.name!r}: known optimum must be positive")


def _clean_matrix(matrix: Matrix, n: int) -> bool:
    """Whether the matrix passes every entry check, tested at C speed without a copy.

    True if every row has n finite, non-negative entries, a zero diagonal and
    equals its column. Any other case, an error included, is left to
    ``TspInstance``'s entry loop, which names the first defect.
    """
    try:
        return all(len(row) == n for row in matrix) and all(
            all(map(math.isfinite, row)) and min(row) >= 0 and row[i] == 0 and tuple(row) == col
            for i, (row, col) in enumerate(zip(matrix, zip(*matrix)))
        )
    except (OverflowError, TypeError):
        return False


@dataclass
class BppInstance:
    """Offline bin-packing instance: item sizes and a single bin capacity."""

    name: str
    n: int
    sizes: list[float]
    capacity: float
    known_optimal: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"instance {self.name!r}: item count must be positive")
        if len(self.sizes) != self.n:
            raise ValueError(
                f"instance {self.name!r}: {len(self.sizes)} sizes, header says {self.n}"
            )
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ValueError(f"instance {self.name!r}: capacity must be positive")
        for i, s in enumerate(self.sizes):
            if not (math.isfinite(s) and 0 < s <= self.capacity):
                raise ValueError(
                    f"instance {self.name!r}: item {i} size {s} infeasible for capacity "
                    f"{self.capacity}"
                )
        if self.known_optimal is not None and self.known_optimal < 1:
            raise ValueError(f"instance {self.name!r}: known optimum must be positive")


Instance = TspInstance | BppInstance


@dataclass
class InstanceSet:
    """Homogeneous, name-sorted collection of instances from one benchmark dir."""

    instances: list[Instance]
    kind: str  # "tsp" | "bpp"
    source: str = ""

    def __post_init__(self) -> None:
        if not self.instances:
            raise ParseError(f"instance set from {self.source!r} is empty")
        names = [inst.name for inst in self.instances]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})[0]
            raise ParseError(f"duplicate instance name {dup!r} in {self.source!r}")
        want = TspInstance if self.kind == "tsp" else BppInstance
        for inst in self.instances:
            if not isinstance(inst, want):
                raise ParseError(f"mixed instance kinds in {self.source!r}")

    def __iter__(self):
        return iter(self.instances)

    def __len__(self) -> int:
        return len(self.instances)

    def names(self) -> list[str]:
        return [inst.name for inst in self.instances]


def _to_number(token: str, lineno: int) -> float:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected a number, got {token!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"line {lineno}: non-finite value {token!r}")
    return v


def coords_to_matrix(coords: list[tuple[float, float]], rounding: str = "nearest") -> Matrix:
    """Pairwise Euclidean distance matrix for 2-D points.

    ``rounding="nearest"`` applies the TSPLIB EUC_2D convention
    (int(d + 0.5)); ``"exact"`` keeps raw floating-point distances.
    """
    if rounding not in ("nearest", "exact"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if len(coords) < 2:
        raise ValueError("need at least 2 points")
    for k, (x, y) in enumerate(coords):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinate at point {k}")
    n = len(coords)
    matrix: Matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        xi, yi = coords[i]
        for j in range(i + 1, n):
            d = math.hypot(xi - coords[j][0], yi - coords[j][1])
            if rounding == "nearest":
                d = int(d + 0.5)
            matrix[i][j] = d
            matrix[j][i] = d
    return matrix


_HEADER_KEYS = {
    "NAME",
    "TYPE",
    "COMMENT",
    "DIMENSION",
    "EDGE_WEIGHT_TYPE",
    "EDGE_WEIGHT_FORMAT",
}


def parse_tsplib(
    text: str, default_name: str = "unnamed", optima: Mapping[str, float] | None = None
) -> TspInstance:
    """Parse the supported TSPLIB subset into a validated TspInstance.

    ``optima`` maps instance names to known optima, as a sidecar gives them.
    """
    lines = text.splitlines()
    header: dict[str, str] = {}
    coords: list[tuple[float, float]] = []
    weights: list[float] = []
    section = None
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        upper = line.upper()
        if upper == "EOF":
            break
        if upper == "NODE_COORD_SECTION":
            section = "coords"
            continue
        if upper == "EDGE_WEIGHT_SECTION":
            section = "weights"
            continue
        if section == "coords":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"line {idx}: expected 'index x y', got {line!r}")
            coords.append((_to_number(parts[1], idx), _to_number(parts[2], idx)))
            continue
        if section == "weights":
            tokens, start = line.split(), len(weights)
            try:
                weights.extend(map(int, tokens))  # the common all-integer line, at C speed
            except ValueError:
                del weights[start:]
                weights.extend(_to_number(tok, idx) for tok in tokens)
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            if key not in _HEADER_KEYS:
                raise ParseError(f"line {idx}: unsupported key {key!r}")
            header[key] = value.strip()
            continue
        raise ParseError(f"line {idx}: unrecognized line {line!r}")

    if "DIMENSION" not in header:
        raise ParseError("missing DIMENSION")
    try:
        n = int(header["DIMENSION"])
    except ValueError:
        raise ParseError(f"bad DIMENSION {header['DIMENSION']!r}") from None
    if n < 2:
        raise ParseError(f"DIMENSION must be at least 2, got {n}")
    name = header.get("NAME", default_name)
    ewt = header.get("EDGE_WEIGHT_TYPE", "").upper()

    if ewt == "EUC_2D":
        if len(coords) != n:
            raise ParseError(f"NODE_COORD_SECTION has {len(coords)} points, DIMENSION is {n}")
        matrix = coords_to_matrix(coords, rounding="nearest")
    elif ewt == "EXPLICIT":
        fmt = header.get("EDGE_WEIGHT_FORMAT", "").upper()
        if fmt != "FULL_MATRIX":
            raise ParseError(f"unsupported EDGE_WEIGHT_FORMAT {fmt or '(none)'!r}")
        if len(weights) != n * n:
            raise ParseError(f"EDGE_WEIGHT_SECTION has {len(weights)} values, expected {n * n}")
        matrix = [weights[i * n : (i + 1) * n] for i in range(n)]
    else:
        raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {ewt or '(none)'!r}")

    try:
        return TspInstance(name=name, n=n, matrix=matrix, known_optimal=(optima or {}).get(name))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_bpp(
    text: str, name: str = "unnamed", optima: Mapping[str, float] | None = None
) -> BppInstance:
    """Parse a BPPlib-style instance: n, capacity, then n item sizes.

    Tokens are read whitespace-insensitively so one-size-per-line files and
    single-line fixtures both parse. ``optima`` is as for ``parse_tsplib``.
    """
    tokens: list[tuple[str, int]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        tokens.extend((tok, idx) for tok in line.split())
    if len(tokens) < 2:
        raise ParseError("truncated instance: need item count and capacity")
    try:
        n = int(tokens[0][0])
    except ValueError:
        raise ParseError(f"line {tokens[0][1]}: bad item count {tokens[0][0]!r}") from None
    capacity = _to_number(tokens[1][0], tokens[1][1])
    rest = tokens[2:]
    if len(rest) < n:
        raise ParseError(f"header says {n} items but only {len(rest)} sizes follow")
    if len(rest) > n:
        raise ParseError(f"header says {n} items but {len(rest)} sizes follow")
    sizes = [_to_number(tok, ln) for tok, ln in rest]
    for i, s in enumerate(sizes):
        if s > capacity:
            raise ParseError(f"item {i} size {s} exceeds capacity {capacity}")
        if s <= 0:
            raise ParseError(f"item {i} size {s} must be positive")
    try:
        return BppInstance(name=name, n=n, sizes=sizes, capacity=capacity,
                           known_optimal=(optima or {}).get(name))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_number(v: float) -> str:
    """Lossless text for matrix weights, sizes, and optima."""
    if isinstance(v, int):
        return str(v)
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def write_tsplib(inst: TspInstance) -> str:
    """Canonical writer: always EXPLICIT FULL_MATRIX, lossless numbers."""
    lines = [
        f"NAME : {inst.name}",
        "TYPE : TSP",
        f"DIMENSION : {inst.n}",
        "EDGE_WEIGHT_TYPE : EXPLICIT",
        "EDGE_WEIGHT_FORMAT : FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    lines.extend(" ".join(format_number(v) for v in row) for row in inst.matrix)
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def write_bpp(inst: BppInstance) -> str:
    lines = [str(inst.n), format_number(inst.capacity)]
    lines.extend(format_number(s) for s in inst.sizes)
    return "\n".join(lines) + "\n"


def write_instance(inst: Instance) -> str:
    return write_tsplib(inst) if isinstance(inst, TspInstance) else write_bpp(inst)


def parse_sidecar(text: str, source: str = SIDECAR_NAME) -> dict[str, float]:
    """Parse an optimum manifest: one ``instance-name optimal-value`` per line."""
    optima: dict[str, float] = {}
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{source} line {idx}: expected 'name value', got {line!r}")
        name, tok = parts
        value = _to_number(tok, idx)
        if value <= 0:
            raise ParseError(f"{source} line {idx}: optimum must be positive, got {value}")
        if name in optima:
            raise ParseError(f"{source} line {idx}: duplicate entry for {name!r}")
        optima[name] = value
    return optima


def load_instance(path: Path, optima: Mapping[str, float] | None = None) -> Instance:
    """Parse one instance file by its suffix: ``.tsp`` as TSPLIB, ``.bpp`` as bin packing."""
    if path.suffix == ".tsp":
        return parse_tsplib(path.read_text(), default_name=path.stem, optima=optima)
    if path.suffix == ".bpp":
        return parse_bpp(path.read_text(), name=path.stem, optima=optima)
    raise ParseError(f"unknown instance extension {path.suffix!r} (want .tsp or .bpp)")


def load_benchmark(directory: str | Path) -> InstanceSet:
    """Load every instance file in a directory, attaching sidecar optima.

    Instances are sorted by name for determinism. ``.tsp`` files parse as
    TSP, ``.bpp`` files as bin packing; mixing kinds is an error.
    """
    root = Path(directory)
    if not root.is_dir():
        raise ParseError(f"not a directory: {root}")
    paths = sorted(p for p in root.iterdir() if p.suffix in INSTANCE_SUFFIXES)
    if not paths:
        raise ParseError(f"no .tsp or .bpp instance files in {root}")
    if len({p.suffix for p in paths}) > 1:
        raise ParseError(f"mixed .tsp and .bpp files in {root}")
    kind = paths[0].suffix[1:]

    sidecar = root / SIDECAR_NAME
    optima = parse_sidecar(sidecar.read_text(), source=str(sidecar)) if sidecar.is_file() else {}
    if kind == "bpp":
        for name, value in optima.items():
            if value != int(value):
                raise ParseError(f"{sidecar}: bin-packing optimum for {name!r} must be integral")
        optima = {name: int(value) for name, value in optima.items()}
    instances = [load_instance(path, optima) for path in paths]
    names = {inst.name for inst in instances}
    for name in optima:
        if name not in names:
            raise ParseError(f"{sidecar}: optimum for unknown instance {name!r}")

    instances.sort(key=lambda inst: inst.name)
    return InstanceSet(instances=instances, kind=kind, source=str(root))
