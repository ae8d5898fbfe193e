import math
import random
import re

import pytest

from conftest import UNIT_SQUARE, random_bpp, random_tsp, write_euc2d_file, write_tsp_file
from coevo.errors import ParseError
from coevo.instances import (
    BppInstance,
    InstanceSet,
    TspInstance,
    _to_number,
    coords_to_matrix,
    load_benchmark,
    parse_bpp,
    parse_sidecar,
    parse_tsplib,
    write_bpp,
    write_instance,
    write_tsplib,
)
from coevo.oracles import brute_force_tsp


def test_parse_explicit_full_matrix_passthrough():
    text = (
        "NAME : tiny\nTYPE : TSP\nDIMENSION : 3\n"
        "EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\n"
        "EDGE_WEIGHT_SECTION\n0 1 2\n1 0 3\n2 3 0\nEOF\n"
    )
    inst = parse_tsplib(text)
    assert inst.name == "tiny"
    assert inst.n == 3
    assert inst.matrix == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]


def test_parse_euc2d_345_triangle():
    text = (
        "NAME : tri\nTYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 3 4\nEOF\n"
    )
    inst = parse_tsplib(text)
    assert inst.matrix[0][1] == 5
    assert inst.matrix[1][0] == 5


def test_parse_euc2d_unit_square_rounds_diagonal_to_one(tmp_path):
    # hand oracle: sides hypot=1 -> 1, diagonal hypot=sqrt(2) -> int(1.414+0.5) = 1
    path = tmp_path / "sq.tsp"
    write_euc2d_file(path, "sq", UNIT_SQUARE)
    inst = parse_tsplib(path.read_text())
    expected = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    assert inst.matrix == expected


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("EDGE_WEIGHT_TYPE : GEO", "unsupported EDGE_WEIGHT_TYPE"),
        ("EDGE_WEIGHT_FORMAT : UPPER_ROW", "unsupported EDGE_WEIGHT_FORMAT"),
    ],
)
def test_parse_unsupported_weight_kinds(mutation, message):
    text = (
        "NAME : bad\nTYPE : TSP\nDIMENSION : 3\n"
        f"{mutation}\nEDGE_WEIGHT_SECTION\n0 1 2\n1 0 3\n2 3 0\nEOF\n"
    )
    if "FORMAT" in mutation:
        text = text.replace("DIMENSION : 3\n", "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n")
    with pytest.raises(ParseError, match=message):
        parse_tsplib(text)


def test_parse_dimension_mismatch_names_problem():
    text = (
        "NAME : bad\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
    )
    with pytest.raises(ParseError, match="DIMENSION"):
        parse_tsplib(text)


def test_parse_malformed_coord_line_reports_line_number():
    text = (
        "NAME : bad\nTYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 oops 1\nEOF\n"
    )
    with pytest.raises(ParseError, match="line 7"):
        parse_tsplib(text)


def explicit_text(rows):
    return (
        f"NAME : w\nTYPE : TSP\nDIMENSION : {len(rows)}\n"
        "EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\n"
        "EDGE_WEIGHT_SECTION\n" + "".join(row + "\n" for row in rows) + "EOF\n"
    )


def test_weight_line_mixing_ints_and_floats_keeps_each_type():
    # write_instance, and with it the optimum cache key, formats ints and floats apart
    rows = ["0 1.5 2", "1.5 0 3e0", "2 3.0 0"]
    inst = parse_tsplib(explicit_text(rows))
    for row, parsed in zip(rows, inst.matrix):
        expected = [_to_number(tok, 0) for tok in row.split()]
        assert [(v, type(v)) for v in parsed] == [(v, type(v)) for v in expected]
    assert [type(v) for v in inst.matrix[0]] == [int, float, int]


@pytest.mark.parametrize(
    "token, message",
    [
        ("x", "line 8: expected a number, got 'x'"),
        ("1.5.2", "line 8: expected a number, got '1.5.2'"),
        ("nan", "line 8: non-finite value 'nan'"),
    ],
)
def test_bad_weight_token_names_its_line(token, message):
    text = explicit_text(["0 1 2", f"1 0 {token}", "2 3 0"])
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_tsplib(text)


def test_parsed_matrix_is_symmetric_with_zero_diagonal(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "r.tsp"
    pts = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(7)]
    write_euc2d_file(path, "r", pts)
    inst = parse_tsplib(path.read_text())
    for i in range(inst.n):
        assert inst.matrix[i][i] == 0
        for j in range(inst.n):
            assert inst.matrix[i][j] == inst.matrix[j][i]


def test_coords_to_matrix_examples():
    assert coords_to_matrix([(0, 0), (3, 4)], "exact")[0][1] == 5.0
    with pytest.raises(ValueError, match="at least 2"):
        coords_to_matrix([(0, 0)])
    square = coords_to_matrix(UNIT_SQUARE, "exact")
    for i in range(4):
        off = sorted(square[i][j] for j in range(4) if j != i)
        assert off == [1.0, 1.0, math.sqrt(2)]


def test_coords_to_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        coords_to_matrix([(0, 0), (float("nan"), 1)])


def test_coords_exact_satisfies_triangle_inequality():
    rng = random.Random(3)
    for _ in range(20):
        pts = [(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(8)]
        m = coords_to_matrix(pts, "exact")
        n = len(m)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i][j] <= m[i][k] + m[k][j] + 1e-9


def test_parse_bpp_direct_read():
    inst = parse_bpp("4\n100\n50 70 50 30\n", name="b")
    assert inst.n == 4
    assert inst.capacity == 100
    assert inst.sizes == [50, 70, 50, 30]


def test_parse_bpp_one_size_per_line():
    inst = parse_bpp("3\n10\n4\n5\n6\n")
    assert inst.sizes == [4, 5, 6]


def test_parse_bpp_infeasible_item():
    with pytest.raises(ParseError, match="exceeds capacity"):
        parse_bpp("2\n100\n50\n120\n")


def test_parse_bpp_count_mismatch():
    with pytest.raises(ParseError, match="4 sizes follow"):
        parse_bpp("3\n100\n10 20 30 40\n")
    with pytest.raises(ParseError, match="only 2 sizes"):
        parse_bpp("3\n100\n10 20\n")


def test_roundtrip_tsp_explicit_and_rounded():
    rng = random.Random(7)
    for rounding in ("exact", "nearest"):
        inst = random_tsp(rng, 6, rounding)
        again = parse_tsplib(write_tsplib(inst))
        assert again == inst
        assert parse_tsplib(write_tsplib(again)) == again


def test_roundtrip_bpp():
    rng = random.Random(8)
    inst = random_bpp(rng, 9)
    assert parse_bpp(write_bpp(inst), name=inst.name) == inst


def test_instance_invariant_violations_rejected():
    with pytest.raises(ValueError, match="asymmetric"):
        TspInstance("x", 2, [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="nonzero diagonal"):
        TspInstance("x", 2, [[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="bad distance"):
        TspInstance("x", 2, [[0, -1], [-1, 0]])
    with pytest.raises(ValueError, match="infeasible"):
        BppInstance("x", 1, [5], 4)


@pytest.mark.parametrize("matrix, message", [
    # NaN at (0,1) comes before the asymmetry at (1,2) in row-major order
    ([[0, math.nan, 1], [1, 0, 2], [1, 3, 0]], "bad distance at (0,1): nan"),
    # the nonzero diagonal at (1,1) comes before the negative entry at (1,2)
    ([[0, 1, 1], [1, 5, -1], [1, -1, 0]], "nonzero diagonal at 1"),
    # integers this large differ by 1 only while compared exactly, not as floats
    ([[0, 2**53], [2**53 + 1, 0]], "asymmetric at (0,1)"),
])
def test_matrix_check_names_the_first_defect(matrix, message):
    with pytest.raises(ValueError) as exc:
        TspInstance("x", len(matrix), matrix)
    assert str(exc.value) == f"instance 'x': {message}"


def test_load_benchmark_checks_each_matrix_once(tmp_path, unit_square, monkeypatch):
    write_tsp_file(tmp_path / "a.tsp", "a", unit_square.matrix)
    write_tsp_file(tmp_path / "b.tsp", "b", [[0, 2], [2, 0]])
    (tmp_path / "optima.txt").write_text("a 4.0\nb 4\n")
    checked = []
    post_init = TspInstance.__post_init__

    def counted(self):
        checked.append(self.name)
        post_init(self)

    monkeypatch.setattr(TspInstance, "__post_init__", counted)
    loaded = load_benchmark(tmp_path)
    assert sorted(checked) == ["a", "b"]
    assert [inst.known_optimal for inst in loaded] == [4.0, 4]


def test_load_benchmark_with_partial_sidecar(tmp_path, unit_square):
    write_tsp_file(tmp_path / "a.tsp", "a", unit_square.matrix)
    write_tsp_file(tmp_path / "b.tsp", "b", [[0, 2], [2, 0]])
    # derived: unit-square optimum is its perimeter, confirmed by brute force
    assert brute_force_tsp(unit_square).optimal_value == 4.0
    (tmp_path / "optima.txt").write_text("a 4.0\n")
    loaded = load_benchmark(tmp_path)
    assert len(loaded) == 2
    by_name = {inst.name: inst for inst in loaded}
    assert by_name["a"].known_optimal == 4.0
    assert by_name["b"].known_optimal is None
    assert loaded.names() == sorted(loaded.names())


def test_load_benchmark_empty_dir(tmp_path):
    with pytest.raises(ParseError, match="no .tsp or .bpp"):
        load_benchmark(tmp_path)


def test_load_benchmark_duplicate_names(tmp_path):
    write_tsp_file(tmp_path / "a.tsp", "dup", [[0, 1], [1, 0]])
    write_tsp_file(tmp_path / "b.tsp", "dup", [[0, 2], [2, 0]])
    with pytest.raises(ParseError, match="duplicate instance name"):
        load_benchmark(tmp_path)


def test_load_benchmark_sidecar_unknown_instance(tmp_path):
    write_tsp_file(tmp_path / "a.tsp", "a", [[0, 1], [1, 0]])
    (tmp_path / "optima.txt").write_text("ghost 3\n")
    with pytest.raises(ParseError, match="unknown instance"):
        load_benchmark(tmp_path)


def test_load_benchmark_rejects_mixed_kinds(tmp_path):
    write_tsp_file(tmp_path / "a.tsp", "a", [[0, 1], [1, 0]])
    (tmp_path / "b.bpp").write_text("1\n10\n5\n")
    with pytest.raises(ParseError, match="mixed"):
        load_benchmark(tmp_path)


def test_sidecar_parsing_errors():
    with pytest.raises(ParseError, match="name value"):
        parse_sidecar("one-token\n")
    with pytest.raises(ParseError, match="positive"):
        parse_sidecar("a 0\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_sidecar("a 1\na 2\n")


def test_instance_set_rejects_empty_and_duplicates(unit_square):
    with pytest.raises(ParseError, match="empty"):
        InstanceSet([], kind="tsp", source="t")
    with pytest.raises(ParseError, match="duplicate"):
        InstanceSet([unit_square, unit_square], kind="tsp", source="t")


def test_write_instance_dispatches(unit_square):
    assert "EDGE_WEIGHT_SECTION" in write_instance(unit_square)
    bpp = BppInstance("b", 2, [3, 4], 10)
    assert write_instance(bpp).splitlines()[0] == "2"
