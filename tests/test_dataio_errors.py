"""Error paths of the CSV readers and the checkpoint reader: one malformed file
per row of a table.

Every row starts from a small valid file, applies one fault and requires
`ValidationError` with the exact message, which names the file and either the
line or the missing key.
"""

import base64

import numpy as np
import pytest

from stgw import dataio
from stgw.errors import ValidationError
from stgw.graphs import NodeRecord, build_route_graph

WEEKS, FILTERS = 2, 2
THIRD = repr(1 / 3)


def b64(*values):
    """A `coefs` cell or checkpoint value line: base64 of `values` as little-endian
    float64."""
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


VALID = {
    "nodes.csv": ["node_id,name,lat,lon,population",
                  "1,Alpha,42.0,-72.0,1000", "2,Beta,42.1,-72.1,2000",
                  "3,Gamma,42.2,-72.2,1500"],
    "edges.csv": ["src_id,dst_id", "1,2", "2,3"],
    "cases.csv": ["node_id,week,cases"] + [f"{n},{w},{n * w}" for n in (1, 2, 3)
                                           for w in (1, 2)],
    "transition.csv": ["src_id,dst_id,p", "1,1,0.5", "1,2,0.5",
                       f"2,1,{THIRD}", f"2,2,{THIRD}", f"2,3,{THIRD}",
                       "3,2,0.5", "3,3,0.5"],
    "coefficients.csv": ["vertex_id,slice,coefs"] + [
        f"{n},{t},{b64(n + t / 4 - 1, n + t / 4 - 2)}" for n in (1, 2, 3) for t in (1, 2)],
    "classes.csv": ["node_id,week,torque,class,theta,a_score"] + [
        f"{n},{w},{n - w / 2},V{n + w - 1},{w / 2},2" for n in (1, 2, 3) for w in (1, 2)],
    "slices.csv": ["week,sigma1,sigma2,sigma3,sigma4,sigma5,slice_class",
                   "1,0.2,0.2,0.2,0.2,0.2,V1", "2,0.5,0.5,0.0,0.0,0.0,V2"],
    "rankings.csv": ["node_id,name,a_bar,influential_score,"
                     "rank_least_successful,rank_most_successful",
                     "1,Alpha,2.5,0.25,1,3", "2,Beta,1.5,0.5,2,2", "3,Gamma,0.5,0.75,3,1"],
}

GRAPH = build_route_graph([NodeRecord(1, "Alpha", 42.0, -72.0, 1000),
                           NodeRecord(2, "Beta", 42.1, -72.1, 2000),
                           NodeRecord(3, "Gamma", 42.2, -72.2, 1500)], [(1, 2), (2, 3)])

READ = {
    "nodes.csv": dataio.read_nodes,
    "edges.csv": dataio.read_edges,
    "cases.csv": lambda path: dataio.read_cases(path, GRAPH),
    "transition.csv": lambda path: dataio.read_transition(path, GRAPH),
    "coefficients.csv": lambda path: dataio.read_coefficients(path, GRAPH, WEEKS, FILTERS),
    "classes.csv": lambda path: dataio.read_classes(path, GRAPH, WEEKS),
    "slices.csv": dataio.read_slices,
    "rankings.csv": lambda path: dataio.read_rankings(path, GRAPH),
}

# the column that the "x", "nan" and "inf" rows write into, by index; the
# coefficients' float values are base64, with rows of their own below
FLOAT_COLUMN = {"nodes.csv": 2, "cases.csv": 2, "transition.csv": 2,
                "classes.csv": 2, "slices.csv": 1, "rankings.csv": 2}


def cell(line, column, value):
    def edit(lines):
        cells = lines[line - 1].split(",")
        cells[column] = value
        lines[line - 1] = ",".join(cells)
    return edit


def replace(line, text):
    def edit(lines):
        lines[line - 1] = text
    return edit


def insert(line, text):
    return lambda lines: lines.insert(line - 1, text)


def drop(line, count=1):
    def edit(lines):
        del lines[line - 1:line - 1 + count]
    return edit


def repeat(line, at=None):
    return lambda lines: lines.insert(len(lines) if at is None else at - 1, lines[line - 1])


def both(first, second):
    return lambda lines: (first(lines), second(lines))


def common_faults(name):
    """Faults every reader rejects the same way."""
    header = VALID[name][0]
    k = header.count(",") + 1
    id_column = header.split(",")[0]
    rows = [
        ("bad header", replace(1, "id" + header[header.index(","):]),
         f"bad header (line 1): expected {header}"),
        ("blank line", insert(3, ""), f"line 3: expected {k} columns"),
        ("too few columns", replace(2, VALID[name][1].rsplit(",", 1)[0]),
         f"line 2: expected {k} columns"),
        ("too many columns", replace(2, VALID[name][1] + ",1"), f"line 2: expected {k} columns"),
        ("non-integer id", cell(2, 0, "1.5"), f"line 2: {id_column} must be an integer, got '1.5'"),
        ("non-UTF-8 byte", cell(3, 1, "\udcff"), "line 3: not valid UTF-8 (byte 0xff)"),
    ]
    if name in FLOAT_COLUMN:
        column = FLOAT_COLUMN[name]
        label = header.split(",")[column].rstrip("12345")
        rows += [
            ("non-number", cell(2, column, "x"), f"line 2: {label} must be a number, got 'x'"),
            ("nan", cell(3, column, "nan"), f"line 3: {label} must be finite, got 'nan'"),
            ("inf", cell(2, column, "-inf"), f"line 2: {label} must be finite, got '-inf'"),
        ]
    else:
        rows.append(("non-number", cell(2, 1, "x"),
                     f"line 2: {header.split(',')[1]} must be an integer, got 'x'"))
    return [(name, *row) for row in rows]


FAULTS = [fault for name in VALID for fault in common_faults(name)] + [
    ("nodes.csv", "population below 1", cell(3, 4, "0"), "line 3: population must be >= 1"),
    ("nodes.csv", "underscore digits", cell(2, 4, "1_000"),
     "line 2: population must be an integer, got '1_000'"),
    ("nodes.csv", "duplicate node_id", repeat(2), "line 5: duplicate node_id 1"),
    ("edges.csv", "self-loop", replace(3, "2,2"), "line 3: self-loop edge on node_id 2"),
    ("cases.csv", "unknown node", cell(4, 0, "99"), "line 4: unknown node 99"),
    ("cases.csv", "week 0", cell(2, 1, "0"), "line 2: week must be 1-based, got 0"),
    ("cases.csv", "negative count", cell(2, 2, "-1"), "line 2: cases must be non-negative"),
    ("cases.csv", "absurd week", insert(8, "3,10000000000000,5.0"),
     "line 8: week 10000000000000 is past the 7 case rows"),
    ("cases.csv", "non-ASCII digit", cell(2, 2, "５"),
     "line 2: cases must be a number, got '５'"),
    ("cases.csv", "duplicate row", repeat(2), "line 8: duplicate entry for node 1 week 1"),
    ("cases.csv", "missing row", drop(3), "missing entry for node 1 week 2"),
    ("cases.csv", "header only", drop(2, 6), "no case rows"),
    ("transition.csv", "unknown node", cell(3, 1, "99"), "line 3: unknown node 99"),
    ("transition.csv", "duplicate row", repeat(3), "line 9: duplicate entry for src 1 dst 2"),
    ("transition.csv", "missing row", drop(3), "missing entry for src 1 dst 2"),
    ("transition.csv", "off-support row", insert(4, "1,3,0.25"), "line 4: src 1 dst 3 is not an edge"),
    ("transition.csv", "zero off-support row", insert(2, "3,1,0.0"),
     "line 2: src 3 dst 1 is not an edge"),
    ("transition.csv", "negative weight", cell(5, 2, "-0.5"),
     "src 2: transition matrix entries must be finite and non-negative"),
    ("transition.csv", "row sum", cell(3, 2, "0.25"),
     "src 1: transition matrix rows must sum to 1 within 1e-9"),
    ("transition.csv", "zero diagonal", both(cell(7, 2, "1.0"), cell(8, 2, "0.0")),
     "src 3: transition matrix diagonal must be strictly positive"),
    ("coefficients.csv", "unknown node", cell(2, 0, "99"), "line 2: unknown node 99"),
    ("coefficients.csv", "slice out of range", cell(5, 1, "3"), "line 5: slice 3 outside 1..2"),
    ("coefficients.csv", "not base64", cell(3, 2, "!" + b64(1.0, 2.0)[1:]),
     "line 3: coefs is not valid base64"),
    ("coefficients.csv", "non-ASCII base64", cell(2, 2, "\u00e9" + b64(1.0, 2.0)[1:]),
     "line 2: coefs is not valid base64"),
    ("coefficients.csv", "M-1 values", cell(4, 2, b64(1.0)),
     "line 4: coefs has 8 bytes, expected 16 for 2 filters"),
    ("coefficients.csv", "M+1 values", cell(2, 2, b64(1.0, 2.0, 3.0)),
     "line 2: coefs has 24 bytes, expected 16 for 2 filters"),
    ("coefficients.csv", "nan", cell(6, 2, b64(0.5, float("nan"))),
     "line 6: coefs must be finite, got nan"),
    ("coefficients.csv", "inf", cell(7, 2, b64(float("-inf"), 0.5)),
     "line 7: coefs must be finite, got -inf"),
    ("coefficients.csv", "duplicate row", repeat(5), "line 8: duplicate entry for vertex 2 slice 2"),
    ("coefficients.csv", "missing row", drop(3), "missing coefficient rows for vertex 1 slice 2"),
    ("classes.csv", "unknown node", cell(2, 0, "99"), "line 2: unknown node 99"),
    ("classes.csv", "week out of range", cell(3, 1, "3"), "line 3: week 3 outside 1..2"),
    ("classes.csv", "bad class label", cell(4, 3, "V6"), "line 4: bad class label 'V6'"),
    ("classes.csv", "a_score above 4", cell(3, 5, "5"),
     "line 3: a_score 5 does not match class V2 and theta 1.0 (expected 2)"),
    ("classes.csv", "negative a_score", cell(6, 5, "-1"),
     "line 6: a_score -1 does not match class V3 and theta 0.5 (expected 2)"),
    ("classes.csv", "a_score not the grade of class and theta", cell(2, 5, "4"),
     "line 2: a_score 4 does not match class V1 and theta 0.5 (expected 2)"),
    ("classes.csv", "a_score not the grade of a V4 spike", cell(7, 4, "1.5"),
     "line 7: a_score 2 does not match class V4 and theta 1.5 (expected 3)"),
    ("classes.csv", "duplicate row", repeat(2), "line 8: duplicate entry for node 1 week 1"),
    ("classes.csv", "missing row", drop(5), "missing class rows for node 2 week 2"),
    ("slices.csv", "week out of range", cell(3, 0, "3"),
     "line 3: week must be 2 (rows run 1..T in order), got 3"),
    ("slices.csv", "bad slice label", cell(2, 6, "V9"),
     "line 2: slice_class must be one of V1..V5, got 'V9'"),
    ("slices.csv", "sigma above 1", cell(2, 1, "1.5"), "line 2: sigma1 1.5 outside [0, 1]"),
    ("slices.csv", "negative sigma", cell(3, 3, "-0.1"), "line 3: sigma3 -0.1 outside [0, 1]"),
    ("slices.csv", "sigmas not summing to 1", cell(3, 3, "1e-8"),
     "line 3: sigmas sum to 1.00000001, not 1 within 1e-9"),
    ("slices.csv", "duplicate row", repeat(2, at=3),
     "line 3: week must be 2 (rows run 1..T in order), got 1"),
    ("slices.csv", "missing row", drop(2), "line 2: week must be 1 (rows run 1..T in order), got 2"),
    ("rankings.csv", "unknown node", cell(4, 0, "99"), "line 4: unknown node 99"),
    ("rankings.csv", "a_bar above 4", cell(3, 2, "4.5"), "line 3: a_bar 4.5 outside [0, 4]"),
    ("rankings.csv", "negative a_bar", cell(2, 2, "-0.5"), "line 2: a_bar -0.5 outside [0, 4]"),
    ("rankings.csv", "rank above N", cell(4, 4, "4"),
     "line 4: rank_least_successful 4 does not match the a_bar order (expected 3)"),
    ("rankings.csv", "rank 0", cell(2, 5, "0"),
     "line 2: rank_most_successful 0 does not match the a_bar order (expected 3)"),
    ("rankings.csv", "repeated rank", cell(4, 5, "2"),
     "line 4: rank_most_successful 2 does not match the a_bar order (expected 1)"),
    ("rankings.csv", "repeated rank before one out of range", both(cell(3, 4, "1"), cell(4, 4, "9")),
     "line 3: rank_least_successful 1 does not match the a_bar order (expected 2)"),
    ("rankings.csv", "least ranks against the a_bar order", both(cell(2, 4, "2"), cell(3, 4, "1")),
     "line 2: rank_least_successful 2 does not match the a_bar order (expected 1)"),
    ("rankings.csv", "most ranks against the a_bar order", both(cell(3, 5, "1"), cell(4, 5, "2")),
     "line 3: rank_most_successful 1 does not match the a_bar order (expected 2)"),
    ("rankings.csv", "duplicate row", repeat(3), "line 5: duplicate entry for node 2"),
    ("rankings.csv", "missing row", drop(3), "missing entry for node 2"),
]


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_files_read(tmp_path, name):
    path = tmp_path / name
    path.write_text("\n".join(VALID[name]) + "\n", encoding="utf-8")
    READ[name](path)


@pytest.mark.parametrize("name", sorted(VALID))
def test_empty_file(tmp_path, name):
    path = tmp_path / name
    path.write_text("")
    with pytest.raises(ValidationError) as info:
        READ[name](path)
    assert str(info.value) == f"{path}: empty file (line 1)"


@pytest.mark.parametrize("name,fault,edit,message", FAULTS,
                         ids=[f"{name}-{fault}" for name, fault, _, _ in FAULTS])
def test_fault_rejected_with_file_and_line(tmp_path, name, fault, edit, message):
    lines = list(VALID[name])
    edit(lines)
    path = tmp_path / name
    # a lone surrogate "\udcXX" in a line is written as the raw byte 0xXX
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(ValidationError) as info:
        READ[name](path)
    assert str(info.value) == f"{path}: {message}"


def test_repeated_rank_in_a_later_chunk(tmp_path, monkeypatch):
    # ranks seen in earlier chunks count: one row per chunk here
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 1)
    lines = list(VALID["rankings.csv"])
    cell(4, 4, "1")(lines)
    path = tmp_path / "rankings.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        dataio.read_rankings(path, GRAPH)
    assert str(info.value) == (f"{path}: line 4: rank_least_successful 1 does not match "
                               "the a_bar order (expected 3)")


@pytest.mark.parametrize("chunk_rows,at,message", [
    (1, 9, "line 9: duplicate entry for src 1 dst 1"),  # in a later chunk
    (2, 9, "line 9: duplicate entry for src 1 dst 1"),
    (2, 3, "line 3: duplicate entry for src 1 dst 1"),  # inside one chunk
])
def test_duplicate_key_across_and_inside_chunks(tmp_path, monkeypatch, chunk_rows, at,
                                                message):
    monkeypatch.setattr(dataio, "CHUNK_ROWS", chunk_rows)
    lines = list(VALID["transition.csv"])
    repeat(2, at)(lines)
    path = tmp_path / "transition.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        dataio.read_transition(path, GRAPH)
    assert str(info.value) == f"{path}: {message}"


def test_duplicate_node_id_in_unsorted_nodes_names_its_line(tmp_path):
    # node ids 3, 2, 1, 2 on lines 2..5: the checks run in file order, before the graph
    # sorts the records by node_id (sorted first, the second 2 would be record 3, line 4)
    header, *rows = VALID["nodes.csv"]
    paths = [tmp_path / name for name in ("nodes.csv", "edges.csv", "cases.csv")]
    for path, lines in zip(paths, ([header] + rows[::-1] + rows[1:2],
                                   VALID["edges.csv"], VALID["cases.csv"])):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        dataio.ingest(*paths)
    assert str(info.value) == f"{paths[0]}: line 5: duplicate node_id 2"


def test_rank_order_names_the_line_of_each_row(tmp_path, monkeypatch):
    # rows in reverse node order, one per chunk: node 2 is on line 3 and node 1 on line 4
    monkeypatch.setattr(dataio, "CHUNK_ROWS", 1)
    header, *rows = VALID["rankings.csv"]
    lines = [header] + rows[::-1]
    cell(3, 4, "1")(lines)  # node 1's least rank on node 2's row
    cell(4, 4, "2")(lines)
    path = tmp_path / "rankings.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        dataio.read_rankings(path, GRAPH)
    assert str(info.value) == (f"{path}: line 3: rank_least_successful 1 does not match "
                               "the a_bar order (expected 2)")


CHECKPOINT = ["GATCKPT2",
              "tensor layer1.weight 1 1 2", b64(0.5, -0.25),
              "tensor layer1.attn 1 2", b64(0.125, 1.0),
              "tensor layer2.weight 1 1 1", b64(2.0),
              "tensor layer2.attn 1 2", b64(-1.0, 0.75),
              "tensor theta 1", b64(0.5)]

CHECKPOINT_FAULTS = [
    ("GATCKPT1 magic", replace(1, "GATCKPT1"), "line 1: missing GATCKPT2 magic header"),
    ("non-number value", replace(3, "0.5 -0.25"),
     "line 3: tensor layer1.weight values are not valid base64"),
    ("invalid base64", replace(5, b64(0.125, 1.0).replace("A", "!", 1)),
     "line 5: tensor layer1.attn values are not valid base64"),
    ("cut base64", replace(5, b64(0.125, 1.0)[:-1]),
     "line 5: tensor layer1.attn values are not valid base64"),
    ("non-ASCII base64", replace(11, "\u00e9" + b64(0.5)[1:]),
     "line 11: tensor theta values are not valid base64"),
    ("non-UTF-8 byte", replace(11, "\udcff" + b64(0.5)[1:]),
     "line 11: not valid UTF-8 (byte 0xff)"),
    ("nan value", replace(5, b64(float("nan"), 1.0)),
     "line 5: tensor layer1.attn values must be finite, got nan"),
    ("inf value", replace(11, b64(float("-inf"))),
     "line 11: tensor theta values must be finite, got -inf"),
    ("non-integer dimension", replace(2, "tensor layer1.weight 1 1 x"),
     "line 2: tensor layer1.weight dimension must be a non-negative integer, got 'x'"),
    ("negative dimension", replace(6, "tensor layer2.weight -1 1 1"),
     "line 6: tensor layer2.weight dimension must be a non-negative integer, got '-1'"),
    ("wrong element count", replace(7, b64(2.0, 3.0)),
     "line 7: tensor layer2.weight has 16 bytes, expected 8 for shape (1, 1, 1)"),
    ("partial value", replace(7, b64(2.0)[:4]),
     "line 7: tensor layer2.weight has 3 bytes, expected 8 for shape (1, 1, 1)"),
    ("no tensor header", replace(2, "layer1.weight 1 1 2"), "line 2: expected a tensor header"),
    ("unnamed tensor", replace(10, "tensor "), "line 10: expected a tensor header"),
    ("missing tensor", drop(10, 2), "incomplete checkpoint (missing ['theta'])"),
    ("truncated tensor", drop(11), "truncated tensor theta"),
    ("shape mismatch",
     both(replace(8, "tensor layer2.attn 1 3"), replace(9, b64(-1.0, 0.75, 1.0))),
     "attention vector length must be twice the head dimension"),
    ("rank-1 head weight", replace(2, "tensor layer1.weight 1 2"),
     "all heads must share input and output dimensions"),
    ("rank-3 head weight", replace(2, "tensor layer1.weight 1 1 1 2"),
     "all heads must share input and output dimensions"),
    ("rank-1 layer-2 weight", replace(6, "tensor layer2.weight 1 1"),
     "all heads must share input and output dimensions"),
    ("no heads", both(both(replace(2, "tensor layer1.weight 0 1 2"), replace(3, "")),
                      both(replace(4, "tensor layer1.attn 0 2"), replace(5, ""))),
     "layer needs matching, non-empty weight/attention lists"),
    ("two-head layer 2",
     both(both(replace(6, "tensor layer2.weight 2 1 1"), replace(7, b64(2.0, 2.0))),
          both(replace(8, "tensor layer2.attn 2 2"), replace(9, b64(-1.0, 0.75, -1.0, 0.75)))),
     "second layer must be single-head"),
    ("cascade mismatch",
     both(replace(6, "tensor layer2.weight 1 1 2"), replace(7, b64(2.0, 2.0))),
     "layer-2 input dim 2 != cascaded layer-1 output 1"),
    ("repeated tensor", both(insert(12, "tensor theta 1"), insert(13, b64(0.0))),
     "line 12: repeated tensor theta"),
    ("unknown tensor", both(insert(6, "tensor bogus 1"), insert(7, b64(1.0))),
     "line 6: unknown tensor bogus"),
    ("per-head tensor", replace(2, "tensor layer1.weight.0 1 2"),
     "line 2: unknown tensor layer1.weight.0"),
]


def test_valid_checkpoint_reads(tmp_path):
    path = tmp_path / "gat_model.ckpt"
    path.write_text("\n".join(CHECKPOINT) + "\n", encoding="utf-8")
    assert dataio.load_checkpoint(path).theta.tolist() == [0.5]


@pytest.mark.parametrize("fault,edit,message", CHECKPOINT_FAULTS,
                         ids=[fault for fault, _, _ in CHECKPOINT_FAULTS])
def test_checkpoint_fault_rejected_with_file_and_line(tmp_path, fault, edit, message):
    lines = list(CHECKPOINT)
    edit(lines)
    path = tmp_path / "gat_model.ckpt"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(ValidationError) as info:
        dataio.load_checkpoint(path)
    assert str(info.value) == f"{path}: {message}"
