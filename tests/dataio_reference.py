"""Row-per-cell reference writers and readers for the chunked ones in `stgw.dataio`.

The writers are the `csv.writer` + `fnum` forms of `write_cases`,
`write_classes` and `write_transition`: one formatted cell at a time, the sort
done on Python tuples over a dense N x N mask; and the `struct` + `base64` forms
of `write_coefficients` and `save_checkpoint`, one packed row or double at a
time.  The readers are the `csv.reader` forms of every `read_*`: one row at a
time, each cell through `int()`, `float()` or `base64` + `struct.unpack`.
They live here only so the tests can require the chunked writers to produce
the same bytes and the chunked readers the same arrays.
"""

import base64
import csv
import struct

import numpy as np

from stgw.dataio import (CASES_HEADER, CHECKPOINT_MAGIC, CLASSES_HEADER, COEFFS_HEADER,
                         EDGES_HEADER, NODES_HEADER, RANKINGS_HEADER, SLICE_LABELS,
                         SLICES_HEADER, TRANSITION_HEADER, fnum, write_csv)
from stgw.errors import ValidationError
from stgw.graphs import CaseMatrix, NodeRecord, RouteGraph, TransitionMatrix
from stgw.sgwt import CoefficientTable


def write_cases(path, graph, cases):
    rows = ([nid, week + 1, fnum(cases.values[i, week])]
            for i, nid in enumerate(graph.node_ids)
            for week in range(cases.weeks))
    write_csv(path, CASES_HEADER, rows)


def write_transition(path, graph, transition):
    ids = graph.node_ids
    mask = graph.dense_adjacency() > 0
    np.fill_diagonal(mask, True)
    order = sorted(((ids[i], ids[j], i, j) for i, j in np.argwhere(mask)))
    write_csv(path, TRANSITION_HEADER,
              ([src, dst, fnum(transition.P[i, j])] for src, dst, i, j in order))


def write_coefficients(path, graph, weeks, table):
    n, m = graph.n, table.filter_count
    ids = graph.node_ids
    rows = ([ids[i], t + 1, base64.standard_b64encode(
                struct.pack(f"<{m}d", *table.values[t * n + i])).decode("ascii")]
            for i in range(n)
            for t in range(weeks))
    write_csv(path, COEFFS_HEADER, rows)


def write_classes(path, graph, weeks, phi_grid, labels_grid, theta_grid, score_grid):
    rows = ([nid, t + 1, fnum(phi_grid[i, t]), f"V{int(labels_grid[i, t])}",
             fnum(theta_grid[i, t]), int(score_grid[i, t])]
            for i, nid in enumerate(graph.node_ids)
            for t in range(weeks))
    write_csv(path, CLASSES_HEADER, rows)


def save_checkpoint(path, model):
    tensors = [("layer1.weight", model.layer1.weights), ("layer1.attn", model.layer1.attn),
               ("layer2.weight", model.layer2.weights), ("layer2.attn", model.layer2.attn),
               ("theta", model.theta)]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        for name, arr in tensors:
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"tensor {name} {dims}\n")
            data = b"".join(struct.pack("<d", float(v)) for v in arr.ravel())
            fh.write(base64.standard_b64encode(data).decode("ascii") + "\n")


def _reader(path, expected_header):
    fh = open(path, "r", encoding="utf-8", newline="")
    rows = csv.reader(fh)
    try:
        header = next(rows)
    except StopIteration:
        fh.close()
        raise ValidationError(f"{path}: empty file (line 1)")
    if [h.strip() for h in header] != expected_header:
        fh.close()
        raise ValidationError(
            f"{path}: bad header (line 1): expected {','.join(expected_header)}"
        )
    return fh, rows


def _parse_int(value, path, line, column):
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{path}: line {line}: {column} must be an integer, got {value!r}")


def _parse_float(value, path, line, column):
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"{path}: line {line}: {column} must be a number, got {value!r}")


def read_nodes(path) -> list[NodeRecord]:
    fh, rows = _reader(path, NODES_HEADER)
    records = []
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 5:
                raise ValidationError(f"{path}: line {line}: expected 5 columns")
            nid = _parse_int(row[0], path, line, "node_id")
            lat = _parse_float(row[2], path, line, "lat")
            lon = _parse_float(row[3], path, line, "lon")
            pop = _parse_int(row[4], path, line, "population")
            if pop < 1:
                raise ValidationError(f"{path}: line {line}: population must be >= 1")
            records.append(NodeRecord(nid, row[1], lat, lon, pop))
    return records


def read_edges(path) -> list[tuple[int, int]]:
    fh, rows = _reader(path, EDGES_HEADER)
    edges = []
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 2:
                raise ValidationError(f"{path}: line {line}: expected 2 columns")
            edges.append((_parse_int(row[0], path, line, "src_id"),
                          _parse_int(row[1], path, line, "dst_id")))
    return edges


def read_cases(path, graph: RouteGraph, expected_weeks: int | None = None) -> CaseMatrix:
    """Long-format raw counts; every (node, week) pair must be present exactly once."""
    fh, rows = _reader(path, CASES_HEADER)
    known = set(graph.node_ids)
    entries: dict[tuple[int, int], float] = {}
    max_week = 0
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 3:
                raise ValidationError(f"{path}: line {line}: expected 3 columns")
            nid = _parse_int(row[0], path, line, "node_id")
            week = _parse_int(row[1], path, line, "week")
            value = _parse_float(row[2], path, line, "cases")
            if nid not in known:
                raise ValidationError(f"{path}: line {line}: unknown node {nid}")
            if week < 1:
                raise ValidationError(f"{path}: line {line}: week must be 1-based, got {week}")
            if value < 0:
                raise ValidationError(f"{path}: line {line}: cases must be non-negative")
            if (nid, week) in entries:
                raise ValidationError(f"{path}: line {line}: duplicate entry for node {nid} week {week}")
            entries[(nid, week)] = value
            max_week = max(max_week, week)
    if expected_weeks is not None and max_week != expected_weeks:
        raise ValidationError(f"{path}: found {max_week} weeks, expected {expected_weeks}")
    if max_week == 0:
        raise ValidationError(f"{path}: no case rows")
    values = np.zeros((graph.n, max_week))
    for i, nid in enumerate(graph.node_ids):
        for week in range(1, max_week + 1):
            if (nid, week) not in entries:
                raise ValidationError(f"{path}: missing entry for node {nid} week {week}")
            values[i, week - 1] = entries[(nid, week)]
    return CaseMatrix(values=values, weeks=max_week)


def read_transition(path, graph: RouteGraph) -> TransitionMatrix:
    fh, rows = _reader(path, TRANSITION_HEADER)
    P = np.zeros((graph.n, graph.n))
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 3:
                raise ValidationError(f"{path}: line {line}: expected 3 columns")
            src = _parse_int(row[0], path, line, "src_id")
            dst = _parse_int(row[1], path, line, "dst_id")
            p = _parse_float(row[2], path, line, "p")
            try:
                i, j = graph.index_of(src), graph.index_of(dst)
            except KeyError as exc:
                raise ValidationError(f"{path}: line {line}: unknown node {exc.args[0]}")
            P[i, j] = p
    transition = TransitionMatrix(P=P)
    transition.check_support(graph)
    return transition


def read_coefficients(path, graph: RouteGraph, weeks: int,
                      filters: int) -> CoefficientTable:
    fh, rows = _reader(path, COEFFS_HEADER)
    n = graph.n
    values = np.full((n * weeks, filters), np.nan)
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 3:
                raise ValidationError(f"{path}: line {line}: expected 3 columns")
            nid = _parse_int(row[0], path, line, "vertex_id")
            t = _parse_int(row[1], path, line, "slice")
            try:
                data = base64.b64decode(row[2].strip(), validate=True)
            except ValueError:
                raise ValidationError(f"{path}: line {line}: coefs is not valid base64")
            if len(data) != 8 * filters:
                raise ValidationError(f"{path}: line {line}: coefs has {len(data)} bytes, "
                                      f"expected {8 * filters} for {filters} filters")
            try:
                i = graph.index_of(nid)
            except KeyError:
                raise ValidationError(f"{path}: line {line}: unknown node {nid}")
            if not 1 <= t <= weeks:
                raise ValidationError(f"{path}: line {line}: slice {t} outside 1..{weeks}")
            values[(t - 1) * n + i] = struct.unpack(f"<{filters}d", data)
    if np.isnan(values).any():
        raise ValidationError(f"{path}: missing coefficient rows")
    return CoefficientTable(values=values)


def read_classes(path, graph: RouteGraph, weeks: int) -> dict:
    fh, rows = _reader(path, CLASSES_HEADER)
    n = graph.n
    phi = np.full((n, weeks), np.nan)
    labels = np.zeros((n, weeks), dtype=int)
    theta = np.full((n, weeks), np.nan)
    scores = np.zeros((n, weeks), dtype=int)
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 6:
                raise ValidationError(f"{path}: line {line}: expected 6 columns")
            nid = _parse_int(row[0], path, line, "node_id")
            week = _parse_int(row[1], path, line, "week")
            if not 1 <= week <= weeks:
                raise ValidationError(f"{path}: line {line}: week {week} outside 1..{weeks}")
            try:
                i = graph.index_of(nid)
            except KeyError:
                raise ValidationError(f"{path}: line {line}: unknown node {nid}")
            label = row[3].strip()
            if not (len(label) == 2 and label[0] == "V" and label[1] in "12345"):
                raise ValidationError(f"{path}: line {line}: bad class label {label!r}")
            phi[i, week - 1] = _parse_float(row[2], path, line, "torque")
            labels[i, week - 1] = int(label[1])
            theta[i, week - 1] = _parse_float(row[4], path, line, "theta")
            scores[i, week - 1] = _parse_int(row[5], path, line, "a_score")
    if np.isnan(phi).any():
        raise ValidationError(f"{path}: missing class rows")
    return {"phi": phi, "labels": labels, "theta": theta, "scores": scores}


def read_slices(path) -> tuple[np.ndarray, np.ndarray]:
    fh, rows = _reader(path, SLICES_HEADER)
    sigma_rows, classes = [], []
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 7:
                raise ValidationError(f"{path}: line {line}: expected 7 columns")
            sigma_rows.append([_parse_float(v, path, line, "sigma") for v in row[1:6]])
            label = row[6].strip()
            if label not in SLICE_LABELS:
                raise ValidationError(
                    f"{path}: line {line}: slice_class must be one of V1..V5, got {label!r}"
                )
            classes.append(SLICE_LABELS.index(label) + 1)
    return np.array(sigma_rows), np.array(classes, dtype=int)


def read_rankings(path, graph: RouteGraph) -> dict:
    fh, rows = _reader(path, RANKINGS_HEADER)
    n = graph.n
    out = {"a_bar": np.zeros(n), "influential": np.zeros(n),
           "least": np.zeros(n, dtype=int), "most": np.zeros(n, dtype=int)}
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 6:
                raise ValidationError(f"{path}: line {line}: expected 6 columns")
            nid = _parse_int(row[0], path, line, "node_id")
            try:
                i = graph.index_of(nid)
            except KeyError:
                raise ValidationError(f"{path}: line {line}: unknown node {nid}")
            out["a_bar"][i] = _parse_float(row[2], path, line, "a_bar")
            out["influential"][i] = _parse_float(row[3], path, line, "influential_score")
            out["least"][i] = _parse_int(row[4], path, line, "rank_least_successful")
            out["most"][i] = _parse_int(row[5], path, line, "rank_most_successful")
    return out
