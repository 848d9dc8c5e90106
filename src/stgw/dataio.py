"""CSV schemas, model checkpoints, and the run manifest.

All writers are deterministic: fixed row order, shortest round-trip float
formatting, and newline-terminated lines, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import csv
import hashlib
import operator
import os
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .errors import DataIOError, ValidationError
from .gat import GatLayerParams, GatModel
from .graphs import CaseMatrix, NodeRecord, RouteGraph, TransitionMatrix, build_route_graph
from .sgwt import CoefficientTable

CHECKPOINT_MAGIC = "GATCKPT1"

NODES_HEADER = ["node_id", "name", "lat", "lon", "population"]
EDGES_HEADER = ["src_id", "dst_id"]
CASES_HEADER = ["node_id", "week", "cases"]
TRANSITION_HEADER = ["src_id", "dst_id", "p"]
COEFFS_HEADER = ["vertex_id", "slice", "filter", "coef"]
CLASSES_HEADER = ["node_id", "week", "torque", "class", "theta", "a_score"]
SLICES_HEADER = ["week", "sigma1", "sigma2", "sigma3", "sigma4", "sigma5", "slice_class"]
SLICE_LABELS = ("V1", "V2", "V3", "V4", "V5")
RANKINGS_HEADER = ["node_id", "name", "a_bar", "influential_score",
                   "rank_least_successful", "rank_most_successful"]


def fnum(x) -> str:
    """Shortest representation that round-trips a float exactly."""
    return repr(float(x))


def _open_read(path):
    try:
        return open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}")


def _reader(path, expected_header):
    fh = _open_read(path)
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


def write_csv(path, header: list[str], rows: Iterable[list]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}")


def _write_chunks(path, header: str, chunks: Iterable[str]) -> None:
    """Header line, then text chunks formatted by the caller (`repr`, as `fnum`)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            fh.writelines(chunks)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}")


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


def ingest(nodes_path, edges_path, cases_path,
           expected_weeks: int | None = None) -> tuple[RouteGraph, CaseMatrix]:
    graph = build_route_graph(read_nodes(nodes_path), read_edges(edges_path))
    cases = read_cases(cases_path, graph, expected_weeks)
    return graph, cases


def write_nodes(path, nodes: Iterable[NodeRecord]) -> None:
    write_csv(path, NODES_HEADER,
              ([n.node_id, n.name, fnum(n.lat), fnum(n.lon), n.population] for n in nodes))


def write_edges(path, graph: RouteGraph) -> None:
    ids = graph.node_ids
    write_csv(path, EDGES_HEADER, ([ids[i], ids[j]] for i, j in graph.edges))


def write_cases(path, graph: RouteGraph, cases: CaseMatrix) -> None:
    rows = ([nid, week + 1, fnum(cases.values[i, week])]
            for i, nid in enumerate(graph.node_ids)
            for week in range(cases.weeks))
    write_csv(path, CASES_HEADER, rows)


def write_transition(path, graph: RouteGraph, transition: TransitionMatrix) -> None:
    """Every structurally allowed entry (edges plus diagonal), ascending (src, dst)."""
    ids = np.array(graph.node_ids)
    rows, cols = (graph.adjacency + sp.eye(graph.n)).nonzero()
    order = np.lexsort((ids[cols], ids[rows]))
    rows, cols = rows[order], cols[order]
    write_csv(path, TRANSITION_HEADER,
              zip(ids[rows].tolist(), ids[cols].tolist(),
                  map(repr, transition.P[rows, cols].tolist())))


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


def write_coefficients(path, graph: RouteGraph, weeks: int, table: CoefficientTable) -> None:
    grid = table.values.reshape(weeks, graph.n, table.filter_count)
    # the ",slice,filter," middle of each of a node's rows, in row order
    middles = [f",{t},{m}," for t in range(1, weeks + 1)
               for m in range(1, table.filter_count + 1)]

    def node_rows(i, nid):
        cells = map(operator.add, middles, map(repr, grid[:, i].ravel().tolist()))
        return f"{nid}" + f"\n{nid}".join(cells) + "\n"
    _write_chunks(path, ",".join(COEFFS_HEADER),
                  (node_rows(i, nid) for i, nid in enumerate(graph.node_ids)))


def read_coefficients(path, graph: RouteGraph, weeks: int,
                      filters: int) -> CoefficientTable:
    fh, rows = _reader(path, COEFFS_HEADER)
    n = graph.n
    values = np.full((n * weeks, filters), np.nan)
    with fh:
        for line, row in enumerate(rows, start=2):
            if len(row) != 4:
                raise ValidationError(f"{path}: line {line}: expected 4 columns")
            nid = _parse_int(row[0], path, line, "vertex_id")
            t = _parse_int(row[1], path, line, "slice")
            m = _parse_int(row[2], path, line, "filter")
            coef = _parse_float(row[3], path, line, "coef")
            try:
                i = graph.index_of(nid)
            except KeyError:
                raise ValidationError(f"{path}: line {line}: unknown node {nid}")
            if not 1 <= t <= weeks:
                raise ValidationError(f"{path}: line {line}: slice {t} outside 1..{weeks}")
            if not 1 <= m <= filters:
                raise ValidationError(f"{path}: line {line}: filter {m} outside 1..{filters}")
            values[(t - 1) * n + i, m - 1] = coef
    if np.isnan(values).any():
        raise ValidationError(f"{path}: missing coefficient rows")
    return CoefficientTable(values=values)


def write_classes(path, graph: RouteGraph, weeks: int, phi_grid, labels_grid,
                  theta_grid, score_grid) -> None:
    grids = [np.asarray(g, dtype=d)[:, :weeks]
             for g, d in ((phi_grid, float), (labels_grid, int),
                          (theta_grid, float), (score_grid, int))]
    _write_chunks(path, ",".join(CLASSES_HEADER), (
        "".join(f"{nid},{t},{phi!r},V{label},{theta!r},{score}\n"
                for t, (phi, label, theta, score)
                in enumerate(zip(*(g[i].tolist() for g in grids)), start=1))
        for i, nid in enumerate(graph.node_ids)))


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


def write_slices(path, sigma, slice_classes) -> None:
    rows = ([t + 1] + [fnum(sigma[t, j]) for j in range(5)] + [f"V{int(slice_classes[t])}"]
            for t in range(sigma.shape[0]))
    write_csv(path, SLICES_HEADER, rows)


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


def write_rankings(path, graph: RouteGraph, a_bar, influential, least, most) -> None:
    rows = ([nid, graph.nodes[i].name, fnum(a_bar[i]), fnum(influential[i]),
             int(least[i]), int(most[i])]
            for i, nid in enumerate(graph.node_ids))
    write_csv(path, RANKINGS_HEADER, rows)


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


def _tensor_names(heads: int) -> list[str]:
    """Checkpoint tensor names, in `GatModel.parameters()` order."""
    return ([f"layer1.weight.{k}" for k in range(heads)]
            + [f"layer1.attn.{k}" for k in range(heads)]
            + ["layer2.weight", "layer2.attn", "theta"])


def save_checkpoint(path, model: GatModel) -> None:
    """Text checkpoint: magic line, then `tensor <name> <dims...>` + one value line."""
    def tensor_chunks(name, arr):
        flat = np.asarray(arr, dtype=float).ravel()
        yield f"tensor {name} {' '.join(map(str, arr.shape))}\n"
        for k in range(0, flat.size, 1024):  # a value line can hold ~10^5 values
            yield " " * (k > 0) + " ".join(map(repr, flat[k:k + 1024].tolist()))
        yield "\n"
    names = _tensor_names(model.layer1.head_count)
    _write_chunks(path, CHECKPOINT_MAGIC, (chunk for name, arr in zip(names, model.parameters())
                                           for chunk in tensor_chunks(name, arr)))


def load_checkpoint(path) -> GatModel:
    with _open_read(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: missing {CHECKPOINT_MAGIC} magic header")
    tensors: dict[str, np.ndarray] = {}
    k = 1
    while k < len(lines):
        if not lines[k].startswith("tensor "):
            raise ValidationError(f"{path}: line {k + 1}: expected a tensor header")
        parts = lines[k].split()
        name, shape = parts[1], tuple(int(d) for d in parts[2:])
        if k + 1 >= len(lines):
            raise ValidationError(f"{path}: truncated tensor {name}")
        values = np.array([float(v) for v in lines[k + 1].split()])
        if values.size != int(np.prod(shape)):
            raise ValidationError(f"{path}: tensor {name} has wrong element count")
        tensors[name] = values.reshape(shape)
        k += 2

    heads = sum(1 for name in tensors if name.startswith("layer1.weight."))
    missing = [name for name in _tensor_names(heads) if name not in tensors]
    if missing or heads == 0:
        raise ValidationError(f"{path}: incomplete checkpoint (missing {missing})")
    return GatModel(
        layer1=GatLayerParams(
            weights=[tensors[f"layer1.weight.{k}"] for k in range(heads)],
            attn=[tensors[f"layer1.attn.{k}"] for k in range(heads)],
        ),
        layer2=GatLayerParams(weights=[tensors["layer2.weight"]],
                              attn=[tensors["layer2.attn"]]),
        theta=tensors["theta"],
    )


def content_hash(path) -> str:
    """Git-style blob hash of a file's bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot hash {path}: {exc}")
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def update_manifest(path, section: str, values: dict) -> None:
    """Merge one section into the manifest, keeping sections and keys sorted."""
    sections: dict[str, dict[str, str]] = {}
    if os.path.exists(path):
        current = None
        with _open_read(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("[") and line.endswith("]"):
                    current = line[1:-1]
                    sections.setdefault(current, {})
                elif "=" in line and current is not None:
                    key, _, value = line.partition("=")
                    sections[current][key.strip()] = value.strip()
    sections.setdefault(section, {}).update({k: str(v) for k, v in values.items()})
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for name in sorted(sections):
                fh.write(f"[{name}]\n")
                for key in sorted(sections[name]):
                    fh.write(f"{key} = {sections[name][key]}\n")
                fh.write("\n")
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}")
