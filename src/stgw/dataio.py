"""CSV schemas, model checkpoints, and the run manifest.

Every CSV table goes through `_read_csv`: `np.loadtxt` over `CHUNK_ROWS` rows
at a time into typed columns, then checks on whole columns. A bad row fails
with its file and line; keyed rows must appear exactly once.

All writers are deterministic: fixed row order, shortest round-trip float
formatting, and newline-terminated lines, so identical runs produce identical
bytes.  Every writer goes through `_output`, which replaces a file only once
its new contents are complete.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import math
import operator
import os
import re
import warnings
from functools import partial
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import DataIOError, ValidationError, utf8_text
from .gat import GatModel
from .graphs import (CaseMatrix, NodeRecord, RouteGraph, TransitionMatrix, build_route_graph,
                     check_endpoints, check_nodes, check_self_loops, raise_first)
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
_LABELS = np.array(SLICE_LABELS)
RANKINGS_HEADER = ["node_id", "name", "a_bar", "influential_score",
                   "rank_least_successful", "rank_most_successful"]

CHUNK_ROWS = 8192  # rows per `np.loadtxt` call; bounds a reader's transient memory


def fnum(x) -> str:
    """Shortest representation that round-trips a float exactly."""
    return repr(float(x))


def _open_read(path):
    try:
        return open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}")


def _load(lines, dtype):
    """`np.loadtxt` of CSV lines, or None if one fails. Warnings count as failures:
    numpy warns on all-blank input, and numpy 1.x when it reads "1.5" as the integer 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                              quotechar='"', ndmin=1)
        except (ValueError, Warning):
            return None
    return rows if len(rows) == len(lines) else None  # loadtxt skips blank lines


def _bad_row(text, columns) -> str | None:
    """Why a CSV line is not a row of `columns` (name, dtype) with finite numbers."""
    cells = next(csv.reader([text]), [])
    if len(cells) != len(columns):
        return f"expected {len(columns)} columns"
    for value, (name, base) in zip(cells, columns):
        parsed = _load([value], base) if base.kind in "if" else ()
        if parsed is None:
            kind = "an integer" if base.kind == "i" else "a number"
            return f"{name} must be {kind}, got {value!r}"
        if base.kind == "f" and not np.isfinite(parsed[0]):
            return f"{name} must be finite, got {value!r}"
    return None


def _read_csv(path, header: list[str], formats: str, names: list[str] | None = None):
    """Yield (line of the first row, rows) per chunk: one field per format ("5f8" spans
    five columns), named by `header` unless `names` is given."""
    dtype = np.dtype({"names": names or header, "formats": formats.split(",")})
    columns = [(name, dtype[name].base) for name in dtype.names
               for _ in range(int(np.prod(dtype[name].shape)))]
    with utf8_text(path), _open_read(path) as fh:
        first = fh.readline()
        if not first:
            raise ValidationError(f"{path}: empty file (line 1)")
        if [h.strip() for h in next(csv.reader([first]), [])] != header:
            raise ValidationError(f"{path}: bad header (line 1): expected {','.join(header)}")
        line = 2
        while lines := list(itertools.islice(fh, CHUNK_ROWS)):
            rows = _load(lines, dtype)
            if rows is None or not all(np.isfinite(rows[name]).all()
                                       for name, base in columns if base.kind == "f"):
                why = ((line + k, _bad_row(text, columns)) for k, text in enumerate(lines))
                bad, reason = next(((k, r) for k, r in why if r), (line, "cannot parse"))
                raise ValidationError(f"{path}: line {bad}: {reason}")
            yield line, rows
            line += len(lines)


def _reject(path, line, bad, message) -> None:
    """Raise message(k) for the first True of `bad`, whose row k is on line `line + k`."""
    raise_first(bad, lambda k: f"{path}: line {line + k}: {message(k)}")


def _positions(path, line, known, values, message: str) -> np.ndarray:
    """Index in `known` of each value; the first value not in it is rejected with its line."""
    order = np.argsort(known, kind="stable")
    pos = np.searchsorted(known, values, sorter=order)
    found = pos < len(known)
    found[found] = known[order[pos[found]]] == values[found]
    _reject(path, line, ~found, lambda k: message.format(values[k].item()))
    return order[pos]


class _Scatter:
    """Result grids that the rows of a keyed table fill, each cell exactly once;
    `describe(*cell)` names the key of a grid cell in messages."""

    def __init__(self, path, what: str, describe, **grids):
        self.path, self.what, self.describe, self.grids = path, what, describe, grids
        self.seen = np.zeros(next(iter(grids.values())).shape, dtype=bool)

    def put(self, line, index, **columns) -> None:
        """Store the rows from `line` on at the cells `index`; a key seen before is rejected."""
        was, filled = self.seen[index], np.count_nonzero(self.seen)
        self.seen[index] = True
        if np.count_nonzero(self.seen) - filled < len(was):
            _, first = np.unique(np.ravel_multi_index(index, self.seen.shape), return_index=True)
            _reject(self.path, line, was | ~np.isin(np.arange(len(was)), first),
                    lambda k: "duplicate entry for " + self.describe(*(ix[k] for ix in index)))
        for name, values in columns.items():
            self.grids[name][index] = values

    def complete(self) -> dict:
        """The grids, once every cell has been filled."""
        if not self.seen.all():
            cell = np.unravel_index(np.argmin(self.seen), self.seen.shape)
            raise ValidationError(f"{self.path}: missing {self.what} for {self.describe(*cell)}")
        return self.grids


@contextlib.contextmanager
def _output(path):
    """A text file that replaces `path` once the block succeeds.

    The block writes a temporary file in the same directory, which `os.replace`
    then moves onto `path`; if the block fails, the temporary file is removed and
    any previous `path` is left as it was.  Temporary files for `path` that a
    killed writer left behind are removed first.  An OSError exits 4 naming `path`.
    """
    target = os.fspath(path)
    folder, name = os.path.split(target)
    temporary = os.path.join(folder, f".{name}.{os.getpid()}.tmp")  # see `replaced_name`
    try:
        for entry in os.listdir(folder or "."):
            if entry != name and replaced_name(entry) == name:
                with contextlib.suppress(OSError):  # e.g. already gone
                    os.remove(os.path.join(folder, entry))
        try:
            with open(temporary, "w", encoding="utf-8", newline="") as fh:
                yield fh
            os.replace(temporary, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(temporary)
            raise
    except OSError as exc:
        if exc.filename is not None:  # name `path`, not the temporary file
            exc = OSError(exc.errno, exc.strerror, target)
        raise DataIOError(f"cannot write {path}: {exc}")


def replaced_name(name: str) -> str:
    """The file that `name` would replace if it is an `_output` temporary file, else `name`."""
    temporary = re.fullmatch(r"\.(.+)\.\d+\.tmp", name)
    return temporary.group(1) if temporary else name


def write_csv(path, header: list[str], rows: Iterable[list]) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_text(path, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def ensure_dir(path) -> None:
    """Create the directory `path` and its parents unless it already exists."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # e.g. `path` names an existing file
        raise DataIOError(f"cannot create output directory {path}: {exc}")


def _write_chunks(path, header: str, chunks: Iterable[str]) -> None:
    """Header line, then text chunks formatted by the caller (`repr`, as `fnum`)."""
    with _output(path) as fh:
        fh.write(header + "\n")
        fh.writelines(chunks)


def _node_rows(node_ids, middles: list[str], values) -> Iterator[str]:
    """One chunk per node: a line `{nid}{middle}{value!r}` for each of its middles,
    in order; row i of `values`, raveled, holds node i's values."""
    for nid, row in zip(node_ids, values if middles else ()):
        cells = map(operator.add, middles, map(repr, row.ravel().tolist()))
        yield f"{nid}" + f"\n{nid}".join(cells) + "\n"


def read_nodes(path) -> list[NodeRecord]:
    records = []
    for _, rows in _read_csv(path, NODES_HEADER, "i8,O,f8,f8,i8"):
        records += map(NodeRecord, *(rows[name].tolist() for name in NODES_HEADER))
    check_nodes(np.array([rec.node_id for rec in records]),
                np.array([rec.population for rec in records]), partial(_reject, path, 2))
    return records


def read_edges(path) -> list[tuple[int, int]]:
    edges = []
    for line, rows in _read_csv(path, EDGES_HEADER, "i8,i8"):
        src, dst = rows["src_id"], rows["dst_id"]
        check_self_loops(np.column_stack((src, dst)), partial(_reject, path, line))
        edges += zip(src.tolist(), dst.tolist())
    return edges


def read_cases(path, graph: RouteGraph) -> CaseMatrix:
    """Long-format raw counts; every (node, week) pair must be present exactly once."""
    chunks = [rows for _, rows in _read_csv(path, CASES_HEADER, "i8,i8,f8")]
    rows = np.concatenate(chunks or [np.zeros(0, [(name, "i8") for name in CASES_HEADER])])
    ids, week = np.array(graph.node_ids), rows["week"]
    i = _positions(path, 2, ids, rows["node_id"], "unknown node {}")
    _reject(path, 2, week < 1, lambda k: f"week must be 1-based, got {week[k]}")
    _reject(path, 2, rows["cases"] < 0, lambda k: "cases must be non-negative")
    max_week = int(week.max(initial=0))
    if max_week == 0:
        raise ValidationError(f"{path}: no case rows")
    grid = _Scatter(path, "entry", lambda i, t: f"node {ids[i]} week {t + 1}",
                    values=np.zeros((graph.n, max_week)))
    grid.put(2, (i, week - 1), values=rows["cases"])
    return CaseMatrix(values=grid.complete()["values"], weeks=max_week)


def ingest(nodes_path, edges_path, cases_path) -> tuple[RouteGraph, CaseMatrix]:
    nodes, edges = read_nodes(nodes_path), read_edges(edges_path)
    check_endpoints(np.array(edges, dtype=np.int64).reshape(-1, 2),
                    np.array([rec.node_id for rec in nodes]), partial(_reject, edges_path, 2))
    graph = build_route_graph(nodes, edges)
    return graph, read_cases(cases_path, graph)


def write_nodes(path, nodes: Iterable[NodeRecord]) -> None:
    write_csv(path, NODES_HEADER,
              ([n.node_id, n.name, fnum(n.lat), fnum(n.lon), n.population] for n in nodes))


def write_edges(path, graph: RouteGraph) -> None:
    ids = graph.node_ids
    write_csv(path, EDGES_HEADER, ([ids[i], ids[j]] for i, j in graph.edges))


def write_cases(path, graph: RouteGraph, cases: CaseMatrix) -> None:
    _write_chunks(path, ",".join(CASES_HEADER),
                  _node_rows(graph.node_ids, [f",{t}," for t in range(1, cases.weeks + 1)],
                             cases.values))


def write_transition(path, graph: RouteGraph, transition: TransitionMatrix) -> None:
    """Every structurally allowed entry (edges plus diagonal), ascending (src, dst)."""
    ids = np.array(graph.node_ids)
    rows, cols = graph.closed_neighborhoods().nonzero()
    order = np.lexsort((ids[cols], ids[rows]))
    rows, cols = rows[order], cols[order]
    write_csv(path, TRANSITION_HEADER,
              zip(ids[rows].tolist(), ids[cols].tolist(),
                  map(repr, np.asarray(transition.P[rows, cols]).ravel().tolist())))


def read_transition(path, graph: RouteGraph) -> TransitionMatrix:
    """Every support entry (edges plus diagonal) exactly once, and no other entry."""
    ids, support = np.array(graph.node_ids), graph.closed_neighborhoods()
    src, dst = support.nonzero()
    # 1 + the position of each support cell in CSR order; 0 off the support
    slot = sp.csr_matrix((np.arange(1, support.nnz + 1), support.indices, support.indptr),
                         shape=support.shape)
    grid = _Scatter(path, "entry", lambda k: f"src {ids[src[k]]} dst {ids[dst[k]]}",
                    P=np.zeros(support.nnz))
    for line, rows in _read_csv(path, TRANSITION_HEADER, "i8,i8,f8"):
        i, j = (_positions(path, line, ids, rows[name], "unknown node {}")
                for name in ("src_id", "dst_id"))
        k = np.asarray(slot[i, j]).ravel() - 1
        _reject(path, line, k < 0,
                lambda r: f"src {rows['src_id'][r]} dst {rows['dst_id'][r]} is not an edge")
        grid.put(line, (k,), P=rows["p"])
    P = sp.csr_matrix((grid.complete()["P"], support.indices, support.indptr),
                      shape=support.shape)
    try:
        return TransitionMatrix(P=P)
    except ValidationError as exc:
        raise ValidationError(f"{path}: src {ids[exc.row]}: {exc}") from None


def write_coefficients(path, graph: RouteGraph, weeks: int, table: CoefficientTable) -> None:
    grid = table.values.reshape(weeks, graph.n, table.filter_count)
    # the ",slice,filter," middle of each of a node's rows, in row order
    middles = [f",{t},{m}," for t in range(1, weeks + 1)
               for m in range(1, table.filter_count + 1)]
    _write_chunks(path, ",".join(COEFFS_HEADER),
                  _node_rows(graph.node_ids, middles, grid.transpose(1, 0, 2)))


def read_coefficients(path, graph: RouteGraph, weeks: int,
                      filters: int) -> CoefficientTable:
    n, ids = graph.n, np.array(graph.node_ids)
    grid = _Scatter(path, "coefficient rows",
                    lambda v, m: f"vertex {ids[v % n]} slice {v // n + 1} filter {m + 1}",
                    values=np.zeros((n * weeks, filters)))
    for line, rows in _read_csv(path, COEFFS_HEADER, "i8,i8,i8,f8"):
        i = _positions(path, line, ids, rows["vertex_id"], "unknown node {}")
        t, m = rows["slice"], rows["filter"]
        _reject(path, line, (t < 1) | (t > weeks), lambda k: f"slice {t[k]} outside 1..{weeks}")
        _reject(path, line, (m < 1) | (m > filters),
                lambda k: f"filter {m[k]} outside 1..{filters}")
        grid.put(line, ((t - 1) * n + i, m - 1), values=rows["coef"])
    return CoefficientTable(values=grid.complete()["values"])


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
    shape, ids = (graph.n, weeks), np.array(graph.node_ids)
    grid = _Scatter(path, "class rows", lambda i, t: f"node {ids[i]} week {t + 1}",
                    phi=np.zeros(shape), labels=np.zeros(shape, dtype=int),
                    theta=np.zeros(shape), scores=np.zeros(shape, dtype=int))
    for line, rows in _read_csv(path, CLASSES_HEADER, "i8,i8,f8,O,f8,i8"):
        w = rows["week"]
        _reject(path, line, (w < 1) | (w > weeks), lambda k: f"week {w[k]} outside 1..{weeks}")
        index = (_positions(path, line, ids, rows["node_id"], "unknown node {}"), w - 1)
        labels = _positions(path, line, _LABELS, np.char.strip(rows["class"].astype(str)),
                            "bad class label {!r}")
        grid.put(line, index, phi=rows["torque"], labels=labels + 1, theta=rows["theta"],
                 scores=rows["a_score"])
    return grid.complete()


def write_slices(path, sigma, slice_classes) -> None:
    rows = ([t + 1] + [fnum(sigma[t, j]) for j in range(5)] + [f"V{int(slice_classes[t])}"]
            for t in range(sigma.shape[0]))
    write_csv(path, SLICES_HEADER, rows)


def read_slices(path) -> tuple[np.ndarray, np.ndarray]:
    """Rows in week order 1..T."""
    sigma, classes = [np.zeros((0, 5))], [np.zeros(0, dtype=int)]
    for line, rows in _read_csv(path, SLICES_HEADER, "i8,5f8,O", ["week", "sigma", "label"]):
        week, expected = rows["week"], np.arange(line - 1, line - 1 + len(rows))
        _reject(path, line, week != expected, lambda k: f"week must be {expected[k]} "
                f"(rows run 1..T in order), got {week[k]}")
        sigma.append(rows["sigma"])
        classes.append(1 + _positions(path, line, _LABELS, np.char.strip(rows["label"].astype(str)),
                                      "slice_class must be one of V1..V5, got {!r}"))
    return np.concatenate(sigma), np.concatenate(classes)


def write_rankings(path, graph: RouteGraph, a_bar, influential, least, most) -> None:
    rows = ([nid, graph.nodes[i].name, fnum(a_bar[i]), fnum(influential[i]),
             int(least[i]), int(most[i])]
            for i, nid in enumerate(graph.node_ids))
    write_csv(path, RANKINGS_HEADER, rows)


def read_rankings(path, graph: RouteGraph) -> dict:
    n, ids = graph.n, np.array(graph.node_ids)
    grid = _Scatter(path, "entry", lambda i: f"node {ids[i]}",
                    a_bar=np.zeros(n), influential=np.zeros(n),
                    least=np.zeros(n, dtype=int), most=np.zeros(n, dtype=int))
    for line, rows in _read_csv(path, RANKINGS_HEADER, "i8,O,f8,f8,i8,i8"):
        index = (_positions(path, line, ids, rows["node_id"], "unknown node {}"),)
        grid.put(line, index, a_bar=rows["a_bar"], influential=rows["influential_score"],
                 least=rows["rank_least_successful"], most=rows["rank_most_successful"])
    return grid.complete()


def save_checkpoint(path, model: GatModel) -> None:
    """Text checkpoint: magic line, then `tensor <name> <dims...>` + one value line."""
    def tensor_chunks(name, arr):
        flat = np.asarray(arr, dtype=float).ravel()
        yield f"tensor {name} {' '.join(map(str, arr.shape))}\n"
        for k in range(0, flat.size, 1024):  # a value line can hold ~10^5 values
            yield " " * (k > 0) + " ".join(map(repr, flat[k:k + 1024].tolist()))
        yield "\n"
    names = GatModel.parameter_names(model.layer1.head_count)
    _write_chunks(path, CHECKPOINT_MAGIC, (chunk for name, arr in zip(names, model.parameters())
                                           for chunk in tensor_chunks(name, arr)))


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _read_tensor(path, lines: list[str], k: int) -> tuple[str, np.ndarray]:
    """Name and values of the tensor whose header is lines[k] (line k + 1 of the file)."""
    parts = lines[k].split()
    if len(parts) < 2 or parts[0] != "tensor":
        raise ValidationError(f"{path}: line {k + 1}: expected a tensor header")
    name, dims = parts[1], parts[2:]
    for d in dims:
        if not (d.isascii() and d.isdigit()):
            raise ValidationError(f"{path}: line {k + 1}: tensor {name} dimension must be "
                                  f"a non-negative integer, got {d!r}")
    if k + 1 >= len(lines):
        raise ValidationError(f"{path}: truncated tensor {name}")
    tokens = lines[k + 1].split()
    values = [_float_or_none(v) for v in tokens]
    for text, x in zip(tokens, values):
        if x is None or not math.isfinite(x):
            raise ValidationError(f"{path}: line {k + 2}: tensor {name} values must be "
                                  f"finite numbers, got {text!r}")
    shape = tuple(map(int, dims))
    if len(values) != math.prod(shape):
        raise ValidationError(f"{path}: line {k + 2}: tensor {name} has wrong element count")
    return name, np.array(values).reshape(shape)


def load_checkpoint(path) -> GatModel:
    with utf8_text(path), _open_read(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: missing {CHECKPOINT_MAGIC} magic header")
    tensors = dict(_read_tensor(path, lines, k) for k in range(1, len(lines), 2))
    heads = sum(1 for name in tensors if name.startswith("layer1.weight."))
    names = GatModel.parameter_names(heads)
    missing = [name for name in names if name not in tensors]
    if missing or heads == 0:
        raise ValidationError(f"{path}: incomplete checkpoint (missing {missing})")
    try:
        return GatModel.from_parameters([tensors[name] for name in names])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


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
        with utf8_text(path), _open_read(path) as fh:
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
    with _output(path) as fh:
        for name in sorted(sections):
            fh.write(f"[{name}]\n")
            for key in sorted(sections[name]):
                fh.write(f"{key} = {sections[name][key]}\n")
            fh.write("\n")
