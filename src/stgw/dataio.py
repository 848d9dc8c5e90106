"""CSV schemas, model checkpoints, the run manifest and the INI reader.

Every CSV table goes through `_read_csv`: `np.loadtxt` over `CHUNK_ROWS` rows
at a time into typed columns, then checks on whole columns. A bad row fails
with its file and line; keyed rows must appear exactly once.

All writers are deterministic: fixed row order, floats in shortest round-trip
form, and newline-terminated lines, so identical runs produce identical bytes.
Two artifacts hold base64 of little-endian float64 bytes instead: the
checkpoint, one line per tensor, and `coefficients.csv`, one `coefs` cell per
(vertex, slice).  Every writer goes through `_output`, which replaces a file only
once its new contents are complete.  No other module opens, lists, replaces or removes
a file; `_exit_4` turns each OSError into a DataIOError naming the file.
"""

from __future__ import annotations

import base64
import configparser
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
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .classify import a_score, rank_nodes
from .errors import DataIOError, ValidationError
from .gat import GatModel
from .graphs import (CaseMatrix, NodeRecord, RouteGraph, TransitionMatrix, build_route_graph,
                     check_endpoints, check_nodes, check_self_loops, raise_first)
from .sgwt import CoefficientTable

CHECKPOINT_MAGIC = "GATCKPT2"
# the arrays of `GatModel.stacked()`, in order
CHECKPOINT_TENSORS = ("layer1.weight", "layer1.attn", "layer2.weight", "layer2.attn", "theta")

NODES_HEADER = ["node_id", "name", "lat", "lon", "population"]
EDGES_HEADER = ["src_id", "dst_id"]
CASES_HEADER = ["node_id", "week", "cases"]
TRANSITION_HEADER = ["src_id", "dst_id", "p"]
COEFFS_HEADER = ["vertex_id", "slice", "coefs"]
CLASSES_HEADER = ["node_id", "week", "torque", "class", "theta", "a_score"]
SLICES_HEADER = ["week", "sigma1", "sigma2", "sigma3", "sigma4", "sigma5", "slice_class"]
SLICE_LABELS = ("V1", "V2", "V3", "V4", "V5")
_LABELS = np.array(SLICE_LABELS)
RANKINGS_HEADER = ["node_id", "name", "a_bar", "influential_score",
                   "rank_least_successful", "rank_most_successful"]

CHUNK_ROWS = 2048  # rows per `np.loadtxt` call; bounds a reader's transient memory


def fnum(x) -> str:
    """Shortest representation that round-trips a float exactly."""
    return repr(float(x))


@contextlib.contextmanager
def _exit_4(action: str):
    """Raise an OSError in the block as a DataIOError, which exits 4: `cannot {action}: ...`."""
    try:
        yield
    except OSError as exc:
        raise DataIOError(f"cannot {action}: {exc}")


@contextlib.contextmanager
def _open_text(path):
    """`path` open to read as UTF-8 text, line endings kept.  It exits 4 if it cannot be
    opened, and 2 at a byte read in the block that is not UTF-8, naming its line."""
    with _exit_4(f"read {path}"):
        fh = open(path, "r", encoding="utf-8", newline="")
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with _exit_4(f"read {path}"), open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise ValidationError(f"{path}: line {line}: not valid UTF-8 "
                                      f"(byte {data[exc.start]:#04x})") from None
            raise


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
    with _open_text(path) as fh:
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
            del lines  # not held while the caller works on the chunk
            yield line, rows
            line += len(rows)


def _reject(path, line, bad, message) -> None:
    """Raise message(k) for the first True of `bad`, whose row k is on line `line + k`."""
    raise_first(bad, lambda k: f"{path}: line {line + k}: {message(k)}")


def _positions(path, line, known, values, message: str) -> np.ndarray:
    """Index in `known` of each value; the first value not in it is rejected with its line.
    `known` is ascending: a graph's node ids, or `_LABELS`."""
    pos = np.searchsorted(known, values)
    found = pos < len(known)
    found[found] = known[pos[found]] == values[found]
    _reject(path, line, ~found, lambda k: message.format(values[k].item()))
    return pos


class _Scatter:
    """Result grids that the rows of a keyed table fill, each key exactly once.  The
    keys are the cells of `shape`, by default the first grid's; a grid with more
    dimensions holds a row per key.  `describe(*key)` names a key in messages."""

    def __init__(self, path, what: str, describe, shape=None, **grids):
        self.path, self.what, self.describe, self.grids = path, what, describe, grids
        self.seen = np.zeros(shape or next(iter(grids.values())).shape, dtype=bool)

    def put(self, line, index, **columns) -> None:
        """Store the rows from `line` on at the cells `index`; a key seen before, in an
        earlier chunk or this one, is rejected.  No step scans the whole grid."""
        was, flat = self.seen[index], np.ravel_multi_index(index, self.seen.shape)
        ordered = np.sort(flat)
        if was.any() or (ordered[1:] == ordered[:-1]).any():
            _, first = np.unique(flat, return_index=True)
            _reject(self.path, line, was | ~np.isin(np.arange(len(was)), first),
                    lambda k: "duplicate entry for " + self.describe(*(ix[k] for ix in index)))
        self.seen[index] = True
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
    any previous `path` is left as it was.  `remove_files` first clears temporary
    files a killed writer left for `path`; other OSErrors exit 4 naming `path`.
    """
    target = os.fspath(path)
    folder, name = os.path.split(target)
    temporary = os.path.join(folder, f".{name}.{os.getpid()}.tmp")  # see `replaced_name`
    try:
        remove_files(folder or ".", lambda entry: entry != name and replaced_name(entry) == name)
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


def remove_files(folder, match: Callable[[str], bool]) -> None:
    """Remove each file in the directory `folder`, if any, whose name `match` accepts."""
    with _exit_4(f"read {folder}"):
        names = os.listdir(folder) if os.path.isdir(folder) else []
    for path in (os.path.join(folder, name) for name in names if match(name)):
        with _exit_4(f"remove {path}"):
            os.remove(path)


def ensure_dir(path) -> None:
    """Create the directory `path` and its parents unless it already exists."""
    with _exit_4(f"create output directory {path}"):  # e.g. `path` names an existing file
        os.makedirs(path, exist_ok=True)


def _write_chunks(path, header: str, chunks: Iterable[str]) -> None:
    """Header line, then text chunks formatted by the caller."""
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
    check_nodes(records, partial(_reject, path, 2))
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
    # no complete grid of len(rows) entries reaches a later week; check before allocating
    _reject(path, 2, week > len(rows),
            lambda k: f"week {week[k]} is past the {len(rows)} case rows")
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
    """Every structurally allowed entry (edges plus diagonal) in the support's CSR order,
    which is ascending (src, dst) since the graph holds its nodes in ascending id."""
    ids = np.array(graph.node_ids)
    rows, cols = graph.closed_neighborhoods().nonzero()
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


def write_coefficients(path, graph: RouteGraph, table: CoefficientTable) -> None:
    """One row per (node, slice), node-major; `coefs` is the base64 of the slice's
    filter values as '<f8' bytes, in filter order.  The table's T·N rows give T."""
    blocks = table.values.reshape(-1, graph.n, table.filter_count).transpose(1, 0, 2)

    def node_rows(nid, block) -> str:
        rows = np.ascontiguousarray(block, dtype="<f8")  # the node's (T, M) values
        return "".join(f"{nid},{t},{base64.b64encode(row).decode('ascii')}\n"
                       for t, row in enumerate(rows, start=1))

    _write_chunks(path, ",".join(COEFFS_HEADER), map(node_rows, graph.node_ids, blocks))


def _decode_coefs(path, line, cells, filters: int) -> np.ndarray:
    """The (rows, filters) values of `coefs` cells, each the base64 of `filters` finite
    '<f8' values; the cell of row k is on line `line + k`."""
    data = bytearray()
    for k, cell in enumerate(cells):
        try:
            value = base64.b64decode(cell.strip(), validate=True)
        except ValueError:  # binascii.Error, or a character that is not ASCII
            raise ValidationError(f"{path}: line {line + k}: coefs is not valid base64") from None
        if len(value) != 8 * filters:
            raise ValidationError(f"{path}: line {line + k}: coefs has {len(value)} bytes, "
                                  f"expected {8 * filters} for {filters} filters")
        data += value
    values = np.frombuffer(data, dtype="<f8").reshape(-1, filters)
    finite = np.isfinite(values)
    _reject(path, line, ~finite.all(axis=1),
            lambda k: f"coefs must be finite, got {fnum(values[k][~finite[k]][0])}")
    return values


def read_coefficients(path, graph: RouteGraph, weeks: int,
                      filters: int) -> CoefficientTable:
    """Every (vertex, slice) exactly once, with `filters` values."""
    n, ids = graph.n, np.array(graph.node_ids)
    grid = _Scatter(path, "coefficient rows", lambda v: f"vertex {ids[v % n]} slice {v // n + 1}",
                    (n * weeks,), values=np.zeros((n * weeks, filters)))
    for line, rows in _read_csv(path, COEFFS_HEADER, "i8,i8,O"):
        i = _positions(path, line, ids, rows["vertex_id"], "unknown node {}")
        t = rows["slice"]
        _reject(path, line, (t < 1) | (t > weeks), lambda k: f"slice {t[k]} outside 1..{weeks}")
        cells = rows["coefs"]
        grid.put(line, ((t - 1) * n + i,), values=_decode_coefs(path, line, cells, filters))
        cells[:] = None  # free this chunk's text before the next chunk is read
    return CoefficientTable(values=grid.complete()["values"])


def write_classes(path, graph: RouteGraph, phi, labels, theta, scores) -> None:
    grids = [np.asarray(g, dtype=d)
             for g, d in ((phi, float), (labels, int), (theta, float), (scores, int))]
    _write_chunks(path, ",".join(CLASSES_HEADER), (
        "".join(f"{nid},{t},{phi!r},V{label},{theta!r},{score}\n"
                for t, (phi, label, theta, score)
                in enumerate(zip(*(g[i].tolist() for g in grids)), start=1))
        for i, nid in enumerate(graph.node_ids)))


def read_classes(path, graph: RouteGraph, weeks: int) -> dict:
    """Every (node, week) exactly once; each a_score must be the one `classify.a_score`
    gives the row's class and theta.  `lines` holds each cell's line, for
    `reject_cells`."""
    shape, ids = (graph.n, weeks), np.array(graph.node_ids)
    grid = _Scatter(path, "class rows", lambda i, t: f"node {ids[i]} week {t + 1}",
                    phi=np.zeros(shape), labels=np.zeros(shape, dtype=int),
                    theta=np.zeros(shape), scores=np.zeros(shape, dtype=int),
                    lines=np.zeros(shape, dtype=np.int32))
    for line, rows in _read_csv(path, CLASSES_HEADER, "i8,i8,f8,O,f8,i8"):
        w = rows["week"]
        _reject(path, line, (w < 1) | (w > weeks), lambda k: f"week {w[k]} outside 1..{weeks}")
        i = _positions(path, line, ids, rows["node_id"], "unknown node {}")
        labels = 1 + _positions(path, line, _LABELS, np.char.strip(rows["class"].astype(str)),
                                "bad class label {!r}")
        score, theta = rows["a_score"], rows["theta"]
        expected = a_score(labels, theta)
        _reject(path, line, score != expected,
                lambda k: f"a_score {score[k]} does not match class V{labels[k]} and theta "
                          f"{fnum(theta[k])} (expected {expected[k]})")
        grid.put(line, (i, w - 1), phi=rows["torque"], labels=labels, theta=theta,
                 scores=score, lines=np.arange(line, line + len(rows)))
    return grid.complete()


def reject_cells(path, lines: np.ndarray, bad: np.ndarray, message) -> None:
    """Reject, with `message(*cell)`, the True cell of `bad` whose row comes first in the
    file at `path`; `lines` is the grid of row lines that `read_classes` and
    `read_rankings` return."""
    if bad.any():
        cell = tuple(np.argwhere(bad)[np.argmin(lines[bad])])
        raise ValidationError(f"{path}: line {lines[cell]}: {message(*cell)}")


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
        s = rows["sigma"]
        outside = (s < 0) | (s > 1)
        _reject(path, line, outside.any(axis=1), lambda k: f"sigma{np.argmax(outside[k]) + 1} "
                f"{fnum(s[k][outside[k]][0])} outside [0, 1]")
        _reject(path, line, np.abs(s.sum(axis=1) - 1.0) > 1e-9,
                lambda k: f"sigmas sum to {fnum(s[k].sum())}, not 1 within 1e-9")
        sigma.append(s)
        classes.append(1 + _positions(path, line, _LABELS, np.char.strip(rows["label"].astype(str)),
                                      "slice_class must be one of V1..V5, got {!r}"))
    return np.concatenate(sigma), np.concatenate(classes)


def write_rankings(path, graph: RouteGraph, a_bar, influential, least, most) -> None:
    rows = ([nid, graph.nodes[i].name, fnum(a_bar[i]), fnum(influential[i]),
             int(least[i]), int(most[i])]
            for i, nid in enumerate(graph.node_ids))
    write_csv(path, RANKINGS_HEADER, rows)


def read_rankings(path, graph: RouteGraph, *, a_bar: np.ndarray | None = None) -> dict:
    """One row per node; both rank columns must be the ones `classify.rank_nodes` gives
    the a_bar column, and, given the expected `a_bar` by node, each a_bar must equal it.
    `lines` holds each node's line, for `reject_cells`."""
    n, ids = graph.n, np.array(graph.node_ids)
    grid = _Scatter(path, "entry", lambda i: f"node {ids[i]}",
                    a_bar=np.zeros(n), influential=np.zeros(n),
                    least=np.zeros(n, dtype=int), most=np.zeros(n, dtype=int),
                    lines=np.zeros(n, dtype=np.int32))
    for line, rows in _read_csv(path, RANKINGS_HEADER, "i8,O,f8,f8,i8,i8"):
        index = (_positions(path, line, ids, rows["node_id"], "unknown node {}"),)
        grid.put(line, index, a_bar=rows["a_bar"], influential=rows["influential_score"],
                 least=rows["rank_least_successful"], most=rows["rank_most_successful"],
                 lines=np.arange(line, line + len(rows)))
        got = rows["a_bar"]
        _reject(path, line, (got < 0) | (got > 4),
                lambda k: f"a_bar {fnum(got[k])} outside [0, 4]")
        if a_bar is not None:
            want = a_bar[index]
            _reject(path, line, got != want, lambda k: f"a_bar {fnum(got[k])} does not match "
                    f"the mean a_score over the ranking window (expected {fnum(want[k])})")
    result = grid.complete()
    for name, key, expected in zip(RANKINGS_HEADER[4:], ("least", "most"),
                                   rank_nodes(result["a_bar"])):
        got = result[key]
        reject_cells(path, result["lines"], got != expected, lambda i: f"{name} {got[i]} "
                     f"does not match the a_bar order (expected {expected[i]})")
    return result


def save_checkpoint(path, model: GatModel) -> None:
    """ASCII checkpoint: magic line, then per array of `model.stacked()` a line
    `tensor <name> <dims...>` and one line of base64 of its '<f8' bytes."""
    _write_chunks(path, CHECKPOINT_MAGIC, (
        f"tensor {name} {' '.join(map(str, arr.shape))}\n"
        f"{base64.b64encode(np.asarray(arr, dtype='<f8').tobytes()).decode('ascii')}\n"
        for name, arr in zip(CHECKPOINT_TENSORS, model.stacked())))


def _read_tensor(path, lines: list[str], k: int) -> tuple[str, np.ndarray]:
    """Name and values of the tensor whose header is lines[k] (line k + 1 of the file)."""
    parts = lines[k].split()
    if len(parts) < 2 or parts[0] != "tensor":
        raise ValidationError(f"{path}: line {k + 1}: expected a tensor header")
    name, dims = parts[1], parts[2:]
    if name not in CHECKPOINT_TENSORS:
        raise ValidationError(f"{path}: line {k + 1}: unknown tensor {name}")
    for d in dims:
        if not (d.isascii() and d.isdigit()):
            raise ValidationError(f"{path}: line {k + 1}: tensor {name} dimension must be "
                                  f"a non-negative integer, got {d!r}")
    if k + 1 >= len(lines):
        raise ValidationError(f"{path}: truncated tensor {name}")
    try:  # a bytearray, so that the model's arrays are writable
        data = bytearray(base64.b64decode(lines[k + 1], validate=True))
    except ValueError:  # binascii.Error, or a character that is not ASCII
        raise ValidationError(f"{path}: line {k + 2}: tensor {name} values are not "
                              "valid base64") from None
    shape = tuple(map(int, dims))
    if len(data) != (expected := 8 * math.prod(shape)):
        raise ValidationError(f"{path}: line {k + 2}: tensor {name} has {len(data)} bytes, "
                              f"expected {expected} for shape {shape}")
    values = np.frombuffer(data, dtype="<f8").reshape(shape)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValidationError(f"{path}: line {k + 2}: tensor {name} values must be finite, "
                              f"got {fnum(values[bad][0])}")
    return name, values


def load_checkpoint(path) -> GatModel:
    with _open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: line 1: missing {CHECKPOINT_MAGIC} magic header")
    tensors = {}
    for k in range(1, len(lines), 2):
        name, values = _read_tensor(path, lines, k)
        if name in tensors:
            raise ValidationError(f"{path}: line {k + 1}: repeated tensor {name}")
        tensors[name] = values
    missing = [name for name in CHECKPOINT_TENSORS if name not in tensors]
    if missing:
        raise ValidationError(f"{path}: incomplete checkpoint (missing {missing})")
    try:
        return GatModel.from_stacked([tensors[name] for name in CHECKPOINT_TENSORS])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def content_hash(path) -> str:
    """Git-style blob hash of a file's bytes."""
    with _exit_4(f"hash {path}"), open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def read_ini(path, what: str) -> dict[str, dict[str, str]]:
    """The `key = value` pairs of the INI file `path` by section, as text, read literally
    (keys keep their case, `%` is not interpolated); a bad line exits 2 as an invalid `what`."""
    parser = configparser.RawConfigParser()
    parser.optionxform = str
    with _open_text(path) as fh:
        try:
            parser.read_file(fh, source=os.fspath(path))
        except configparser.Error as exc:
            raise ValidationError(f"{path}: invalid {what}: {exc}")
    return {name: dict(parser.items(name)) for name in parser.sections()}


def read_manifest(path) -> dict[str, dict[str, str]]:
    """The manifest's `key = value` lines by section, values as text."""
    return read_ini(path, "manifest")


def update_manifest(path, section: str, values: dict) -> None:
    """Merge one section into the manifest, keeping sections and keys sorted."""
    sections = read_manifest(path) if os.path.exists(path) else {}
    sections.setdefault(section, {}).update({k: str(v) for k, v in values.items()})
    with _output(path) as fh:
        for name in sorted(sections):
            fh.write(f"[{name}]\n")
            for key in sorted(sections[name]):
                fh.write(f"{key} = {sections[name][key]}\n")
            fh.write("\n")
