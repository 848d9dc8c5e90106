import csv
import hashlib
import tracemalloc

import numpy as np
import pytest

from stgw import dataio
from stgw.errors import DataIOError, ValidationError
from stgw.gat import GatLayerParams, GatModel
from stgw.graphs import CaseMatrix, NodeRecord, TransitionMatrix, build_route_graph
from stgw.sgwt import CoefficientTable

import dataio_reference as reference
from conftest import path_graph, random_graph, uniform_transition

# signed zero, the smallest subnormal, a float whose repr switches to an
# exponent, an inexact fraction, integer-valued floats and negatives
AWKWARD = np.array([-0.0, 5e-324, 1e16, 1 / 3, 2.0, -7.0, 0.0, -2.5e-8, -1 / 3, 12345.0])


@pytest.fixture
def fixture_files(tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    cases = tmp_path / "cases.csv"
    nodes.write_text(
        "node_id,name,lat,lon,population\n"
        "1,Alpha,42.0,-72.0,1000\n"
        "2,Beta,42.1,-72.1,2000\n"
        "3,Gamma,42.2,-72.2,1500\n"
        "4,Delta,42.3,-72.3,800\n"
        "5,Echo,42.4,-72.4,5000\n"
    )
    edges.write_text("src_id,dst_id\n1,2\n2,3\n3,4\n4,5\n1,5\n")
    lines = ["node_id,week,cases"]
    for nid in range(1, 6):
        for week in range(1, 4):
            lines.append(f"{nid},{week},{nid * week}")
    cases.write_text("\n".join(lines) + "\n")
    return nodes, edges, cases


class TestIngest:
    def test_valid_fixture(self, fixture_files):
        graph, cases = dataio.ingest(*fixture_files)
        assert graph.n == 5
        assert cases.weeks == 3
        assert cases.values[2, 1] == 6.0

    def test_unknown_node_named_with_line(self, fixture_files, tmp_path):
        nodes, edges, _ = fixture_files
        bad = tmp_path / "bad_cases.csv"
        bad.write_text("node_id,week,cases\n99,1,5\n")
        with pytest.raises(ValidationError, match=r"line 2.*99"):
            dataio.ingest(nodes, edges, bad)

    def test_zero_week_rejected(self, fixture_files, tmp_path):
        nodes, edges, _ = fixture_files
        bad = tmp_path / "bad_cases.csv"
        bad.write_text("node_id,week,cases\n1,0,5\n")
        with pytest.raises(ValidationError, match="1-based"):
            dataio.ingest(nodes, edges, bad)

    def test_missing_pair_rejected(self, fixture_files, tmp_path):
        nodes, edges, _ = fixture_files
        bad = tmp_path / "bad_cases.csv"
        rows = ["node_id,week,cases"] + [f"{nid},1,2" for nid in range(1, 6)]
        rows.append("1,2,3")  # week 2 exists only for node 1
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="missing entry"):
            dataio.ingest(nodes, edges, bad)

    def test_duplicate_pair_rejected(self, fixture_files, tmp_path):
        nodes, edges, _ = fixture_files
        bad = tmp_path / "bad_cases.csv"
        bad.write_text("node_id,week,cases\n1,1,2\n1,1,3\n")
        with pytest.raises(ValidationError, match="duplicate"):
            dataio.ingest(nodes, edges, bad)

    def test_bad_header_rejected(self, fixture_files, tmp_path):
        nodes, edges, _ = fixture_files
        bad = tmp_path / "bad_cases.csv"
        bad.write_text("id,week,cases\n1,1,2\n")
        with pytest.raises(ValidationError, match="header"):
            dataio.ingest(nodes, edges, bad)

    def test_missing_file_is_io_error(self, fixture_files, tmp_path):
        nodes, edges, _ = fixture_files
        with pytest.raises(DataIOError):
            dataio.ingest(nodes, edges, tmp_path / "absent.csv")


class TestRoundTrips:
    def test_transition(self, tmp_path, rng):
        g = random_graph(6, 0.4, rng)
        t = uniform_transition(g)
        path = tmp_path / "transition.csv"
        dataio.write_transition(path, g, t)
        back = dataio.read_transition(path, g)
        assert np.array_equal(back.P.toarray(), t.P.toarray())

    def test_transition_rows_sorted(self, tmp_path):
        g = path_graph(3)
        path = tmp_path / "transition.csv"
        dataio.write_transition(path, g, uniform_transition(g))
        rows = path.read_text().splitlines()[1:]
        keys = [tuple(int(v) for v in r.split(",")[:2]) for r in rows]
        assert keys == sorted(keys)
        assert (1, 1) in keys  # diagonal included

    def test_coefficients(self, tmp_path, rng):
        g = path_graph(4)
        table = CoefficientTable(values=rng.standard_normal((4 * 3, 8)))
        path = tmp_path / "coefficients.csv"
        dataio.write_coefficients(path, g, 3, table)
        back = dataio.read_coefficients(path, g, 3, 8)
        assert np.array_equal(back.values, table.values)

    def test_classes_and_slices(self, tmp_path, rng):
        g = path_graph(3)
        weeks = 4
        phi = rng.standard_normal((3, weeks))
        labels = rng.integers(1, 6, size=(3, weeks))
        theta = rng.uniform(0, 3, size=(3, weeks))
        scores = rng.integers(0, 5, size=(3, weeks))
        cpath = tmp_path / "classes.csv"
        dataio.write_classes(cpath, g, weeks, phi, labels, theta, scores)
        data = dataio.read_classes(cpath, g, weeks)
        assert np.array_equal(data["phi"], phi)
        assert np.array_equal(data["labels"], labels)
        assert np.array_equal(data["scores"], scores)

        sigma = rng.dirichlet(np.ones(5), size=weeks)
        classes = rng.integers(1, 6, size=weeks)
        spath = tmp_path / "slices.csv"
        dataio.write_slices(spath, sigma, classes)
        sig, cls = dataio.read_slices(spath)
        assert np.array_equal(sig, sigma)
        assert np.array_equal(cls, classes)

    def test_rankings(self, tmp_path, rng):
        g = path_graph(4)
        a_bar = rng.uniform(0, 4, size=4)
        infl = rng.uniform(0, 3, size=4)
        least = np.array([2, 1, 4, 3])
        most = np.array([3, 4, 1, 2])
        path = tmp_path / "rankings.csv"
        dataio.write_rankings(path, g, a_bar, infl, least, most)
        back = dataio.read_rankings(path, g)
        assert np.array_equal(back["a_bar"], a_bar)
        assert np.array_equal(back["least"], least)


def shuffled_id_graph(rng, n=9):
    """Random graph whose node ids are neither 1..N nor in index order."""
    ids = rng.permutation(np.arange(100, 100 + 3 * n, 3))[:n].tolist()
    nodes = [NodeRecord(nid, f"n{nid}", 42.0, -72.0, 1000) for nid in ids]
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
             if j == i + 1 or rng.random() < 0.3]
    return build_route_graph(nodes, edges)


def awkward(shape, rng):
    """AWKWARD values first, then random ones of mixed sign and magnitude."""
    size = int(np.prod(shape))
    tail = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    return np.concatenate([AWKWARD, tail])[:size].reshape(shape)


class TestChunkedWritersMatchReference:
    def test_cases(self, tmp_path, rng):
        g = shuffled_id_graph(rng)
        weeks = 6
        values = awkward((g.n, weeks), rng)
        # counts are non-negative: AWKWARD's -0.0 stays, its negatives turn positive
        cases = CaseMatrix(values=np.where(values < 0, -values, values), weeks=weeks)
        assert {-0.0, 5e-324, 1e16, 2.0, 12345.0} <= set(cases.values.ravel().tolist())
        assert np.signbit(cases.values).any()
        dataio.write_cases(tmp_path / "new.csv", g, cases)
        reference.write_cases(tmp_path / "ref.csv", g, cases)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_coefficients(self, tmp_path, rng):
        g = shuffled_id_graph(rng)
        weeks = 4
        table = CoefficientTable(values=awkward((weeks * g.n, 8), rng))
        dataio.write_coefficients(tmp_path / "new.csv", g, weeks, table)
        reference.write_coefficients(tmp_path / "ref.csv", g, weeks, table)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_classes(self, tmp_path, rng):
        g = shuffled_id_graph(rng)
        weeks = 5
        # slice-major vertex values viewed as (N, T) grids, as the classify stage passes them
        phi = awkward((weeks, g.n), rng).T
        labels = rng.integers(1, 6, size=(weeks, g.n)).T
        theta = np.abs(awkward((g.n, weeks), rng))
        scores = rng.integers(0, 5, size=(g.n, weeks))
        args = (g, weeks, phi, labels, theta, scores)
        dataio.write_classes(tmp_path / "new.csv", *args)
        reference.write_classes(tmp_path / "ref.csv", *args)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_transition(self, tmp_path, rng):
        g = shuffled_id_graph(rng)
        support = g.dense_adjacency() + np.eye(g.n)
        P = support * rng.uniform(0.1, 1.0, size=support.shape)
        t = TransitionMatrix(P=P / P.sum(axis=1, keepdims=True))
        dataio.write_transition(tmp_path / "new.csv", g, t)
        reference.write_transition(tmp_path / "ref.csv", g, t)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_checkpoint(self, tmp_path, rng):
        # layer-1 weights (1,125 values) and layer-2 weights (2,500) span value slices
        heads, f, o, out = 2, 45, 25, 50
        model = GatModel(
            layer1=GatLayerParams(weights=[awkward((o, f), rng) for _ in range(heads)],
                                  attn=[awkward((2 * o,), rng) for _ in range(heads)]),
            layer2=GatLayerParams(weights=[awkward((out, heads * o), rng)],
                                  attn=[awkward((2 * out,), rng)]),
            theta=awkward((out,), rng),
        )
        dataio.save_checkpoint(tmp_path / "new.ckpt", model)
        reference.save_checkpoint(tmp_path / "ref.ckpt", model)
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()
        back = dataio.load_checkpoint(tmp_path / "new.ckpt")
        for p, q in zip(model.parameters(), back.parameters()):
            assert p.shape == q.shape and p.tobytes() == q.tobytes()


NAMES = ["Spring,field", 'O"Brien', "#1 Town", ' "Quoted" ', "Plain"]


def awkward_rows(path, rng, shuffle=True):
    """Rewrite a CSV file as valid but awkward text: rows shuffled, every data cell
    padded with spaces, non-negative numbers signed with '+'; names stay quoted."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    if shuffle:
        rows = [rows[k] for k in rng.permutation(len(rows))]

    def cell(value):
        try:
            signed = not value.startswith("-") and float(value) >= 0
        except ValueError:
            signed = False
        return f" {'+' * signed}{value} "
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + [list(map(cell, r)) for r in rows])


def same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReadersMatchReference:
    """The chunked readers against the row-by-row ones on valid, awkward files."""

    @pytest.fixture
    def graph(self, rng):
        g = shuffled_id_graph(rng)
        lat, lon = awkward((2, g.n), rng)
        nodes = [NodeRecord(r.node_id, NAMES[k % len(NAMES)], lat[k], lon[k], 1000 + k)
                 for k, r in enumerate(g.nodes)]
        return build_route_graph(nodes, [(g.node_ids[i], g.node_ids[j]) for i, j in g.edges])

    def test_nodes_and_edges(self, tmp_path, rng, graph):
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        dataio.write_nodes(nodes, graph.nodes)
        dataio.write_edges(edges, graph)
        awkward_rows(nodes, rng, shuffle=False)
        awkward_rows(edges, rng)
        new, ref = dataio.read_nodes(nodes), reference.read_nodes(nodes)
        assert new == ref and repr(new) == repr(ref)
        assert [r.name for r in new] == [f" {NAMES[k % len(NAMES)]} " for k in range(graph.n)]
        new, ref = dataio.read_edges(edges), reference.read_edges(edges)
        assert new == ref and repr(new) == repr(ref)

    def test_cases(self, tmp_path, rng, graph):
        path = tmp_path / "cases.csv"
        dataio.write_cases(path, graph, CaseMatrix(values=np.abs(awkward((graph.n, 6), rng)),
                                                   weeks=6))
        awkward_rows(path, rng)
        new, ref = dataio.read_cases(path, graph), reference.read_cases(path, graph)
        assert new.weeks == ref.weeks
        same_array(new.values, ref.values)

    def test_transition(self, tmp_path, rng, graph):
        support = graph.dense_adjacency() + np.eye(graph.n)
        P = support * rng.uniform(0.1, 1.0, size=support.shape)
        path = tmp_path / "transition.csv"
        dataio.write_transition(path, graph, TransitionMatrix(P=P / P.sum(axis=1, keepdims=True)))
        awkward_rows(path, rng)
        same_array(dataio.read_transition(path, graph).P.toarray(),
                   reference.read_transition(path, graph).P.toarray())

    def test_coefficients(self, tmp_path, rng, graph):
        weeks = 4
        path = tmp_path / "coefficients.csv"
        dataio.write_coefficients(path, graph, weeks,
                                  CoefficientTable(values=awkward((weeks * graph.n, 8), rng)))
        awkward_rows(path, rng)
        same_array(dataio.read_coefficients(path, graph, weeks, 8).values,
                   reference.read_coefficients(path, graph, weeks, 8).values)

    def test_classes(self, tmp_path, rng, graph):
        weeks = 5
        path = tmp_path / "classes.csv"
        dataio.write_classes(path, graph, weeks, awkward((graph.n, weeks), rng),
                             rng.integers(1, 6, size=(graph.n, weeks)),
                             np.abs(awkward((graph.n, weeks), rng)),
                             rng.integers(0, 5, size=(graph.n, weeks)))
        awkward_rows(path, rng)
        new, ref = dataio.read_classes(path, graph, weeks), reference.read_classes(path, graph, weeks)
        assert list(new) == list(ref)
        for key in ref:
            same_array(new[key], ref[key])

    def test_slices(self, tmp_path, rng):
        path = tmp_path / "slices.csv"
        dataio.write_slices(path, awkward((7, 5), rng), rng.integers(1, 6, size=7))
        awkward_rows(path, rng, shuffle=False)
        for a, b in zip(dataio.read_slices(path), reference.read_slices(path)):
            same_array(a, b)

    def test_rankings(self, tmp_path, rng, graph):
        path = tmp_path / "rankings.csv"
        dataio.write_rankings(path, graph, awkward((graph.n,), rng),
                              np.abs(awkward((graph.n,), rng)),
                              rng.permutation(graph.n) + 1, rng.permutation(graph.n) + 1)
        awkward_rows(path, rng)
        new, ref = dataio.read_rankings(path, graph), reference.read_rankings(path, graph)
        assert list(new) == list(ref)
        for key in ref:
            same_array(new[key], ref[key])

    def test_memory_is_one_chunk(self, tmp_path, rng, monkeypatch):
        # 32 chunks; about 250 B of transient memory per chunk row was measured
        monkeypatch.setattr(dataio, "CHUNK_ROWS", 1024)
        g, weeks, filters = path_graph(16), 64, 32
        path = tmp_path / "coefficients.csv"
        dataio.write_coefficients(path, g, weeks, CoefficientTable(
            values=rng.standard_normal((g.n * weeks, filters))))
        tracemalloc.start()
        try:
            table = dataio.read_coefficients(path, g, weeks, filters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen = table.values.size  # one bool per key
        assert peak < table.values.nbytes + seen + 1024 * 512
        assert peak < path.stat().st_size


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = GatModel.create(6, heads=3, head_dim=4, out_dim=5, seed=9)
        path = tmp_path / "model.ckpt"
        dataio.save_checkpoint(path, model)
        assert path.read_text().startswith("GATCKPT1\n")
        back = dataio.load_checkpoint(path)
        for p, q in zip(model.parameters(), back.parameters()):
            assert np.array_equal(p, q)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text("NOTACKPT\n")
        with pytest.raises(ValidationError, match="GATCKPT1"):
            dataio.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        model = GatModel.create(4, heads=1, head_dim=2, out_dim=2, seed=0)
        path = tmp_path / "model.ckpt"
        dataio.save_checkpoint(path, model)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValidationError):
            dataio.load_checkpoint(path)


    def test_non_utf8_rejected(self, tmp_path):
        model = GatModel.create(4, heads=1, head_dim=2, out_dim=2, seed=0)
        path = tmp_path / "model.ckpt"
        dataio.save_checkpoint(path, model)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValidationError) as info:
            dataio.load_checkpoint(path)
        assert str(info.value) == f"{path}: line 3: not valid UTF-8 (byte 0xff)"


class TestManifestAndHash:
    def test_merge_sections_sorted(self, tmp_path):
        path = tmp_path / "run-manifest.txt"
        dataio.update_manifest(path, "zeta", {"b": 2, "a": 1})
        dataio.update_manifest(path, "alpha", {"x": "y"})
        dataio.update_manifest(path, "zeta", {"c": 3})
        text = path.read_text()
        assert text.index("[alpha]") < text.index("[zeta]")
        z = text[text.index("[zeta]"):]
        assert z.index("a = 1") < z.index("b = 2") < z.index("c = 3")

    def test_idempotent_rewrite(self, tmp_path):
        path = tmp_path / "run-manifest.txt"
        dataio.update_manifest(path, "s", {"k": "v"})
        first = path.read_bytes()
        dataio.update_manifest(path, "s", {"k": "v"})
        assert path.read_bytes() == first

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "run-manifest.txt"
        path.write_bytes(b"[s]\nk = v\nname = caf\xe9\n")
        with pytest.raises(ValidationError) as info:
            dataio.update_manifest(path, "s", {"k": "w"})
        assert str(info.value) == f"{path}: line 3: not valid UTF-8 (byte 0xe9)"

    def test_git_blob_hash(self, tmp_path):
        # hash of b"hello\n" as a git blob is a well-known value
        path = tmp_path / "f.txt"
        path.write_bytes(b"hello\n")
        assert dataio.content_hash(path) == "ce013625030ba8dba906f756967f9e9ca394464a"
        expected = hashlib.sha1(b"blob 6\0hello\n").hexdigest()
        assert dataio.content_hash(path) == expected


class TestAtomicWrites:
    """Every writer goes through one opener: a temporary file in the same
    directory that replaces the target only once the whole file is written."""

    @staticmethod
    def rows_failing_with(exc):
        yield [1, 2]
        raise exc

    @pytest.mark.parametrize("exc, error", [(RuntimeError("row 2"), RuntimeError),
                                            (OSError(28, "No space left on device"), DataIOError)])
    def test_failed_write_keeps_previous_file(self, tmp_path, exc, error):
        path = tmp_path / "edges.csv"
        dataio.write_edges(path, path_graph(3))
        before = path.read_bytes()
        with pytest.raises(error):
            dataio.write_csv(path, dataio.EDGES_HEADER, self.rows_failing_with(exc))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.csv"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            dataio.write_csv(tmp_path / "edges.csv", dataio.EDGES_HEADER,
                             self.rows_failing_with(RuntimeError("row 2")))
        assert list(tmp_path.iterdir()) == []

    def test_io_error_names_the_target(self, tmp_path):
        path = tmp_path / "absent" / "edges.csv"
        with pytest.raises(DataIOError) as info:
            dataio.write_edges(path, path_graph(3))
        assert str(info.value) == (f"cannot write {path}: "
                                   f"[Errno 2] No such file or directory: '{path}'")

    def test_clears_its_own_stale_temporary_files(self, tmp_path):
        stale = [".slices.svg.1.tmp", ".slices.svg.1234567.tmp"]
        kept = [".ranking.svg.1.tmp", "slices.svg.1.tmp", ".slices.svg.tmp", ".slices.svg.x.tmp"]
        for name in stale + kept:
            (tmp_path / name).write_text("left behind\n")
        dataio.write_text(tmp_path / "slices.svg", "<svg/>\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept + ["slices.svg"])

    def test_directory_in_the_way(self, tmp_path):
        path = tmp_path / "slices.svg"
        path.mkdir()
        with pytest.raises(DataIOError) as info:
            dataio.write_text(path, "<svg/>\n")
        assert str(info.value) == f"cannot write {path}: [Errno 21] Is a directory: '{path}'"
        assert path.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["slices.svg"]
