import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from stgw.cli import main
from stgw.errors import ValidationError
from stgw.gat import negative_candidates
from stgw.graphs import normalize_cases
from stgw.synth import AnomalyInjection, SyntheticSpec, generate, write_dataset


class TestSpecValidation:
    def test_rho_bounds(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(rho=1.5)

    def test_anomaly_range_checked(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(weeks=10, anomalies=[AnomalyInjection(1, 5, 20, 2.0)])

    def test_multiplier_positive(self):
        with pytest.raises(ValidationError):
            AnomalyInjection(1, 1, 2, 0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(mode="banana")


# `stgw synth --nodes 10 --weeks 4` plus one bad argument: exit 2 naming the value
BAD_SYNTH_ARGUMENTS = [
    (["--anomaly", "0:1:2:2.0"], "anomaly node 0 outside 1..10"),
    (["--anomaly", "999:1:2:3.0"], "anomaly node 999 outside 1..10"),
    (["--anomaly", "1:1:2:nan"],
     "bad --anomaly value '1:1:2:nan': anomaly multiplier must be positive and finite, got nan"),
    (["--anomaly", "1:1:2:inf"],
     "bad --anomaly value '1:1:2:inf': anomaly multiplier must be positive and finite, got inf"),
    (["--anomaly", "1:1:2:0"],
     "bad --anomaly value '1:1:2:0': anomaly multiplier must be positive and finite, got 0.0"),
    (["--anomaly", "1:3:2:2.0"],
     "bad --anomaly value '1:3:2:2.0': anomaly week range 3..2 must be 1-based and ordered"),
    (["--anomaly", "1:1:9:2.0"], "anomaly week range 1..9 exceeds the series length 4"),
    (["--anomaly", "1:1:2"], "bad --anomaly value '1:1:2'; expected node:lo:hi:mult"),
    (["--knn", "-1"], "knn must be non-negative, got -1"),
    (["--mode", "density", "--density", "nan"], "density must lie in [0, 1], got nan"),
]


@pytest.mark.parametrize("argument, message", BAD_SYNTH_ARGUMENTS,
                         ids=[" ".join(argument) for argument, _ in BAD_SYNTH_ARGUMENTS])
def test_bad_synth_argument_exit_2(tmp_path, capsys, argument, message):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--nodes", "10", "--weeks", "4"] + argument) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


class TestGenerate:
    def test_connected(self):
        for mode in ("geometric", "density"):
            graph, _ = generate(SyntheticSpec(nodes=25, weeks=5, seed=3, mode=mode))
            n_comp, _ = connected_components(graph.adjacency, directed=False)
            assert n_comp == 1

    def test_counts_nonnegative_integers(self):
        _, cases = generate(SyntheticSpec(nodes=20, weeks=6, seed=1))
        assert np.all(cases.values >= 0)
        assert np.all(cases.values == np.rint(cases.values))

    def test_anomaly_multiplies_counts(self):
        base_spec = SyntheticSpec(nodes=20, weeks=8, seed=4)
        spec = SyntheticSpec(nodes=20, weeks=8, seed=4,
                             anomalies=[AnomalyInjection(3, 3, 5, 4.0)])
        _, plain = generate(base_spec)
        graph, bumped = generate(spec)
        i = graph.index_of(3)
        assert np.array_equal(bumped.values[i, 2:5], np.rint(plain.values[i, 2:5] * 4.0))
        assert np.array_equal(bumped.values[i, :2], plain.values[i, :2])

    def test_neighbor_correlation_exceeds_negatives(self):
        graph, raw = generate(SyntheticSpec(nodes=50, weeks=40, rho=0.9, seed=6))
        feats = normalize_cases(raw, graph.populations, graph.node_ids).values
        centered = feats - feats.mean(axis=1, keepdims=True)
        centered /= centered.std(axis=1, keepdims=True)
        corr = centered @ centered.T / feats.shape[1]
        adj = graph.dense_adjacency() > 0
        adjacent = corr[adj].mean()
        negatives = np.mean([corr[i, j] for i, j in negative_candidates(graph)])
        assert adjacent > negatives + 0.2


class TestWriteDataset:
    def test_byte_identical_under_seed(self, tmp_path):
        spec = SyntheticSpec(nodes=15, weeks=5, seed=11)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        write_dataset(spec, a / "nodes.csv", a / "edges.csv", a / "cases.csv")
        write_dataset(spec, b / "nodes.csv", b / "edges.csv", b / "cases.csv")
        for name in ("nodes.csv", "edges.csv", "cases.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_round_trips_through_ingest(self, tmp_path):
        from stgw.dataio import ingest
        spec = SyntheticSpec(nodes=12, weeks=4, seed=2)
        graph, cases = write_dataset(spec, tmp_path / "n.csv", tmp_path / "e.csv",
                                     tmp_path / "c.csv")
        graph2, cases2 = ingest(tmp_path / "n.csv", tmp_path / "e.csv", tmp_path / "c.csv")
        assert graph2.node_ids == graph.node_ids
        assert graph2.edges == graph.edges
        assert np.array_equal(cases2.values, cases.values)
