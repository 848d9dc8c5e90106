import os
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from stgw import dataio
from stgw.cli import main
from stgw.config import RunConfig, load_config
from stgw.errors import ValidationError
from stgw.pipeline import (run_pipeline, stage_classify, stage_rank, stage_report,
                           stage_train, stage_transform)
from stgw.synth import SyntheticSpec, write_dataset

SMALL = dict(nodes=14, weeks=6, rho=0.85, seed=8)


def write_small_dataset(tmp_path, **kwargs):
    spec = SyntheticSpec(**{**SMALL, **kwargs})
    write_dataset(spec, tmp_path / "nodes.csv", tmp_path / "edges.csv",
                  tmp_path / "cases.csv")
    return spec


def small_cfg(tmp_path, out="out"):
    cfg = RunConfig()
    cfg.io.nodes = str(tmp_path / "nodes.csv")
    cfg.io.edges = str(tmp_path / "edges.csv")
    cfg.io.cases = str(tmp_path / "cases.csv")
    cfg.io.out = str(tmp_path / out)
    cfg.gat.heads, cfg.gat.hidden, cfg.gat.out = 3, 12, 8
    cfg.gat.max_epochs = 150
    cfg.gat.seed = 8
    return cfg


def read_out(tmp_path, out="out"):
    root = tmp_path / out
    return {name: (root / name).read_bytes() for name in sorted(os.listdir(root))}


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.gat.heads == 7 and cfg.gat.hidden == 122 and cfg.gat.out == 88
        assert cfg.sgwt.filters == 8 and cfg.sgwt.cheb_order == 40
        assert cfg.gat.lr == 0.005 and cfg.gat.patience == 100

    def test_ini_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[gat]\nheads = 3\nseed = 5\n\n[io]\nout = somewhere\n")
        cfg = load_config(str(path))
        assert cfg.gat.heads == 3 and cfg.gat.seed == 5
        assert cfg.io.out == "somewhere"
        assert cfg.sgwt.filters == 8  # untouched section keeps defaults

    def test_json_alternate(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"sgwt": {"cheb_order": 25}}')
        assert load_config(str(path)).sgwt.cheb_order == 25

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[gat]\nbananas = 1\n")
        with pytest.raises(ValidationError, match="bananas"):
            load_config(str(path))

    @pytest.mark.parametrize("text,line", [(b"[gat]\nheads = 3\n# \xff\n", 3),
                                           (b'{"gat":\n {"heads": "\xff"}}', 2)])
    def test_non_utf8_rejected(self, tmp_path, text, line):
        path = tmp_path / "run.cfg"
        path.write_bytes(text)
        with pytest.raises(ValidationError) as info:
            load_config(str(path))
        assert str(info.value) == f"{path}: line {line}: not valid UTF-8 (byte 0xff)"

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[gat]\nlr = 0\n")
        with pytest.raises(ValidationError):
            load_config(str(path))

    @pytest.mark.parametrize("text,message", [
        ("[gat]\nlr = nan\n", "[gat] lr must be finite, got nan"),
        ("[sgwt]\nscale_hi = inf\n", "[sgwt] scale_hi must be finite, got inf"),
        ("[classify]\ntheta_lo = -inf\n", "[classify] theta_lo must be finite, got -inf"),
        ('{"gat": {"lr": NaN}}', "[gat] lr must be finite, got nan"),
        ('{"gat": {"max_epochs": 2.7}}', "[gat] max_epochs must be an integer, got 2.7"),
        ('{"sgwt": {"quad_points": 1e400}}', "[sgwt] quad_points must be an integer, got inf"),
        ("[gat]\nmax_epochs = 2.7\n", "bad value for max_epochs in [gat]: '2.7'"),
        ('{"gat": {"lr": true}}', "[gat] lr must be a number, got True"),
    ])
    def test_non_finite_or_non_integral_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["build-graph", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_seed_flag_is_validated(self, capsys):
        assert main(["train", "--seed", "-1"]) == 2
        assert "[gat] seed must be non-negative" in capsys.readouterr().err

    def test_integral_json_float_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"gat": {"max_epochs": 20.0}}')
        cfg = load_config(str(path))
        assert cfg.gat.max_epochs == 20 and isinstance(cfg.gat.max_epochs, int)


class TestPipeline:
    def test_full_run_outputs_within_budget(self, tmp_path):
        import time

        write_small_dataset(tmp_path, nodes=20, weeks=10)
        cfg = small_cfg(tmp_path)
        start = time.perf_counter()
        run_pipeline(cfg)
        assert time.perf_counter() - start < 60.0
        names = set(os.listdir(cfg.io.out))
        for expected in ("transition.csv", "coefficients.csv", "classes.csv",
                         "slices.csv", "rankings.csv", "slices.svg", "ranking.svg",
                         "run-manifest.txt", "gat_model.ckpt"):
            assert expected in names
        assert any(n.startswith("map_classes_week") for n in names)

    def test_determinism(self, tmp_path):
        write_small_dataset(tmp_path)
        run_pipeline(small_cfg(tmp_path, "out1"))
        run_pipeline(small_cfg(tmp_path, "out2"))
        assert read_out(tmp_path, "out1") == read_out(tmp_path, "out2")

    def test_stage_replay_matches_run(self, tmp_path):
        write_small_dataset(tmp_path)
        run_pipeline(small_cfg(tmp_path, "together"))
        cfg = small_cfg(tmp_path, "staged")
        os.makedirs(cfg.io.out)
        stage_train(cfg)
        stage_transform(cfg)
        stage_classify(cfg)
        stage_rank(cfg)
        stage_report(cfg)
        assert read_out(tmp_path, "together") == read_out(tmp_path, "staged")

    def test_run_passes_results_in_memory(self, tmp_path, monkeypatch):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path, "staged")
        os.makedirs(cfg.io.out)
        for stage in (stage_train, stage_transform, stage_classify, stage_rank,
                      stage_report):
            stage(cfg)

        def refuse(path, *args):
            raise AssertionError(f"run parsed back {path}")
        for reader in ("read_transition", "read_coefficients", "read_classes",
                       "read_slices", "read_rankings"):
            monkeypatch.setattr(dataio, reader, refuse)
        run_pipeline(small_cfg(tmp_path, "together"))
        assert read_out(tmp_path, "together") == read_out(tmp_path, "staged")

    def test_manifest_covers_all_tunables(self, tmp_path):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        run_pipeline(cfg)
        text = (tmp_path / "out" / "run-manifest.txt").read_text()
        for section, values in cfg.resolved().items():
            for key in values:
                if section == "io":
                    continue  # paths are reflected in the input hashes instead
                assert f"{key} = " in text, f"missing {section}.{key}"
        for key in ("lambda_max", "lambda_method", "lambda_matvecs", "lambda_residual",
                    "scales", "nodes_hash", "edges_hash", "cases_hash",
                    "week_lo", "week_hi"):
            assert key in text

    def test_failure_cleans_partial_outputs(self, tmp_path):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        cfg.sgwt.filters = 3  # torque requires exactly 8 filters -> classify fails
        with pytest.raises(Exception, match="stage classify"):
            run_pipeline(cfg)
        leftovers = set(os.listdir(cfg.io.out))
        assert "transition.csv" not in leftovers
        assert "coefficients.csv" not in leftovers

    def test_failure_clears_stale_outputs_from_prior_run(self, tmp_path):
        write_small_dataset(tmp_path)
        good = small_cfg(tmp_path)
        run_pipeline(good)
        assert "rankings.csv" in os.listdir(good.io.out)
        bad = small_cfg(tmp_path)
        bad.sgwt.filters = 3
        with pytest.raises(Exception, match="stage classify"):
            run_pipeline(bad)
        assert not any(n.endswith((".csv", ".svg", ".ckpt", ".txt"))
                       for n in os.listdir(bad.io.out))

    def test_failure_clears_stale_temporary_files(self, tmp_path):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        os.makedirs(cfg.io.out)
        stale = [f".transition.csv.{os.getpid()}.tmp", ".map_classes_week2.svg.45.tmp",
                 ".run-manifest.txt.6.tmp", ".ranking.svg.1234567.tmp"]
        unrelated = [".notes.txt.7.tmp", "transition.csv.8.tmp", ".classes.csv.x.tmp",
                     ".slices.csv.tmp", "notes.txt"]
        for name in stale + unrelated:
            (tmp_path / "out" / name).write_text("left behind\n")
        cfg.sgwt.filters = 3
        with pytest.raises(Exception, match="stage classify"):
            run_pipeline(cfg)
        assert sorted(os.listdir(cfg.io.out)) == sorted(unrelated)

    def test_rank_window(self, tmp_path):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        run_pipeline(cfg, weeks=(2, 4))
        text = (tmp_path / "out" / "run-manifest.txt").read_text()
        assert "week_lo = 2" in text and "week_hi = 4" in text


class TestReport:
    def setup_run(self, tmp_path):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        run_pipeline(cfg)
        return cfg

    def test_svgs_parse(self, tmp_path):
        cfg = self.setup_run(tmp_path)
        for name in os.listdir(cfg.io.out):
            if name.endswith(".svg"):
                root = ET.parse(os.path.join(cfg.io.out, name)).getroot()
                assert root.tag.endswith("svg")

    def test_mask_removes_circles(self, tmp_path):
        cfg = self.setup_run(tmp_path)
        from stgw.dataio import ingest
        from stgw.graphs import downsample_mask
        graph, _ = ingest(cfg.io.nodes, cfg.io.edges, cfg.io.cases)
        hidden = downsample_mask(graph)
        assert hidden  # the synthetic graph has a nontrivial nodal domain
        stage_report(cfg, mask=False, week=1)
        unmasked = (tmp_path / "out" / "map_classes_week1.svg").read_text()
        stage_report(cfg, mask=True, week=1)
        masked = (tmp_path / "out" / "map_classes_week1.svg").read_text()
        assert masked.count("<circle") == unmasked.count("<circle") - len(hidden)

    def test_single_class_single_legend_entry(self, tmp_path):
        from stgw.graphs import build_route_graph
        from stgw.report import render_map
        from conftest import make_nodes
        g = build_route_graph(make_nodes(4), [(1, 2), (2, 3), (3, 4)])
        svg = render_map(g, np.array([3, 3, 3, 3]), week=1)
        assert svg.count("<rect") == 2  # background + one legend swatch


class TestCli:
    def test_synth_and_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--nodes", "12", "--weeks", "5",
                     "--seed", "3"]) == 0
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {out}/nodes.csv\nedges = {out}/edges.csv\n"
            f"cases = {out}/cases.csv\nout = {tmp_path}/out\n"
            "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 60\n"
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "rankings.csv").exists()

    def test_build_graph_summary(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--nodes", "10", "--weeks", "4"])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {out}/nodes.csv\nedges = {out}/edges.csv\n"
            f"cases = {out}/cases.csv\nout = {tmp_path}/out\n"
        )
        assert main(["build-graph", "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr().out
        assert "10 nodes" in captured and "4 weeks" in captured

    def test_validation_error_exit_2(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--nodes", "10", "--weeks", "4"])
        (out / "cases.csv").write_text("node_id,week,cases\n99,1,5\n")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {out}/nodes.csv\nedges = {out}/edges.csv\n"
            f"cases = {out}/cases.csv\nout = {tmp_path}/out\n"
        )
        assert main(["build-graph", "--config", str(cfg_path)]) == 2
        assert "99" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train", "transform", "classify", "rank",
                                         "report", "run"])
    def test_out_naming_a_file_exit_4(self, tmp_path, capsys, command):
        main(["synth", "--out", str(tmp_path / "data"), "--nodes", "10", "--weeks", "4"])
        cfg_path = tmp_path / "run.cfg"
        data = tmp_path / "data"
        cfg_path.write_text(f"[io]\nnodes = {data}/nodes.csv\nedges = {data}/edges.csv\n"
                            f"cases = {data}/cases.csv\n")
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        args = ["--out", str(taken)] + ([] if command == "synth" else ["--config", str(cfg_path)])
        capsys.readouterr()
        assert main([command] + args) == 4
        assert f"cannot create output directory {taken}" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    def test_unwritable_svg_exit_4(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        blocked = tmp_path / "out" / "slices.svg"
        blocked.unlink()
        blocked.mkdir()
        assert main(["report", "--config", str(cfg_path)]) == 4
        assert f"cannot write {blocked}" in capsys.readouterr().err

    def test_missing_file_exit_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"[io]\nnodes = {tmp_path}/nope.csv\n")
        assert main(["build-graph", "--config", str(cfg_path)]) == 4

    def test_staged_flow_with_flags(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--nodes", "12", "--weeks", "6",
              "--seed", "4"])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {out}/nodes.csv\nedges = {out}/edges.csv\n"
            f"cases = {out}/cases.csv\nout = {tmp_path}/out\n"
            "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 60\n"
        )
        for cmd in (["train"], ["transform"], ["classify"],
                    ["rank", "--weeks", "2..5"], ["report", "--week", "3", "--mask"]):
            assert main(cmd + ["--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "map_classes_week3.svg").exists()
        manifest = (tmp_path / "out" / "run-manifest.txt").read_text()
        assert "week_lo = 2" in manifest and "week_hi = 5" in manifest
        assert "mask = True" in manifest

    def test_report_week_out_of_range_exit_2(self, tmp_path):
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--nodes", "10", "--weeks", "4"])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {out}/nodes.csv\nedges = {out}/edges.csv\n"
            f"cases = {out}/cases.csv\nout = {tmp_path}/out\n"
            "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 40\n"
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["report", "--config", str(cfg_path), "--week", "99"]) == 2

    def test_product_stage(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--nodes", "10", "--weeks", "4"])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {out}/nodes.csv\nedges = {out}/edges.csv\n"
            f"cases = {out}/cases.csv\nout = {tmp_path}/out\n"
            "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 40\n"
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["product", "--config", str(cfg_path)]) == 0
        assert "identity" in capsys.readouterr().out


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """Inputs and the outputs of one small `stgw run`, shared read-only."""
    root = tmp_path_factory.mktemp("finished")
    main(["synth", "--out", str(root / "data"), "--nodes", "10", "--weeks", "4"])
    cfg_path = root / "run.cfg"
    cfg_path.write_text(
        f"[io]\nnodes = {root}/data/nodes.csv\nedges = {root}/data/edges.csv\n"
        f"cases = {root}/data/cases.csv\nout = {root}/out\n"
        "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 40\n"
    )
    assert main(["run", "--config", str(cfg_path)]) == 0
    return root


def staged_copy(finished_run, tmp_path):
    """A writable copy of the finished run's inputs and outputs; returns its config path."""
    for part in ("data", "out"):
        shutil.copytree(finished_run / part, tmp_path / part)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text((finished_run / "run.cfg").read_text().replace(
        str(finished_run), str(tmp_path)))
    return cfg_path


class TestBadInputExit2:
    """A malformed cell in each file a staged command reads exits 2 naming file and line."""

    @pytest.mark.parametrize("command,name,column,value,message", [
        ("build-graph", "data/nodes.csv", 2, "nan", "lat must be finite, got 'nan'"),
        ("build-graph", "data/edges.csv", 1, "x", "dst_id must be an integer, got 'x'"),
        ("build-graph", "data/cases.csv", 2, "nan", "cases must be finite, got 'nan'"),
        ("transform", "out/transition.csv", 2, "nan", "p must be finite, got 'nan'"),
        ("classify", "out/coefficients.csv", 3, "inf", "coef must be finite, got 'inf'"),
        ("rank", "out/classes.csv", 2, "nan", "torque must be finite, got 'nan'"),
        ("report", "out/slices.csv", 3, "nan", "sigma must be finite, got 'nan'"),
        ("report", "out/rankings.csv", 2, "-inf", "a_bar must be finite, got '-inf'"),
    ])
    def test_non_finite_or_malformed_cell(self, finished_run, tmp_path, capsys,
                                          command, name, column, value, message):
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main([command, "--config", str(cfg_path)]) == 2
        assert f"{path}: line 3: {message}" in capsys.readouterr().err

    def test_edge_to_unknown_node(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "data" / "edges.csv"
        lines = path.read_text().splitlines()
        lines[3] = lines[3].split(",")[0] + ",999"
        path.write_text("\n".join(lines) + "\n")
        assert main(["build-graph", "--config", str(cfg_path)]) == 2
        assert (f"{path}: line 4: edge references unknown node_id 999"
                in capsys.readouterr().err)

    def test_non_utf8_input(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "data" / "nodes.csv"
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b",", b"\xff,", 1)
        path.write_bytes(b"\n".join(lines))
        assert main(["build-graph", "--config", str(cfg_path)]) == 2
        assert f"{path}: line 4: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err


class TestSliceLabels:
    @pytest.mark.parametrize("label", ["Vx", "", "V9", "V12", "V0", "5"])
    def test_bad_slice_class_exit_2(self, finished_run, tmp_path, capsys, label):
        cfg_path = staged_copy(finished_run, tmp_path)
        slices = tmp_path / "out" / "slices.csv"
        lines = slices.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + label
        slices.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "slices.csv: line 3" in err and "slice_class" in err
