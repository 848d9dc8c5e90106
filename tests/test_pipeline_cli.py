import base64
import dataclasses
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from stgw import classify as cl
from stgw import dataio, gat
from stgw.cli import main, run_stage
from stgw.config import IoSection, RunConfig, load_config
from stgw.errors import DataIOError, NumericError, ValidationError
from stgw.gat import TrainConfig
from stgw.graphs import TransitionMatrix, normalize_cases
from stgw.pipeline import (Inputs, classify, load_inputs, rank, render, run_pipeline,
                           stage_classify, stage_rank, stage_report, stage_train,
                           stage_transform, train, transform)
from stgw.sgwt import CoefficientTable
from stgw.synth import SyntheticSpec, generate, write_dataset

SMALL = dict(nodes=14, weeks=6, rho=0.85, seed=8)


def write_small_dataset(tmp_path, **kwargs):
    spec = SyntheticSpec(**{**SMALL, **kwargs})
    write_dataset(spec, tmp_path / "nodes.csv", tmp_path / "edges.csv",
                  tmp_path / "cases.csv")
    return spec


def small_cfg(tmp_path, out="out"):
    return RunConfig(gat=TrainConfig(heads=3, hidden=12, out=8, max_epochs=150, seed=8),
                     io=IoSection(nodes=str(tmp_path / "nodes.csv"),
                                  edges=str(tmp_path / "edges.csv"),
                                  cases=str(tmp_path / "cases.csv"), out=str(tmp_path / out)))


def fail_torque(*args, **kwargs):
    raise NumericError("planted torque failure")  # makes the classify stage fail


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
        # the scale endpoints and a-score thresholds are the paper's constants
        ("[sgwt]\nscale_hi = inf\n", "unknown config key 'scale_hi' in [sgwt]"),
        ("[classify]\ntheta_lo = -inf\n", "unknown config section [classify]"),
        ("[gat]\nmax_epochs = 2.7\n", "bad value for max_epochs in [gat]: '2.7'"),
        ("[classify]\ntheta_hi = 0.5\ntheta_lo = 2.0\n", "unknown config section [classify]"),
        ("[sgwt]\nfilters = 8\n", "unknown config key 'filters' in [sgwt]"),
        ("[sgwt]\nscale_lo = 2.0\nscale_hi = 1.0\n", "unknown config key 'scale_lo' in [sgwt]"),
        ("[sgwt]\nquad_points = 16384\n", "unknown config key 'quad_points' in [sgwt]"),
        # configs whose quad_points the floor 4 (cheb_order + 1) once rejected
        ("[sgwt]\ncheb_order = 40\nquad_points = 8\n",
         "unknown config key 'quad_points' in [sgwt]"),
        ("[sgwt]\ncheb_order = 10\nquad_points = 43\n",
         "unknown config key 'quad_points' in [sgwt]"),
        ("[classify]\ntheta_hi = -1.0\n", "unknown config section [classify]"),
        ("[bogus]\nheads = 3\n", "unknown config section [bogus]"),
        ("[DEFAULT]\nheads = 3\n[gat]\nseed = 1\n", "unknown config section [DEFAULT]"),
        ('{"sgwt": {"cheb_order": 25}}', "invalid config: File contains no section headers."),
        ("heads = 3\n", "invalid config: File contains no section headers."),
    ])
    def test_non_finite_or_non_integral_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["build-graph", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_config_file_exit_4(self, tmp_path, capsys):
        path = tmp_path / "nope.cfg"
        assert main(["build-graph", "--config", str(path)]) == 4
        assert capsys.readouterr().err == f"error: config file not found: {path}\n"

    def test_config_naming_a_directory_exit_4(self, tmp_path, capsys):
        assert main(["build-graph", "--config", str(tmp_path)]) == 4
        assert capsys.readouterr().err == (f"error: cannot read {tmp_path}: "
                                           f"[Errno 21] Is a directory: '{tmp_path}'\n")

    @pytest.mark.parametrize("value", ["out%1", "out%%1", "%(here)s/out"])
    def test_values_are_read_literally(self, tmp_path, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"[io]\nout = {value}\n")
        assert load_config(str(path)).io.out == value

    def test_library_and_file_share_one_check(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[gat]\nlr = 0\n")
        with pytest.raises(ValidationError) as from_file:
            load_config(str(path))
        with pytest.raises(ValidationError) as from_library:
            TrainConfig(lr=0)
        assert str(from_library.value) == "[gat] lr must be positive, got 0.0"
        assert str(from_file.value) == f"{path}: {from_library.value}"

    def test_seed_flag_is_validated(self, capsys):
        assert main(["train", "--seed", "-1"]) == 2
        assert "[gat] seed must be non-negative" in capsys.readouterr().err


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

    def test_checkpoint_rederives_transition(self, tmp_path):
        # the checkpoint alone gives back the run's P, byte for byte, without training
        write_small_dataset(tmp_path, nodes=20)
        cfg = small_cfg(tmp_path)
        run_pipeline(cfg)
        graph, features = load_inputs(cfg)
        model = dataio.load_checkpoint(tmp_path / "out" / "gat_model.ckpt")
        dataio.write_transition(tmp_path / "again.csv", graph,
                                gat.extract_transition(model, graph, features))
        assert ((tmp_path / "again.csv").read_bytes()
                == (tmp_path / "out" / "transition.csv").read_bytes())

    def test_stage_replay_matches_run(self, tmp_path):
        write_small_dataset(tmp_path)
        run_pipeline(small_cfg(tmp_path, "together"))
        cfg = small_cfg(tmp_path, "staged")
        os.makedirs(cfg.io.out)
        for stage in (stage_train, stage_transform, stage_classify, stage_rank,
                      stage_report):
            run_stage(cfg, stage)
        assert read_out(tmp_path, "together") == read_out(tmp_path, "staged")

    def test_run_passes_results_in_memory(self, tmp_path, monkeypatch):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path, "staged")
        os.makedirs(cfg.io.out)
        for stage in (stage_train, stage_transform, stage_classify, stage_rank,
                      stage_report):
            run_stage(cfg, stage)

        def refuse(path, *args):
            raise AssertionError(f"run parsed back {path}")
        for reader in ("read_transition", "read_coefficients", "read_classes",
                       "read_slices", "read_rankings", "read_manifest"):
            monkeypatch.setattr(dataio, reader, refuse)
        run_pipeline(small_cfg(tmp_path, "together"))
        assert read_out(tmp_path, "together") == read_out(tmp_path, "staged")

    def test_one_manifest_write_per_command(self, tmp_path, monkeypatch):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        writes, update = [], dataio.update_manifest

        def spy(path, sections):
            writes.append(sorted(sections))
            update(path, sections)
        monkeypatch.setattr(dataio, "update_manifest", spy)
        run_pipeline(cfg)
        assert writes == [["classify", "gat", "inputs", "rank", "report", "sgwt"]]
        config = tmp_path / "run.cfg"
        config.write_text(f"[io]\nnodes = {cfg.io.nodes}\nedges = {cfg.io.edges}\n"
                          f"cases = {cfg.io.cases}\nout = {cfg.io.out}\n"
                          "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 20\n")
        for command, sections in (("train", ["gat"]), ("transform", ["inputs", "sgwt"]),
                                  ("classify", ["classify"]), ("rank", ["rank"]),
                                  ("report", ["report"])):
            writes.clear()
            assert main([command, "--config", str(config)]) == 0
            assert writes == [sections]

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

    def test_failure_cleans_partial_outputs(self, tmp_path, monkeypatch):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        monkeypatch.setattr(cl, "torque", fail_torque)
        with pytest.raises(Exception, match="stage classify"):
            run_pipeline(cfg)
        leftovers = set(os.listdir(cfg.io.out))
        assert "transition.csv" not in leftovers
        assert "coefficients.csv" not in leftovers

    def test_failure_clears_stale_outputs_from_prior_run(self, tmp_path, monkeypatch):
        write_small_dataset(tmp_path)
        good = small_cfg(tmp_path)
        run_pipeline(good)
        assert "rankings.csv" in os.listdir(good.io.out)
        bad = small_cfg(tmp_path)
        monkeypatch.setattr(cl, "torque", fail_torque)
        with pytest.raises(Exception, match="stage classify"):
            run_pipeline(bad)
        assert not any(n.endswith((".csv", ".svg", ".ckpt", ".txt"))
                       for n in os.listdir(bad.io.out))

    def test_failure_clears_stale_temporary_files(self, tmp_path, monkeypatch):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        os.makedirs(cfg.io.out)
        stale = [f".transition.csv.{os.getpid()}.tmp", ".map_classes_week2.svg.45.tmp",
                 ".run-manifest.txt.6.tmp", ".ranking.svg.1234567.tmp"]
        unrelated = [".notes.txt.7.tmp", "transition.csv.8.tmp", ".classes.csv.x.tmp",
                     ".slices.csv.tmp", "notes.txt"]
        for name in stale + unrelated:
            (tmp_path / "out" / name).write_text("left behind\n")
        monkeypatch.setattr(cl, "torque", fail_torque)
        with pytest.raises(Exception, match="stage classify"):
            run_pipeline(cfg)
        assert sorted(os.listdir(cfg.io.out)) == sorted(unrelated)

    def test_failed_manifest_write_is_the_report_stages(self, tmp_path, monkeypatch):
        # the run's one manifest write follows the last stage and fails as part of it
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)

        def refuse(path, sections):
            raise DataIOError(f"cannot write {path}")
        monkeypatch.setattr(dataio, "update_manifest", refuse)
        with pytest.raises(DataIOError) as info:
            run_pipeline(cfg)
        assert str(info.value) == f"stage report: cannot write {cfg.io.out}/run-manifest.txt"
        assert os.listdir(cfg.io.out) == []

    def test_other_exception_in_a_stage_exit_1(self, tmp_path, capsys, monkeypatch):
        # an exception that is not an StgwError leaves the stage as one, with exit 1
        out = tmp_path / "data"
        main(["synth", "--out", str(out), "--nodes", "10", "--weeks", "4"])
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {out}/nodes.csv\nedges = {out}/edges.csv\n"
            f"cases = {out}/cases.csv\nout = {tmp_path}/out\n"
            "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 20\n"
        )

        def planted(*args, **kwargs):
            raise ZeroDivisionError("planted torque failure")
        monkeypatch.setattr(cl, "torque", planted)
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: stage classify: planted torque failure\n"
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("section,values,message", [
        ("gat", {"lr": 0.0}, "[gat] lr must be positive, got 0.0"),
        ("sgwt", {"cheb_order": 0}, "[sgwt] cheb_order must be positive, got 0"),
    ])
    def test_config_changed_after_construction_exit_2_untrained(self, tmp_path, section,
                                                               values, message):
        # a section cannot be changed in place, and a changed copy is checked as it is built
        part = getattr(small_cfg(tmp_path), section)
        for key, value in values.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, key, value)
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(part, **values)
        assert info.value.exit_code == 2
        assert str(info.value) == message

    def test_staged_command_clears_stale_temporary_files(self, tmp_path):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        os.makedirs(cfg.io.out)
        stage_train(cfg)
        out = tmp_path / "out"
        (out / ".coefficients.csv.1.tmp").write_text("left behind\n")
        (out / ".classes.csv.1.tmp").write_text("not transform's\n")
        config = tmp_path / "run.cfg"
        config.write_text(f"[io]\nnodes = {cfg.io.nodes}\nedges = {cfg.io.edges}\n"
                          f"cases = {cfg.io.cases}\nout = {cfg.io.out}\n")
        assert main(["transform", "--config", str(config)]) == 0
        assert not (out / ".coefficients.csv.1.tmp").exists()
        assert (out / ".classes.csv.1.tmp").exists()

    def test_rank_window(self, tmp_path):
        write_small_dataset(tmp_path)
        cfg = small_cfg(tmp_path)
        run_pipeline(cfg, weeks=(2, 4))
        text = (tmp_path / "out" / "run-manifest.txt").read_text()
        assert "week_lo = 2" in text and "week_hi = 4" in text


class TestPureStages:
    def test_method_runs_without_files(self, monkeypatch):
        graph, raw = generate(SyntheticSpec(**SMALL))
        inputs = Inputs(graph, normalize_cases(raw, graph.populations, graph.node_ids))
        cfg = RunConfig(gat=TrainConfig(heads=2, hidden=8, out=6, max_epochs=20))

        def refuse(*args, **kwargs):
            raise AssertionError("a pure stage touched a file")
        for name in dir(dataio):
            if name.startswith(("read_", "write_", "save_", "load_")) or name in (
                    "ingest", "update_manifest", "ensure_dir", "content_hash"):
                monkeypatch.setattr(dataio, name, refuse)
        monkeypatch.setattr("builtins.open", refuse)

        learned, _, facts = train(inputs, cfg.gat)
        assert learned.P.shape == (graph.n, graph.n)
        assert set(facts) == {"epochs_run", "best_epoch", "best_val_loss", "test_accuracy"}
        floats = [facts["best_val_loss"], facts["test_accuracy"]]
        # a substituted P: uniform over each closed neighborhood
        support = graph.closed_neighborhoods().astype(float)
        uniform = TransitionMatrix(P=support.multiply(1.0 / support.sum(axis=1)))
        table, facts = transform(inputs, uniform, cfg.sgwt)
        assert table.values.shape == (graph.n * raw.weeks, cfg.sgwt.filters)
        assert facts["arcs"] == raw.weeks * 2 * len(graph.edges) + (raw.weeks - 1) * (
            graph.n + 2 * len(graph.edges))
        floats += [facts["lambda_max"], facts["lambda_residual"]]
        classes, slices, facts = classify(inputs, table)
        floats += [facts["phi_min"], facts["phi_max"]]
        # plain numbers: the manifest edge formats them
        assert all(isinstance(value, float) for value in floats)
        assert classes["scores"].shape == (graph.n, raw.weeks)
        rankings, facts = rank(inputs, classes["scores"], uniform, (2, 4))
        assert sorted(rankings["least"]) == list(range(1, graph.n + 1))
        assert facts == {"week_lo": 2, "week_hi": 4}
        svgs, facts = render(inputs, classes, slices, rankings, mask=True, week=3)
        assert sorted(svgs) == ["map_classes_week3.svg", "ranking.svg", "slices.svg"]
        assert facts["week"] == 3 and facts["mask"] is True

    def test_order_past_the_default_quadrature(self, tmp_path):
        # order 4,096 needs 4 x 4,097 quadrature nodes, more than the default 2^14
        path = tmp_path / "run.cfg"
        path.write_text("[sgwt]\ncheb_order = 4096\n")
        config = load_config(str(path)).sgwt
        graph, raw = generate(SyntheticSpec(**SMALL))
        inputs = Inputs(graph, normalize_cases(raw, graph.populations, graph.node_ids))
        support = graph.closed_neighborhoods().astype(float)
        uniform = TransitionMatrix(P=support.multiply(1.0 / support.sum(axis=1)))
        table, facts = transform(inputs, uniform, config)
        coarse, coarse_facts = transform(inputs, uniform, RunConfig().sgwt)
        bounds, coarse_bounds = (np.array(f["cheb_error_bounds"].split(), dtype=float)
                                 for f in (facts, coarse_facts))
        assert np.all(bounds <= coarse_bounds)
        # each expansion is within its bound times |x| of the exact transform, per filter
        norm = np.linalg.norm(inputs.features.vertex_signal())
        assert np.all(np.linalg.norm(table.values - coarse.values, axis=0)
                      <= (bounds + coarse_bounds) * norm)

    def test_classify_holds_one_array_beside_the_table(self):
        # N=400, T=104, the benchmark's scale: beside the table, classify holds no
        # (N*T, 8) array, only (N, T) grids and per-vertex vectors, at most six at a
        # time (0.75 table sizes).  Measured 0.55 table sizes; a scaled |W| grid, as
        # robust_scale makes, took 1.38
        graph, raw = generate(SyntheticSpec(nodes=400, weeks=104, seed=42))
        inputs = Inputs(graph, normalize_cases(raw, graph.populations, graph.node_ids))
        table = CoefficientTable(values=np.random.default_rng(0).standard_normal(
            (graph.n * raw.weeks, 8)))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            classify(inputs, table)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * table.values.nbytes


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

    @pytest.mark.parametrize("char,code", [("\t", 0), ("\x7f", 0), ("\ufffd", 0), ("&", 0),
                                           ("\x0b", 2), ("\x01", 2), ("\ufffe", 2),
                                           ("\uffff", 2)])
    def test_every_svg_of_a_run_parses(self, finished_run, tmp_path, char, code):
        # node 1's name holds `char`: a name that XML cannot hold exits 2 before any
        # SVG is written, and every other one reaches SVGs that parse
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "data" / "nodes.csv"
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[1].split(",")
        cells[1] = f"town{char}001"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == code
        out = tmp_path / "out"
        svgs = [name for name in os.listdir(out) if name.endswith(".svg")]
        assert len(svgs) == (3 if code == 0 else 0)
        for name in svgs:
            assert ET.parse(out / name).getroot().tag.endswith("svg")

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

    def test_node_names_escaped(self):
        from stgw.graphs import NodeRecord, build_route_graph
        from stgw.report import render_map, render_ranking
        name = "Ayer & Shirley <MA>"
        g = build_route_graph([NodeRecord(1, name, 42.5, -71.6, 8000),
                               NodeRecord(2, "Boston", 42.4, -71.1, 650000)], [(1, 2)])
        for svg in (render_map(g, np.array([5, 1]), week=1),
                    render_ranking(g, np.array([2.0, 0.5]), np.array([1, 2]), np.array([2, 1]))):
            texts = [element.text for element in ET.fromstring(svg).iter()]
            assert name in texts and "Boston" in texts
            assert "Ayer &amp; Shirley &lt;MA&gt;" in svg


class TestCli:
    def test_run_replaces_the_whole_output_set(self, finished_run, tmp_path):
        # the second run's class map is the only one left, as its manifest says
        cfg_path = staged_copy(finished_run, tmp_path)
        assert main(["run", "--config", str(cfg_path), "--week", "3"]) == 0
        assert main(["run", "--config", str(cfg_path), "--seed", "7", "--week", "4"]) == 0
        out = tmp_path / "out"
        assert sorted(name for name in os.listdir(out) if name.endswith(".svg")) == [
            "map_classes_week4.svg", "ranking.svg", "slices.svg"]
        assert dataio.read_manifest(out / "run-manifest.txt")["report"]["week"] == "4"

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

    def test_run_loads_no_dense_scipy(self, tmp_path):
        """`stgw synth` and `stgw run` in a fresh interpreter use only `scipy.sparse`."""
        out = tmp_path / "data"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {out}/nodes.csv\nedges = {out}/edges.csv\n"
            f"cases = {out}/cases.csv\nout = {tmp_path}/out\n"
            "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 20\n"
        )
        script = (
            "import sys\n"
            "from stgw.cli import main\n"
            f"assert main(['synth', '--out', {str(out)!r}, '--nodes', '12', '--weeks', '5', "
            "'--mode', 'density', '--density', '0.05']) == 0\n"
            f"assert main(['run', '--config', {str(cfg_path)!r}, '--mask']) == 0\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True)
        loaded = set(result.stdout.splitlines()[-1].split())  # after the commands' own output
        assert "scipy.sparse" in loaded
        assert not loaded & {"scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph"}
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

    def test_build_graph_warns_of_isolated_nodes(self, tmp_path, capsys):
        (tmp_path / "nodes.csv").write_text(
            "node_id,name,lat,lon,population\n1,Alpha,42.0,-72.0,1000\n"
            "2,Beta,42.1,-72.1,2000\n3,Gamma,42.2,-72.2,1500\n")
        (tmp_path / "edges.csv").write_text("src_id,dst_id\n1,2\n")
        (tmp_path / "cases.csv").write_text("node_id,week,cases\n" + "".join(
            f"{n},{w},{n * w}\n" for n in (1, 2, 3) for w in (1, 2)))
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"[io]\nnodes = {tmp_path}/nodes.csv\nedges = {tmp_path}/edges.csv\n"
            f"cases = {tmp_path}/cases.csv\nout = {tmp_path}/out\n"
        )
        assert main(["build-graph", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == ("graph: 3 nodes, 1 edges, 2 weeks\n"
                                           "warning: 1 isolated nodes: [3]\n")

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

    def test_out_holding_a_directory_named_as_an_output_exit_4_untrained(
            self, finished_run, tmp_path, capsys):
        # `stgw run` cannot clear the old output set, so it stops before training
        cfg_path = staged_copy(finished_run, tmp_path)
        shutil.rmtree(tmp_path / "out")
        blocked = tmp_path / "out" / "classes.csv"
        blocked.mkdir(parents=True)
        assert main(["run", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err == (f"error: cannot remove {blocked}: "
                                           f"[Errno 21] Is a directory: '{blocked}'\n")
        assert os.listdir(tmp_path / "out") == ["classes.csv"]

    def test_out_with_a_percent_sign(self, finished_run, tmp_path):
        # config values are literal: the outputs land in `out%1`, the same as the run's
        cfg_path = staged_copy(finished_run, tmp_path)
        text = cfg_path.read_text()
        cfg_path.write_text(text.replace(f"out = {tmp_path}/out\n", f"out = {tmp_path}/out%1\n"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert read_out(tmp_path, "out%1") == read_out(finished_run)

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

    def test_run_lists_each_file_once(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        data = tmp_path / "data"
        main(["synth", "--out", str(data), "--nodes", "10", "--weeks", "4"])
        cfg_path.write_text(f"[io]\nnodes = {data}/nodes.csv\nedges = {data}/edges.csv\n"
                            f"cases = {data}/cases.csv\nout = {tmp_path}/out\n"
                            "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 40\n")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        out = tmp_path / "out"
        assert sorted(lines) == sorted(f"wrote {out / name}" for name in os.listdir(out))

    @pytest.mark.parametrize("command,flags,message", [
        ("run", ["--weeks", "5..3"], "week window 5..3 outside 1..T"),
        ("run", ["--weeks", "0..2"], "week window 0..2 outside 1..T"),
        ("run", ["--week", "0"], "week 0 outside 1..T"),
        ("rank", ["--weeks", "3..2"], "week window 3..2 outside 1..T"),
        ("rank", ["--weeks=-1..2"], "week window -1..2 outside 1..T"),
        ("report", ["--week", "0"], "week 0 outside 1..T"),
        ("rank", ["--weeks="], "bad --weeks value ''; expected a..b"),
        ("run", ["--weeks="], "bad --weeks value ''; expected a..b"),
        ("rank", ["--weeks", "x"], "bad --weeks value 'x'; expected a..b"),
        ("run", ["--weeks", "x"], "bad --weeks value 'x'; expected a..b"),
        ("rank", ["--weeks", "1..2..3"], "bad --weeks value '1..2..3'; expected a..b"),
        ("run", ["--weeks", "1..2..3"], "bad --weeks value '1..2..3'; expected a..b"),
    ])
    def test_bad_week_flags_rejected_before_any_stage(self, finished_run, tmp_path, capsys,
                                                     monkeypatch, command, flags, message):
        cfg_path = staged_copy(finished_run, tmp_path)
        before = read_out(tmp_path)

        def refuse(*args):
            raise AssertionError("a stage read its inputs")
        monkeypatch.setattr(dataio, "ingest", refuse)
        assert main([command, "--config", str(cfg_path)] + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read_out(tmp_path) == before

    @pytest.mark.parametrize("weeks,flags,message", [
        (12, ["--weeks", "2..99"], "week window 2..99 outside 1..12"),
        (12, ["--week", "13"], "week 13 outside 1..12"),
        (1, [], "{cases}: needs at least 2 weeks, got 1"),
    ])
    def test_series_too_short_rejected_before_training(self, tmp_path, capsys, monkeypatch,
                                                       weeks, flags, message):
        data = tmp_path / "data"
        main(["synth", "--out", str(data), "--nodes", "10", "--weeks", str(max(weeks, 2))])
        cases = data / "cases.csv"
        lines = cases.read_text().splitlines()
        cases.write_text("\n".join(lines[:1] + [line for line in lines[1:]
                                                if int(line.split(",")[1]) <= weeks]) + "\n")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"[io]\nnodes = {data}/nodes.csv\nedges = {data}/edges.csv\n"
                            f"cases = {cases}\nout = {tmp_path}/out\n")

        def refuse(*args):
            raise AssertionError("training started")
        monkeypatch.setattr(gat, "train", refuse)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)] + flags) == 2
        assert capsys.readouterr().err == \
            f"error: stage train: {message.format(cases=cases)}\n"
        assert not (tmp_path / "out").exists()

    def test_run_with_missing_input_leaves_no_out(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"[io]\nnodes = {tmp_path}/nope.csv\nout = {tmp_path}/out\n")
        assert main(["run", "--config", str(cfg_path)]) == 4
        assert "stage train:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_outputs_do_not_depend_on_the_row_order_of_nodes(self, finished_run, tmp_path):
        """Every output lists nodes in ascending node_id: `stgw run --mask` over nodes.csv
        with its data rows reversed writes the same bytes, and so do staged `rank` and
        `report` that read the first run's files against the reversed rows.  The manifest
        is compared without its nodes_hash line, which hashes the nodes.csv bytes."""
        data = finished_run / "data"
        header, *rows = (data / "nodes.csv").read_text().splitlines(keepends=True)
        reversed_nodes = tmp_path / "nodes.csv"
        reversed_nodes.write_text(header + "".join(rows[::-1]))

        def stgw(nodes, out, *commands):
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(f"[io]\nnodes = {nodes}\nedges = {data}/edges.csv\n"
                                f"cases = {data}/cases.csv\nout = {tmp_path / out}\n"
                                "[gat]\nheads = 2\nhidden = 8\nout = 6\nmax_epochs = 40\n")
            for command in commands:
                assert main(command + ["--config", str(cfg_path)]) == 0
            files = read_out(tmp_path, out)
            manifest, found = re.subn(rb"nodes_hash = \w+\n", b"", files["run-manifest.txt"])
            assert found == 1
            return {name: hashlib.sha256(manifest if name == "run-manifest.txt" else text)
                    .hexdigest() for name, text in files.items()}

        forward = stgw(data / "nodes.csv", "forward", ["run", "--mask"])
        assert len(forward) == 10
        assert stgw(reversed_nodes, "reversed", ["run", "--mask"]) == forward
        shutil.copytree(tmp_path / "forward", tmp_path / "staged")
        assert stgw(reversed_nodes, "staged", ["rank"], ["report", "--mask"]) == forward


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


# a `coefs` cell of the default 8 filters whose first value is infinite
INF_COEFS = base64.b64encode(np.array([np.inf] + [0.0] * 7, dtype="<f8").tobytes()).decode()


class TestBadInputExit2:
    """A malformed cell in each file a staged command reads exits 2 naming file and line."""

    @pytest.mark.parametrize("command,name,column,value,message", [
        ("build-graph", "data/nodes.csv", 2, "nan", "lat must be finite, got 'nan'"),
        ("build-graph", "data/edges.csv", 1, "x", "dst_id must be an integer, got 'x'"),
        ("build-graph", "data/cases.csv", 2, "nan", "cases must be finite, got 'nan'"),
        ("transform", "out/transition.csv", 2, "nan", "p must be finite, got 'nan'"),
        ("classify", "out/coefficients.csv", 2, INF_COEFS, "coefs must be finite, got inf"),
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

    def test_coefficients_in_the_old_layout(self, finished_run, tmp_path, capsys):
        # the decimal vertex_id,slice,filter,coef rows that base64 rows replaced
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "coefficients.csv"
        _, *rows = path.read_text().splitlines()
        old = ["vertex_id,slice,filter,coef"]
        for row in rows:
            vertex, t, coefs = row.split(",")
            values = np.frombuffer(base64.b64decode(coefs), dtype="<f8").tolist()
            old += [f"{vertex},{t},{m},{v!r}" for m, v in enumerate(values, start=1)]
        path.write_text("\n".join(old) + "\n")
        assert main(["classify", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: bad header (line 1): expected vertex_id,slice,coefs\n")

    def test_a_score_against_class_and_theta(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "classes.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        expected, cells[5] = cells[5], "4" if cells[5] != "4" else "0"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["rank", "--config", str(cfg_path)]) == 2
        assert (f"{path}: line 2: a_score {cells[5]} does not match class {cells[3]} and "
                f"theta {cells[4]} (expected {expected})") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rank", "report"])
    def test_class_against_torque_quintiles(self, finished_run, tmp_path, capsys, command):
        # rows in reverse order; the class of two V1..V3 rows moves within V1..V3, so
        # their a_score stays 2; the one earlier in the file is named
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "classes.csv"
        header, *lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[::-1]]
        first, *_, last = [k for k, cells in enumerate(rows) if cells[3] in ("V1", "V2", "V3")]
        expected = rows[first][3]
        for k in (last, first):
            rows[k][3] = {"V1": "V2", "V2": "V3", "V3": "V2"}[rows[k][3]]
        path.write_text("\n".join([header] + [",".join(cells) for cells in rows]) + "\n")
        assert main([command, "--config", str(cfg_path)]) == 2
        torques = [float(cells[2]) for cells in rows]
        assert capsys.readouterr().err == (
            f"error: {path}: line {first + 2}: class {rows[first][3]} does not match torque "
            f"{rows[first][2]} in the quintiles of [{min(torques)!r}, {max(torques)!r}] "
            f"(expected {expected})\n")

    def test_wrong_class_parses_the_file_once(self, finished_run, tmp_path, capsys,
                                              monkeypatch):
        # a V1 or V2 row moves to the other class, so its a_score stays 2; the reader's
        # line grid names the row, so classes.csv is not parsed a second time
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "classes.csv"
        header, *lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        k = next(k for k, cells in enumerate(rows) if cells[3] in ("V1", "V2"))
        expected, rows[k][3] = rows[k][3], {"V1": "V2", "V2": "V1"}[rows[k][3]]
        path.write_text("\n".join([header] + [",".join(cells) for cells in rows]) + "\n")
        parsed, read_csv = [], dataio._read_csv

        def counted(source, *args, **kwargs):
            parsed.append(os.path.basename(source))
            return read_csv(source, *args, **kwargs)
        monkeypatch.setattr(dataio, "_read_csv", counted)
        assert main(["rank", "--config", str(cfg_path)]) == 2
        assert parsed.count("classes.csv") == 1
        assert (f"{path}: line {k + 2}: class {rows[k][3]} does not match torque "
                f"{rows[k][2]} in the quintiles of") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rank", "report"])
    def test_theta_against_anomaly_metric(self, finished_run, tmp_path, capsys, command):
        # a V1..V3 row, graded 2 whatever its theta, takes another theta
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "classes.csv"
        header, *lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        k = next(k for k, cells in enumerate(rows) if cells[3] in ("V1", "V2", "V3"))
        expected, rows[k][4] = rows[k][4], repr(1.25 * float(rows[k][4]) + 1.0)
        path.write_text("\n".join([header] + [",".join(cells) for cells in rows]) + "\n")
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {k + 2}: theta {rows[k][4]} does not match the anomaly "
            f"metric of the cases (expected {expected})\n")

    def test_equal_torques_read_without_a_warning(self, finished_run, tmp_path, recwarn):
        # all torques equal: every row is V1, and its a_score 2; only classify warns
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "classes.csv"
        header, *lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        for cells in rows:
            cells[2:4], cells[5] = ["0.5", "V1"], "2"
        path.write_text("\n".join([header] + [",".join(cells) for cells in rows]) + "\n")
        assert main(["rank", "--config", str(cfg_path)]) == 0
        assert not [w for w in recwarn if "degenerate" in str(w.message)]

    def test_ranks_against_a_bar_order(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "rankings.csv"
        lines = path.read_text().splitlines()
        first, second = lines[1].split(","), lines[2].split(",")
        first[4], second[4] = second[4], first[4]
        lines[1:3] = ",".join(first), ",".join(second)
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert (f"{path}: line 2: rank_least_successful {first[4]} does not match the a_bar "
                f"order (expected {second[4]})") in capsys.readouterr().err

    def test_a_bar_against_mean_a_score(self, finished_run, tmp_path, capsys):
        # the top node's a_bar rises halfway to 4: still the top, so no rank moves
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "rankings.csv"
        lines = path.read_text().splitlines()
        k = next(k for k, line in enumerate(lines[1:], 1) if line.split(",")[4] == "1")
        cells = lines[k].split(",")
        expected = cells[2]
        assert float(expected) < 4
        cells[2] = repr((float(expected) + 4) / 2)
        lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {k + 1}: a_bar {cells[2]} does not match the mean a_score "
            f"over the ranking window (expected {expected})\n")

    @pytest.mark.parametrize("pattern,replacement,message", [
        (r"\[rank\]\n(.+\n)*\n", "", "no [rank] week_lo and week_hi to average a_bar over"),
        (r"week_hi = \d+", "week_hi = 99", "[rank] week window 1..99 outside 1..4"),
        (r"week_lo = \d+", "week_lo = \u00b2",
         "no [rank] week_lo and week_hi to average a_bar over"),
        (r"week_lo = \d+", "week_lo = \u0661",
         "no [rank] week_lo and week_hi to average a_bar over"),
    ], ids=["no_rank_section", "window_past_the_series", "superscript_digit",
            "arabic_indic_digit"])
    def test_manifest_rank_window_exit_2(self, finished_run, tmp_path, capsys, pattern,
                                         replacement, message):
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "run-manifest.txt"
        text = path.read_text()
        path.write_text(re.sub(pattern, replacement, text, count=1))
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_manifest_line_that_does_not_parse_exit_2(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "out" / "run-manifest.txt"
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(2, "not a key value line\n")
        path.write_text("".join(lines))
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid manifest: Source contains parsing errors: '{path}'\n"
            "\t[line  3]: 'not a key value line\\n'\n")

    def test_name_that_xml_cannot_hold(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        path = tmp_path / "data" / "nodes.csv"
        lines = path.read_text().split("\n")
        cells = lines[1].split(",")
        cells[1] = "town\x0b001"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines))
        for command in ("build-graph", "run"):
            assert main([command, "--config", str(cfg_path)]) == 2
            assert capsys.readouterr().err == (f"error: {'stage train: ' * (command == 'run')}"
                                               f"{path}: line 2: name 'town\\x0b001' holds "
                                               "U+000B, which XML cannot hold\n")

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

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines[:3], "missing week 3 of 1..4"),
        (lambda lines: lines + ["5," + lines[-1].split(",", 1)[1]], "line 6: week 5 outside 1..4"),
    ], ids=["truncated", "extended"])
    def test_slices_not_covering_the_series_exit_2(self, finished_run, tmp_path, capsys,
                                                   edit, message):
        cfg_path = staged_copy(finished_run, tmp_path)
        slices = tmp_path / "out" / "slices.csv"
        slices.write_text("\n".join(edit(slices.read_text().splitlines())) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {slices}: {message}\n"

    def test_slice_class_against_sigma_exit_2(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        slices = tmp_path / "out" / "slices.csv"
        lines = slices.read_text().splitlines()
        head, expected = lines[2].rsplit(",", 1)
        label = "V1" if expected != "V1" else "V2"
        lines[2] = f"{head},{label}"
        slices.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (f"error: {slices}: line 3: slice_class {label} "
                                           f"does not match the sigma columns (expected {expected})\n")

    def test_sigma_against_class_shares_exit_2(self, finished_run, tmp_path, capsys):
        # week 1's sigma1 swaps with the first sigma unequal to it: the row still sums to 1
        cfg_path = staged_copy(finished_run, tmp_path)
        slices = tmp_path / "out" / "slices.csv"
        lines = slices.read_text().splitlines()
        cells = lines[1].split(",")
        m = next(m for m in range(2, 6) if cells[m] != cells[1])
        cells[1], cells[m] = cells[m], cells[1]
        lines[1] = ",".join(cells)
        slices.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {slices}: line 2: sigma1 {cells[1]} does not match the class shares "
            f"of the week (expected {cells[m]})\n")

    def test_missing_week_named_before_a_wrong_slice_class(self, finished_run, tmp_path, capsys):
        cfg_path = staged_copy(finished_run, tmp_path)
        slices = tmp_path / "out" / "slices.csv"
        lines = slices.read_text().splitlines()[:3]
        # week 1's class is wrong for the sigmas of weeks 1 and 2 as well
        sigma = np.array([[float(x) for x in line.split(",")[1:6]] for line in lines[1:]])
        head, _ = lines[1].rsplit(",", 1)
        lines[1] = f"{head},V{1 + cl.dominant_classes(sigma)[0] % 5}"
        slices.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {slices}: missing week 3 of 1..4\n"
