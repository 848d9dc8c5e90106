"""Tests of the benchmark itself on a tiny case (N=12, T=6).

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402

TINY = {
    "run": {"kind": "run", "nodes": 12, "weeks": 6, "epochs": 3},
    "replay": {"kind": "replay", "nodes": 12, "weeks": 6},
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_benchmark_json_names_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = []
    for key in ("end_to_end", "per_layer"):
        for metric in SPEC[key]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
            names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_path_reports_every_metric(tmp_path, kind, trace):
    records = run.run_workload(ROOT, str(tmp_path), TINY[kind], seed=5, seconds=0,
                               trace=trace)
    run.check_identical(records)
    assert [r["failures"] for r in records] == [[], []]
    assert [r["traced"] for r in records] == [False, trace]
    metrics = run.summarize(records, trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(metrics) == set(expected)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    lines = run.report(kind, TINY[kind], 5, records, metrics, expected)
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and f" {unit} (n=" in line
                   for line in lines), name
    assert "fail_frac 0" in lines[1]
    if trace:
        # argparse and config loading weigh more on a tiny case than on a real one
        assert 0.5 < metrics["pipeline.covered_frac"] <= 1.0
        stages = ("train", "transform", "classify", "rank", "report")
        ran = stages if kind == "run" else stages[1:]
        assert all(metrics[f"pipeline.stage_{s}_s"] > 0 for s in ran)
        assert metrics["sgwt.cheb_matvecs"] == 40
        assert metrics["dataio.ingest_calls"] == (5 if kind == "run" else 4)
        assert metrics["gat.epochs"] == (3 if kind == "run" else 0)
    else:
        assert records[0]["environment"]["blas_threads"] in (1, "1")


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _swap_last_rank(lines):
    cells = lines[-1].split(",")
    cells[4] = "1"
    return lines[:-1] + [",".join(cells)]


def _scale_last_p(lines):
    src, dst, p = lines[-1].split(",")
    return lines[:-1] + [f"{src},{dst},{float(p) * 0.5!r}"]


def _bump_sigma(lines):
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 0.25)
    return [lines[0], ",".join(cells)] + lines[2:]


CORRUPTIONS = {
    "transition.csv": _scale_last_p,          # a row of P no longer sums to 1
    "coefficients.csv": lambda lines: lines[:-1],  # incomplete grid
    "classes.csv": lambda lines: lines[:-1],
    "slices.csv": _bump_sigma,                # a slice row no longer sums to 1
    "rankings.csv": _swap_last_rank,          # ranks no longer a permutation
    "gat_model.ckpt": lambda lines: ["GATCKPT0"] + lines[1:],
}


@pytest.fixture(scope="module")
def good_attempt(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("attempt"))
    record = child.attempt({"root": ROOT, "workdir": workdir, "workload": TINY["run"],
                            "seed": 5, "trace": False})
    assert record["failures"] == []
    return workdir, record


@pytest.mark.parametrize("artifact", sorted(CORRUPTIONS))
def test_corrupted_artifact_raises_fail_frac(good_attempt, tmp_path, artifact):
    workdir, record = good_attempt
    corrupt = str(tmp_path / "corrupt")
    shutil.copytree(workdir, corrupt)
    cfg = os.path.join(corrupt, "run.cfg")
    with open(cfg, encoding="utf-8") as fh:
        text = fh.read().replace(workdir, corrupt)
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    _rewrite(os.path.join(corrupt, "out", artifact), CORRUPTIONS[artifact])

    failures = child.check_outputs(TINY["run"], corrupt)
    assert failures, artifact
    second = {**record, "failures": failures,
              "hashes": child.file_hashes(os.path.join(corrupt, "out"))}
    records = [dict(record, failures=[]), second]
    run.check_identical(records)
    assert any(f.startswith("out/ differs from attempt 1") for f in second["failures"])
    lines = run.report("paper", TINY["run"], 5, records, {}, {})
    assert "failed 1, fail_frac 0.5" in lines[1]


def test_missing_program_exits_nonzero_without_result(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "paper", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(cwd)
    assert code != 0
    assert capsys.readouterr().out == ""
