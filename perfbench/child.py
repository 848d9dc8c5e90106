"""One attempt of one workload, in a fresh interpreter: set up, time, check.

Usage: python3 child.py REQUEST.json

The request names the checkout root, a work directory, the workload, the
seed and whether to trace.  The attempt writes its record (timings, peak RSS,
per-layer metrics, output hashes and every check that failed) to
`record.json` in the work directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
import warnings

import tracing

CONFIG = """[io]
nodes = {data}/nodes.csv
edges = {data}/edges.csv
cases = {data}/cases.csv
out = {out}
[gat]
seed = {seed}
"""
# patience = max_epochs: training always runs the workload's fixed epoch count
EPOCHS = """max_epochs = {epochs}
patience = {epochs}
"""

RUN_FILES = ("transition.csv", "gat_model.ckpt", "coefficients.csv", "classes.csv",
             "slices.csv", "rankings.csv", "run-manifest.txt", "slices.svg", "ranking.svg")
REPLAY_FILES = tuple(name for name in RUN_FILES if name != "gat_model.ckpt")


def prepare(workload: dict, seed: int, workdir: str) -> str:
    """Synthesize the inputs (and the replay transition); returns the config path."""
    import numpy as np
    from stgw import dataio, synth
    from stgw.graphs import TransitionMatrix

    data, out = os.path.join(workdir, "data"), os.path.join(workdir, "out")
    os.makedirs(data, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    spec = synth.SyntheticSpec(nodes=workload["nodes"], weeks=workload["weeks"],
                               rho=0.9, seed=seed, mode="geometric")
    graph, _ = synth.write_dataset(spec, os.path.join(data, "nodes.csv"),
                                   os.path.join(data, "edges.csv"),
                                   os.path.join(data, "cases.csv"))
    if workload["kind"] == "replay":
        # seeded uniform weights on the support (edges plus diagonal), rows summing to 1
        rng = np.random.default_rng([seed, 1])
        support = graph.dense_adjacency() > 0
        np.fill_diagonal(support, True)
        P = np.where(support, rng.uniform(0.1, 1.0, size=support.shape), 0.0)
        P /= P.sum(axis=1, keepdims=True)
        dataio.write_transition(os.path.join(out, "transition.csv"), graph,
                                TransitionMatrix(P=P))
    cfg_path = os.path.join(workdir, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(CONFIG.format(data=data, out=out, seed=seed))
        if workload["kind"] == "run":
            fh.write(EPOCHS.format(epochs=workload["epochs"]))
    return cfg_path


def timed_section(kind: str, cfg_path: str) -> None:
    """`stgw run`, or the staged replay; raises on a non-zero exit code."""
    from stgw import cli

    commands = ["run"] if kind == "run" else ["transform", "classify", "rank", "report"]
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", cfg_path])
        if code != 0:
            raise RuntimeError(f"stgw {command} exited with code {code}")


def read_manifest(path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], {})
            elif "=" in line and current is not None:
                key, _, value = line.partition("=")
                current[key.strip()] = value.strip()
    return sections


def check_outputs(workload: dict, workdir: str) -> list[str]:
    """Load every artifact back through stgw's readers; returns the failed checks."""
    import numpy as np
    from stgw import dataio
    from stgw.config import load_config

    cfg = load_config(os.path.join(workdir, "run.cfg"))
    out = cfg.io.out
    expected = RUN_FILES if workload["kind"] == "run" else REPLAY_FILES
    missing = [name for name in expected if not os.path.exists(os.path.join(out, name))]
    if not any(n.startswith("map_classes_week") for n in os.listdir(out)):
        missing.append("map_classes_week<t>.svg")
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]

    failures = []

    def check(what, fn):
        """Run one check; it fails by raising or by returning a message."""
        try:
            problem = fn()
        except Exception as exc:  # a reader rejecting the file is a failed check
            problem = f"{type(exc).__name__}: {exc}"
        if isinstance(problem, str):
            failures.append(f"{what}: {problem}")

    graph, raw = dataio.ingest(cfg.io.nodes, cfg.io.edges, cfg.io.cases)
    n, t = graph.n, raw.weeks
    ids = list(range(1, n + 1))

    # read_transition rejects P unless it is row-stochastic on the graph's support
    check("transition", lambda: dataio.read_transition(
        os.path.join(out, "transition.csv"), graph))
    # the readers reject a coefficient or class grid with a missing cell
    check("coefficients", lambda: dataio.read_coefficients(
        os.path.join(out, "coefficients.csv"), graph, t, cfg.sgwt.filters))
    check("classes", lambda: dataio.read_classes(
        os.path.join(out, "classes.csv"), graph, t))

    def slices():
        sigma, classes = dataio.read_slices(os.path.join(out, "slices.csv"))
        if sigma.shape != (t, 5):
            return f"shape {sigma.shape}, expected ({t}, 5)"
        worst = float(np.max(np.abs(sigma.sum(axis=1) - 1.0)))
        if worst > 1e-9:
            return f"a row sums to 1 {worst:+.3g}"
        if not np.all((classes >= 1) & (classes <= 5)):
            return "slice class outside V1..V5"
        return None
    check("slices", slices)

    def rankings():
        ranks = dataio.read_rankings(os.path.join(out, "rankings.csv"), graph)
        for key in ("least", "most"):
            if sorted(ranks[key].tolist()) != ids:
                return f"{key} ranks are not a permutation of 1..{n}"
        return None
    check("rankings", rankings)

    def manifest():
        sections = read_manifest(os.path.join(out, "run-manifest.txt"))
        e = len(graph.edges)
        arcs = int(sections["sgwt"]["arcs"])
        if arcs != t * 2 * e + (t - 1) * (n + 2 * e):
            return f"{arcs} product arcs break the strong-product identity"
        if workload["kind"] == "run":
            accuracy = float(sections["gat"]["test_accuracy"])
            if not 0.0 <= accuracy <= 1.0:
                return f"test_accuracy {accuracy} outside [0, 1]"
        return None
    check("manifest", manifest)

    if workload["kind"] == "run":
        check("checkpoint", lambda: dataio.load_checkpoint(
            os.path.join(out, "gat_model.ckpt")))
    return failures


def file_hashes(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def attempt(request: dict) -> dict:
    """Set up, run the timed section (traced or not), then check the outputs."""
    workload, workdir = request["workload"], request["workdir"]
    record = {"failures": [], "traced": request["trace"]}
    try:
        cfg_path = prepare(workload, request["seed"], workdir)
        tracer = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if request["trace"]:
                tracer = tracing.Tracer(caught)
                scope = tracing.instrument(tracer)
            else:
                scope = contextlib.nullcontext()
            with scope:
                record["first_call"] = time.monotonic()
                start = time.perf_counter()
                timed_section(workload["kind"], cfg_path)
                record["wall_s"] = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux; read before the checks allocate
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["warnings"] = sorted({str(w.message) for w in caught})
        if tracer is not None:
            record["layers"] = tracer.metrics(record["wall_s"])
            record["spans"] = tracer.records()
        out = os.path.join(workdir, "out")
        record["failures"] = check_outputs(workload, workdir)
        record["hashes"] = file_hashes(out)
        manifest = read_manifest(os.path.join(out, "run-manifest.txt"))
        record["arcs"] = int(manifest["sgwt"]["arcs"])
        if workload["kind"] == "run":
            record["edge_accuracy"] = float(manifest["gat"]["test_accuracy"])
    except Exception:
        record["failures"].append(traceback.format_exc(limit=3).strip())
    return record


def environment() -> dict:
    """Interpreter, library and BLAS facts of this process."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    sys.path.insert(0, os.path.join(request["root"], "src"))
    record = attempt(request)
    if request.get("environment"):
        record["environment"] = environment()
    with open(os.path.join(request["workdir"], "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
