"""Stage-and-layer benchmark of the expertmap CLI chain.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

For the named workload it draws n + M rows from the seed in one
``expertmap.synth.generate`` call on the default fixture config (see
make_inputs): n training rows and M new points given to ``extend``.  It then

1. times several fresh interpreters importing ``expertmap.cli`` (setup_s);
2. runs the whole CLI chain -- preprocess, organize, pseudopoints export,
   pseudopoints auto, train, embed, standardize, extend, validate, report --
   in a fresh process (chain.py), one ``cli.main`` call per stage, with the
   same inputs S / chain_s times (at least once; chain_s is the workload's
   nominal chain time on a 2-core VM, longer than the usual S).  At the end
   of each chain the same process calls organize or extend a fixed number
   of times more, so that these short stages' times rest on several
   seconds of calls.  The amount of work, and so ``attempted``, depends
   only on the workload and S, never on how fast the machine ran;
3. checks every chain's artifacts: each stage that exited 0 left its files,
   they parse and hold only finite numbers, row counts match the reference
   set and M, and every artifact's sha256 is the same in every chain of the
   run and in every earlier run of the same code and seed in this checkout;
4. prints a detail line (per-stage records, artifact hashes, environment)
   and, last, one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.  Every stage call is one attempted operation; a stage that
   exits non-zero is a failed one, with its exception class in the detail.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the run's chains, where a chain's organize_s and
extend_pts_per_s come from the mean time of all its calls of the stage.
With ``--trace 1`` the extra calls are left out, one more chain runs with
the layer wrappers of tracer.py installed, and the metrics are the
per-layer ones: ``<module>.<function>_s`` is the self time of that function
summed over its calls (``cli.<stage>_s`` is the stage's whole duration, the
root span), ``_n`` a call count, and ``trace.overhead_s`` the traced chain's
wall time minus the untraced median.  The traced chain must leave the same
bytes as the untraced ones.  Values marked computed (train_gflop,
ensemble_mb, hashed_mb, artifact_mb) come from the artifacts' contents and
sizes, not from a clock, and repeat exactly for a seed.  MB is 2**20 bytes.
``cli.<stage>_peak_mb`` is the stage's peak RSS, sampled every 5 ms.

Work files go to perfbench/.work/.  Each chain is one process with one BLAS
thread: the matrices are small (a few hundred rows), a second thread gave no
gain on 2 cores, and one thread keeps the figures independent of the core
count and leaves cores free for a program change that trains nets in
parallel to show its gain.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
MB = float(2 ** 20)

DEADLINE_S = 170.0       # a run must end within 180 s
SETUP_SPAWNS = 4         # timed interpreter starts per run, after one warm-up
BLAS_THREADS = 1         # see the module docstring


@dataclasses.dataclass(frozen=True)
class Workload:
    n: int                   # rows given to preprocess
    reference: int           # of which this many fall in the reference set
    k_nets: int              # net.k
    new_points: int          # rows given to extend (M)
    chain_s: float           # nominal untraced chain time, for the chain count
    extra: tuple             # stages called again at an untraced chain's end
    net: tuple = ()          # further net.* overrides, as (key, value) pairs


WORKLOADS = {
    # The canonical default run: train is ~80% of the chain, so net-training,
    # sigmoid, float32, parallel-net and ensemble-format changes show here.
    "fixture600": Workload(n=600, reference=324, k_nets=100, new_points=1000,
                           chain_s=22.0, extra=("organize", "extend") * 2),
    # organize (O(n^3 log n) agglomeration, the largest eigensolves) is ~65%
    # of the chain at 608 reference points; train is small, so a train-only
    # gain must not show here.  Its 0.6 s extend is the stage time that
    # spreads most from run to run, hence the most extra calls.
    "points1200": Workload(n=1200, reference=608, k_nets=10, new_points=1000,
                           chain_s=17.0, extra=("extend",) * 8),
    # extend is ~50% of the chain: forward passes only on a wide batch, the
    # inline cross kernel, the whitened extension and a large CSV ingest.
    "extend20k": Workload(n=600, reference=324, k_nets=20, new_points=20000,
                          chain_s=17.0, extra=("organize",) * 2),
    # Tiny size for the benchmark's own smoke test; not in BENCHMARK.json.
    "smoke": Workload(n=120, reference=62, k_nets=2, new_points=50,
                      chain_s=3.0, extra=("organize", "extend", "extend"),
                      net=(("epochs", 20), ("pretrain_epochs", 5))),
}

STAGES = (("preprocess", ["preprocess"]),
          ("organize", ["organize"]),
          ("pseudopoints_export", ["pseudopoints", "export"]),
          ("pseudopoints_auto", ["pseudopoints", "auto"]),
          ("train", ["train"]),
          ("embed", ["embed"]),
          ("standardize", ["standardize"]),
          ("extend", ["extend", "--new-points"]),
          ("validate", ["validate"]),
          ("report", ["report"]))
CHAIN = [name for name, _ in STAGES]

# files each stage writes when it exits 0 (sidecars aside)
ARTIFACTS = {
    "preprocess": ("preprocessed.csv", "scaler.json", "reference.json"),
    "organize": ("points_tree.json", "obs_tree.json", "affinity.npy"),
    "pseudopoints_export": ("pseudopoints.csv",),
    "pseudopoints_auto": ("labels.csv", "label_function.csv"),
    "train": ("ensemble.json", "ranking.csv"),
    "embed": ("embedding.csv", "embedding.json"),
    "standardize": ("std_embedding.csv", "std_embedding.json"),
    "extend": ("extended_embedding.csv", "extended_std_embedding.csv",
               "extended_ranking.csv"),
    "validate": ("validation.json", "lipschitz.csv", "neighborhood_mass.csv",
                 "eigencurve.csv", "confusion.csv", "histograms.csv"),
    "report": ("report.csv",),
}
REFERENCE_ROWS = ("embedding.csv", "std_embedding.csv", "ranking.csv", "report.csv")
NEW_POINT_ROWS = ("extended_embedding.csv", "extended_std_embedding.csv",
                  "extended_ranking.csv")


class CheckFailed(Exception):
    """An artifact is missing, malformed, non-finite or not reproducible."""


# ---------------------------------------------------------------------------
# environment and inputs

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS,
            "seed": seed, "workload": workload,
            "params": dataclasses.asdict(WORKLOADS[workload])}


def make_inputs(w: Workload, seed: int, indir: Path) -> dict:
    """Draw n + M rows in one generate() call and split them in row order:
    n training rows, exactly ``w.reference`` of which have at most eta
    missing entries, and the other M rows as new points.

    The rows are independent draws, so fixing the reference count only
    conditions on it; without it the count, and organize's cubic cost with
    it, would change by several percent from seed to seed.
    """
    import numpy as np
    from expertmap import synth
    from expertmap.dataset import DataMatrix, save_matrix

    data, truth, clusters = synth.generate(synth.SynthConfig(n_points=w.n + w.new_points,
                                                             seed=seed))
    eta = int(0.1 * data.n_features)           # the pipeline's default threshold
    eligible = (~data.mask).sum(axis=1) <= eta
    ref_rows = np.flatnonzero(eligible)[:w.reference]
    other_rows = np.flatnonzero(~eligible)[:w.n - w.reference]
    if len(ref_rows) + len(other_rows) != w.n:
        raise RuntimeError(f"seed {seed} draws too few rows of one kind for {w}")
    train = np.sort(np.concatenate([ref_rows, other_rows]))
    new = np.setdiff1d(np.arange(data.n_points), train)

    def rows(index):
        return DataMatrix(values=data.values[index], mask=data.mask[index],
                          feature_names=data.feature_names,
                          point_ids=tuple(data.point_ids[i] for i in index),
                          group_of=data.group_of, weight_of=data.weight_of)

    save_matrix(rows(train), indir / "data.csv")
    save_matrix(rows(new), indir / "new_points.csv")
    with open(indir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1,
                   "point_ids": [data.point_ids[i] for i in train],
                   "ground_truth": truth[train].tolist(),
                   "cluster_ids": clusters[train].tolist()}, fh, sort_keys=True)
    return dict(zip(data.point_ids, np.asarray(truth, dtype=float)))


def code_hash() -> str:
    """sha256 over the program and benchmark sources, to key stored hashes."""
    h = hashlib.sha256()
    for base in (SRC / "expertmap", HERE):
        for path in sorted(base.rglob("*.py")):
            if ".work" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# running

def time_setup(env: dict) -> list[float]:
    """Wall time of fresh interpreters importing expertmap.cli (first untimed).

    The wait blocks in waitpid: a wait with a timeout polls every 50 ms and
    would round each time up to that step."""
    cmd = [sys.executable, "-c", "import expertmap.cli"]
    times = []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        code = proc.wait()
        elapsed = time.perf_counter() - start
        watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"import expertmap.cli exited {code}")
        if i > 0:
            times.append(elapsed)
    return times


def run_chain(w: Workload, indir: Path, outdir: Path, names: list[str], trace: bool,
              env: dict, timeout: float, tag: str) -> dict:
    """Run the named stages in a fresh chain.py process; its plan, result and
    stderr files are named ``<tag>.*`` beside outdir."""
    def beside(suffix: str) -> Path:
        return outdir.parent / f"{tag}.{suffix}"

    outdir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(indir / "truth.json", outdir / "truth.json")
    config = {"paths": {"out": str(outdir), "data": str(indir / "data.csv")},
              "net": {"k": w.k_nets, **dict(w.net)}}
    beside("config.json").write_text(json.dumps(config))
    argv = dict(STAGES)
    stages = [{"name": name, "argv": argv[name] + [str(indir / "new_points.csv")]
               if name == "extend" else argv[name]} for name in names]
    plan = {"config": str(beside("config.json")), "stages": stages,
            "pipeline_stages": len(CHAIN), "trace": trace,
            "spans": str(beside("spans.csv.gz"))}
    beside("plan.json").write_text(json.dumps(plan))
    proc = subprocess.run([sys.executable, str(HERE / "chain.py"), str(beside("plan.json")),
                           str(beside("result.json"))], env=env, capture_output=True,
                          text=True, timeout=timeout)
    beside("stderr.txt").write_text(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"chain worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(beside("result.json").read_text())


# ---------------------------------------------------------------------------
# checks

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite_json(node, where: str) -> None:
    if isinstance(node, dict):
        for value in node.values():
            _finite_json(value, where)
    elif isinstance(node, list):
        for value in node:
            _finite_json(value, where)
    elif isinstance(node, float) and not math.isfinite(node):
        raise CheckFailed(f"{where}: non-finite number")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name}: empty")
    return rows[0], rows[1:]


def check_artifact(path: Path) -> int | None:
    """Parse one artifact and require finite numbers; returns a CSV's row count.

    In a CSV the first column is an id and every other non-empty cell must be
    a finite number (an empty cell is a missing value)."""
    if path.suffix == ".csv":
        header, rows = read_csv(path)
        for r, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise CheckFailed(f"{path.name}: row {r} has {len(row)} fields")
            for cell in row[1:]:
                if cell == "":
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise CheckFailed(f"{path.name}: row {r}: {cell!r} is not a number") \
                        from None
                if not math.isfinite(value):
                    raise CheckFailed(f"{path.name}: row {r}: non-finite {cell!r}")
        return len(rows)
    if path.suffix == ".json":
        with open(path, "r", encoding="utf-8") as fh:
            _finite_json(json.load(fh), path.name)
        return None
    if path.suffix == ".npy":
        import numpy as np
        if not np.all(np.isfinite(np.load(path))):
            raise CheckFailed(f"{path.name}: non-finite entries")
        return None
    raise CheckFailed(f"{path.name}: unknown artifact type")


def check_chain(result: dict, outdir: Path, new_points: int) -> dict[str, str]:
    """Check one chain's artifacts; returns {artifact: sha256}."""
    hashes = {}
    counts = {}
    for record in result["stages"]:
        if record["exit_code"] != 0:
            continue
        for name in ARTIFACTS[record["stage"]]:
            path = outdir / name
            if not path.is_file():
                raise CheckFailed(f"stage {record['stage']} exited 0 but left no {name}")
            counts[name] = check_artifact(path)
    for path in sorted(outdir.iterdir()):
        if not path.name.endswith(".meta.json"):     # sidecars carry timestamps
            hashes[path.name] = sha256(path)
    if "reference.json" in counts:
        n_ref = len(json.loads((outdir / "reference.json").read_text())["indices"])
        for name in REFERENCE_ROWS:
            if name in counts and counts[name] != n_ref:
                raise CheckFailed(f"{name}: {counts[name]} rows, expected {n_ref}")
    for name in NEW_POINT_ROWS:
        if name in counts and counts[name] != new_points:
            raise CheckFailed(f"{name}: {counts[name]} rows, expected {new_points}")
    return hashes


def compare_hashes(expected: dict, got: dict, what: str) -> None:
    if expected != got:
        diff = sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))
        raise CheckFailed(f"{what}: artifacts differ: {diff}")


# ---------------------------------------------------------------------------
# metrics

def _column(path: Path, name: str) -> tuple[list[str], list[float]]:
    header, rows = read_csv(path)
    k = header.index(name)
    return [row[0] for row in rows], [float(row[k]) for row in rows]


def spearman(ids: list[str], scores: list[float], truth: dict) -> float:
    from scipy.stats import spearmanr
    return float(spearmanr(scores, [truth[i] for i in ids])[0])


def nn_truth_gap(outdir: Path, truth: dict, neighbors: int = 10) -> float:
    """Mean |truth gap| to each point's 10 nearest neighbours in the
    standardized embedding, over the mean gap of all pairs."""
    import numpy as np
    from scipy.spatial.distance import cdist
    header, rows = read_csv(outdir / "std_embedding.csv")
    coords = np.asarray([[float(v) for v in row[1:]] for row in rows])
    g = np.asarray([truth[row[0]] for row in rows])
    dist = cdist(coords, coords)
    np.fill_diagonal(dist, np.inf)
    nn = np.argsort(dist, axis=1, kind="stable")[:, :neighbors]
    gaps = np.abs(g[:, None] - g[None, :])
    n = len(g)
    return float(gaps[np.arange(n)[:, None], nn].mean() / (gaps.sum() / (n * (n - 1))))


def stage_times(results: list[dict], stage: str) -> list[float]:
    """Per chain, the mean time of its calls of the stage.

    A shared host switches between two speeds within seconds; the mean of a
    chain's calls spans both, where the median of single calls jumps between
    them from run to run."""
    return [statistics.fmean(r["wall_s"] for r in result["stages"] if r["stage"] == stage)
            for result in results]


def end_to_end(results: list[dict], setup: list[float], outdir: Path,
               w: Workload, truth: dict) -> dict:
    def med(values):
        return statistics.median(values)
    ids, scores = _column(outdir / "ranking.csv", "f_score")
    new_ids, new_scores = _column(outdir / "extended_ranking.csv", "f_score")
    size = sum(p.stat().st_size for p in outdir.iterdir())
    return {
        "setup_s": med(setup),
        "pipeline_s": med([r["pipeline_s"] for r in results]),
        "organize_s": med(stage_times(results, "organize")),
        "train_s": med(stage_times(results, "train")),
        "extend_pts_per_s": w.new_points / med(stage_times(results, "extend")),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in results]),
        "artifact_mb": size / MB,
        "rank_spearman": spearman(ids, scores, truth),
        "extend_rank_spearman": spearman(new_ids, new_scores, truth),
        "embed_nn_truth_gap": nn_truth_gap(outdir, truth),
    }


def train_gflop(outdir: Path) -> float:
    """Matmul FLOPs of training the kept nets (computed, not timed).

    Per training row and epoch, backprop multiplies 2*m*h1 + 3*h1*h2 + 3*h2
    pairs (forward, then dV, dH2, dW2, dH1, dW1) and each denoising pretrain
    epoch 5*w*h per layer (encode, decode, dD, dH, dW) for layer widths
    (m, h1) and (h1, h2), plus one encoding pass between the two layers.
    """
    import numpy as np
    from expertmap.dataset import load_matrix
    from expertmap.pipeline import load_config
    config = load_config(outdir.parent / f"{outdir.name}.config.json")
    pretrain_epochs = config["net"]["pretrain_epochs"]
    reference = json.loads((outdir / "reference.json").read_text())["indices"]
    d = load_matrix(outdir / "preprocessed.csv")
    n = int(np.count_nonzero(d.mask[reference].all(axis=1)))
    ensemble = json.loads((outdir / "ensemble.json").read_text())
    pairs = 0
    for net in ensemble["nets"]:
        h1, h2, epochs = net["hyper"]["h1"], net["hyper"]["h2"], net["hyper"]["epochs"]
        m = len(net["W1"][0])
        pairs += n * (epochs + 1) * (2 * m * h1 + 3 * h1 * h2 + 3 * h2)
        if pretrain_epochs > 0:
            pairs += n * (pretrain_epochs * 5 * (m * h1 + h1 * h2) + m * h1)
    return 2.0 * pairs / 1e9


def per_layer(traced: dict, untraced: list[dict], outdir: Path) -> dict:
    trace = traced["trace"]
    counters = traced["counters"]
    out: dict[str, float] = {}
    for name, st in trace.items():
        if name.startswith("cli."):
            out[f"{name}_s"] = st["total_s"]
        else:
            out[f"{name}_s"] = st["self_s"]
        out[f"{name}_n"] = st["calls"]
    for record in traced["stages"]:
        out[f"cli.{record['stage']}_peak_mb"] = record["peak_mb"]
    if "pipeline.run_extend_s" in out:
        out["pipeline.run_extend_self_s"] = out.pop("pipeline.run_extend_s")

    attempted = trace.get("netens.init_net", {}).get("calls", 0)
    kept = len(json.loads((outdir / "ensemble.json").read_text())["nets"])
    out["netens.nets_attempted"] = attempted
    out["netens.nets_failed"] = attempted - kept
    out["netens.nets_kept_ratio"] = kept / attempted if attempted else 0.0
    gflop = train_gflop(outdir)
    out["netens.train_gflop"] = gflop
    out["netens.train_gflop_per_s"] = gflop / statistics.median(
        stage_times(untraced, "train"))
    out["netens.ensemble_mb"] = (outdir / "ensemble.json").stat().st_size / MB
    out["pipeline.hashed_mb"] = counters.get("pipeline.hashed_bytes", 0) / MB
    out["dataset.rows_loaded"] = counters.get("dataset.rows_loaded", 0)
    out["validate.bound_violations"] = trace.get(
        "validate.separation_bound_check", {}).get("errors", {}).get("BoundViolation", 0)
    out["trace.overhead_s"] = traced["pipeline_s"] - statistics.median(
        [r["pipeline_s"] for r in untraced])
    return out


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _check(problems: list, fn, *args):
    try:
        return fn(*args)
    except CheckFailed as exc:
        problems.append(str(exc))
        return None


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (result line, detail record)."""
    started = time.perf_counter()

    def time_left() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    w = WORKLOADS[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rundir = WORK / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    indir = rundir / "inputs"
    indir.mkdir(parents=True)
    truth = make_inputs(w, seed, indir)
    env = child_env()
    setup = time_setup(env)

    untraced, problems = [], []
    hashes: dict | None = None
    names = CHAIN if trace else CHAIN + list(w.extra)
    for index in range(max(1, round(seconds / w.chain_s))):
        outdir = rundir / f"chain{index}"
        untraced.append(run_chain(w, indir, outdir, names, False, env, time_left(),
                                  outdir.name))
        got = _check(problems, check_chain, untraced[-1], outdir, w.new_points)
        if hashes is None:
            hashes = got
        elif got is not None:
            _check(problems, compare_hashes, hashes, got, f"{outdir.name} vs chain0")

    traced = None
    if trace:
        outdir = rundir / "traced"
        traced = run_chain(w, indir, outdir, CHAIN, True, env, time_left(), outdir.name)
        got = _check(problems, check_chain, traced, outdir, w.new_points)
        if hashes is not None and got is not None:
            _check(problems, compare_hashes, hashes, got, "traced vs untraced")

    if hashes is not None and not problems:
        stored = WORK / "hashes" / f"{code_hash()}-{workload}-s{seed}.json"
        if stored.exists():
            _check(problems, compare_hashes, json.loads(stored.read_text()), hashes,
                   "this run vs an earlier run of the same code and seed")
        else:
            stored.parent.mkdir(parents=True, exist_ok=True)
            stored.write_text(json.dumps(hashes, indent=1, sort_keys=True))

    chains = untraced + ([traced] if traced else [])
    attempted = sum(len(r["stages"]) for r in chains)
    failed = sum(1 for r in chains for s in r["stages"] if s["exit_code"] != 0)
    e2e, layers = {}, {}
    try:
        e2e = end_to_end(untraced, setup, rundir / "chain0", w, truth)
        if traced is not None:
            layers = per_layer(traced, untraced, rundir / "traced")
    except (OSError, KeyError, ValueError) as exc:    # an artifact a metric needs
        problems.append(f"metrics: {type(exc).__name__}: {exc}")
    computed = layers if trace else e2e
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        problems.append(f"metrics not computed: {missing}")

    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": computed.get(m["name"]), "unit": m["unit"]}
                        for m in wanted}}
    detail = {"environment": environment(workload, seed), "problems": problems,
              "setup_s": setup, "end_to_end": e2e, "per_layer": layers,
              "chains": [{k: r[k] for k in ("stages", "pipeline_s", "peak_rss_mb")}
                         for r in untraced],
              "traced": ({k: traced[k] for k in ("stages", "pipeline_s", "spans", "trace")}
                         if traced is not None else None),
              "artifact_sha256": hashes or {}}
    for path in rundir.iterdir():          # keep the records and spans only
        if path.is_dir():
            shutil.rmtree(path)
    (rundir / "detail.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    return line, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "expertmap" / "cli.py").is_file():
        print(f"error: no expertmap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    line, detail = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
