"""Run a list of expertmap CLI stages in this fresh interpreter and time them.

Usage: python3 perfbench/chain.py PLAN.json RESULT.json

The plan (written by run.py) names the config file, the stage argument
lists, how many leading stages make up the chain and whether to trace.
Every stage is one ``expertmap.cli.main`` call.  The result JSON records
each stage's exit code, wall time and the class of the exception that made
it fail, the chain's wall time and the process's peak RSS.  With tracing
on, wrappers from tracer.py time every layer function named in LAYERS, a
sampling thread gives each stage's peak RSS, and the spans are written to
the plan's ``spans`` path.

The stage peaks are sampled rather than taken from tracemalloc because
tracemalloc tripled the traced time of allocation-heavy stages (CSV and JSON
parsing) and so skewed every layer's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import resource
import sys
import threading
import time

from tracer import Tracer

MB = float(2 ** 20)
RSS_PERIOD_S = 0.005

# The pipeline entry points behind the CLI subcommands.  They are watched in
# every run, traced or not, only to record the class of a failing stage's
# exception before cli.main turns it into an exit code.
STAGE_FUNCTIONS = ("run_preprocess", "run_organize", "run_pseudopoints_export",
                   "run_pseudopoints_import", "run_pseudopoints_auto", "run_train",
                   "run_embed", "run_standardize", "run_extend", "run_validate",
                   "run_report")

# module -> public functions whose spans the traced run records
LAYERS = {
    "netens": ("init_net", "pretrain_autoencoder", "train_backprop",
               "loss_and_gradients", "forward_batch", "sigmoid", "representation",
               "ensemble_rank", "save_ensemble", "load_ensemble"),
    "cogeometry": ("cosine_affinity", "build_partition_tree", "emd_affinity",
                   "impute_matrix"),
    "spectral": ("diffusion_embed", "gaussian_kernel", "markov_normalize",
                 "nystrom_extend"),
    "whiten": ("local_moments", "whitened_distance_matrix", "standardized_embedding",
               "one_sided_cross_kernel", "extend_standardized"),
    "validate": ("spectral_dimension", "neighborhood_mass", "feature_lipschitz",
                 "affinity_histograms", "nnls_rank", "neighbor_smoothness",
                 "separation_bound_check"),
    "dataset": ("load_matrix", "save_matrix", "preprocess", "select_reference"),
    "expert": ("extract_pseudopoints", "import_labels", "propagate_labels"),
    "pipeline": ("file_hash", "read_embedding", "write_embedding", "run_extend"),
}


def _count_rows(tracer, result, args, kwargs):
    tracer.counters["dataset.rows_loaded"] += result.n_points


def _count_hashed_bytes(tracer, result, args, kwargs):
    tracer.counters["pipeline.hashed_bytes"] += os.path.getsize(args[0])


HOOKS = {"dataset.load_matrix": _count_rows,
         "pipeline.file_hash": _count_hashed_bytes}


def install_layers(tracer: Tracer) -> None:
    for module_name, functions in LAYERS.items():
        module = importlib.import_module(f"expertmap.{module_name}")
        for fn in functions:
            name = f"{module_name}.{fn}"
            tracer.install(module, fn, name, HOOKS.get(name))
    pipeline = importlib.import_module("expertmap.pipeline")
    # only the inline cross kernel of run_extend; other modules' cdist calls
    # stay inside their callers' self time
    tracer.install(pipeline, "cdist", "pipeline.cdist", everywhere=False)
    for method in ("require", "record"):
        tracer.install(pipeline.Workspace, method, f"pipeline.{method}",
                       everywhere=False)


def watch_stage_errors(pipeline, caught: dict) -> None:
    for name in STAGE_FUNCTIONS:
        fn = getattr(pipeline, name)

        def watched(*args, _fn=fn, **kwargs):
            try:
                return _fn(*args, **kwargs)
            except Exception as exc:
                caught.setdefault("error", type(exc).__name__)
                raise
        setattr(pipeline, name, watched)


class RssSampler:
    """Peak resident set size since the last reset, sampled by a thread."""

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._statm = open("/proc/self/statm", "rb", buffering=0)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._peak = self._current()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _current(self) -> int:
        self._statm.seek(0)
        return int(self._statm.read().split()[1]) * self._page

    def _sample(self) -> None:
        while not self._stop.wait(RSS_PERIOD_S):
            with self._lock:
                self._peak = max(self._peak, self._current())

    def reset(self) -> None:
        with self._lock:
            self._peak = self._current()

    def peak_mb(self) -> float:
        with self._lock:
            return max(self._peak, self._current()) / MB

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self._statm.close()


def run_chain(plan: dict) -> dict:
    from expertmap import cli, pipeline

    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        install_layers(tracer)
    caught: dict = {}
    watch_stage_errors(pipeline, caught)
    rss = RssSampler() if tracer is not None else None

    def run_stage(index: int, stage: dict) -> dict:
        caught.clear()
        if tracer is not None:
            tracer.trace_id = index
            rss.reset()
        span = (tracer.span(f"cli.{stage['name']}") if tracer is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        with span:
            code = cli.main(["--config", plan["config"], *stage["argv"]])
        record = {"stage": stage["name"], "exit_code": code,
                  "wall_s": time.perf_counter() - start}
        if code != 0:
            record["error"] = caught.get("error", f"exit code {code}")
        if tracer is not None:
            record["peak_mb"] = rss.peak_mb()
        return record

    chain_start = time.perf_counter()
    stages = []
    for index, stage in enumerate(plan["stages"]):
        stages.append(run_stage(index, stage))
        if index + 1 == plan["pipeline_stages"]:
            pipeline_s = time.perf_counter() - chain_start
    result = {"stages": stages, "pipeline_s": pipeline_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        rss.close()
        result["trace"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        result["spans"] = tracer.write_spans(plan["spans"])
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run_chain(plan)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
