"""File-based pipeline steps behind the CLI subcommands.

Every step reads versioned artifacts from the output directory, writes new
ones, and records a sidecar with the config hash and the content hashes of
its inputs.  A step refuses to run when a consumed artifact's recorded
inputs no longer hash the same (stale upstream artifact).
Timestamps live only in sidecars so reruns are byte-identical.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import cogeometry, expert, netens, spectral, synth as synthmod, validate, whiten
from .dataset import (DataMatrix, JsonArtifact, ReferenceSet, StandardizationParams,
                      formatted_cells, iter_matrix, load_matrix, preprocess, read_json_object,
                      save_matrix, select_reference, staged, write_json, write_table)
from .errors import ParseError, ValidationError
from .spectral import cdist


# ---------------------------------------------------------------------------
# configuration

DEFAULT_CONFIG = {
    "paths": {"out": "out", "data": "data.csv", "schema": None, "labels": "labels.csv"},
    "eta": None,                      # default floor(0.1 * m)
    "tree": {"depth": None, "beta": 1.0},
    "pseudopoints": {"level": 6, "score_min": 1.0, "score_max": 10.0},
    "net": {"k": 100, "epochs": 220, "learning_rate": 1.0, "pretrain_epochs": 60,
            "master_seed": 7, "h1": [30, 70], "h2": [15, 35],
            "dropout": [0.0, 0.3], "weight_decay": [1e-5, 1e-2]},
    "kernel": {"r": 10},
    "embedding": {"d": 8, "t": 1.0},
    "whiten": {"k": None},
    "synth": {"n_points": 600, "intrinsic_dim": 2, "n_relevant_features": 40,
              "n_noise_features": 20, "n_clusters": 3,
              "cluster_spread_ratios": [1.0, 1.0, 0.1], "missing_rate": 0.1,
              "polarity_flip_rate": 0.15, "label_noise": 0.0, "seed": 7},
}


def merge_config(overrides: dict | None) -> dict:
    """DEFAULT_CONFIG updated from nested overrides; an unknown key is an error."""
    def deep(base, over, prefix):
        out = dict(base)
        for key, value in (over or {}).items():
            if key not in base:
                # of an unknown section, the first key it sets is named
                name = prefix + key
                while isinstance(value, dict) and value:
                    sub, value = next(iter(value.items()))
                    name += f".{sub}"
                raise ValidationError(f"unknown config key {name!r}")
            if isinstance(base[key], dict):
                if not isinstance(value, dict):
                    raise ValidationError(f"config key {prefix + key!r} must be an object")
                out[key] = deep(base[key], value, f"{prefix}{key}.")
            else:
                out[key] = value
        return out
    return deep(DEFAULT_CONFIG, overrides or {}, "")


def load_config(path=None, overrides: dict | None = None) -> dict:
    cfg = {} if path is None else read_json_object(path, "config file")
    cfg = merge_config(cfg)
    if overrides:
        cfg = merge_config_into(cfg, overrides)
    return cfg


def merge_config_into(cfg: dict, overrides: dict) -> dict:
    """A copy of cfg with dotted-key overrides; a key cfg lacks is an error."""
    out = json.loads(json.dumps(cfg))
    for dotted, value in overrides.items():
        node = out
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict) or leaf not in node:
            raise ValidationError(f"unknown config key {dotted!r}")
        node[leaf] = value
    return out


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# artifact store

# Each stage (cli runs it as run_<stage>, spaces as underscores) and the
# artifacts it writes, in the order it records them.
STAGES = {
    "synth": ("data.csv", "truth.json"),
    "preprocess": ("preprocessed.csv", "scaler.json", "reference.json"),
    "organize": ("points_tree.json", "obs_tree.json", "affinity.npy"),
    "pseudopoints export": ("pseudopoints.csv",),
    "pseudopoints import": ("labels.csv", "label_function.csv"),
    "pseudopoints auto": ("labels.csv", "label_function.csv"),
    "train": ("ensemble.json", "ranking.csv"),
    "embed": ("embedding.csv", "embedding.json"),
    "standardize": ("std_embedding.csv", "std_embedding.json"),
    "extend": ("extended_embedding.csv", "extended_std_embedding.csv", "extended_ranking.csv"),
    "validate": ("validation.json", "lipschitz.csv", "neighborhood_mass.csv",
                 "eigencurve.csv", "confusion.csv", "histograms.csv"),
    "report": ("report.csv",),
}
# artifact -> its producer, the first stage that lists it (the last one put in)
PRODUCER = {name: stage for stage, names in reversed(STAGES.items()) for name in names}


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Workspace:
    """Output directory with sidecar bookkeeping for one stage run.

    Make one instance per stage.  It remembers every artifact the stage
    fetched with ``require`` or wrote with ``record``, with the hash it had
    then, and ``record`` lists all of them as the new artifact's inputs.
    Each file is hashed once per stage: when first checked or read, and
    again only when the stage records a new version of it.
    """

    def __init__(self, outdir, cfg: dict):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.cfg_hash = config_hash(cfg)
        self.inputs: dict[str, str] = {}
        self._hashes: dict[str, str] = {}

    def path(self, name: str) -> Path:
        return self.outdir / name

    def sidecar(self, name: str) -> Path:
        return self.outdir / f"{name}.meta.json"

    def _hash(self, name: str) -> str:
        if name not in self._hashes:
            self._hashes[name] = file_hash(self.path(name))
        return self._hashes[name]

    def record(self, stage: str, diagnostics: dict[str, dict] | None = None) -> None:
        """Write the sidecar of each artifact ``stage`` writes, in STAGES
        order; call it after they are written.  ``diagnostics`` maps an
        artifact to the diagnostics its sidecar carries."""
        for name in STAGES[stage]:
            meta = {"config_hash": self.cfg_hash,
                    "created": datetime.now(timezone.utc).isoformat(),
                    "inputs": self.inputs}
            if diagnostics and name in diagnostics:
                meta["diagnostics"] = diagnostics[name]
            write_json(self.sidecar(name), meta, indent=1)
            self.inputs[name] = self._hashes[name] = file_hash(self.path(name))

    def require(self, name: str) -> Path:
        """Fetch an artifact, refusing when it is missing or stale."""
        path = self.path(name)
        if not path.exists():
            raise ValidationError(f"missing artifact {name!r}; run '{PRODUCER[name]}' first")
        meta_path = self.sidecar(name)
        if meta_path.exists():
            meta = read_json_object(meta_path, "sidecar")
            for inp, recorded in meta.get("inputs", {}).items():
                if not self.path(inp).exists():
                    why = "has been removed"
                elif self._hash(inp) != recorded:
                    why = "has changed"
                else:
                    continue
                raise ValidationError(
                    f"artifact {name!r} is stale: its input {inp!r} {why} since "
                    f"it was produced; rerun '{PRODUCER[name]}'")
        self.inputs[name] = self._hash(name)
        return path

    def read(self, name: str, parse):
        """``parse(path)`` of the artifact ``name``, fetched as ``require``
        does; a ParseError or ValidationError that ``parse`` raises says which
        stage to rerun to rewrite the file."""
        path = self.require(name)
        try:
            return parse(path)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{exc}; rerun '{PRODUCER[name]}' to rewrite it") from None

    def read_json(self, name: str, what: str, parse):
        """``read`` with ``parse`` of the artifact's JSON object, a
        JsonArtifact; ``what`` names the file in errors, and a value that
        ``parse`` cannot convert (a TypeError or ValueError) is a
        ValidationError that names it."""
        def parse_object(path):
            obj = JsonArtifact(read_json_object(path, what), f"{what} {path}")
            try:
                return parse(obj)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{obj.where} is malformed "
                                      f"({type(exc).__name__}: {exc})") from None
        return self.read(name, parse_object)


# ---------------------------------------------------------------------------
# small readers/writers

def _fmt(x: float) -> str:
    return repr(float(x))


def _rows(ids, values: np.ndarray):
    """One csv row per id: the id, then its row of ``values``, each float
    written as its repr (the string ``_fmt`` gives)."""
    return ([pid, *map(repr, row)] for pid, row in zip(ids, values.tolist()))


RANKING_HEADER = ["point_id", "f_rescaled", "f_score"]


def _coords_header(dim: int) -> list[str]:
    return ["point_id"] + [f"coord_{i + 1}" for i in range(dim)]


def write_embedding(path_csv, path_json, ids, emb: spectral.Embedding) -> None:
    write_table(path_csv, _coords_header(emb.dim), _rows(ids, emb.coordinates))
    write_json(path_json, {"eigenvalues": emb.eigenvalues.tolist(),
                           "t": emb.t, "bandwidth": emb.bandwidth,
                           "standardized": emb.standardized})


def _read_table(ws: Workspace, name: str, columns: tuple[str, ...]) -> DataMatrix:
    """The CSV artifact ``name``, read by ``load_matrix`` through ``ws.read``.
    A missing column of ``columns``, those the caller reads by name, and a
    cell that is not a number, an empty one included, are errors that name
    the file."""
    def parse(path) -> DataMatrix:
        table = load_matrix(path)
        for column in columns:
            if column not in table.feature_names:
                raise ValidationError(f"{path} has no column {column!r}")
        if not table.mask.all():
            row, col = np.argwhere(~table.mask)[0]
            raise ValidationError(f"{path}: row {row + 2}: no value in column "
                                  f"{table.feature_names[col]!r}")
        return table
    return ws.read(name, parse)


def read_embedding(ws: Workspace, name: str) -> tuple[list[str], spectral.Embedding]:
    """The embedding in the artifacts ``name``.csv and ``name``.json.

    The eigenvectors are the stored coordinates over lambda^t; a coordinate
    whose lambda^t is 0 gives none back, and is an error that names it.
    """
    table = _read_table(ws, f"{name}.csv", ())

    def parse(meta: JsonArtifact) -> spectral.Embedding:
        vals = np.asarray(meta["eigenvalues"])
        scale = spectral.signed_power(vals, meta["t"])
        if not scale.all():
            i = int(np.flatnonzero(scale == 0)[0])
            raise ValidationError(f"{meta.where}: coordinate {table.feature_names[i]!r} has "
                                  f"eigenvalue {float(vals[i])!r}, whose power t = "
                                  f"{meta['t']!r} is 0, so its eigenvector cannot be recovered")
        return spectral.Embedding(eigenvalues=vals, eigenvectors=table.values / scale[None, :],
                                  t=meta["t"], bandwidth=meta.get("bandwidth", {}),
                                  standardized=meta.get("standardized", False))
    return list(table.point_ids), ws.read_json(f"{name}.json", "embedding file", parse)


# ---------------------------------------------------------------------------
# shared loading logic

def _load_preprocessed(ws: Workspace) -> tuple[DataMatrix, ReferenceSet]:
    d = ws.read("preprocessed.csv", lambda path: load_matrix(path, ws.cfg["paths"].get("schema")))

    def parse(ref: JsonArtifact) -> ReferenceSet:
        # the row indices preprocess wrote: whole numbers in ascending order,
        # each a row of preprocessed.csv
        indices = ref["indices"]
        for k, i in enumerate(indices):
            if type(i) is not int:
                raise ValueError(f"index {i!r} at position {k} is not a whole number")
            if not 0 <= i < d.n_points:
                raise ValueError(f"index {i} at position {k} is outside the "
                                 f"{d.n_points} rows of preprocessed.csv")
            if k and i <= indices[k - 1]:
                raise ValueError(f"index {i} at position {k} does not follow "
                                 f"{indices[k - 1]} in ascending order")
        return ReferenceSet(indices=np.asarray(indices, dtype=np.int64))
    omega = ws.read_json("reference.json", "reference file", parse)
    return d, omega


def _load_tree(ws: Workspace, name: str) -> cogeometry.PartitionTree:
    return ws.read_json(name, "partition tree file", cogeometry.PartitionTree.from_json)


def _reference_rows(ws: Workspace) -> tuple[DataMatrix, ReferenceSet,
                                              cogeometry.PartitionTree, np.ndarray]:
    """The preprocessed data, its reference set, the observation tree and
    the reference rows imputed from that tree, read from preprocessed.csv,
    reference.json and obs_tree.json in that order."""
    d, omega = _load_preprocessed(ws)
    obs_tree = _load_tree(ws, "obs_tree.json")
    return d, omega, obs_tree, cogeometry.impute_matrix(d.values[omega.indices], obs_tree)


def _load_label_function(ws: Workspace) -> expert.LabelFunction:
    table = _read_table(ws, "label_function.csv", ("g_score", "g_rescaled"))
    cols = dict(zip(table.feature_names, np.array(table.values.T)))
    values, rescaled = cols["g_score"], cols["g_rescaled"]
    lo = float(values.min())
    hi = float(values.max())
    return expert.LabelFunction(point_ids=table.point_ids, values=values,
                                rescaled=rescaled, degenerate=hi == lo,
                                scale=(lo, hi))


def _kernel(ws: Workspace, rows: np.ndarray) -> spectral.Kernel:
    """The Gaussian kernel on ``rows`` at the bandwidth rule ``kernel.r``."""
    return spectral.gaussian_kernel(rows, r=ws.cfg["kernel"]["r"])


def _diffusion(ws: Workspace, kernel: spectral.Kernel) -> spectral.Embedding:
    """The raw diffusion map of ``kernel`` at ``embedding.d`` and ``embedding.t``."""
    return spectral.diffusion_embed(kernel, d=int(ws.cfg["embedding"]["d"]),
                                    t=float(ws.cfg["embedding"]["t"]))


# train's stopping check: the nearest neighbours it compares, and the mean
# overlap of theirs at which it stops training.
CHECK_NEIGHBOURS = 10
CONVERGED_OVERLAP = 0.95


def _round_check(ws: Workspace, filled: np.ndarray):
    """The check train_ensemble stops on: the mean CHECK_NEIGHBOURS-NN
    overlap of the raw diffusion embeddings of the reference rows by the
    nets kept before a round and by those kept after it, and whether it
    reaches CONVERGED_OVERLAP: whether the round changed fewer than 5% of
    the points' nearest neighbours.

    Each embedding is formed as embed forms embedding.csv, by ``_kernel``
    and ``_diffusion``.  The nets before a round are those after the one
    before it, so each check embeds one ensemble and keeps its embedding for
    the next.
    """
    last: dict[int, np.ndarray] = {}    # net count -> embedding, of the last ensemble

    def embedding(e: netens.NetEnsemble) -> np.ndarray:
        if e.k not in last:
            rep = netens.representation(e, filled)
            coords = _diffusion(ws, _kernel(ws, rep)).coordinates
            last.clear()
            last[e.k] = coords
        return last[e.k]

    def check(earlier: netens.NetEnsemble, current: netens.NetEnsemble) -> tuple[float, bool]:
        overlap = spectral.neighbour_overlap(embedding(earlier), embedding(current),
                                             CHECK_NEIGHBOURS)
        return overlap, overlap >= CONVERGED_OVERLAP
    return check


def _local_moments(ws: Workspace, emb: spectral.Embedding) -> whiten.LocalMoments:
    return whiten.local_moments(emb, k=ws.cfg["whiten"]["k"])


# ---------------------------------------------------------------------------
# pipeline steps

def run_synth(ws: Workspace) -> None:
    cfg = dict(ws.cfg["synth"])
    cfg["cluster_spread_ratios"] = tuple(cfg["cluster_spread_ratios"])
    scfg = synthmod.SynthConfig(**cfg)
    synthmod.emit(scfg, ws.path("data.csv"), ws.path("truth.json"))
    ws.record("synth")


def run_preprocess(ws: Workspace) -> None:
    data_path = ws.cfg["paths"]["data"]
    src = Path(data_path)
    if not src.is_absolute():
        candidate = ws.path(data_path)
        src = candidate if candidate.exists() else src
    if not src.exists():
        raise ValidationError(f"input data file not found: {src}")
    raw = load_matrix(src, ws.cfg["paths"].get("schema"))

    processed, params = preprocess(raw)
    eta = ws.cfg["eta"]
    if eta is None:
        eta = int(0.1 * raw.n_features)
    omega = select_reference(processed, eta)

    save_matrix(processed, ws.path("preprocessed.csv"))
    write_json(ws.path("scaler.json"), params.to_json())
    write_json(ws.path("reference.json"), {"eta": eta, "indices": omega.indices.tolist(),
                                           "polarity_flips": params.flip.astype(int).tolist()})
    ws.record("preprocess")


def run_organize(ws: Workspace) -> None:
    d, omega = _load_preprocessed(ws)
    points_tree, obs_tree, affinity = cogeometry.coupled_refine(
        omega, d, ws.cfg["tree"]["depth"], ws.cfg["tree"]["beta"])
    points_tree.save(ws.path("points_tree.json"))
    obs_tree.save(ws.path("obs_tree.json"))
    np.save(ws.path("affinity.npy"), affinity.entries)
    ws.record("organize")


def _pseudopoints(ws: Workspace):
    d, omega = _load_preprocessed(ws)
    points_tree = _load_tree(ws, "points_tree.json")
    obs_tree = _load_tree(ws, "obs_tree.json")
    level = min(int(ws.cfg["pseudopoints"]["level"]), points_tree.depth)
    ps = expert.extract_pseudopoints(points_tree, level, omega, d, obs_tree=obs_tree)
    return d, omega, points_tree, obs_tree, level, ps


def run_pseudopoints_export(ws: Workspace) -> None:
    """Centroid CSV for the expert, shown in the input data's original signs."""
    *_, ps = _pseudopoints(ws)
    flips = ws.read_json("reference.json", "reference file",
                         lambda ref: np.asarray(ref["polarity_flips"], dtype=bool))
    expert.export_centroids(ps, ws.path("pseudopoints.csv"), flip=flips)
    # centroid cells no member observes, filled from the observation tree
    ws.record("pseudopoints export",
              {"pseudopoints.csv": {"imputed_cells": len(ps.imputed_cells)}})


def run_pseudopoints_import(ws: Workspace, labels_path) -> None:
    _import_labels(ws, _pseudopoints(ws), labels_path)
    ws.record("pseudopoints import")


def _import_labels(ws: Workspace, loaded, labels_path) -> None:
    """Import step on what ``_pseudopoints`` already loaded."""
    d, omega, points_tree, _, level, ps = loaded
    ws.require("pseudopoints.csv")
    labels_path = labels_path or ws.cfg["paths"]["labels"]
    labels_file = Path(labels_path)
    if not labels_file.is_absolute() and not labels_file.exists():
        labels_file = ws.path(labels_path)
    if not labels_file.exists():
        raise ValidationError(
            f"labels file not found: {labels_file}; export pseudopoints, have the "
            "expert fill the score column, then import")
    scores = expert.import_labels(labels_file, ps,
                                  score_min=ws.cfg["pseudopoints"]["score_min"],
                                  score_max=ws.cfg["pseudopoints"]["score_max"])
    lf = expert.propagate_labels(scores, points_tree, level, omega, d)
    write_table(ws.path("label_function.csv"), ["point_id", "g_score", "g_rescaled"],
                _rows(lf.point_ids, np.column_stack((lf.values, lf.rescaled))))
    if labels_file != ws.path("labels.csv"):
        shutil.copyfile(labels_file, ws.path("labels.csv"))


def run_pseudopoints_auto(ws: Workspace) -> None:
    """Label folders from the ground-truth sidecar (synthetic runs only)."""
    loaded = _pseudopoints(ws)
    d, omega, points_tree, _, level, ps = loaded

    def parse(truth: JsonArtifact) -> dict:
        ids, values = truth["point_ids"], truth["ground_truth"]
        if len(ids) != len(values):
            raise ValidationError(f"{truth.where} has {len(ids)} point_ids but "
                                  f"{len(values)} ground_truth values")
        by_id = dict(zip(ids, values))
        missing = [d.point_ids[i] for i in omega.indices if d.point_ids[i] not in by_id]
        if missing:
            raise ValidationError(f"{truth.where} has no ground truth for reference "
                                  f"point {missing[0]!r}")
        return by_id
    by_id = ws.read_json("truth.json", "truth file", parse)
    gt = np.asarray([by_id[d.point_ids[i]] for i in omega.indices])

    lo, hi = ws.cfg["pseudopoints"]["score_min"], ws.cfg["pseudopoints"]["score_max"]
    folder_means = np.array([gt[list(folder)].mean()
                             for folder in points_tree.folders_at(level)])
    span = folder_means.max() - folder_means.min()
    if span > 0:
        scores = lo + (folder_means - folder_means.min()) / span * (hi - lo)
    else:
        scores = np.full_like(folder_means, 0.5 * (lo + hi))

    write_table(ws.path("labels.csv"), ["folder_id", "score"],
                ([fid, _fmt(score)] for fid, score in zip(ps.folder_ids, scores)))
    _import_labels(ws, loaded, ws.path("labels.csv"))
    ws.record("pseudopoints auto")


def run_train(ws: Workspace) -> None:
    d, omega, _, filled = _reference_rows(ws)
    lf = _load_label_function(ws)

    net_cfg = ws.cfg["net"]
    ranges = netens.HyperRanges(h1=tuple(net_cfg["h1"]), h2=tuple(net_cfg["h2"]),
                                dropout=tuple(net_cfg["dropout"]),
                                weight_decay=tuple(net_cfg["weight_decay"]))
    ensemble, record = netens.train_ensemble(
        filled, lf.rescaled, K=int(net_cfg["k"]), hyper_ranges=ranges,
        master_seed=int(net_cfg["master_seed"]), epochs=int(net_cfg["epochs"]),
        learning_rate=float(net_cfg["learning_rate"]),
        pretrain_epochs=int(net_cfg["pretrain_epochs"]),
        train_rows=d.mask[omega.indices].all(axis=1), check=_round_check(ws, filled))
    netens.save_ensemble(ensemble, ws.path("ensemble.json"))

    f01 = netens.ensemble_rank(ensemble, filled)
    write_table(ws.path("ranking.csv"), RANKING_HEADER,
                _rows(lf.point_ids, np.column_stack((f01, lf.to_label_scale(f01)))))
    diagnostics = {"nets": [{"index": net.hyper.seed, "final_cost": report.final_cost,
                             "epochs": report.epochs_run, "seconds": seconds}
                            for net, report, seconds in zip(ensemble.nets, record.reports,
                                                            record.seconds)],
                   "retried": list(record.retried), "failed": list(ensemble.failed),
                   "cap": int(net_cfg["k"]),
                   "stopped_at": ensemble.k + len(ensemble.failed),
                   "checks": [{"nets": nets, "overlap": overlap, "seconds": seconds}
                              for (nets, overlap), seconds in zip(record.checks,
                                                                  record.check_seconds)],
                   "workers": record.workers, "blas_threads": netens.blas_threads(),
                   "children_max_rss_mb": record.children_max_rss_mb,
                   "waited_s": record.waited_s}
    ws.record("train", {"ensemble.json": diagnostics})


def run_embed(ws: Workspace) -> None:
    d, omega, _, filled = _reference_rows(ws)
    ensemble = ws.read("ensemble.json", netens.load_ensemble)
    emb = _diffusion(ws, _kernel(ws, netens.representation(ensemble, filled)))
    ids = [d.point_ids[i] for i in omega.indices]
    write_embedding(ws.path("embedding.csv"), ws.path("embedding.json"), ids, emb)
    ws.record("embed")


def run_standardize(ws: Workspace) -> None:
    ids, emb = read_embedding(ws, "embedding")
    kernel = whiten.standardized_kernel(emb, _local_moments(ws, emb),
                                        r=int(ws.cfg["kernel"]["r"]))
    std = whiten.standardized_embedding(kernel, d=int(ws.cfg["embedding"]["d"]),
                                        t=float(ws.cfg["embedding"]["t"]))
    write_embedding(ws.path("std_embedding.csv"), ws.path("std_embedding.json"), ids, std)
    # reported, never asserted: where the kernel's entries above 1e-12 fall
    # into several components, lambda_1 is 1 to rounding and the first
    # coordinates only contrast the components
    ws.record("standardize", {"std_embedding.json": {
        "kernel_components": validate.component_count(kernel),
        "spectral_gap": 1.0 - float(std.eigenvalues[0])}})


# New points that run_extend reads and takes through the extension at a time.
EXTEND_BLOCK = 1024
# Rows of a block that go through the ensemble and the cross distances at a
# time, so that a block never holds its whole representation.
EXTEND_SLICE = 256


def _slices(rows: int) -> list[slice]:
    """A block of ``rows`` in slices of EXTEND_SLICE rows, the last one
    taking a rest of fewer than EXTEND_SLICE / 2 rows.

    OpenBLAS (0.3.31, Haswell kernels) multiplies a product of fewer than
    ~80 rows by another path, which gave a short last slice other bits of
    the nets' mean output than a pass over the whole block; with full slices
    first and a last one of 128 rows or more, the bits were the same.
    """
    starts = list(range(0, rows, EXTEND_SLICE))
    if len(starts) > 1 and rows - starts[-1] < EXTEND_SLICE // 2:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [rows])]


@contextlib.contextmanager
def _staged_tables(ws: Workspace, headers: dict[str, list[str]]):
    """A text file for each artifact named in ``headers``, its header row
    written, staged by ``dataset.staged``: the artifacts are replaced only
    when the block exits cleanly."""
    with staged(*map(ws.path, headers)) as files:
        files = dict(zip(headers, files))
        for name, header in headers.items():
            csv.writer(files[name]).writerow(header)
        yield files


@dataclass(frozen=True)
class _ExtendState:
    """The reference state that each block of new points is extended on."""
    params: StandardizationParams
    obs_tree: cogeometry.PartitionTree
    ensemble: netens.NetEnsemble
    rep_ref: np.ndarray           # the reference rows' representation
    emb: spectral.Embedding
    std_emb: spectral.Embedding
    lm: whiten.LocalMoments
    lf: expert.LabelFunction


def _extend_block(state: _ExtendState, ids, values, mask, files):
    """Extend one block of new points and write its rows to ``files``, a
    text stream for each extended_*.csv artifact.

    Returns, for the cross kernel and the one-sided one, the largest of the
    block's nearest exponents (see run_extend) and how many of its points
    have one above 1.
    """
    new_filled = cogeometry.impute_matrix(state.params.transform(values, mask), state.obs_tree)
    # the exponents d^2 / sigma^2, formed a slice at a time: only a slice's
    # representation is held
    cross = np.empty((len(new_filled), len(state.rep_ref)))
    f01 = np.empty(len(new_filled))
    for rows in _slices(len(new_filled)):
        rep_new, f01[rows] = netens.ensemble_forward(state.ensemble, new_filled[rows])
        distances = cdist(rep_new, state.rep_ref)
        np.square(distances, out=cross[rows])
        del rep_new, distances
    del new_filled
    cross /= state.emb.bandwidth["value"] ** 2
    coords, nearest_cross = spectral.nystrom_extend(state.emb, cross)
    del cross
    psi, nearest_one_sided = whiten.extend_standardized(state.lm, state.emb, state.std_emb,
                                                        coords)
    csv.writer(files["extended_embedding.csv"]).writerows(_rows(ids, coords))
    csv.writer(files["extended_std_embedding.csv"]).writerows(_rows(ids, psi))
    csv.writer(files["extended_ranking.csv"]).writerows(
        _rows(ids, np.column_stack((f01, state.lf.to_label_scale(f01)))))
    return {kind: (e.max(), int(np.count_nonzero(e > 1.0)))
            for kind, e in (("cross", nearest_cross), ("one_sided", nearest_one_sided))}


def _extend_in_helper(ids, values, mask):
    """_extend_block in a helper, whose state is the _ExtendState: its
    diagnostics and the text of its rows for each artifact it wrote to."""
    files = collections.defaultdict(io.StringIO)
    outcome = _extend_block(netens.helper_state, ids, values, mask, files)
    return outcome, {name: fh.getvalue() for name, fh in files.items()}


def run_extend(ws: Workspace, new_points_path) -> None:
    """Impute new rows, extend both embeddings, and rank them.

    The new points are read, and go through, in blocks of EXTEND_BLOCK
    rows.  Each block is transformed, imputed and passed once through the
    ensemble; then its cross kernel on the reference representation, its
    Nystrom coordinates and its standardized extension are formed, and its
    rows are appended to the three outputs (_extend_block).

    This process reads and parses the blocks, and extends the first one
    itself.  When netens.worker_count() allows more than one process, it
    then forks a pool of that many helpers to extend the rest, and writes
    their rows in file order; otherwise it extends every block itself.  So a
    file of one block never forks, and every layer of the extension runs at
    least once in this process.  At most one block more than there are
    helpers is in flight, so beyond the reference state memory does not
    grow with the number of new points, except for the set of ids the
    duplicate check keeps.

    The outputs are written to temporary files that replace the artifacts
    only once the whole file has gone through, so a failed extend leaves
    the artifacts as they were.  A fault in the new points stops the
    extension but not the reading: the rest of the file is still checked,
    so the error raised is the one a read of the whole file before any
    extension would give.  An error raised while a block is extended, here
    or in a helper, fails extend at once.

    Within a block, the ensemble's forward pass and the cross distances
    run a slice of rows at a time (_slices), each slice filling its rows of
    the block's exponents and mean outputs.  So a block holds the
    representation of one slice, under 1.5 EXTEND_SLICE rows x
    representation width, beside its block x reference exponents.

    The block is a fixed 1024 rows and the slice a fixed 256, not settings:
    the last bits of a BLAS product can depend on the row count of its
    operand, so fixed sizes keep the output bytes independent of anything
    but the input and the BLAS threading, which each helper shares with
    this process.  A file of at most 1024 new points is one block, and
    gives the bytes of extending all its points at once.
    """
    if not Path(new_points_path).is_file():
        raise ValidationError(f"new points file not found: {new_points_path}")
    d, _, obs_tree, filled = _reference_rows(ws)
    ensemble = ws.read("ensemble.json", netens.load_ensemble)
    _, emb = read_embedding(ws, "embedding")
    _, std_emb = read_embedding(ws, "std_embedding")
    lf = _load_label_function(ws)
    params = ws.read_json("scaler.json", "scaler file", StandardizationParams.from_json)

    state = _ExtendState(params=params, obs_tree=obs_tree, ensemble=ensemble,
                         rep_ref=netens.representation(ensemble, filled), emb=emb,
                         std_emb=std_emb, lm=_local_moments(ws, emb), lf=lf)

    workers = netens.worker_count()
    n_new = 0
    mismatch = False
    empty: list[str] = []
    # over the new points, the largest of a point's smallest exponent in each
    # cross kernel, d^2 / sigma^2 in the Gaussian one and q / (2 sigma) in
    # the one-sided one (see whiten), and how many points have it above 1
    nearest_max = {"cross": -np.inf, "one_sided": -np.inf}
    beyond = {"cross": 0, "one_sided": 0}

    def add(outcome) -> None:
        for kind, (nearest, count) in outcome.items():
            nearest_max[kind] = np.maximum(nearest_max[kind], nearest)
            beyond[kind] += count

    headers = {"extended_embedding.csv": _coords_header(emb.dim),
               "extended_std_embedding.csv": _coords_header(std_emb.dim),
               "extended_ranking.csv": RANKING_HEADER}
    with _staged_tables(ws, headers) as files, contextlib.ExitStack() as stack:
        pool = None
        pending = collections.deque()     # the future of each block in flight

        def settle():
            outcome, texts = pending.popleft().result()
            add(outcome)
            for name, text in texts.items():
                files[name].write(text)

        for names, ids, values, mask in iter_matrix(new_points_path, EXTEND_BLOCK):
            first_block = n_new == 0
            n_new += len(ids)
            mismatch = names != d.feature_names
            empty += [pid for pid, seen in zip(ids, mask.any(axis=1).tolist()) if not seen]
            if mismatch or empty:
                continue
            if first_block or workers == 1:
                add(_extend_block(state, ids, values, mask, files))
                continue
            if pool is None:
                pool = stack.enter_context(netens.forked_pool(workers, state))
            pending.append(pool.submit(_extend_in_helper, ids, values, mask))
            while len(pending) > workers:
                settle()
        while pending and not (mismatch or empty):
            settle()

        if mismatch:
            raise ValidationError("new-point features do not match the training data")
        if empty:
            raise ValidationError(f"new points with no observed entry: {empty}")

    # nystrom_extend leaves the coordinates of these eigenvalues at 0
    skipped = {name: np.flatnonzero(e.eigenvalues <= spectral.EIGENVALUE_FLOOR).tolist()
               for name, e in (("embedding", emb), ("std_embedding", std_emb))}
    # a smallest exponent above 1 puts a point beyond one bandwidth of every
    # reference point, where the extension says little
    diagnostics = {"new_points": n_new, "workers": workers if pool else 1,
                   "representation_dim": ensemble.representation_dim,
                   "slice_rows": EXTEND_SLICE, "skipped_coordinates": skipped,
                   "max_nearest_exponent": {kind: float(e)
                                            for kind, e in nearest_max.items()},
                   "beyond_one_bandwidth": beyond}
    ws.record("extend", {"extended_embedding.csv": diagnostics})


def run_validate(ws: Workspace) -> None:
    d, omega, _, filled = _reference_rows(ws)
    ensemble = ws.read("ensemble.json", netens.load_ensemble)
    lf = _load_label_function(ws)
    ids, emb = read_embedding(ws, "embedding")

    report = validate.ValidationReport()

    rep, f01 = netens.ensemble_forward(ensemble, filled)
    dnn_kernel = _kernel(ws, rep)
    del rep
    euclid_kernel = _kernel(ws, filled)

    # neighborhood concentration under both metrics
    mass_dnn = validate.neighborhood_mass(dnn_kernel)
    mass_euc = validate.neighborhood_mass(euclid_kernel)
    report.add_section("neighborhood_mass", {
        "dnn": {"mean": mass_dnn.mean, "sd": mass_dnn.sd},
        "euclidean": {"mean": mass_euc.mean, "sd": mass_euc.sd}})
    report.add_table("neighborhood_mass", ["point_id", "dnn_count", "euclid_count"],
                     [[pid, int(mass_dnn.counts[i]), int(mass_euc.counts[i])]
                      for i, pid in enumerate(ids)])

    # spectral dimensions; the euclidean kernel serves no other section
    dim_dnn, t_dnn, curve_dnn = validate.spectral_dimension(dnn_kernel)
    dim_euc, t_euc, curve_euc = validate.spectral_dimension(euclid_kernel)
    del euclid_kernel
    report.add_section("spectral_dimension", {
        "dnn": {"dim": dim_dnn, "t": t_dnn},
        "euclidean": {"dim": dim_euc, "t": t_euc}})
    n_curve = min(len(curve_dnn), len(curve_euc), 60)
    report.add_table("eigencurve", ["index", "dnn", "euclidean"],
                     [[i + 1, _fmt(curve_dnn[i]), _fmt(curve_euc[i])]
                      for i in range(n_curve)])

    # per-feature smoothness in the DNN diffusion space
    features = {name: filled[:, k] for k, name in enumerate(d.feature_names)}
    features["quality_function"] = lf.values
    table = validate.feature_lipschitz(emb.coordinates, features)
    report.add_table("lipschitz", ["feature", "lipschitz_constant"],
                     [[name, _fmt(val)] for name, val in table.rows])
    report.add_section("lipschitz", {
        "quality_function": table.constant("quality_function"),
        "degenerate": list(table.degenerate)})

    # affinity histograms split by label agreement
    hist = validate.affinity_histograms(dnn_kernel.entries, lf.values)
    report.add_table("histograms", ["threshold", "count_unequal", "ratio",
                                    "survivors_unequal", "survivors_equal"],
                     [[_fmt(hist.thresholds[i]), int(hist.hist_unequal[i]),
                       _fmt(hist.ratio[i]) if np.isfinite(hist.ratio[i]) else "",
                       int(hist.survivors_unequal[i]), int(hist.survivors_equal[i])]
                      for i in range(len(hist.thresholds))])

    # separation bound on the ensemble-averaged ranking
    scaling = float(np.mean([netens.layer_norm_product(net) for net in ensemble.nets]))
    record = validate.separation_bound_check(f01, lf.rescaled,
                                             layer_norm_product=scaling)
    report.add_section("separation_bound", {
        "lhs": record.lhs, "e_neq_g_gap": record.e_neq_g_gap,
        "s_pairs": record.s_pairs, "max_factor": record.max_factor,
        "cost": record.cost, "root_rhs": record.root_rhs, "rhs": record.rhs,
        "rhs_scaled": record.rhs_scaled,
        "holds": record.holds})

    # baseline rankings and agreement
    rowsum = validate.row_sum_rank(d)[omega.indices]
    imputed = DataMatrix(values=filled, mask=np.ones_like(filled, dtype=bool),
                         feature_names=d.feature_names,
                         point_ids=tuple(d.point_ids[i] for i in omega.indices),
                         group_of=d.group_of, weight_of=d.weight_of)
    weights, nnls_scores, kkt = validate.nnls_rank(imputed, f01)
    f_score = lf.to_label_scale(f01)
    conf = validate.confusion(lf.values, f_score)
    report.add_section("baselines", {
        "rowsum_corr_f": float(np.corrcoef(rowsum, f01)[0, 1]),
        "nnls_corr_f": float(np.corrcoef(nnls_scores, f01)[0, 1]),
        "nnls_kkt_residual": kkt,
        "nnls_weights": {name: float(weights[k])
                         for k, name in enumerate(d.feature_names)
                         if weights[k] > 0}})
    bins = range(validate.CONFUSION_BINS)
    report.add_table("confusion", ["initial_quartile"] + [f"final_q{j + 1}" for j in bins],
                     [[i + 1] + [int(conf[i, j]) for j in bins] for i in bins])

    smooth = validate.neighbor_smoothness(dnn_kernel, lf.values)
    report.add_section("neighbor_smoothness", {
        "correlation": smooth.correlation if not smooth.degenerate else None,
        "degenerate": smooth.degenerate})

    report.write(ws.outdir)
    ws.record("validate")


def _join(ws: Workspace, name: str, table_ids, ids) -> np.ndarray:
    """The row of the table ``name`` for each of ``ids``, the embedding's
    point ids.  A table whose ids are not those ids is an error that names
    it and the stage to rerun."""
    row_of = {pid: i for i, pid in enumerate(table_ids)}
    if len(row_of) != len(ids) or any(pid not in row_of for pid in ids):
        raise ValidationError(f"{ws.path(name)}: its point ids are not those of "
                              f"embedding.csv; rerun '{PRODUCER[name]}' to rewrite it")
    return np.array([row_of[pid] for pid in ids], dtype=np.int64)


def run_report(ws: Workspace) -> None:
    """Plot-ready per-point join, by point id, of embeddings, rankings,
    labels and features."""
    d, omega = _load_preprocessed(ws)
    ids, emb = read_embedding(ws, "embedding")
    std_ids, std_emb = read_embedding(ws, "std_embedding")
    lf = _load_label_function(ws)
    ranking = _read_table(ws, "ranking.csv", ("f_score",))
    std_coords = std_emb.coordinates[_join(ws, "std_embedding.csv", std_ids, ids)]
    g_scores = lf.values[_join(ws, "label_function.csv", lf.point_ids, ids)].tolist()
    f_scores = ranking.values[_join(ws, "ranking.csv", ranking.point_ids, ids),
                              ranking.feature_names.index("f_score")].tolist()

    coords = emb.coordinates
    header = (["point_id", "g_score", "f_score"]
              + [f"coord_{i + 1}" for i in range(coords.shape[1])]
              + [f"std_coord_{i + 1}" for i in range(std_coords.shape[1])]
              + list(d.feature_names))
    features = formatted_cells(d.values[omega.indices], d.mask[omega.indices])
    rows = ([pid, repr(g), repr(f), *map(repr, coord), *map(repr, std_coord), *feats]
            for pid, g, f, coord, std_coord, feats
            in zip(ids, g_scores, f_scores, coords.tolist(),
                   std_coords.tolist(), features))
    write_table(ws.path("report.csv"), header, rows)
    ws.record("report")
