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
import dataclasses
import hashlib
import io
import json
import math
import operator
import shutil
import types
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import cogeometry, expert, netens, spectral, synth as synthmod, validate, whiten
from .dataset import (DataMatrix, JsonArtifact, StandardizationParams,
                      formatted_cells, iter_matrix, load_matrix, preprocess, read_json_object,
                      save_matrix, select_reference, staged, write_json, write_table)
from .errors import ParseError, ValidationError
from .spectral import cdist


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class Key:
    """A config key's default, and what a value of it must be: of the type
    of the default (an int takes no bool, a float an int too), null or of
    ``kind`` where the default is null, or a list of as many such values as
    the default holds unless ``any_length``.  A float, in a list or not, must
    be finite.  A number, or each end of a ``span`` [lo, hi], must be at least
    ``least``, above ``above`` and below ``below``, where given, and a span
    must not end below its start."""
    default: object
    kind: type | None = None
    least: float | None = None
    above: float | None = None
    below: float | None = None
    span: bool = False
    any_length: bool = False

    def check(self, name: str, value) -> None:
        """Refuse ``value`` of the key ``name`` unless it keeps this row."""
        listed = isinstance(self.default, list)
        kind = self.kind or type(self.default[0] if listed else self.default)
        kinds = (int, float) if kind is float else (kind,)
        one, many = {int: ("an integer", "integers"), float: ("a number", "numbers"),
                     str: ("a string", "strings")}[kind]
        if listed:
            count = "" if self.any_length else f"{len(self.default)} "
            wanted = f"a list of {count}{many}"
            ok = (type(value) is list and all(type(v) in kinds for v in value)
                  and (self.any_length or len(value) == len(self.default)))
        else:
            wanted = ("null or " if self.default is None else "") + one
            ok = type(value) in kinds or (value is None and self.default is None)
        if not ok:
            raise ValidationError(f"config key {name!r} must be {wanted}, "
                                  f"not {json.dumps(value)}")
        if value is None:
            return
        # JSON's NaN and Infinity parse to floats of the right type
        if not all(math.isfinite(v) for v in (value if listed else [value]) if type(v) is float):
            raise ValidationError(f"config key {name!r} must be finite, not {json.dumps(value)}")
        bounds = ((self.least, "at least", operator.ge), (self.above, "above", operator.gt),
                  (self.below, "below", operator.lt))
        # tested as "not kept", so that a NaN is refused
        short = [f"{words} {bound}" for v in (value if self.span else [value])
                 for bound, words, kept in bounds if bound is not None and not kept(v, bound)]
        if self.span and (short or not value[0] <= value[1]):
            what = f"have each end {short[0]}" if short else "not end below its start"
            raise ValidationError(f"config key {name!r} must {what}, not {json.dumps(value)}")
        if short:
            raise ValidationError(f"config key {name!r} must be {short[0]}, not {value}")


# Every config key, by its dotted name, and its row
KEYS = {
    "paths.out": Key("out"), "paths.data": Key("data.csv"), "paths.schema": Key(None, str),
    "paths.labels": Key("labels.csv"),
    "eta": Key(None, int),                                 # null: floor(0.1 * m)
    "tree.depth": Key(None, int, least=1), "tree.beta": Key(1.0),
    "pseudopoints.level": Key(6), "pseudopoints.score_min": Key(1.0),
    "pseudopoints.score_max": Key(10.0),
    "net.k": Key(100), "net.epochs": Key(220, least=0), "net.learning_rate": Key(1.0, above=0),
    "net.pretrain_epochs": Key(60, least=0), "net.master_seed": Key(7, least=0),
    # the ranges that train draws each net's hyperparameters from
    "net.h1": Key([30, 70], least=1, span=True), "net.h2": Key([15, 35], least=1, span=True),
    "net.dropout": Key([0.0, 0.3], least=0, below=1, span=True),
    "net.weight_decay": Key([1e-5, 1e-2], above=0, span=True),
    "kernel.r": Key(10, least=1),
    "embedding.d": Key(8), "embedding.t": Key(1.0),
    "whiten.k": Key(None, int, least=1),
    # synth passes its section to SynthConfig, which checks it; the length of
    # its one tuple, a value per cluster, is set by another field
    **{f"synth.{name}": Key(list(v), any_length=True) if type(v) is tuple else Key(v)
       for name, v in dataclasses.asdict(synthmod.SynthConfig()).items()},
}


def _nested(flat: dict) -> dict:
    """The nested config of ``flat``, dotted keys and their values."""
    cfg: dict = {}
    for name, value in flat.items():
        *sections, leaf = name.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
    return cfg


DEFAULT_CONFIG = _nested({name: key.default for name, key in KEYS.items()})


def _leaves(node: dict, prefix: str = ""):
    """(dotted key, value) of each leaf that ``node``, a nested config or
    dotted keys and their values, sets; an unknown key, or a section given
    a value that is not an object, is an error."""
    for key, value in node.items():
        name = prefix + key
        if isinstance(value, dict) and value:
            yield from _leaves(value, f"{name}.")
        elif name in KEYS:
            yield name, value
        elif not any(k.startswith(f"{name}.") for k in KEYS):
            raise ValidationError(f"unknown config key {name!r}")
        elif not isinstance(value, dict):
            raise ValidationError(f"config key {name!r} must be an object")


def load_config(path=None, overrides: dict | None = None) -> dict:
    """DEFAULT_CONFIG updated from the config file at ``path``, then from
    ``overrides``, dotted keys and their values, each value checked against
    its key's row of KEYS."""
    cfg = {name: key.default for name, key in KEYS.items()}
    cfg.update(_leaves({} if path is None else read_json_object(path, "config file")))
    cfg.update(_leaves(overrides or {}))
    for name, value in cfg.items():
        KEYS[name].check(name, value)
    lo, hi = cfg["pseudopoints.score_min"], cfg["pseudopoints.score_max"]
    if not lo < hi:
        raise ValidationError(f"config key 'pseudopoints.score_max' must be above "
                              f"pseudopoints.score_min ({lo}), not {hi}")
    return _nested(cfg)


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
    again only when the stage records a new version of it.  What ``read``
    parses outlives the instance, in the process's read memo.
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

    def read(self, name: str, parse, *args):
        """``parse(path, *args)`` of the artifact ``name``, fetched as
        ``require`` does; a ParseError or ValidationError that ``parse``
        raises says which stage to rerun to rewrite the file.

        The value is kept read-only (``_read_only``) in the process's read
        memo, keyed by the sha256 that ``require`` took, ``parse`` itself and
        ``args``, which must be hashable but for a dict, which keys by its
        JSON.  So a later read of the same bytes by the same parser with the
        same arguments, in any stage of this process, returns it without
        opening the file.  The memo holds one value per artifact name, the
        last one parsed; a parse that raises leaves nothing in it.
        """
        path = self.require(name)
        key = (self.inputs[name], parse,
               tuple(json.dumps(a, sort_keys=True) if isinstance(a, dict) else a
                     for a in args))
        held = _PARSED.pop(name, None)       # an older version is freed before the parse
        if held is None or held[0] != key:
            try:
                value = _read_only(parse(path, *args))
            except (ParseError, ValidationError) as exc:
                raise type(exc)(f"{exc}; rerun '{PRODUCER[name]}' to rewrite it") from None
            held = (key, value)
        _PARSED[name] = held
        return held[1]

    def read_json(self, name: str, what: str, parse, *args):
        """``read`` with ``parse(obj, *args)`` of the artifact's JSON object
        ``obj``, a JsonArtifact; ``what`` names the file in errors, and a
        value that ``parse`` cannot convert (a TypeError or ValueError) is a
        ValidationError that names it."""
        return self.read(name, _parse_json, what, parse, *args)


# The read memo of Workspace.read: artifact name -> (key, parsed value).  It
# belongs to the process, not to a Workspace, because each stage makes its
# own Workspace and the values are for the stages after it; its key holds
# every input of the parse, so any Workspace may share it.
_PARSED: dict[str, tuple[tuple, object]] = {}


def _read_only(value):
    """``value``, a fresh parse, made read-only for the read memo, in place
    where it can be: each array in it loses its write flag, each dict
    becomes a read-only view and each list a tuple, within tuples, dicts and
    dataclass fields too."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        return types.MappingProxyType({k: _read_only(v) for k, v in value.items()})
    elif isinstance(value, (list, tuple)):
        return tuple(map(_read_only, value))
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            # setting a frozen field is safe here: no one else holds the value yet
            object.__setattr__(value, f.name, _read_only(getattr(value, f.name)))
    return value


def _parse_json(path, what: str, parse, *args):
    """``parse(obj, *args)`` of the JSON object in ``path``; see
    ``Workspace.read_json``."""
    obj = JsonArtifact(read_json_object(path, what), f"{what} {path}")
    try:
        return parse(obj, *args)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{obj.where} is malformed "
                              f"({type(exc).__name__}: {exc})") from None


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


def _parse_table(path, columns: tuple[str, ...]) -> DataMatrix:
    """The CSV table in ``path``, read by ``load_matrix``.  A missing column
    of ``columns``, those the caller reads by name, and a cell that is not a
    number, an empty one included, are errors that name the file."""
    table = load_matrix(path)
    for column in columns:
        if column not in table.feature_names:
            raise ValidationError(f"{path} has no column {column!r}")
    if not table.mask.all():
        row, col = np.argwhere(~table.mask)[0]
        raise ValidationError(f"{path}: row {row + 2}: no value in column "
                              f"{table.feature_names[col]!r}")
    return table


def _read_table(ws: Workspace, name: str, columns: tuple[str, ...]) -> DataMatrix:
    """The CSV artifact ``name``, parsed by ``_parse_table`` through ``ws.read``."""
    return ws.read(name, _parse_table, columns)


def _embedding_parts(meta: JsonArtifact, coords: tuple[str, ...]):
    """The eigenvalues, their powers lambda^t, t, the bandwidth and the
    standardized flag in an embedding file whose table has the columns
    ``coords``.  A power that is 0 gives no eigenvector back, and is an
    error that names its coordinate."""
    vals = np.asarray(meta["eigenvalues"])
    scale = spectral.signed_power(vals, meta["t"])
    if not scale.all():
        i = int(np.flatnonzero(scale == 0)[0])
        raise ValidationError(f"{meta.where}: coordinate {coords[i]!r} has eigenvalue "
                              f"{float(vals[i])!r}, whose power t = {meta['t']!r} is 0, "
                              "so its eigenvector cannot be recovered")
    return vals, scale, meta["t"], meta.get("bandwidth", {}), meta.get("standardized", False)


def read_embedding(ws: Workspace, name: str) -> tuple[list[str], spectral.Embedding]:
    """The embedding in the artifacts ``name``.csv and ``name``.json; the
    eigenvectors are the stored coordinates over lambda^t."""
    table = _read_table(ws, f"{name}.csv", ())
    vals, scale, t, bandwidth, standardized = ws.read_json(
        f"{name}.json", "embedding file", _embedding_parts, table.feature_names)
    return list(table.point_ids), spectral.Embedding(
        eigenvalues=vals, eigenvectors=table.values / scale[None, :], t=t,
        bandwidth=bandwidth, standardized=standardized)


# ---------------------------------------------------------------------------
# shared loading logic

def _reference(ref: JsonArtifact, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The reference set's row indices and the polarity flips in the
    reference file of a preprocessed matrix of ``n_points`` rows."""
    # the row indices preprocess wrote: whole numbers in ascending order,
    # each a row of preprocessed.csv
    indices = ref["indices"]
    for k, i in enumerate(indices):
        if type(i) is not int:
            raise ValueError(f"index {i!r} at position {k} is not a whole number")
        if not 0 <= i < n_points:
            raise ValueError(f"index {i} at position {k} is outside the "
                             f"{n_points} rows of preprocessed.csv")
        if k and i <= indices[k - 1]:
            raise ValueError(f"index {i} at position {k} does not follow "
                             f"{indices[k - 1]} in ascending order")
    return (np.asarray(indices, dtype=np.int64),
            np.asarray(ref["polarity_flips"], dtype=bool))


def _load_reference(ws: Workspace) -> tuple[DataMatrix, np.ndarray]:
    """The reference rows of the preprocessed data, gathered, and the
    polarity flips, read from preprocessed.csv and reference.json in that
    order."""
    schema = ws.cfg["paths"]["schema"]
    if schema is not None:
        # read here, so that the schema's content, not its path, keys the read
        schema = read_json_object(schema, "schema file")
    d = ws.read("preprocessed.csv", load_matrix, schema)
    indices, flips = ws.read_json("reference.json", "reference file", _reference, d.n_points)
    return d.rows(indices), flips


def _load_tree(ws: Workspace, name: str) -> cogeometry.PartitionTree:
    return ws.read_json(name, "partition tree file", cogeometry.PartitionTree.from_json)


def _reference_rows(ws: Workspace) -> tuple[DataMatrix, cogeometry.PartitionTree,
                                              np.ndarray]:
    """The reference rows, the observation tree and the reference rows
    imputed from that tree, read from preprocessed.csv, reference.json and
    obs_tree.json in that order."""
    ref, _ = _load_reference(ws)
    obs_tree = _load_tree(ws, "obs_tree.json")
    return ref, obs_tree, cogeometry.impute_matrix(ref.values, obs_tree)


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
    return spectral.diffusion_embed(kernel, d=ws.cfg["embedding"]["d"],
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
            rep = netens.representation(e, filled)[0]
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
    raw = load_matrix(src, ws.cfg["paths"]["schema"])

    processed, params = preprocess(raw)
    eta = ws.cfg["eta"]
    if eta is None:
        eta = int(0.1 * raw.n_features)
    indices = select_reference(processed, eta)

    save_matrix(processed, ws.path("preprocessed.csv"))
    write_json(ws.path("scaler.json"), params.to_json())
    write_json(ws.path("reference.json"), {"eta": eta, "indices": indices.tolist(),
                                           "polarity_flips": params.flip.astype(int).tolist()})
    ws.record("preprocess")


def run_organize(ws: Workspace) -> None:
    ref, _ = _load_reference(ws)
    points_tree, obs_tree, affinity = cogeometry.coupled_refine(
        ref, ws.cfg["tree"]["depth"], ws.cfg["tree"]["beta"])
    points_tree.save(ws.path("points_tree.json"))
    obs_tree.save(ws.path("obs_tree.json"))
    np.save(ws.path("affinity.npy"), affinity.entries)
    ws.record("organize")


def _pseudopoints(ws: Workspace):
    ref, flips = _load_reference(ws)
    points_tree = _load_tree(ws, "points_tree.json")
    obs_tree = _load_tree(ws, "obs_tree.json")
    level = min(ws.cfg["pseudopoints"]["level"], points_tree.depth)
    ps = expert.extract_pseudopoints(points_tree, level, ref, obs_tree=obs_tree)
    return ref, flips, points_tree, level, ps


def run_pseudopoints_export(ws: Workspace) -> None:
    """Centroid CSV for the expert, shown in the input data's original signs."""
    _, flips, *_, ps = _pseudopoints(ws)
    expert.export_centroids(ps, ws.path("pseudopoints.csv"), flip=flips)
    # centroid cells no member observes, filled from the observation tree
    ws.record("pseudopoints export",
              {"pseudopoints.csv": {"imputed_cells": len(ps.imputed_cells)}})


def run_pseudopoints_import(ws: Workspace, labels_path) -> None:
    _import_labels(ws, _pseudopoints(ws), labels_path)
    ws.record("pseudopoints import")


def _import_labels(ws: Workspace, loaded, labels_path) -> None:
    """Import step on what ``_pseudopoints`` already loaded."""
    ref, _, points_tree, level, ps = loaded
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
    lf = expert.propagate_labels(scores, points_tree, level, ref)
    write_table(ws.path("label_function.csv"), ["point_id", "g_score", "g_rescaled"],
                _rows(lf.point_ids, np.column_stack((lf.values, lf.rescaled))))
    if labels_file != ws.path("labels.csv"):
        shutil.copyfile(labels_file, ws.path("labels.csv"))


def _truth(truth: JsonArtifact, ref_ids: tuple[str, ...]) -> dict:
    """Point id -> ground truth, from the truth file; it must hold a finite
    number, an int or a float but no bool, for each of ``ref_ids``, the
    reference points' ids."""
    ids, values = truth["point_ids"], truth["ground_truth"]
    if len(ids) != len(values):
        raise ValidationError(f"{truth.where} has {len(ids)} point_ids but "
                              f"{len(values)} ground_truth values")
    by_id = dict(zip(ids, values))
    for pid in ref_ids:
        if pid not in by_id:
            raise ValidationError(f"{truth.where} has no ground truth for reference "
                                  f"point {pid!r}")
        value = by_id[pid]
        if not (type(value) is int or (type(value) is float and math.isfinite(value))):
            raise ValidationError(f"{truth.where}: the ground truth of reference point "
                                  f"{pid!r} is {json.dumps(value)}, not a finite number")
    return by_id


def run_pseudopoints_auto(ws: Workspace) -> None:
    """Label folders from the ground-truth sidecar (synthetic runs only)."""
    loaded = _pseudopoints(ws)
    ref, _, points_tree, level, ps = loaded

    by_id = ws.read_json("truth.json", "truth file", _truth, ref.point_ids)
    gt = np.asarray([by_id[pid] for pid in ref.point_ids])

    lo, hi = ws.cfg["pseudopoints"]["score_min"], ws.cfg["pseudopoints"]["score_max"]
    folder_means = np.array([gt[list(folder)].mean()
                             for folder in points_tree.folders_at(level)])
    span = folder_means.max() - folder_means.min()
    if span > 0:
        # clipped: lo + (hi - lo) need not round to hi, which the import refuses
        scores = np.clip(lo + (folder_means - folder_means.min()) / span * (hi - lo), lo, hi)
    else:
        scores = np.full_like(folder_means, 0.5 * (lo + hi))

    write_table(ws.path("labels.csv"), ["folder_id", "score"],
                ([fid, _fmt(score)] for fid, score in zip(ps.folder_ids, scores)))
    _import_labels(ws, loaded, ws.path("labels.csv"))
    ws.record("pseudopoints auto")


def run_train(ws: Workspace) -> None:
    ref, _, filled = _reference_rows(ws)
    lf = _load_label_function(ws)

    net_cfg = ws.cfg["net"]
    ranges = netens.HyperRanges(h1=tuple(net_cfg["h1"]), h2=tuple(net_cfg["h2"]),
                                dropout=tuple(net_cfg["dropout"]),
                                weight_decay=tuple(net_cfg["weight_decay"]))
    ensemble, record = netens.train_ensemble(
        filled, lf.rescaled, K=net_cfg["k"], hyper_ranges=ranges,
        master_seed=net_cfg["master_seed"], epochs=net_cfg["epochs"],
        learning_rate=float(net_cfg["learning_rate"]), pretrain_epochs=net_cfg["pretrain_epochs"],
        train_rows=ref.mask.all(axis=1), check=_round_check(ws, filled))
    netens.save_ensemble(ensemble, ws.path("ensemble.json"))

    f01 = netens.ensemble_rank(ensemble, filled)
    write_table(ws.path("ranking.csv"), RANKING_HEADER,
                _rows(lf.point_ids, np.column_stack((f01, lf.to_label_scale(f01)))))
    diagnostics = {"nets": [{"index": net.hyper.seed, "final_cost": report.final_cost,
                             "epochs": report.epochs_run, "seconds": seconds}
                            for net, report, seconds in zip(ensemble.nets, record.reports,
                                                            record.seconds)],
                   "retried": list(record.retried), "failed": list(ensemble.failed),
                   "cap": net_cfg["k"], "stopped_at": ensemble.k + len(ensemble.failed),
                   "checks": [{"nets": nets, "overlap": overlap, "seconds": seconds}
                              for (nets, overlap), seconds in zip(record.checks,
                                                                  record.check_seconds)],
                   "workers": record.workers, "blas_threads": netens.blas_threads(),
                   "children_max_rss_mb": record.children_max_rss_mb,
                   "waited_s": record.waited_s}
    ws.record("train", {"ensemble.json": diagnostics})


def run_embed(ws: Workspace) -> None:
    ref, _, filled = _reference_rows(ws)
    ensemble = ws.read("ensemble.json", netens.load_ensemble)
    emb = _diffusion(ws, _kernel(ws, netens.representation(ensemble, filled)[0]))
    write_embedding(ws.path("embedding.csv"), ws.path("embedding.json"), ref.point_ids, emb)
    ws.record("embed")


def run_standardize(ws: Workspace) -> None:
    ids, emb = read_embedding(ws, "embedding")
    kernel = whiten.standardized_kernel(emb, _local_moments(ws, emb), r=ws.cfg["kernel"]["r"])
    std = whiten.standardized_embedding(kernel, d=ws.cfg["embedding"]["d"],
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


@dataclass(frozen=True)
class _ExtendState:
    """The reference state that each block of new points is extended on; a
    helper holds it as netens.helper_state."""
    params: StandardizationParams
    obs_tree: cogeometry.PartitionTree
    ensemble: netens.NetEnsemble
    rep_ref: np.ndarray           # the reference rows' representation
    emb: spectral.Embedding
    std_emb: spectral.Embedding
    lm: whiten.LocalMoments
    lf: expert.LabelFunction


def _extend_block(ids, values, mask, state: _ExtendState | None = None):
    """Extend one block of new points on ``state``, or on netens.helper_state
    in a helper.

    Returns, for the cross kernel and the one-sided one, the largest of the
    block's nearest exponents (see run_extend) and how many of its points
    have one above 1; and the CSV text of the block's rows for each
    extended_*.csv artifact, in STAGES order.
    """
    state = state or netens.helper_state
    new_filled = cogeometry.impute_matrix(state.params.transform(values, mask), state.obs_tree)
    # the exponents d^2 / sigma^2, formed a slice at a time: only a slice's
    # representation is held
    cross = np.empty((len(new_filled), len(state.rep_ref)))
    f01 = np.empty(len(new_filled))
    for rows in _slices(len(new_filled)):
        rep_new, f01[rows] = netens.representation(state.ensemble, new_filled[rows])
        distances = cdist(rep_new, state.rep_ref)
        np.square(distances, out=cross[rows])
        del rep_new, distances
    del new_filled
    cross /= state.emb.bandwidth["value"] ** 2
    coords, nearest_cross = spectral.nystrom_extend(state.emb, cross)
    del cross
    psi, nearest_one_sided = whiten.extend_standardized(state.lm, state.emb, state.std_emb,
                                                        coords)
    texts = []
    for table in (coords, psi, np.column_stack((f01, state.lf.to_label_scale(f01)))):
        text = io.StringIO()
        csv.writer(text).writerows(_rows(ids, table))
        texts.append(text.getvalue())
    nearest = {kind: (e.max(), int(np.count_nonzero(e > 1.0)))
               for kind, e in (("cross", nearest_cross), ("one_sided", nearest_one_sided))}
    return nearest, texts


def run_extend(ws: Workspace, new_points_path) -> None:
    """Impute new rows, extend both embeddings, and rank them.

    The new points are read, and go through, in blocks of EXTEND_BLOCK
    rows.  Each block is transformed, imputed and passed once through the
    ensemble; then its cross kernel on the reference representation, its
    Nystrom coordinates and its standardized extension are formed, and its
    rows are formatted as CSV text (_extend_block), which this process
    appends to the three outputs.

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
    ref, obs_tree, filled = _reference_rows(ws)
    ensemble = ws.read("ensemble.json", netens.load_ensemble)
    _, emb = read_embedding(ws, "embedding")
    _, std_emb = read_embedding(ws, "std_embedding")
    lf = _load_label_function(ws)
    params = ws.read_json("scaler.json", "scaler file", StandardizationParams.from_json)

    state = _ExtendState(params=params, obs_tree=obs_tree, ensemble=ensemble,
                         rep_ref=netens.representation(ensemble, filled)[0], emb=emb,
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

    with staged(*map(ws.path, STAGES["extend"])) as files, contextlib.ExitStack() as stack:
        for fh, header in zip(files, (_coords_header(emb.dim), _coords_header(std_emb.dim),
                                      RANKING_HEADER)):
            csv.writer(fh).writerow(header)
        pool = None
        pending = collections.deque()     # the future of each block in flight

        def write(outcome, texts) -> None:
            for kind, (nearest, count) in outcome.items():
                nearest_max[kind] = np.maximum(nearest_max[kind], nearest)
                beyond[kind] += count
            for fh, text in zip(files, texts):
                fh.write(text)

        for names, ids, values, mask in iter_matrix(new_points_path, EXTEND_BLOCK):
            first_block = n_new == 0
            n_new += len(ids)
            mismatch = names != ref.feature_names
            empty += [pid for pid, seen in zip(ids, mask.any(axis=1).tolist()) if not seen]
            if mismatch or empty:
                continue
            if first_block or workers == 1:
                write(*_extend_block(ids, values, mask, state))
                continue
            if pool is None:
                pool = stack.enter_context(netens.forked_pool(workers, state))
            pending.append(pool.submit(_extend_block, ids, values, mask))
            while len(pending) > workers:
                write(*pending.popleft().result())
        while pending and not (mismatch or empty):
            write(*pending.popleft().result())

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
    ref, _, filled = _reference_rows(ws)
    ensemble = ws.read("ensemble.json", netens.load_ensemble)
    lf = _load_label_function(ws)
    ids, emb = read_embedding(ws, "embedding")

    sections: dict[str, dict] = {}
    tables: dict[str, tuple[list[str], list[list]]] = {}    # name -> (header, rows)

    rep, f01 = netens.representation(ensemble, filled)
    dnn_kernel = _kernel(ws, rep)
    del rep
    euclid_kernel = _kernel(ws, filled)

    # neighborhood concentration under both metrics
    mass_dnn = validate.neighborhood_mass(dnn_kernel)
    mass_euc = validate.neighborhood_mass(euclid_kernel)
    sections["neighborhood_mass"] = {
        "dnn": {"mean": mass_dnn.mean, "sd": mass_dnn.sd},
        "euclidean": {"mean": mass_euc.mean, "sd": mass_euc.sd}}
    tables["neighborhood_mass"] = (["point_id", "dnn_count", "euclid_count"],
                                   [[pid, int(mass_dnn.counts[i]), int(mass_euc.counts[i])]
                                    for i, pid in enumerate(ids)])

    # spectral dimensions; the euclidean kernel serves no other section
    dim_dnn, t_dnn, curve_dnn = validate.spectral_dimension(dnn_kernel)
    dim_euc, t_euc, curve_euc = validate.spectral_dimension(euclid_kernel)
    del euclid_kernel
    sections["spectral_dimension"] = {
        "dnn": {"dim": dim_dnn, "t": t_dnn},
        "euclidean": {"dim": dim_euc, "t": t_euc}}
    n_curve = min(len(curve_dnn), len(curve_euc), 60)
    tables["eigencurve"] = (["index", "dnn", "euclidean"],
                            [[i + 1, _fmt(curve_dnn[i]), _fmt(curve_euc[i])]
                             for i in range(n_curve)])

    # per-feature smoothness in the DNN diffusion space
    features = {name: filled[:, k] for k, name in enumerate(ref.feature_names)}
    features["quality_function"] = lf.values
    table = validate.feature_lipschitz(emb.coordinates, features)
    tables["lipschitz"] = (["feature", "lipschitz_constant"],
                           [[name, _fmt(val)] for name, val in table.rows])
    sections["lipschitz"] = {"quality_function": table.constant("quality_function"),
                             "degenerate": list(table.degenerate)}

    # affinity histograms split by label agreement
    hist = validate.affinity_histograms(dnn_kernel.entries, lf.values)
    tables["histograms"] = (["threshold", "count_unequal", "ratio",
                             "survivors_unequal", "survivors_equal"],
                            [[_fmt(hist.thresholds[i]), int(hist.hist_unequal[i]),
                              _fmt(hist.ratio[i]) if np.isfinite(hist.ratio[i]) else "",
                              int(hist.survivors_unequal[i]), int(hist.survivors_equal[i])]
                             for i in range(len(hist.thresholds))])

    # separation bound on the ensemble-averaged ranking
    scaling = float(np.mean([netens.layer_norm_product(net) for net in ensemble.nets]))
    record = validate.separation_bound_check(f01, lf.rescaled,
                                             layer_norm_product=scaling)
    sections["separation_bound"] = dataclasses.asdict(record)

    # baseline rankings and agreement
    rowsum = validate.row_sum_rank(ref)
    weights, nnls_scores, kkt = validate.nnls_rank(filled, f01)
    f_score = lf.to_label_scale(f01)
    conf = validate.confusion(lf.values, f_score)
    sections["baselines"] = {
        "rowsum_corr_f": float(np.corrcoef(rowsum, f01)[0, 1]),
        "nnls_corr_f": float(np.corrcoef(nnls_scores, f01)[0, 1]),
        "nnls_kkt_residual": kkt,
        "nnls_weights": {name: float(weights[k])
                         for k, name in enumerate(ref.feature_names)
                         if weights[k] > 0}}
    bins = range(validate.CONFUSION_BINS)
    tables["confusion"] = (["initial_quartile"] + [f"final_q{j + 1}" for j in bins],
                           [[i + 1] + [int(conf[i, j]) for j in bins] for i in bins])

    smooth = validate.neighbor_smoothness(dnn_kernel, lf.values)
    sections["neighbor_smoothness"] = {
        "correlation": smooth.correlation if not smooth.degenerate else None,
        "degenerate": smooth.degenerate}

    write_json(ws.path("validation.json"), {"sections": sections}, indent=1)
    for name, (header, rows) in tables.items():
        write_table(ws.path(f"{name}.csv"), header, rows)
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
    ref, _ = _load_reference(ws)
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
              + list(ref.feature_names))
    features = formatted_cells(ref.values, ref.mask)
    rows = ([pid, repr(g), repr(f), *map(repr, coord), *map(repr, std_coord), *feats]
            for pid, g, f, coord, std_coord, feats
            in zip(ids, g_scores, f_scores, coords.tolist(),
                   std_coords.tolist(), features))
    write_table(ws.path("report.csv"), header, rows)
    ws.record("report")
