"""Data-matrix ingestion and preprocessing, and the artifact file format.

The matrix is N points by m observations with an explicit observed-entry
mask.  Unobserved cells are stored as NaN so that accidental reads are loud;
every statistic here is computed over observed entries only.

This is the one module that writes artifact files: ``write_table`` and
``write_json`` write a whole file, ``staged`` the text of one a stage
streams, each on a temporary file that replaces the artifact only once it
is complete.

Preprocessing (standardize, depolarize, weight) is fit once, by
``preprocess``, into a ``StandardizationParams``; its ``transform`` then maps
both the training points and any new points.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

MISSING_TOKENS = ("", "NA")
DEFAULT_GROUP = "default"
ID_COLUMN = "point_id"            # header of the id column save_matrix writes
# joint observations a feature pair needs for its covariance to count
MIN_SUPPORT = 3
# the version write_json stamps on every JSON artifact
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DataMatrix:
    """Partially observed real matrix plus feature-group metadata.

    values[i, k] is meaningful only where mask[i, k] is True; unobserved
    cells hold NaN.  Every feature belongs to exactly one group and every
    group has a weight (both default-filled at load time).
    """

    values: np.ndarray            # (N, m) float64, NaN where unobserved
    mask: np.ndarray              # (N, m) bool
    feature_names: tuple[str, ...]
    point_ids: tuple[str, ...]
    group_of: dict[str, str]
    weight_of: dict[str, float]
    degenerate: tuple[str, ...] = ()

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def missing_counts(self) -> np.ndarray:
        """Number of unobserved entries per point."""
        return (~self.mask).sum(axis=1)


@dataclass(frozen=True)
class ReferenceSet:
    """Points with at most eta unobserved entries, sorted ascending; eta is
    the threshold ``select_reference`` was given."""

    indices: np.ndarray


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object, "
                              f"not a {type(obj).__name__}")
    return obj


class JsonArtifact(dict):
    """The JSON object of an artifact file: a key it lacks is a ValidationError
    that names the file, the key and the stage that writes the file."""

    def __init__(self, obj: dict, where: str, producer: str):
        super().__init__(obj)
        self.where, self.producer = where, producer

    def __missing__(self, key):
        raise ValidationError(f"{self.where} has no key {key!r}; "
                              f"rerun '{self.producer}' to rewrite it")


def _resolve_schema(schema) -> tuple[dict[str, str], dict[str, float]]:
    if schema is None:
        return {}, {}
    where = "schema"
    if isinstance(schema, (str, Path)):
        where = f"schema file {schema}"
        schema = read_json_object(schema, "schema file")
    groups, weights = schema.get("groups", {}), schema.get("weights", {})
    if not isinstance(groups, dict) or not isinstance(weights, dict):
        raise ValidationError(f"{where}: 'groups' and 'weights' must be JSON objects")
    try:
        return dict(groups), {g: float(w) for g, w in weights.items()}
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: every weight must be a number") from None


def _raise_first_fault(path, rows: list[list[str]], feature_names: tuple[str, ...],
                       first_line: int) -> None:
    """Raise the ParseError for the first ragged row or non-numeric cell in
    file order; ``rows`` must hold one of them and start at line ``first_line``."""
    m = len(feature_names)
    for r, row in enumerate(rows, start=first_line):
        if len(row) != m + 1:
            raise ParseError(f"{path}: row {r}: expected {m + 1} fields, got {len(row)}")
        for k, cell in enumerate(row[1:]):
            if cell in MISSING_TOKENS:
                continue
            try:
                float(cell)
            except ValueError:
                raise ParseError(f"{path}: row {r}: non-numeric value {cell!r} "
                                 f"in column {feature_names[k]!r}") from None


def _parse_rows(path, rows: list[list[str]], feature_names: tuple[str, ...],
                first_line: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, mask) of data rows that start at line ``first_line``."""
    m = len(feature_names)
    if any(len(row) != m + 1 for row in rows):
        _raise_first_fault(path, rows, feature_names, first_line)
    cells = np.array(rows, dtype=object)[:, 1:]
    mask = np.ones(cells.shape, dtype=bool)
    for token in MISSING_TOKENS:
        mask &= cells != token
    cells[~mask] = "nan"
    try:
        # float() of every cell, as an object-to-float cast does it
        return cells.astype(float), mask
    except ValueError:
        _raise_first_fault(path, rows, feature_names, first_line)


@contextlib.contextmanager
def open_csv(path):
    """``path`` opened for csv reading; bytes that are not UTF-8 raise a
    ParseError naming the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None


# Data rows load_matrix parses at a time, so that only one chunk of cells is
# ever held as strings.
PARSE_ROWS = 1024


def iter_matrix(path, rows: int):
    """The data rows of a CSV in load_matrix's dialect, ``rows`` at a time.

    Yields ``(feature_names, ids, values, mask)`` for each chunk: the
    header's feature names, the chunk's point ids and its parsed cells.  A
    chunk's strings are released before it is yielded, so a consumer that
    keeps nothing holds one chunk of floats at a time.  A malformed row
    raises the ParseError of its first fault, with its line number in the
    file.  Once every chunk is out, a file with no data rows raises a
    ParseError and a file whose ids repeat raises a ValidationError listing
    them; so a consumer that must not act on a bad file acts only after the
    generator is exhausted.
    """
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if len(header) < 2:
            raise ParseError(f"{path}: header must contain an id column and at least one feature")
        feature_names = tuple(header[1:])
        if len(set(feature_names)) != len(feature_names):
            raise ValidationError(f"{path}: duplicate feature names in header")

        seen: set[str] = set()
        dups: set[str] = set()
        line = 2                      # 1-based; the header is line 1
        while chunk := list(itertools.islice(reader, rows)):
            values, mask = _parse_rows(path, chunk, feature_names, line)
            ids = [row[0] for row in chunk]
            line += len(chunk)
            del chunk
            for pid in ids:
                if pid in seen:
                    dups.add(pid)
                seen.add(pid)
            yield feature_names, ids, values, mask

    if line == 2:
        raise ParseError(f"{path}: no data rows")
    if dups:
        raise ValidationError(f"{path}: duplicate point ids: {sorted(dups)}")


def load_matrix(path, schema=None) -> DataMatrix:
    """Load a CSV (header row, first column = point id, missing = '' or 'NA').

    ``schema`` may be a parsed {"groups": ..., "weights": ...} dict or a path
    to a JSON file with that shape.

    The rows are parsed PARSE_ROWS at a time by ``iter_matrix``, whose
    errors this raises.
    """
    groups, weights = _resolve_schema(schema)

    ids: list[str] = []
    value_chunks, mask_chunks = [], []
    for feature_names, chunk_ids, values, mask in iter_matrix(path, PARSE_ROWS):
        ids += chunk_ids
        value_chunks.append(values)
        mask_chunks.append(mask)

    group_of = {f: groups.get(f, DEFAULT_GROUP) for f in feature_names}
    weight_of = dict(weights)
    for g in set(group_of.values()):
        weight_of.setdefault(g, 1.0)

    return DataMatrix(values=np.concatenate(value_chunks),
                      mask=np.concatenate(mask_chunks), feature_names=feature_names,
                      point_ids=tuple(ids), group_of=group_of, weight_of=weight_of)


def formatted_cells(values: np.ndarray, mask: np.ndarray):
    """Each row's cells as save_matrix writes them: the repr of an observed
    value, '' for an unobserved one.  Rows are converted to Python floats
    one at a time, so no copy of the whole matrix is made."""
    return ([repr(v) if seen else "" for v, seen in zip(row.tolist(), observed.tolist())]
            for row, observed in zip(values, mask))


@contextlib.contextmanager
def staged(*paths):
    """A text file for each of ``paths``, on ``.NAME.tmp`` beside it.

    Yields the files as a tuple.  When the block exits cleanly each file
    replaces its path; when it raises, every temporary file is removed, so
    each path keeps its previous bytes.
    """
    temps = [Path(p).with_name(f".{Path(p).name}.tmp") for p in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield tuple(stack.enter_context(open(t, "w", encoding="utf-8", newline=""))
                        for t in temps)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    for temp, path in zip(temps, paths):
        os.replace(temp, path)


def write_table(path, header: list[str], rows) -> None:
    """Write the CSV artifact ``path``: the header row, then ``rows``."""
    with staged(path) as (fh,):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj: dict, indent=None) -> None:
    """Write the JSON artifact ``path``: ``obj`` stamped with SCHEMA_VERSION,
    its keys sorted."""
    with staged(path) as (fh,):
        json.dump({**obj, "schema_version": SCHEMA_VERSION}, fh, sort_keys=True,
                  indent=indent)


def save_matrix(d: DataMatrix, path) -> None:
    """Emit the same CSV dialect load_matrix reads; round-trips exactly."""
    write_table(path, [ID_COLUMN, *d.feature_names],
                ([pid, *cells] for pid, cells
                 in zip(d.point_ids, formatted_cells(d.values, d.mask))))


def _pairwise_complete_covariance(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Feature covariance over jointly observed rows; pairs with joint
    support below MIN_SUPPORT fall back to 0."""
    filled = np.where(mask, values, 0.0)
    msk = mask.astype(float)

    counts = msk.T @ msk                      # joint support sizes
    sums = filled.T @ msk                     # sums[j, k] = sum of x_j over joint support with k
    prods = filled.T @ filled                 # sum of x_j * x_k over joint support

    ok = counts >= MIN_SUPPORT
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_j = np.where(counts > 0, sums / counts, 0.0)
        # E[xy] - E[x]E[y], sample-corrected by n/(n-1)
        raw = prods / np.maximum(counts, 1) - mean_j * mean_j.T
        corr = counts / np.maximum(counts - 1, 1)
        cov = np.where(ok, raw * corr, 0.0)
    return 0.5 * (cov + cov.T)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector sign: largest-magnitude entry positive."""
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


def depolarize(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The per-feature flips, a bool array, that sign-align all features
    with the top principal loading.

    The loading is the top eigenvector of the pairwise-complete feature
    covariance (equivalent to the top eigenvector of the covariance of the
    sign-doubled matrix).  Features with negative loadings are flipped so
    that "above the mean" points the same way everywhere; exact zeros keep
    their original polarity.
    """
    cov = _pairwise_complete_covariance(values, mask)
    if not np.all(np.isfinite(cov)):
        raise ValidationError("covariance not computable: non-finite entries")
    if not np.any(cov):
        raise ValidationError("covariance not computable: no feature pair has "
                              "sufficient joint support")
    _, eigvecs = np.linalg.eigh(cov)
    return _fix_sign(eigvecs[:, -1]) < 0.0


def select_reference(d: DataMatrix, eta: int) -> ReferenceSet:
    """All points with at most ``eta`` unobserved entries."""
    if not 0 <= eta <= d.n_features:
        raise ValidationError(f"eta must be in [0, {d.n_features}], got {eta}")
    missing = d.missing_counts()
    indices = np.flatnonzero(missing <= eta)
    if len(indices) == 0:
        raise ValidationError(f"no point has <= {eta} missing entries "
                              f"(minimum observed is {int(missing.min())}); increase eta")
    return ReferenceSet(indices=indices)


@dataclass(frozen=True)
class StandardizationParams:
    """Frozen preprocessing transform, reusable on out-of-sample points."""

    means: np.ndarray
    sds: np.ndarray
    flip: np.ndarray
    weights: np.ndarray
    degenerate: tuple[str, ...] = field(default=())

    def transform(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Apply standardize -> depolarize -> weight with stored parameters."""
        with np.errstate(invalid="ignore"):
            scaled = (values - self.means) / np.where(self.sds > 0, self.sds, 1.0)
        out = np.where(self.sds > 0, scaled, 0.0)
        out[:, self.flip] *= -1.0
        out = out * self.weights
        return np.where(mask, out, np.nan)

    def to_json(self) -> dict:
        return {
            "means": self.means.tolist(),
            "sds": self.sds.tolist(),
            "flip": self.flip.astype(int).tolist(),
            "weights": self.weights.tolist(),
            "degenerate": list(self.degenerate),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StandardizationParams":
        return cls(means=np.asarray(obj["means"], dtype=float),
                   sds=np.asarray(obj["sds"], dtype=float),
                   flip=np.asarray(obj["flip"], dtype=bool),
                   weights=np.asarray(obj["weights"], dtype=float),
                   degenerate=tuple(obj.get("degenerate", ())))


def preprocess(d: DataMatrix) -> tuple[DataMatrix, StandardizationParams]:
    """Fit the preprocessing transform on ``d`` and apply it.

    Per feature: the observed mean and sample sd, the group weight, and the
    sign flip ``depolarize`` fits on the standardized, unweighted matrix.  A
    constant feature, or one with a single observed entry, cannot be scaled:
    it is flagged degenerate and its observed values become 0, so it cannot
    influence affinities downstream.  The returned matrix is
    ``params.transform(d.values, d.mask)``, the call that maps new points.
    """
    m = d.n_features
    means, sds, weights = np.zeros(m), np.zeros(m), np.empty(m)
    degenerate = set(d.degenerate)
    for k, name in enumerate(d.feature_names):
        col = d.values[d.mask[:, k], k]
        if len(col) == 0:
            raise ValidationError(f"feature {name!r} has no observed entries")
        means[k] = col.mean()
        if len(col) >= 2:
            sds[k] = col.std(ddof=1)
        if sds[k] == 0.0:
            degenerate.add(name)
        group = d.group_of[name]
        w = d.weight_of.get(group)
        if w is None:
            raise ValidationError(f"no weight defined for group {group!r}")
        if w <= 0:
            raise ValidationError(f"non-positive weight {w} for group {group!r}")
        weights[k] = w

    unit = StandardizationParams(means=means, sds=sds, flip=np.zeros(m, dtype=bool),
                                 weights=np.ones(m))
    flip = depolarize(unit.transform(d.values, d.mask), d.mask)
    params = replace(unit, flip=flip, weights=weights,
                     degenerate=tuple(sorted(degenerate)))
    processed = replace(d, values=params.transform(d.values, d.mask),
                        degenerate=params.degenerate)
    return processed, params
