"""Data-matrix ingestion and preprocessing.

The matrix is N points by m observations with an explicit observed-entry
mask.  Unobserved cells are stored as NaN so that accidental reads are loud;
every statistic here is computed over observed entries only.

Preprocessing (standardize, depolarize, weight) is fit once, by
``preprocess``, into a ``StandardizationParams``; its ``transform`` then maps
both the training points and any new points.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

MISSING_TOKENS = ("", "NA")
DEFAULT_GROUP = "default"


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

    def feature_index(self, name: str) -> int:
        return self.feature_names.index(name)

    def equals(self, other: "DataMatrix") -> bool:
        """Exact equality, treating NaN==NaN in unobserved cells."""
        if self.feature_names != other.feature_names or self.point_ids != other.point_ids:
            return False
        if not np.array_equal(self.mask, other.mask):
            return False
        if not np.array_equal(self.values[self.mask], other.values[other.mask]):
            return False
        return self.group_of == other.group_of and self.weight_of == other.weight_of


@dataclass(frozen=True)
class ReferenceSet:
    """Points with at most ``eta`` unobserved entries, sorted ascending."""

    indices: np.ndarray
    eta: int

    @property
    def n(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PolarityMap:
    """Per-feature sign flips."""

    flip: np.ndarray  # (m,) bool


def _resolve_schema(schema) -> tuple[dict[str, str], dict[str, float]]:
    if schema is None:
        return {}, {}
    if isinstance(schema, (str, Path)):
        with open(schema, "r", encoding="utf-8") as fh:
            schema = json.load(fh)
    groups = dict(schema.get("groups", {}))
    weights = {g: float(w) for g, w in schema.get("weights", {}).items()}
    return groups, weights


def load_matrix(path, schema=None) -> DataMatrix:
    """Load a CSV (header row, first column = point id, missing = '' or 'NA').

    ``schema`` may be a parsed {"groups": ..., "weights": ...} dict or a path
    to a JSON file with that shape.
    """
    groups, weights = _resolve_schema(schema)

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)

    if not rows:
        raise ParseError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 2:
        raise ParseError(f"{path}: header must contain an id column and at least one feature")
    feature_names = tuple(header[1:])
    if len(set(feature_names)) != len(feature_names):
        raise ValidationError(f"{path}: duplicate feature names in header")

    body = rows[1:]
    if not body:
        raise ParseError(f"{path}: no data rows")

    n, m = len(body), len(feature_names)
    values = np.full((n, m), np.nan)
    mask = np.zeros((n, m), dtype=bool)
    ids: list[str] = []
    for r, row in enumerate(body, start=2):  # 1-based, header is line 1
        if len(row) != m + 1:
            raise ParseError(f"{path}: row {r}: expected {m + 1} fields, got {len(row)}")
        ids.append(row[0])
        for k, cell in enumerate(row[1:]):
            if cell in MISSING_TOKENS:
                continue
            try:
                values[r - 2, k] = float(cell)
            except ValueError:
                raise ParseError(f"{path}: row {r}: non-numeric value {cell!r} "
                                 f"in column {feature_names[k]!r}") from None
            mask[r - 2, k] = True

    if len(set(ids)) != len(ids):
        seen, dups = set(), []
        for pid in ids:
            if pid in seen:
                dups.append(pid)
            seen.add(pid)
        raise ValidationError(f"{path}: duplicate point ids: {sorted(set(dups))}")

    group_of = {f: groups.get(f, DEFAULT_GROUP) for f in feature_names}
    weight_of = dict(weights)
    for g in set(group_of.values()):
        weight_of.setdefault(g, 1.0)

    return DataMatrix(values=values, mask=mask, feature_names=feature_names,
                      point_ids=tuple(ids), group_of=group_of, weight_of=weight_of)


def save_matrix(d: DataMatrix, path, id_column: str = "point_id") -> None:
    """Emit the same CSV dialect load_matrix reads; round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_column, *d.feature_names])
        for i, pid in enumerate(d.point_ids):
            row = [pid]
            for k in range(d.n_features):
                row.append(repr(float(d.values[i, k])) if d.mask[i, k] else "")
            writer.writerow(row)


def _pairwise_complete_covariance(values: np.ndarray, mask: np.ndarray,
                                  min_support: int = 3) -> np.ndarray:
    """Feature covariance over jointly observed rows; pairs with joint
    support below ``min_support`` fall back to 0."""
    filled = np.where(mask, values, 0.0)
    msk = mask.astype(float)

    counts = msk.T @ msk                      # joint support sizes
    sums = filled.T @ msk                     # sums[j, k] = sum of x_j over joint support with k
    prods = filled.T @ filled                 # sum of x_j * x_k over joint support

    ok = counts >= min_support
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


def depolarize(values: np.ndarray, mask: np.ndarray) -> PolarityMap:
    """The flips that sign-align all features with the top principal loading.

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
    return PolarityMap(flip=_fix_sign(eigvecs[:, -1]) < 0.0)


def select_reference(d: DataMatrix, eta: int) -> ReferenceSet:
    """All points with at most ``eta`` unobserved entries."""
    if not 0 <= eta <= d.n_features:
        raise ValidationError(f"eta must be in [0, {d.n_features}], got {eta}")
    missing = d.missing_counts()
    indices = np.flatnonzero(missing <= eta)
    if len(indices) == 0:
        raise ValidationError(f"no point has <= {eta} missing entries "
                              f"(minimum observed is {int(missing.min())}); increase eta")
    return ReferenceSet(indices=indices, eta=eta)


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
            "schema_version": 1,
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


def preprocess(d: DataMatrix) -> tuple[DataMatrix, PolarityMap, StandardizationParams]:
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
    polarity = depolarize(unit.transform(d.values, d.mask), d.mask)
    params = replace(unit, flip=polarity.flip, weights=weights,
                     degenerate=tuple(sorted(degenerate)))
    processed = replace(d, values=params.transform(d.values, d.mask),
                        degenerate=params.degenerate)
    return processed, polarity, params
