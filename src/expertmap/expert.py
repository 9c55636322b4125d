"""Pseudopoint extraction and the expert label round-trip.

Folder centroids at a chosen tree level are exported as a CSV for a human to
score; the scores come back through import_labels and are propagated to every
member point, yielding the scalar function that supervises the net ensemble.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .cogeometry import PartitionTree, impute_matrix
from .dataset import DataMatrix, open_csv, write_table
from .errors import InternalError, ValidationError


@dataclass(frozen=True)
class PseudopointSet:
    """Folder centroids at one tree level, acting as labelable data types."""

    folder_ids: tuple[int, ...]
    centroids: np.ndarray            # (n_folders, m)
    member_counts: tuple[int, ...]
    feature_names: tuple[str, ...]
    imputed_cells: tuple[tuple[int, int], ...] = ()   # (folder_id, feature) pairs


@dataclass(frozen=True)
class LabelFunction:
    """Pointwise propagation of folder scores over the reference set."""

    point_ids: tuple[str, ...]
    values: np.ndarray               # original score scale, folder-constant
    rescaled: np.ndarray             # affine image in [0, 1]
    degenerate: bool = False         # constant scores; rescaled pinned at 0.5
    scale: tuple[float, float] = (0.0, 1.0)   # (min, max) used in the rescale

    def to_label_scale(self, rescaled_values: np.ndarray) -> np.ndarray:
        """Invert the affine rescale back to the original score scale."""
        lo, hi = self.scale
        if self.degenerate:
            return np.full_like(np.asarray(rescaled_values, dtype=float), lo)
        return lo + np.asarray(rescaled_values, dtype=float) * (hi - lo)


def extract_pseudopoints(tree: PartitionTree, level: int, ref: DataMatrix,
                         obs_tree: PartitionTree) -> PseudopointSet:
    """Centroids over observed entries of every folder at ``level``, a
    folder's members being rows of ``ref``, the reference rows.

    A centroid cell that no member observes is filled by imputing the
    partial centroid against the observation tree and flagged.
    """
    folders = tree.folders_at(level)
    rows, mask = ref.values, ref.mask

    centroids = np.empty((len(folders), ref.n_features))
    counts = []
    imputed_cells: list[tuple[int, int]] = []
    for j, folder in enumerate(folders):
        if not folder:
            raise InternalError(f"empty folder {j} at level {level}")
        idx = list(folder)
        sub = np.where(mask[idx], rows[idx], 0.0)
        obs = mask[idx].sum(axis=0)
        with np.errstate(invalid="ignore"):
            centroid = np.where(obs > 0, sub.sum(axis=0) / np.maximum(obs, 1), np.nan)
        holes = np.flatnonzero(obs == 0)
        if len(holes):
            centroid = impute_matrix(centroid[None, :], obs_tree)[0]
            imputed_cells.extend((j, int(k)) for k in holes)
        centroids[j] = centroid
        counts.append(len(folder))

    return PseudopointSet(folder_ids=tuple(range(len(folders))),
                          centroids=centroids, member_counts=tuple(counts),
                          feature_names=ref.feature_names,
                          imputed_cells=tuple(imputed_cells))


def export_centroids(ps: PseudopointSet, path, flip: np.ndarray) -> None:
    """CSV of folder_id, member_count, centroid features, empty score column.

    Centroid values are written with original polarity restored (the
    features ``flip`` marks are negated back) so the signs read naturally
    for the labeler.
    """
    if len(ps.folder_ids) == 0:
        raise ValidationError("cannot export an empty pseudopoint set")
    display = ps.centroids.copy()
    display[:, flip] *= -1.0
    write_table(path, ["folder_id", "member_count", *ps.feature_names, "score"],
                ([fid, ps.member_counts[j], *[repr(float(v)) for v in display[j]], ""]
                 for j, fid in enumerate(ps.folder_ids)))


def import_labels(path, ps: PseudopointSet, score_min: float = 1.0,
                  score_max: float = 10.0) -> dict[int, float]:
    """Read back the score column: one score in [score_min, score_max] per
    folder id, and every folder must carry one, on one row."""
    scores: dict[int, float] = {}
    listed: set[int] = set()
    problems: list[str] = []
    with open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "folder_id" not in reader.fieldnames \
                or "score" not in reader.fieldnames:
            raise ValidationError(f"{path}: need 'folder_id' and 'score' columns")
        for row in reader:
            try:
                fid = int(row["folder_id"])
            except (TypeError, ValueError):
                problems.append(f"folder {row['folder_id']!r}: folder_id is not an integer")
                continue
            raw = (row["score"] or "").strip()
            if fid not in ps.folder_ids:
                problems.append(f"unknown folder {fid}")
                continue
            if fid in listed:
                problems.append(f"folder {fid}: listed more than once")
                continue
            listed.add(fid)
            if not raw:
                continue    # treated as missing below
            try:
                score = float(raw)
            except ValueError:
                problems.append(f"folder {fid}: non-numeric score {raw!r}")
                continue
            if not score_min <= score <= score_max:
                problems.append(f"folder {fid}: score {score} outside "
                                f"[{score_min}, {score_max}]")
                continue
            scores[fid] = score

    missing = [fid for fid in ps.folder_ids if fid not in scores]
    if missing:
        problems.append(f"missing scores for folders {missing}")
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))
    return scores


def propagate_labels(scores: dict[int, float], tree: PartitionTree, level: int,
                     ref: DataMatrix) -> LabelFunction:
    """Assign each reference point, a row of ``ref``, its folder's score;
    rescale into [0, 1].

    ``scores`` must hold a score for every folder at ``level``, as
    ``import_labels`` checks.
    """
    g = np.empty(ref.n_points)
    folder_of = tree.folder_of(level)
    for pos in range(ref.n_points):
        g[pos] = scores[int(folder_of[pos])]

    lo, hi = float(g.min()), float(g.max())
    if hi > lo:
        rescaled = (g - lo) / (hi - lo)
        return LabelFunction(point_ids=ref.point_ids, values=g, rescaled=rescaled,
                             scale=(lo, hi))
    return LabelFunction(point_ids=ref.point_ids, values=g, rescaled=np.full_like(g, 0.5),
                         degenerate=True, scale=(lo, hi))
