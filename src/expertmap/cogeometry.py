"""Coupled partition trees, tree-based EMD, and tree-driven imputation.

Both axes of the reference matrix get a hierarchical partition, each built
once: points are grouped by their cosine affinity, and observations by the
tree EMD of their values over the points tree.  The observation tree also
drives imputation of missing entries (deepest folder with an observed
sibling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, ReferenceSet, write_json
from .errors import InternalError, ValidationError
from . import spectral


@dataclass(frozen=True)
class PartitionTree:
    """Nested partitions of one axis; level 1 is the root folder.

    ``levels[l-1]`` is level l: a tuple of disjoint, sorted index tuples
    covering the axis, each a subset of exactly one level-(l-1) folder.
    """

    axis: str                                  # "points" | "observations"
    levels: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("tree must have at least one level")
        size = sum(len(f) for f in self.levels[0])
        if len(self.levels[0]) != 1:
            raise ValidationError("level 1 must be a single root folder")
        universe = frozenset(range(size))
        prev = None
        for l, level in enumerate(self.levels, start=1):
            seen: set[int] = set()
            for folder in level:
                if not folder:
                    raise ValidationError(f"empty folder at level {l}")
                if seen.intersection(folder):
                    raise ValidationError(f"overlapping folders at level {l}")
                seen.update(folder)
                if prev is not None and not any(set(folder) <= p for p in prev):
                    raise ValidationError(f"folder at level {l} not nested in level {l-1}")
            if seen != universe:
                raise ValidationError(f"level {l} does not cover the axis")
            prev = [set(f) for f in level]

    @property
    def size(self) -> int:
        return sum(len(f) for f in self.levels[0])

    @property
    def depth(self) -> int:
        return len(self.levels)

    def folders_at(self, level: int) -> tuple[tuple[int, ...], ...]:
        if not 1 <= level <= self.depth:
            raise ValidationError(f"level must be in [1, {self.depth}], got {level}")
        return self.levels[level - 1]

    def indicator(self, level: int) -> np.ndarray:
        """(size, folders) 0/1 matrix: entry [i, j] is 1 when i is in folder j."""
        folders = self.folders_at(level)
        ind = np.zeros((self.size, len(folders)))
        for j, folder in enumerate(folders):
            ind[list(folder), j] = 1.0
        return ind

    def folder_of(self, level: int) -> np.ndarray:
        """Map index -> folder position at the given level."""
        return self.indicator(level).argmax(axis=1)

    def to_json(self) -> dict:
        return {"levels": [[list(f) for f in level] for level in self.levels],
                "axis": self.axis}

    @classmethod
    def from_json(cls, obj: dict) -> "PartitionTree":
        levels = tuple(tuple(tuple(int(i) for i in f) for f in level)
                       for level in obj["levels"])
        return cls(axis=obj["axis"], levels=levels)

    def save(self, path) -> None:
        write_json(path, self.to_json())


def depth_for(n: int, depth: int | None) -> int:
    """The tree depth for an axis of n: ``depth``, or ceil(log2(n)) - 1 when
    None, capped so the finest level has no more folders than members."""
    d = depth if depth is not None else max(1, math.ceil(math.log2(n)) - 1)
    return max(1, min(d, int(math.floor(math.log2(n))) + 1)) if n > 1 else 1


def cosine_affinity(omega: ReferenceSet, d: DataMatrix) -> spectral.Kernel:
    """Cosine affinity over jointly observed entries, mapped onto [0, 1].

    Cosine c becomes (c + 1) / 2, and the diagonal is 1.  A pair with empty
    joint support is a hard error (the reference set is supposed to
    guarantee overlap); a pair where either restricted norm is 0 gets
    cosine 0.
    """
    rows = d.values[omega.indices]
    mask = d.mask[omega.indices]
    filled = np.where(mask, rows, 0.0)
    msk = mask.astype(float)

    support = msk @ msk.T
    np.fill_diagonal(support, 1.0)
    if np.any(support < 1):
        j, k = np.argwhere(support < 1)[0]
        raise ValidationError(f"points {j} and {k} in the reference set share no "
                              "observed entries")
    del support

    sq = (filled ** 2) @ msk.T            # |x_j|^2 restricted to supp(x_j) & supp(x_k)
    denom = sq * sq.T
    del sq
    np.sqrt(denom, out=denom)

    # the cosine, (c + 1) / 2 and the unit diagonal, all in one buffer
    entries = filled @ filled.T
    np.divide(entries, denom, out=entries, where=denom > 0)
    entries[denom <= 0] = 0.0
    del denom
    spectral._symmetrize(entries)
    np.clip(entries, -1.0, 1.0, out=entries)
    entries += 1.0
    entries *= 0.5
    np.fill_diagonal(entries, 1.0)
    return spectral.Kernel(entries=entries)


def _balanced_agglomerate(coords: np.ndarray, depth: int, balance_factor: float):
    """Bottom-up average-linkage merging with ~dyadic size targets.

    Returns partitions at folder counts 2^(depth-1), ..., 2, 1 (finest
    first).  Each merge joins the pair of minimum average linkage among
    those whose merged size fits under the cap, ceil(balance_factor * n /
    target) and at least 2, doubled while no pair fits.  Of the pairs within
    1e-12 of that minimum the first in index order wins; a folder lives at
    the index of its first member, so this is the pair of smallest first
    members.

    Cost: O(n) per merge plus O(n^2) per cap change.  The eligible linkages
    (upper triangle; inf where a folder is gone or the pair is over the cap)
    and each row's minimum are updated from the merged pair's row and column
    alone.
    """
    if not np.all(np.isfinite(coords)):
        raise InternalError("agglomeration needs finite coordinates")
    n = coords.shape[0]
    dist = spectral.exact_distances(coords, "euclidean")
    np.fill_diagonal(dist, np.inf)        # a gone folder's row and column are inf too

    folders: list[tuple[int, ...] | None] = [(i,) for i in range(n)]
    sizes = np.ones(n)
    targets = [2 ** (l - 1) for l in range(depth, 0, -1)]
    targets = [t for t in targets if t <= n]

    snapshots = []
    count = n
    for target in targets:
        cap = max(2.0, math.ceil(balance_factor * n / target))
        linkage, low, low_at = _eligible_linkage(dist, sizes, cap)
        while count > target:
            pair = _select_pair(linkage, low)
            while pair is None:
                cap *= 2.0
                linkage, low, low_at = _eligible_linkage(dist, sizes, cap)
                pair = _select_pair(linkage, low)
            i, j = pair                                  # i < j
            merged = tuple(sorted(folders[i] + folders[j]))
            # Lance-Williams update for average linkage
            ni, nj = sizes[i], sizes[j]
            new_row = (ni * dist[i] + nj * dist[j]) / (ni + nj)
            dist[i, :] = new_row
            dist[:, i] = new_row
            dist[i, i] = np.inf
            dist[j, :] = np.inf
            dist[:, j] = np.inf
            folders[i] = merged
            folders[j] = None
            sizes[i] = ni + nj
            count -= 1

            fits = sizes + sizes[i] <= cap
            linkage[:i, i] = np.where(fits[:i], dist[:i, i], np.inf)
            linkage[i, i + 1:] = np.where(fits[i + 1:], dist[i, i + 1:], np.inf)
            linkage[j, :] = np.inf
            linkage[:, j] = np.inf
            stale = (low_at == i) | (low_at == j)
            stale[[i, j]] = True
            stale = np.flatnonzero(stale)
            low_at[stale] = linkage[stale].argmin(axis=1)
            low[stale] = linkage[stale, low_at[stale]]
            # the weighted mean of two linkages can round below both
            lower = np.flatnonzero(linkage[:i, i] < low[:i])
            low[lower] = linkage[lower, i]
            low_at[lower] = i
        snapshots.append(tuple(f for f in folders if f is not None))
    return snapshots


def _eligible_linkage(dist, sizes, cap):
    """Upper-triangle linkages of the pairs that fit under the cap, inf
    elsewhere; with each row's minimum and a column that attains it."""
    fits = np.triu(sizes[:, None] + sizes[None, :] <= cap, 1)
    linkage = np.where(fits, dist, np.inf)
    low_at = linkage.argmin(axis=1)
    return linkage, linkage[np.arange(len(low_at)), low_at], low_at


def _select_pair(linkage, low):
    """The first pair in index order whose linkage lies within 1e-12 of the
    least; None if none fits."""
    band = low.min() + 1e-12
    if not np.isfinite(band):
        return None
    i = int(np.argmax(low <= band))
    return i, int(np.argmax(linkage[i] <= band))


# diffusion coordinates a tree agglomerates on, and the folder size cap
# (as a multiple of axis size / folder count) of the agglomeration
TREE_EMBED_DIM = 10
BALANCE_FACTOR = 1.5


def build_partition_tree(kernel: spectral.Kernel, depth: int | None,
                         axis: str = "points") -> PartitionTree:
    """Diffusion-embed the kernel, then agglomerate into a ~dyadic tree of
    ``depth_for(kernel.size, depth)`` levels."""
    n = kernel.size
    depth = depth_for(n, depth)
    if depth == 1 or n == 1:
        return PartitionTree(axis=axis, levels=((tuple(range(n)),),))

    q = max(1, min(TREE_EMBED_DIM, n - 1))
    emb = spectral.diffusion_embed(kernel, d=q, t=1.0)
    snapshots = _balanced_agglomerate(emb.coordinates, depth, BALANCE_FACTOR)
    return PartitionTree(axis=axis, levels=tuple(reversed(snapshots)))   # root first


def emd_distance_matrix(tree: PartitionTree, vectors: np.ndarray,
                        beta: float = 1.0) -> np.ndarray:
    """All pairwise tree-EMD distances; vectors must be complete (no NaN).

    Each vector becomes its folder means at every level l of L, each
    weighted by 2^(beta*(l-L)) * |folder|; the distance is the L1 distance
    of those.
    """
    if not np.all(np.isfinite(vectors)):
        raise ValidationError("emd_distance_matrix requires complete vectors; impute first")
    if vectors.shape[1] != tree.size:
        raise ValidationError(f"vector length {vectors.shape[1]} does not match "
                              f"tree axis {tree.size}")
    L = tree.depth
    blocks = []
    for l in range(1, L + 1):
        sizes = np.array([len(folder) for folder in tree.folders_at(l)], dtype=float)
        means = vectors @ tree.indicator(l)
        means /= sizes
        means *= 2.0 ** (beta * (l - L)) * sizes
        blocks.append(means)
    return spectral.exact_distances(np.concatenate(blocks, axis=1), "cityblock")


def emd_affinity(tree: PartitionTree, vectors: np.ndarray, beta: float = 1.0) -> spectral.Kernel:
    """exp(-d_EMD / eps) with eps = median nonzero pairwise distance."""
    dist = emd_distance_matrix(tree, vectors, beta)
    # the nonzero distances, gathered a row tile at a time into one vector
    # that the median may reorder
    tiles = spectral.row_tiles(dist.shape[0])
    nonzero = np.empty(sum(int(np.count_nonzero(dist[rows] > 0)) for rows in tiles))
    at = 0
    for rows in tiles:
        picked = dist[rows][dist[rows] > 0]
        nonzero[at:at + len(picked)] = picked
        at += len(picked)
    eps = float(np.median(nonzero, overwrite_input=True)) if nonzero.size else 1.0
    del nonzero
    dist /= eps
    return spectral.exp_kernel(dist, {})


def impute_matrix(rows: np.ndarray, tree: PartitionTree) -> np.ndarray:
    """Fill each row's missing entries from the deepest folder with observed siblings.

    ``rows`` are indexed by the tree's axis along columns, NaN marking missing
    entries; a filled value is the mean of the row's observed entries in that
    folder.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != tree.size:
        raise ValidationError(f"rows of shape {rows.shape} do not match tree axis {tree.size}")
    obs = np.isfinite(rows)
    no_obs = ~obs.any(axis=1)
    if no_obs.any():
        raise ValidationError(f"cannot impute rows with no observed entries: "
                              f"{np.flatnonzero(no_obs).tolist()}")
    filled = np.where(obs, rows, 0.0)
    out = rows.copy()
    remaining = ~obs
    for level in range(tree.depth, 0, -1):
        if not remaining.any():
            break
        # means per row and folder, spread over each folder's columns; beside
        # ``filled`` and ``out``, one array as wide as ``rows`` is alive at a time
        ind = tree.indicator(level)
        counts = obs.astype(float) @ ind
        means = filled @ ind
        means /= np.maximum(counts, 1.0)
        folder_of = tree.folder_of(level)
        fill_here = remaining & (counts > 0)[:, folder_of]
        np.copyto(out, means[:, folder_of], where=fill_here)
        remaining &= ~fill_here
    if remaining.any():
        raise InternalError("imputation left unfilled entries despite observed data")
    return out


def coupled_refine(omega: ReferenceSet, d: DataMatrix, depth: int | None, beta: float):
    """Points tree from the cosine affinity, then observation tree from the
    tree EMD (level-weight exponent ``beta``) of the columns imputed against
    the points tree; ``depth`` as in ``build_partition_tree``.

    Each tree is built once.  Returns (points tree, observation tree, the
    cosine affinity the points tree is built from).
    """
    a_pts = cosine_affinity(omega, d)
    points_tree = build_partition_tree(a_pts, depth, axis="points")
    cols = impute_matrix(d.values[omega.indices].T, points_tree)   # observations over points
    a_obs = emd_affinity(points_tree, cols, beta)
    obs_tree = build_partition_tree(a_obs, depth, axis="observations")
    return points_tree, obs_tree, a_pts
