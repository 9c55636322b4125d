"""Coupled partition trees, tree-based EMD, and tree-driven imputation.

Both axes of the reference matrix get a hierarchical partition: points are
grouped by affinity, observations by how they co-vary across points, and each
tree refines the affinity used to build the other.  The observation tree also
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


@dataclass(frozen=True)
class TreeConfig:
    depth: int | None = None       # default ceil(log2(n)) - 1
    balance_factor: float = 1.5    # folder size cap = factor * axis/target
    embed_dim: int = 10
    beta: float = 1.0              # EMD level-weight exponent

    def depth_for(self, n: int) -> int:
        d = self.depth if self.depth is not None else max(1, math.ceil(math.log2(n)) - 1)
        # finest level cannot have more folders than members
        return max(1, min(d, int(math.floor(math.log2(n))) + 1)) if n > 1 else 1


def cosine_affinity(omega: ReferenceSet, d: DataMatrix) -> tuple[spectral.Kernel, tuple]:
    """Cosine affinity over jointly observed entries, mapped onto [0, 1].

    Returns the kernel (cosine c becomes (c + 1) / 2, unit diagonal) and the
    flagged pairs.  A pair with empty joint support is a hard error (the
    reference set is supposed to guarantee overlap); a pair where either
    restricted norm is 0 gets cosine 0 and is flagged.
    """
    rows = d.values[omega.indices]
    mask = d.mask[omega.indices]
    filled = np.where(mask, rows, 0.0)
    msk = mask.astype(float)

    support = msk @ msk.T
    n = len(omega.indices)
    off_diag = ~np.eye(n, dtype=bool)
    if np.any(support[off_diag] < 1):
        j, k = np.argwhere((support < 1) & off_diag)[0]
        raise ValidationError(f"points {j} and {k} in the reference set share no "
                              "observed entries")

    num = filled @ filled.T
    sq = (filled ** 2) @ msk.T            # |x_j|^2 restricted to supp(x_j) & supp(x_k)
    denom = np.sqrt(sq * sq.T)

    flagged = []
    with np.errstate(invalid="ignore", divide="ignore"):
        entries = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
    zero_norm = (denom <= 0) & off_diag
    if np.any(zero_norm):
        flagged = [tuple(p) for p in np.argwhere(np.triu(zero_norm, 1))]
    entries = np.clip(0.5 * (entries + entries.T), -1.0, 1.0)
    kernel = 0.5 * (entries + 1.0)
    np.fill_diagonal(kernel, 1.0)
    return spectral.Kernel(entries=kernel), tuple(flagged)


def _balanced_agglomerate(coords: np.ndarray, depth: int, balance_factor: float):
    """Bottom-up average-linkage merging with ~dyadic size targets.

    Returns partitions at folder counts 2^(depth-1), ..., 2, 1 (finest
    first).  Each merge joins the active pair of minimum average linkage
    among those whose merged size fits under the cap, ceil(balance_factor *
    n / target) and at least 2, doubled while no pair fits.  Ties within
    1e-12 break on the smallest sorted pair of first members, and the band
    is chained: scanning pairs in ascending linkage (row-major among equal
    values), an accepted tie moves the reference linkage up to its own, so
    the band can reach 1e-12 past each winner in turn.

    Cost: O(n) per merge plus O(n^2) per cap change.  The eligible linkages
    (upper triangle; inf where a folder is gone or the pair is over the cap)
    and each row's minimum are updated from the merged pair's row and column
    alone.  Selection scans only the pairs within a window of the global
    minimum, stable-sorted as in a sort of all eligible pairs.  The trees
    are byte-identical to that full sort only if the chained band is
    replayed exactly, and a chain can pass any fixed window; so when the scan
    reaches the window's end without leaving the band, the window widens to
    the current winner + 1e-12 and the scan repeats.
    """
    if not np.all(np.isfinite(coords)):
        raise InternalError("agglomeration needs finite coordinates")
    n = coords.shape[0]
    dist = spectral.exact_distances(coords, "euclidean")
    np.fill_diagonal(dist, np.inf)

    folders: list[tuple[int, ...] | None] = [(i,) for i in range(n)]
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    targets = [2 ** (l - 1) for l in range(depth, 0, -1)]
    targets = [t for t in targets if t <= n]

    snapshots = []
    count = n
    for target in targets:
        cap = max(2.0, math.ceil(balance_factor * n / target))
        linkage, low, low_at = _eligible_linkage(dist, sizes, active, cap)
        while count > target:
            pair = _select_pair(linkage, low, low_at, folders)
            while pair is None:
                cap *= 2.0
                linkage, low, low_at = _eligible_linkage(dist, sizes, active, cap)
                pair = _select_pair(linkage, low, low_at, folders)
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
            active[j] = False
            count -= 1

            fits = active & (sizes + sizes[i] <= cap)
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
        part = sorted((f for f, alive in zip(folders, active) if alive and f is not None),
                      key=lambda f: f[0])
        snapshots.append(tuple(part))
    return snapshots


def _eligible_linkage(dist, sizes, active, cap):
    """Upper-triangle linkages of active pairs that fit under the cap, inf
    elsewhere; with each row's minimum and a column that attains it."""
    fits = np.triu(active[:, None] & active[None, :]
                   & (sizes[:, None] + sizes[None, :] <= cap), 1)
    linkage = np.where(fits, dist, np.inf)
    low_at = linkage.argmin(axis=1)
    return linkage, linkage[np.arange(len(low_at)), low_at], low_at


def _select_pair(linkage, low, low_at, folders):
    """The pair the chained-tie scan of _balanced_agglomerate picks; None if none fits.

    When one row's minimum lies in the first band and no other entry of
    that row does, that minimum is the only pair in the band and wins.
    """
    window = low.min() + 1e-12
    if not np.isfinite(window):
        return None
    rows = np.flatnonzero(low <= window)
    if len(rows) == 1 and np.count_nonzero(linkage[rows[0]] <= window) == 1:
        return rows[0], low_at[rows[0]]
    while True:
        block = linkage[rows]
        r, c = np.nonzero(block <= window)                 # row-major, as the full scan
        vals = block[r, c]
        best = None
        best_d = np.inf
        best_key = None
        for o in np.argsort(vals, kind="stable"):
            a, b = rows[r[o]], c[o]
            d = vals[o]
            if d > best_d + 1e-12 and best is not None:
                return best
            key = tuple(sorted((folders[a][0], folders[b][0])))
            if best is None or d < best_d - 1e-12 or (abs(d - best_d) <= 1e-12 and key < best_key):
                best, best_d, best_key = (a, b), d, key
        if best_d + 1e-12 <= window:       # the next pair lies past the band
            return best
        window = best_d + 1e-12
        rows = np.flatnonzero(low <= window)


def build_partition_tree(kernel: spectral.Kernel, cfg: TreeConfig | None = None,
                         axis: str = "points") -> PartitionTree:
    """Diffusion-embed the kernel, then agglomerate into a ~dyadic tree."""
    cfg = cfg or TreeConfig()
    n = kernel.size
    depth = cfg.depth_for(n)
    if depth == 1 or n == 1:
        return PartitionTree(axis=axis, levels=((tuple(range(n)),),))

    q = max(1, min(cfg.embed_dim, n - 1))
    emb = spectral.diffusion_embed(kernel, d=q, t=1.0)
    snapshots = _balanced_agglomerate(emb.coordinates, depth, cfg.balance_factor)

    levels = tuple(reversed(snapshots))        # root first
    if len(levels[0]) != 1:                    # degenerate guard
        levels = ((tuple(range(n)),),) + levels
    return PartitionTree(axis=axis, levels=levels)


def _folder_stats(tree: PartitionTree, vectors: np.ndarray, beta: float):
    """NaN-aware folder means and EMD weights for a batch of vectors.

    Returns (means, weights): means is (n_vectors, total_folders) with NaN
    where a folder has no observed entries; weights carry the
    2^(beta*(l-L)) * |folder| factor per folder column.
    """
    n_vec, width = vectors.shape
    if width != tree.size:
        raise ValidationError(f"vector length {width} does not match tree axis {tree.size}")
    obs = np.isfinite(vectors)
    filled = np.where(obs, vectors, 0.0)

    means_blocks = []
    weights = []
    L = tree.depth
    for l in range(1, L + 1):
        folders = tree.folders_at(l)
        ind = tree.indicator(l)
        sums = filled @ ind
        counts = obs.astype(float) @ ind
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1.0), np.nan)
        means_blocks.append(means)
        level_w = 2.0 ** (beta * (l - L))
        weights.extend(level_w * len(folder) for folder in folders)
    return np.concatenate(means_blocks, axis=1), np.asarray(weights)


def emd_distance_matrix(tree: PartitionTree, vectors: np.ndarray,
                        beta: float = 1.0) -> np.ndarray:
    """All pairwise tree-EMD distances; vectors must be complete (no NaN)."""
    if not np.all(np.isfinite(vectors)):
        raise ValidationError("emd_distance_matrix requires complete vectors; impute first")
    means, weights = _folder_stats(tree, vectors, beta)
    return spectral.exact_distances(means * weights, "cityblock")


def emd_affinity(tree: PartitionTree, vectors: np.ndarray, beta: float = 1.0) -> spectral.Kernel:
    """exp(-d_EMD / eps) with eps = median nonzero pairwise distance."""
    dist = emd_distance_matrix(tree, vectors, beta)
    nonzero = dist[dist > 0]
    eps = float(np.median(nonzero)) if nonzero.size else 1.0
    return spectral.exp_kernel(dist / eps, {})


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
        ind = tree.indicator(level)
        sums = filled @ ind
        counts = obs.astype(float) @ ind
        folder_of = tree.folder_of(level)
        cell_counts = counts[:, folder_of]
        with np.errstate(invalid="ignore", divide="ignore"):
            cell_means = sums[:, folder_of] / np.maximum(cell_counts, 1.0)
        fill_here = remaining & (cell_counts > 0)
        out[fill_here] = cell_means[fill_here]
        remaining &= ~fill_here
    if remaining.any():
        raise InternalError("imputation left unfilled entries despite observed data")
    return out


def coupled_refine(omega: ReferenceSet, d: DataMatrix, iters: int = 2,
                   cfg: TreeConfig | None = None):
    """Alternate point/observation trees, refining affinities with tree EMD.

    Each round: points tree from the current point affinity, observation
    EMD affinity (columns imputed against the points tree), observation
    tree, then a fresh point EMD affinity (rows imputed against the
    observation tree).  Runs a fixed number of rounds, no convergence test.
    """
    if iters < 1:
        raise ValidationError(f"iters must be >= 1, got {iters}")
    cfg = cfg or TreeConfig()

    rows = d.values[omega.indices]
    a_pts, _ = cosine_affinity(omega, d)

    points_tree = obs_tree = None
    for _ in range(iters):
        points_tree = build_partition_tree(a_pts, cfg, axis="points")
        cols = impute_matrix(rows.T, points_tree)          # observations over points
        a_obs = emd_affinity(points_tree, cols, cfg.beta)
        obs_tree = build_partition_tree(a_obs, cfg, axis="observations")
        full_rows = impute_matrix(rows, obs_tree)
        a_pts = emd_affinity(obs_tree, full_rows, cfg.beta)

    return points_tree, obs_tree, a_pts
