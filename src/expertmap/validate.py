"""Internal validation battery: smoothness, concentration, bounds, baselines.

Nothing here plots; every check returns plain records that the pipeline can
serialize for external tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .errors import BoundViolation, ValidationError
from .spectral import (Kernel, _conjugate, markov_normalize, nearest_neighbours, row_tiles,
                       signed_power)

# powered nontrivial eigenvalues above this count toward the spectral dimension
DIMENSION_CUTOFF = 0.01
# lowest bin edge and threshold of the affinity histograms
AFFINITY_FLOOR = 0.1
# bins of the affinity histograms, between AFFINITY_FLOOR and 1
HISTOGRAM_BINS = 18
# score-range bins per ranking in the confusion table
CONFUSION_BINS = 4
# nearest neighbours of each point whose slopes the Lipschitz table takes
LIPSCHITZ_NEIGHBORS = 10
# rounding allowance of the separation bound
SEPARATION_SLACK = 1e-9


# ---------------------------------------------------------------------------
# smoothness of features against an embedding

@dataclass(frozen=True)
class LipschitzTable:
    rows: tuple[tuple[str, float], ...]      # sorted ascending by constant
    degenerate: tuple[str, ...] = ()

    def constant(self, name: str) -> float:
        for n, value in self.rows:
            if n == name:
                return value
        raise KeyError(name)


def feature_lipschitz(coords: np.ndarray, features: dict[str, np.ndarray]) -> LipschitzTable:
    """Largest |f(x)-f(y)| / ||x-y|| over neighbor pairs, per feature.

    Features are normalized by their range first; the estimate is restricted
    to each point's LIPSCHITZ_NEIGHBORS nearest neighbors (the all-pairs max
    is dominated by near-duplicate points).
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    kk = min(LIPSCHITZ_NEIGHBORS, n - 1)
    near, gaps = nearest_neighbours(coords, kk, exclude_self=True)
    pair_i = np.repeat(np.arange(n), kk)
    pair_j = near.ravel()
    gap = gaps.ravel()
    usable = gap > 0

    rows = []
    degenerate = []
    for name, values in features.items():
        values = np.asarray(values, dtype=float)
        span = values.max() - values.min()
        if span == 0.0:
            rows.append((name, 0.0))
            degenerate.append(name)
            continue
        f = values / span
        slopes = np.abs(f[pair_i[usable]] - f[pair_j[usable]]) / gap[usable]
        rows.append((name, float(slopes.max(initial=0.0))))
    rows.sort(key=lambda item: (item[1], item[0]))
    return LipschitzTable(rows=tuple(rows), degenerate=tuple(degenerate))


# ---------------------------------------------------------------------------
# neighborhood concentration

@dataclass(frozen=True)
class MassStats:
    counts: np.ndarray
    mean: float
    sd: float


def neighborhood_mass(k: Kernel) -> MassStats:
    """Minimal number of other points holding half of each point's transition
    mass, under P = D^-1 K, which ``markov_normalize`` forms TILE rows at a
    time."""
    counts = np.empty(k.size, dtype=np.int64)
    for rows in row_tiles(k.size):
        for i, row in enumerate(markov_normalize(k, rows), start=rows.start):
            row[i] = 0.0
            row = np.sort(row)[::-1]
            cum = np.cumsum(row)
            hit = np.flatnonzero(cum >= 0.5)
            counts[i] = int(hit[0]) + 1 if len(hit) else k.size
    return MassStats(counts=counts, mean=float(counts.mean()), sd=float(counts.std()))


# ---------------------------------------------------------------------------
# spectral dimension

def dimension_from_curve(eigencurve: np.ndarray) -> int:
    """max { d : S_d^t > DIMENSION_CUTOFF } over the powered nontrivial eigenvalues."""
    above = np.flatnonzero(np.asarray(eigencurve) > DIMENSION_CUTOFF)
    return int(above[-1]) + 1 if len(above) else 0


def spectral_dimension(k: Kernel):
    """Count of powered nontrivial eigenvalues above DIMENSION_CUTOFF.

    The diffusion time normalizes across kernels: t = 1 / (1 - S_1), the mean
    time to diffuse across the system.  Only the eigenvalues are solved for.
    """
    vals = np.clip(np.linalg.eigvalsh(_conjugate(k))[::-1], -1.0, 1.0)
    s1 = vals[1]
    if s1 >= 1.0 - 1e-12:
        raise ValidationError(f"kernel graph is disconnected ({component_count(k)} components); "
                              "spectral dimension undefined")
    t = 1.0 / (1.0 - s1)
    eigencurve = signed_power(vals[1:], t)
    return dimension_from_curve(eigencurve), t, eigencurve


def component_count(k: Kernel) -> int:
    """How many components the graph of the kernel's entries above 1e-12
    has, by breadth-first search: O(n^2)."""
    edges = k.entries > 1e-12
    edges |= edges.T
    unseen = np.ones(k.size, dtype=bool)
    count = 0
    while unseen.any():
        count += 1
        frontier = np.zeros(k.size, dtype=bool)
        frontier[np.argmax(unseen)] = True
        while frontier.any():
            unseen &= ~frontier
            frontier = edges[frontier].any(axis=0) & unseen
    return count


# ---------------------------------------------------------------------------
# affinity histograms split by label agreement

@dataclass(frozen=True)
class AffinityHistograms:
    hist_unequal: np.ndarray       # per-bin counts of unequal-label affinities >= the floor
    thresholds: np.ndarray
    ratio: np.ndarray              # P_neq(t) / P_eq(t), estimates P(K > t | neq) / P(K > t | eq);
                                   # nan where P_eq = 0
    survivors_unequal: np.ndarray  # per threshold: unequal-label pairs with affinity > t
    survivors_equal: np.ndarray    # per threshold: equal-label pairs with affinity > t


def affinity_histograms(entries: np.ndarray, g: np.ndarray) -> AffinityHistograms:
    """Survival ratio of affinities across unequal- vs equal-label pairs.

    Over the distinct pairs x < y, ``ratio[i]`` is P_neq(t) / P_eq(t) at
    t = ``thresholds[i]``, where P_neq(t) is the fraction of unequal-label
    pairs with affinity above t and P_eq(t) the same fraction for
    equal-label pairs.  It estimates how much less likely a pair that the
    labels tell apart is to stay connected at level t: near 1 for a kernel
    that ignores the labels, below 1 where the kernel separates points the
    experts rate differently.

    AFFINITY_FLOOR is the lowest bin edge and the lowest threshold, and
    HISTOGRAM_BINS equal bins span it to 1; the histogram of unequal-label
    affinities counts only values at or above it.
    The denominators of P_neq and P_eq count every pair of each kind,
    sub-floor ones included.

    The ratio carries no precision guarantee.  Its relative standard error
    is about sqrt((1 - P_neq) / a + (1 - P_eq) / b), where a and b are the
    survival counts ``survivors_unequal`` and ``survivors_equal``; in the
    tail, where few pairs survive, it is large.  Judge each ratio by these
    counts.
    """
    a = np.asarray(entries, dtype=float)
    g = np.asarray(g, dtype=float)
    n = a.shape[0]
    edges = np.linspace(AFFINITY_FLOOR, 1.0, HISTOGRAM_BINS + 1)
    thresholds = edges[:-1]
    hist_unequal = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    survivors_unequal = np.zeros(HISTOGRAM_BINS, dtype=int)
    survivors_equal = np.zeros(HISTOGRAM_BINS, dtype=int)
    n_neq = n_eq = 0
    # every count is a sum over the pairs, so the upper triangle is read a
    # row tile at a time
    for rows in row_tiles(n):
        upper = np.arange(n) > np.arange(rows.start, rows.stop)[:, None]
        vals = a[rows][upper]
        unequal = (g[rows, None] != g[None, :])[upper]
        hist_unequal += np.histogram(vals[unequal & (vals >= AFFINITY_FLOOR)], bins=edges)[0]
        n_neq += int(unequal.sum())
        n_eq += int((~unequal).sum())
        survivors_unequal += [(vals[unequal] > t).sum() for t in thresholds]
        survivors_equal += [(vals[~unequal] > t).sum() for t in thresholds]
    if n_neq == 0:
        raise ValidationError("no unequal-label pairs; labels are constant")

    n_eq = max(n_eq, 1)
    p_neq = survivors_unequal / n_neq
    p_eq = survivors_equal / n_eq
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(p_eq > 0, p_neq / np.where(p_eq > 0, p_eq, 1.0), np.nan)
    return AffinityHistograms(hist_unequal=hist_unequal,
                              thresholds=thresholds, ratio=ratio,
                              survivors_unequal=survivors_unequal,
                              survivors_equal=survivors_equal)


# ---------------------------------------------------------------------------
# aggregate separation bound

@dataclass(frozen=True)
class SeparationRecord:
    lhs: float                   # E_neq (f(x) - f(y))^2
    e_neq_g_gap: float           # E_neq (g(x) - g(y))^2
    s_pairs: int                 # ordered unequal-label pairs
    max_factor: float            # max_i S_i * n / S
    cost: float                  # mean squared training error
    root_rhs: float              # sqrt(e_neq_g_gap) - 2 sqrt(max_factor * cost)
    rhs: float                   # e_neq_g_gap - 2 max_factor cost; reported only
    holds: bool
    rhs_scaled: float | None = None


def separation_bound_check(f_values: np.ndarray, g_values: np.ndarray,
                           layer_norm_product: float | None = None) -> SeparationRecord:
    """Check sqrt(E_neq f-gap^2) >= sqrt(E_neq g-gap^2) - 2 sqrt(max_factor C).

    E_neq averages over the S = n^2 - sum_i n_i^2 ordered pairs (x, y) with
    g(x) != g(y), where n_i points have label i; S_i = n - n_i counts the
    points whose label is not i, max_factor = max_i S_i n / S and
    C = mean (g - f)^2.  Proof: write e = g - f.  Over the unequal-label
    pairs, (e_x - e_y)^2 <= 2 (e_x^2 + e_y^2), and each x is in S_g(x) pairs
    as either member, so E_neq (e_x - e_y)^2 <= (4 / S) sum_x S_g(x) e_x^2
    <= 4 max_factor C.  Since f-gap = g-gap - e-gap, Minkowski's inequality
    on the pairs gives sqrt(E_neq f-gap^2) >= sqrt(E_neq g-gap^2) -
    sqrt(E_neq e-gap^2), and the bound follows.

    Computed exactly over all ordered unequal-label pairs.  Raises
    BoundViolation when the inequality fails beyond SEPARATION_SLACK, which
    only rounding can make it do.  The squared form, E_neq f-gap^2 >=
    E_neq g-gap^2 - 2 max_factor C (``rhs``), does not hold in general; it
    is reported, as is ``rhs_scaled``, ``rhs`` over the later-layer norm
    product, and neither is asserted.
    """
    f = np.asarray(f_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if f.shape != g.shape:
        raise ValidationError("f and g must cover the same points")
    n = len(g)
    counts = np.unique(g, return_counts=True)[1].tolist()   # n_i, points labelled i
    s_pairs = n * n - sum(c * c for c in counts)
    if s_pairs == 0:
        raise ValidationError("labels are constant; no unequal-label pairs")

    gaps = np.empty(s_pairs)
    lhs = float(_unequal_label_gaps(f, g, gaps).mean())
    e_g = float(_unequal_label_gaps(g, g, gaps).mean())
    cost = float(np.mean((g - f) ** 2))
    max_factor = (n - min(counts)) * n / s_pairs
    root_rhs = math.sqrt(e_g) - 2.0 * math.sqrt(max_factor * cost)
    rhs = e_g - 2.0 * max_factor * cost
    rhs_scaled = rhs / layer_norm_product if layer_norm_product else None

    holds = bool(math.sqrt(lhs) >= root_rhs - SEPARATION_SLACK)
    record = SeparationRecord(lhs=lhs, e_neq_g_gap=e_g, s_pairs=s_pairs,
                              max_factor=float(max_factor), cost=cost, root_rhs=root_rhs,
                              rhs=rhs, holds=holds, rhs_scaled=rhs_scaled)
    if not holds:
        raise BoundViolation(f"separation bound violated: sqrt(LHS) {math.sqrt(lhs):.6g} < "
                             f"{root_rhs:.6g} - {SEPARATION_SLACK}", record=record)
    return record


def _unequal_label_gaps(values: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` filled with (values[x] - values[y])^2 over the ordered pairs
    with g[x] != g[y], in row-major order, a row tile at a time."""
    at = 0
    for rows in row_tiles(len(g)):
        gap = (values[rows, None] - values[None, :]) ** 2
        picked = gap[g[rows, None] != g[None, :]]
        out[at:at + len(picked)] = picked
        at += len(picked)
    return out


# ---------------------------------------------------------------------------
# baseline rankings

def row_sum_rank(d: DataMatrix) -> np.ndarray:
    """Sum over observed entries, scaled by m / |support| per point."""
    filled = np.where(d.mask, d.values, 0.0)
    support = d.mask.sum(axis=1)
    sums = filled.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(support > 0, sums * d.n_features / np.maximum(support, 1), 0.0)


def _least_squares_on(a: np.ndarray, b: np.ndarray, support: np.ndarray) -> np.ndarray:
    """The least-squares weights of the ``support`` columns of ``a``, 0
    elsewhere; the least-norm ones where those columns are dependent."""
    z = np.zeros(a.shape[1])
    z[support] = np.linalg.lstsq(a[:, support], b, rcond=None)[0]
    return z


def nnls(a: np.ndarray, b: np.ndarray):
    """Nonnegative least squares, min |a x - b| over x >= 0, by Lawson and
    Hanson's active-set method (Solving Least Squares Problems, 1974, ch. 23).

    The support starts empty.  Each step adds the feature off the support
    whose dual (a^T (b - a x)) is largest, if that is above a rounding
    tolerance and the least-squares weights on the grown support give it a
    positive weight.  While those weights z have an entry at or below 0, x
    moves toward z until its first support entry reaches 0, that entry (and
    any other at 0) leaves the support, and z is solved again; then x = z.
    Each step solves a least-squares problem on at most all the features
    (about 60 here), so NumPy alone does the work.

    Returns (x, kkt_residual).  The residual is the largest violation of the
    KKT conditions: negativity of x, positive gradient on the support, or
    negative dual on the zero set.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if len(b) != a.shape[0]:
        raise ValidationError(f"shape mismatch: design {a.shape}, target {len(b)}")
    m, n = a.shape
    # a dual below this is rounding: |a_j| |b| bounds the dual of feature j
    scale = float(np.max(np.linalg.norm(a, axis=0), initial=0.0)) * float(np.linalg.norm(b))
    tol = 10.0 * max(m, n) * np.finfo(float).eps * scale
    x = np.zeros(n)
    support = np.zeros(n, dtype=bool)
    for _ in range(3 * n + 1):
        dual = a.T @ (b - a @ x)
        candidates = ~support & (dual > tol)
        while candidates.any():
            j = int(np.argmax(np.where(candidates, dual, -np.inf)))
            support[j] = True
            z = _least_squares_on(a, b, support)
            if z[j] > 0.0:
                break
            # rounding left j a weight at or below 0: it does not enter
            support[j] = False
            candidates[j] = False
        else:
            break
        while np.any(z[support] <= 0.0):
            out = support & (z <= 0.0)
            ratios = x[out] / (x[out] - z[out])
            x += np.min(ratios) * (z - x)
            x[np.flatnonzero(out)[np.argmin(ratios)]] = 0.0
            support &= x > 0.0
            z = _least_squares_on(a, b, support)
        x = z
    else:
        raise ValidationError(f"nnls did not settle in {3 * n + 1} steps on a {m} x {n} design")
    grad = -(a.T @ (b - a @ x))
    kkt = max(float(np.max(-x, initial=0.0)),
              float(np.max(np.abs(grad[x > 0]), initial=0.0)),
              float(np.max(-grad[x <= 0], initial=0.0)))
    return x, kkt


def nnls_rank(design: np.ndarray, target: np.ndarray):
    """Nonnegative least-squares weights fitting ``target`` from the
    feature columns of ``design``.

    Rows must be complete (imputed beforehand).
    """
    if not np.all(np.isfinite(design)):
        raise ValidationError("NNLS needs complete rows; impute missing entries first")
    weights, kkt = nnls(design, np.asarray(target, dtype=float))
    return weights, design @ weights, kkt


# ---------------------------------------------------------------------------
# ranking agreement

def confusion(initial: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Counts by score-range quarter of each ranking (not population quantiles)."""
    initial = np.asarray(initial, dtype=float)
    final = np.asarray(final, dtype=float)
    if initial.shape != final.shape:
        raise ValidationError("rankings must cover the same points")

    def bin_of(values):
        lo, hi = values.min(), values.max()
        if hi == lo:
            return np.zeros(len(values), dtype=np.int64)
        idx = np.floor((values - lo) / (hi - lo) * CONFUSION_BINS).astype(np.int64)
        return np.clip(idx, 0, CONFUSION_BINS - 1)

    rows = bin_of(initial)
    cols = bin_of(final)
    out = np.zeros((CONFUSION_BINS, CONFUSION_BINS), dtype=np.int64)
    np.add.at(out, (rows, cols), 1)
    return out


# ---------------------------------------------------------------------------
# neighbor smoothness

@dataclass(frozen=True)
class SmoothnessResult:
    averages: np.ndarray
    correlation: float
    degenerate: bool


def neighbor_smoothness(k: Kernel, f: np.ndarray) -> SmoothnessResult:
    """Affinity-weighted neighbor average of f, self excluded, and its
    correlation with f.  The weights are formed TILE rows at a time."""
    f = np.asarray(f, dtype=float)
    averages = np.empty(k.size)
    for rows in row_tiles(k.size):
        weights = k.entries[rows].copy()
        weights[np.arange(weights.shape[0]), np.arange(rows.start, rows.stop)] = 0.0
        sums = weights.sum(axis=1)
        if np.any(sums <= 0):
            raise ValidationError("a point has zero affinity to all others")
        weights /= sums[:, None]
        averages[rows] = weights @ f

    if np.ptp(f) == 0.0 or np.ptp(averages) == 0.0:
        return SmoothnessResult(averages=averages, correlation=float("nan"),
                                degenerate=True)
    corr = float(np.corrcoef(f, averages)[0, 1])
    return SmoothnessResult(averages=averages, correlation=corr, degenerate=False)

