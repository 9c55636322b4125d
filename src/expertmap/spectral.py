"""Distances, kernels, Markov normalization, diffusion embeddings, Nystrom
extension.

Eigenproblems on the row-stochastic operator P = D^-1 K are solved through
the symmetric conjugate D^-1/2 K D^-1/2 so all eigenvalues are real; right
eigenvectors of P are recovered and normalized to unit length under the
stationary measure.  Everything here runs on NumPy alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

EIGENVALUE_FLOOR = 1e-12
# largest eigensolver residual |P phi - lambda phi| accepted, relative to |phi|
RESIDUAL_TOL = 1e-8
# largest residual |S x - theta x| of a unit Ritz pair that the partial
# eigensolver accepts; S has spectral norm at most 1
RITZ_TOL = 1e-13
# elements of the (features, rows, n) block of terms that exact_distances
# reduces at a time
EXACT_BLOCK = 2 ** 16
# rows (and columns) of an n x n matrix that the in-place builders, the kernel
# checks and the neighbour searches handle at a time, so that what they
# allocate is a tile, not another n x n matrix
TILE = 64


def row_tiles(n: int) -> list[slice]:
    """The slices of TILE consecutive indices, the last one shorter, that
    cover range(n)."""
    return [slice(a, min(a + TILE, n)) for a in range(0, n, TILE)]


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Set the square ``a`` to (a + a^T) / 2 in place and return it.

    Both tiles of each pair (I, J), I <= J, get 0.5 * (a[I, J] + a[J, I]^T);
    IEEE addition commutes, so the bits are those of 0.5 * (a + a.T), and
    only a tile is allocated at a time.
    """
    tiles = row_tiles(a.shape[0])
    for i, rows in enumerate(tiles):
        for cols in tiles[i:]:
            mean = a[rows, cols] + a[cols, rows].T
            mean *= 0.5
            a[rows, cols] = mean
            a[cols, rows] = mean.T
    return a


def cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and the rows of ``b``.

    Expands |x - y|^2 = |x|^2 + |y|^2 - 2 x.y, so that the work is one BLAS
    product.  Rounding can leave a tiny squared distance below 0; it is
    clamped to 0 before the root.  The squared distances agree with the
    direct sum of squared differences to ~1e-13 relative; at one BLAS thread
    the result is the same to the byte from run to run, but a second thread,
    or another row count of ``a``, can change the last bits.  Kernels take
    their distances from here; where neighbour order is read, use
    ``exact_distances``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = a @ b.T
    sq *= -2.0
    sq += np.einsum("ij,ij->i", a, a)[:, None]
    sq += np.einsum("ij,ij->i", b, b)
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    return sq


def exact_distances(x: np.ndarray, metric: str, rows: slice = slice(None)) -> np.ndarray:
    """The ``metric`` ("euclidean" or "cityblock") distances from the rows
    ``rows`` of ``x`` (all of them by default) to every row of ``x``, with
    the bits of SciPy's ``cdist(x[rows], x, metric)``.

    Each distance sums its per-feature terms in feature order, as SciPy's
    loop does: the terms of a block of rows form a (features, rows, n) array,
    whose axis 0 NumPy reduces one slice after the other.  So no near-tie
    between neighbours flips against the direct sum, and a row's distances
    do not depend on which other rows are asked for.  It costs O(n^2 m)
    element operations, 3-4x SciPy's loop; for wide rows use ``cdist``.
    """
    if metric not in ("euclidean", "cityblock"):
        raise ValidationError(f"unknown metric {metric!r}")
    cols = np.asarray(x, dtype=float).T.copy()
    m, n = cols.shape
    first, last, _ = rows.indices(n)
    out = np.empty((max(0, last - first), n))
    step = max(1, EXACT_BLOCK // max(1, m * n))
    for start in range(first, last, step):
        stop = min(start + step, last)
        terms = cols[:, start:stop, None] - cols[:, None, :]
        if metric == "euclidean":
            np.square(terms, out=terms)
        else:
            np.abs(terms, out=terms)
        np.add.reduce(terms, axis=0, out=out[start - first:stop - first])
        del terms                     # before the next block's is allocated
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


def nearest_neighbours(x: np.ndarray, k: int,
                       exclude_self: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(indices, distances), each (n, k): each row's k nearest rows of ``x``
    by euclidean ``exact_distances``, nearest first and, of equally near
    ones, the lower index first.  These are the first k columns of a stable
    argsort of the row's distances, where with ``exclude_self`` its own
    distance counts as inf.

    It works TILE rows at a time and sorts no whole row: a partition finds
    the k-th distance, the nearer ones and the lowest-index ties fill the k,
    and only those are sorted.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    if k == 0:
        return indices, distances
    for rows in row_tiles(n):
        d = exact_distances(x, "euclidean", rows)
        if exclude_self:
            d[np.arange(d.shape[0]), np.arange(rows.start, rows.stop)] = np.inf
        kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
        take = d < kth
        ties = d == kth
        take |= ties & (np.cumsum(ties, axis=1) <= k - take.sum(axis=1, keepdims=True))
        cols = np.nonzero(take)[1].reshape(-1, k)           # ascending in each row
        near = np.take_along_axis(d, cols, axis=1)
        order = np.argsort(near, axis=1, kind="stable")
        indices[rows] = np.take_along_axis(cols, order, axis=1)
        distances[rows] = np.take_along_axis(near, order, axis=1)
    return indices, distances


@dataclass(frozen=True)
class Kernel:
    """Symmetric affinity kernel with entries in [0, 1] and unit diagonal.

    Entries are at least -1e-12 and the diagonal is within 1e-12 of 1, so
    every row sums to more than 0 for fewer than 10^12 points: P = D^-1 K
    and D^-1/2 K D^-1/2 are always defined.
    """

    entries: np.ndarray
    bandwidth: dict = field(default_factory=dict)

    def __post_init__(self):
        # each check reads TILE rows at a time, and runs over the whole
        # matrix before the next one starts
        k = self.entries
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValidationError(f"kernel must be square, got shape {k.shape}")
        tiles = row_tiles(k.shape[0])
        if not all(np.isfinite(k[rows]).all() for rows in tiles):
            raise ValidationError("kernel has non-finite entries")
        if any(np.max(np.abs(k[rows] - k[:, rows].T)) > 1e-12 for rows in tiles):
            raise ValidationError("kernel not symmetric within 1e-12")
        if any(k[rows].min() < -1e-12 or k[rows].max() > 1.0 + 1e-12 for rows in tiles):
            raise ValidationError("kernel entries outside [0, 1]")
        if np.max(np.abs(np.diag(k) - 1.0)) > 1e-12:
            raise ValidationError("kernel diagonal is not 1")

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def nn_bandwidth(distances: np.ndarray, r: int) -> float:
    """Mean distance to the r-th nearest neighbor (self excluded).

    ``distances`` is a full square distance matrix.  With fewer than r
    neighbors available the farthest one is used.
    """
    n = distances.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 points for a bandwidth")
    r_eff = min(r, n - 1)
    kth = np.empty(n)
    for rows in row_tiles(n):
        off = distances[rows].copy()
        off[np.arange(off.shape[0]), np.arange(rows.start, rows.stop)] = np.inf
        kth[rows] = np.partition(off, r_eff - 1, axis=1)[:, r_eff - 1]
    return float(kth.mean())


def gaussian_kernel(vectors: np.ndarray, r: int = 10) -> Kernel:
    """K(x,y) = exp(-|x-y|^2 / sigma^2), sigma = mean r-th-NN distance, with
    the distances of the BLAS ``cdist``.  Their diagonal, which rounding can
    leave above 0, is not read; the kernel is built in their buffer."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise ValidationError("gaussian_kernel needs >= 2 vectors")
    dists = cdist(vectors, vectors)
    sigma = nn_bandwidth(dists, r)
    if sigma <= 0.0:
        raise ValidationError("all points identical: bandwidth is 0")
    np.square(dists, out=dists)
    dists /= sigma ** 2
    return exp_kernel(dists, {"rule": f"mean-{r}nn", "value": sigma})


def exp_kernel(exponents: np.ndarray, bandwidth: dict) -> Kernel:
    """The Kernel exp(-e) of the square exponents e, symmetrized as
    (K + K^T) / 2, with its diagonal set to 1.

    The kernel is built in the buffer of ``exponents``, which is consumed:
    hand over a matrix that is not read again.
    """
    entries = np.negative(exponents, out=exponents)
    np.exp(entries, out=entries)
    _symmetrize(entries)
    np.fill_diagonal(entries, 1.0)
    return Kernel(entries=entries, bandwidth=bandwidth)


def markov_normalize(k: Kernel, rows: slice = slice(None)) -> np.ndarray:
    """The rows ``rows`` (all of them by default) of the row-stochastic
    transition matrix P = D^-1 K."""
    block = k.entries[rows]
    return block / block.sum(axis=1)[:, None]


def _conjugate(k: Kernel, out: np.ndarray | None = None) -> np.ndarray:
    """The symmetric conjugate D^-1/2 K D^-1/2 of P, built in one n x n
    buffer: ``out`` when given, else a new one."""
    half = 1.0 / np.sqrt(k.entries.sum(axis=1))
    sym = np.multiply(half[:, None], k.entries, out=out)
    sym *= half[None, :]
    return _symmetrize(sym)


def _symmetric_eigensystem(k: Kernel, count: int):
    """The top ``count`` eigenpairs of P via the conjugate symmetric matrix,
    descending.

    They are found by ``_top_eigenpairs``: O(n^2) per Krylov vector and one
    O(n^3 / 3) Cholesky factor in place of the full eigh, which runs only
    when those pairs cannot be certified.  They agree with the full solve to
    rounding, not bit for bit.
    """
    sums = k.entries.sum(axis=1)
    sym = _conjugate(k)
    pairs = _top_eigenpairs(sym, count, np.sqrt(sums))
    if pairs is None:
        # the certificate may have overwritten sym: build it again
        eigvals, eigvecs = np.linalg.eigh(_conjugate(k, out=sym))
        pairs = eigvals[-count:], eigvecs[:, -count:]
    eigvals, eigvecs = pairs
    half = 1.0 / np.sqrt(sums)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], -1.0, 1.0)
    # right eigenvectors of P, unit norm under the stationary measure
    phi = np.sqrt(sums.sum()) * (half[:, None] * eigvecs[:, order])
    return eigvals, phi


def _top_eigenpairs(sym: np.ndarray, count: int, start: np.ndarray):
    """The ``count`` largest eigenvalues of the symmetric ``sym``, whose
    spectral norm is at most 1, and their unit eigenvectors, ascending.

    Rayleigh-Ritz on a Krylov basis (Lanczos with full reorthogonalization;
    Parlett 1998, "The Symmetric Eigenvalue Problem").  The basis starts at
    ``start``, then each vector is ``sym`` times the one before it,
    orthogonalized against all earlier ones.  Here ``start`` is sqrt(D),
    the eigenvector of eigenvalue 1, so the second vector is a seeded random
    one and the rest of the sequence explores the nontrivial spectrum.  The
    basis holds m = 2 count + 10 vectors at first and doubles until every
    Ritz pair's residual is at most RITZ_TOL.

    One Krylov sequence can miss an eigenvalue: of a repeated eigenvalue,
    such as the 1 of each component of a disconnected kernel, it holds one
    direction only, and so it does of eigenvalues that rounding cannot tell
    apart.  So the pairs are returned only when theta I - sym + 3 X X^T, for
    the Ritz vectors X and the least Ritz value theta, has a Cholesky
    factor: for eigenvectors X that matrix is positive definite just when no
    eigenvalue of sym outside span(X) reaches theta.  That matrix is formed
    in the buffer of ``sym``, with 3 X X^T added TILE rows at a time.
    Otherwise, or once m would reach n, it returns None, and the caller runs
    the full solve on a ``sym`` that it builds again.
    """
    n = sym.shape[0]
    rng = np.random.default_rng(0)
    size = 2 * count + 10
    basis = np.empty((n, 0))
    image = np.empty((n, 0))          # sym @ basis
    v = start
    while size < n:
        done = basis.shape[1]
        basis = np.concatenate([basis, np.empty((n, size - done))], axis=1)
        image = np.concatenate([image, np.empty((n, size - done))], axis=1)
        for i in range(done, size):
            basis[:, i] = _orthonormal_to(basis[:, :i], v, rng)
            v = image[:, i] = sym @ basis[:, i]
        ritz = basis.T @ image
        theta, mix = np.linalg.eigh(0.5 * (ritz + ritz.T))
        theta, mix = theta[-count:], mix[:, -count:]
        vectors = basis @ mix
        if np.linalg.norm(image @ mix - vectors * theta, axis=0).max() <= RITZ_TOL:
            for rows in row_tiles(n):
                np.subtract((3.0 * vectors[rows]) @ vectors.T, sym[rows], out=sym[rows])
            sym.flat[::n + 1] += theta[0]
            try:
                np.linalg.cholesky(sym)
            except np.linalg.LinAlgError:
                return None
            return theta, vectors
        size *= 2
    return None


def _orthonormal_to(basis: np.ndarray, v: np.ndarray, rng) -> np.ndarray:
    """``v`` made orthogonal to the orthonormal columns of ``basis`` by two
    Gram-Schmidt passes, at unit norm.  When rounding is all that is left of
    it (the Krylov space has closed on an invariant subspace), a seeded
    random vector takes its place."""
    norm = np.sqrt(v @ v)
    for _ in range(2):
        v = v - basis @ (v @ basis)
    if np.sqrt(v @ v) <= 1e-10 * norm:
        v = rng.standard_normal(len(v))
        for _ in range(2):
            v = v - basis @ (v @ basis)
    return v / np.sqrt(v @ v)


def signed_power(values: np.ndarray, t: float) -> np.ndarray:
    """sign(v) * |v|^t; keeps fractional diffusion times real-valued."""
    return np.sign(values) * np.abs(values) ** t


@dataclass(frozen=True)
class Embedding:
    """Top nontrivial eigenpairs of a Markov kernel at diffusion time t."""

    eigenvalues: np.ndarray       # (d,) descending, trivial lambda_0 excluded
    eigenvectors: np.ndarray      # (n, d), unit norm under stationary measure
    t: float
    bandwidth: dict = field(default_factory=dict)
    standardized: bool = False

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[1]

    @property
    def coordinates(self) -> np.ndarray:
        """lambda_i^t * phi_i(x) for every point x."""
        return self.eigenvectors * signed_power(self.eigenvalues, self.t)[None, :]


def diffusion_embed(k: Kernel, d: int, t: float = 1.0) -> Embedding:
    """Embed by the top-d nontrivial eigenpairs of the normalized kernel.

    Only the top d + 1 eigenpairs are solved for (see ``_top_eigenpairs``),
    and every one is checked against P (``_check_residuals``).  Eigenvector
    signs are fixed deterministically (largest-magnitude entry positive) so
    repeated runs agree bit for bit.
    """
    n = k.size
    if not 1 <= d < n:
        raise ValidationError(f"embedding dimension must satisfy 1 <= d < n, got d={d}, n={n}")
    if t <= 0:
        raise ValidationError(f"diffusion time must be positive, got {t}")
    eigvals, phi = _symmetric_eigensystem(k, d + 1)
    vals = eigvals[1:d + 1]
    vecs = phi[:, 1:d + 1].copy()
    for i in range(vecs.shape[1]):
        j = int(np.argmax(np.abs(vecs[:, i])))
        if vecs[j, i] < 0:
            vecs[:, i] = -vecs[:, i]

    emb = Embedding(eigenvalues=vals, eigenvectors=vecs, t=t, bandwidth=dict(k.bandwidth))
    _check_residuals(k, emb)
    return emb


def _check_residuals(k: Kernel, emb: Embedding) -> None:
    # P phi = (K phi) / D, without forming P
    image = (k.entries @ emb.eigenvectors) / k.entries.sum(axis=1)[:, None]
    for i in range(emb.dim):
        phi = emb.eigenvectors[:, i]
        res = np.linalg.norm(image[:, i] - emb.eigenvalues[i] * phi)
        if res > RESIDUAL_TOL * np.linalg.norm(phi):
            raise ValidationError(f"eigensolver residual {res:.3e} for eigenpair {i} "
                                  f"exceeds {RESIDUAL_TOL:.0e}")


def neighbour_overlap(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """Mean share of a point's k nearest neighbours by the rows of ``a`` that
    are also among its k nearest by the rows of ``b``, in [0, 1].

    The point itself is excluded, k is clamped to the other points, and of
    equally near neighbours the lower index counts as nearer.
    """
    n = a.shape[0]
    k = min(k, n - 1)
    near_a, _ = nearest_neighbours(a, k, exclude_self=True)
    near_b, _ = nearest_neighbours(b, k, exclude_self=True)
    shared = np.count_nonzero(near_a[:, :, None] == near_b[:, None, :])
    return float(shared) / (n * k)


def nystrom_extend(emb: Embedding, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-sample eigenvector extension phi_i -> lambda_i^(-1/2) A phi_i
    through the cross kernel exp(-e) of ``exponents`` e, which have one row
    per new point and one column per reference point: (the coordinates,
    each new point's smallest exponent).

    The kernel is formed in the log domain, in the buffer of ``exponents``:
    row x is exp(-e(x,y) + min_y e(x,y)), whose largest entry is exactly 1,
    so no row underflows to zero sum however far its point lies.  Rows are
    then normalized to be stochastic, so the shift changes nothing else in
    exact arithmetic; they are normalized in the same buffer.  Coordinates
    whose eigenvalue is below 1e-12 are skipped (filled with 0) with a
    warning.
    """
    if exponents.ndim != 2 or exponents.shape[1] != emb.n:
        raise ValidationError(f"exponents must be (N, {emb.n}), got {exponents.shape}")
    nearest = exponents.min(axis=1)
    exponents -= nearest[:, None]
    np.negative(exponents, out=exponents)
    cross = np.exp(exponents, out=exponents)
    cross /= cross.sum(axis=1)[:, None]

    out = np.zeros((cross.shape[0], emb.dim))
    for i in range(emb.dim):
        lam = emb.eigenvalues[i]
        if lam <= EIGENVALUE_FLOOR:
            warnings.warn(f"skipping extension of coordinate {i}: eigenvalue {lam:.3e} "
                          f"below {EIGENVALUE_FLOOR:.0e}", stacklevel=2)
            continue
        out[:, i] = (cross @ emb.eigenvectors[:, i]) / np.sqrt(lam)
    return out, nearest
