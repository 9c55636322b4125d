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


def exact_distances(x: np.ndarray, metric: str) -> np.ndarray:
    """The square matrix of ``metric`` ("euclidean" or "cityblock")
    distances between the rows of ``x``, with the bits of SciPy's
    ``cdist(x, x, metric)``.

    Each distance sums its per-feature terms in feature order, as SciPy's
    loop does: the terms of a block of rows form a (features, rows, n) array,
    whose axis 0 NumPy reduces one slice after the other.  So no near-tie
    between neighbours flips against the direct sum.  It costs O(n^2 m)
    element operations, 3-4x SciPy's loop; for wide rows use ``cdist``.
    """
    if metric not in ("euclidean", "cityblock"):
        raise ValidationError(f"unknown metric {metric!r}")
    cols = np.asarray(x, dtype=float).T.copy()
    m, n = cols.shape
    out = np.empty((n, n))
    step = max(1, EXACT_BLOCK // max(1, m * n))
    for start in range(0, n, step):
        terms = cols[:, start:start + step, None] - cols[:, None, :]
        if metric == "euclidean":
            np.square(terms, out=terms)
        else:
            np.abs(terms, out=terms)
        np.add.reduce(terms, axis=0, out=out[start:start + step])
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


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
        k = self.entries
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValidationError(f"kernel must be square, got shape {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ValidationError("kernel has non-finite entries")
        if np.max(np.abs(k - k.T)) > 1e-12:
            raise ValidationError("kernel not symmetric within 1e-12")
        if k.min() < -1e-12 or k.max() > 1.0 + 1e-12:
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
    off = np.partition(distances + np.diag(np.full(n, np.inf)), r_eff - 1, axis=1)
    return float(off[:, r_eff - 1].mean())


def gaussian_kernel(vectors: np.ndarray, r: int = 10) -> Kernel:
    """K(x,y) = exp(-|x-y|^2 / sigma^2), sigma = mean r-th-NN distance, with
    the distances of the BLAS ``cdist``."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise ValidationError("gaussian_kernel needs >= 2 vectors")
    return kernel_from_distances(cdist(vectors, vectors), r)


def kernel_from_distances(dists: np.ndarray, r: int) -> Kernel:
    """``gaussian_kernel`` of the points whose square distance matrix is
    ``dists``; its diagonal is not read."""
    sigma = nn_bandwidth(dists, r)
    if sigma <= 0.0:
        raise ValidationError("all points identical: bandwidth is 0")
    return exp_kernel(dists ** 2 / sigma ** 2, {"rule": f"mean-{r}nn", "value": sigma})


def exp_kernel(exponents: np.ndarray, bandwidth: dict) -> Kernel:
    """The Kernel exp(-e) of the square exponents e, symmetrized as
    (K + K^T) / 2, with its diagonal set to 1."""
    entries = np.exp(-exponents)
    entries = 0.5 * (entries + entries.T)
    np.fill_diagonal(entries, 1.0)
    return Kernel(entries=entries, bandwidth=bandwidth)


def markov_normalize(k: Kernel) -> np.ndarray:
    """The row-stochastic transition matrix P = D^-1 K."""
    return k.entries / k.entries.sum(axis=1)[:, None]


def _symmetric_eigensystem(k: Kernel, count: int | None = None):
    """The top ``count`` eigenpairs of P (all when None) via the conjugate
    symmetric matrix, descending.

    A count below n is found by ``_top_eigenpairs``: O(n^2) per Krylov
    vector and one O(n^3 / 3) Cholesky factor in place of the full eigh.
    It agrees with the full solve to rounding, not bit for bit.
    """
    sums = k.entries.sum(axis=1)
    half = 1.0 / np.sqrt(sums)
    sym = half[:, None] * k.entries * half[None, :]
    sym = 0.5 * (sym + sym.T)
    if count is None:
        eigvals, eigvecs = np.linalg.eigh(sym)
    else:
        eigvals, eigvecs = _top_eigenpairs(sym, count, np.sqrt(sums))
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
    eigenvalue of sym outside span(X) reaches theta.  Otherwise, or once m
    would reach n, the full solve runs, so there is no failure to converge.
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
            bound = (3.0 * vectors) @ vectors.T
            bound -= sym
            bound.flat[::n + 1] += theta[0]
            try:
                np.linalg.cholesky(bound)
            except np.linalg.LinAlgError:
                break
            return theta, vectors
        size *= 2
    eigvals, eigvecs = np.linalg.eigh(sym)
    return eigvals[-count:], eigvecs[:, -count:]


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
    p = markov_normalize(k)
    for i in range(emb.dim):
        phi = emb.eigenvectors[:, i]
        res = np.linalg.norm(p @ phi - emb.eigenvalues[i] * phi)
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
    return float(np.count_nonzero(_nearest(a, k) & _nearest(b, k))) / (n * k)


def _nearest(coords: np.ndarray, k: int) -> np.ndarray:
    """(n, n) flags of each point's k nearest other points, as
    ``neighbour_overlap`` orders them; O(n^2), no sort."""
    dists = exact_distances(coords, "euclidean")
    np.fill_diagonal(dists, np.inf)
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1:k]
    near = dists < kth
    ties = dists == kth
    # the lowest-index points at the k-th distance fill each row up to k
    near |= ties & (np.cumsum(ties, axis=1) <= k - near.sum(axis=1, keepdims=True))
    return near


def nystrom_extend(emb: Embedding, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-sample eigenvector extension phi_i -> lambda_i^(-1/2) A phi_i
    through the cross kernel exp(-e) of ``exponents`` e, which have one row
    per new point and one column per reference point: (the coordinates,
    each new point's smallest exponent).

    The kernel is formed in the log domain, in the buffer of ``exponents``:
    row x is exp(-e(x,y) + min_y e(x,y)), whose largest entry is exactly 1,
    so no row underflows to zero sum however far its point lies.  Rows are
    then normalized to be stochastic, so the shift changes nothing else in
    exact arithmetic.  Coordinates whose eigenvalue is below 1e-12 are
    skipped (filled with 0) with a warning.
    """
    if exponents.ndim != 2 or exponents.shape[1] != emb.n:
        raise ValidationError(f"exponents must be (N, {emb.n}), got {exponents.shape}")
    nearest = exponents.min(axis=1)
    exponents -= nearest[:, None]
    np.negative(exponents, out=exponents)
    cross = np.exp(exponents, out=exponents)
    a_tilde = cross / cross.sum(axis=1)[:, None]

    out = np.zeros((cross.shape[0], emb.dim))
    for i in range(emb.dim):
        lam = emb.eigenvalues[i]
        if lam <= EIGENVALUE_FLOOR:
            warnings.warn(f"skipping extension of coordinate {i}: eigenvalue {lam:.3e} "
                          f"below {EIGENVALUE_FLOOR:.0e}", stacklevel=2)
            continue
        out[:, i] = (a_tilde @ emb.eigenvectors[:, i]) / np.sqrt(lam)
    return out, nearest
