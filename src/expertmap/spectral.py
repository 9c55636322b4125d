"""Kernels, Markov normalization, diffusion embeddings, Nystrom extension.

Eigenproblems on the row-stochastic operator P = D^-1 K are solved through
the symmetric conjugate D^-1/2 K D^-1/2 so all eigenvalues are real; right
eigenvectors of P are recovered and normalized to unit length under the
stationary measure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.spatial.distance import cdist

from .errors import ValidationError

EIGENVALUE_FLOOR = 1e-12
# largest eigensolver residual |P phi - lambda phi| accepted, relative to |phi|
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class Kernel:
    """Symmetric affinity kernel with entries in [0, 1] and unit diagonal."""

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
    """K(x,y) = exp(-|x-y|^2 / sigma^2), sigma = mean r-th-NN distance."""
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
    entries = np.exp(-(dists ** 2) / sigma ** 2)
    entries = 0.5 * (entries + entries.T)
    np.fill_diagonal(entries, 1.0)
    return Kernel(entries=entries, bandwidth={"rule": f"mean-{r}nn", "value": sigma})


def markov_normalize(k: Kernel) -> np.ndarray:
    """The row-stochastic transition matrix P = D^-1 K."""
    sums = k.entries.sum(axis=1)
    bad = np.flatnonzero(sums <= 0)
    if len(bad):
        raise ValidationError(f"isolated points with zero kernel row sum: {bad.tolist()}")
    return k.entries / sums[:, None]


def _symmetric_eigensystem(k: Kernel, count: int | None = None):
    """The top ``count`` eigenpairs of P (all when None) via the conjugate
    symmetric matrix, descending.

    A count below n is found by ARPACK's Lanczos iteration from a fixed
    start vector: matrix-vector products, O(n^2) each, in place of the full
    O(n^3) solve.  It agrees with the full solve to rounding, not bit for bit.
    """
    sums = k.entries.sum(axis=1)
    if np.any(sums <= 0):
        raise ValidationError("zero kernel row sum")
    half = 1.0 / np.sqrt(sums)
    sym = half[:, None] * k.entries * half[None, :]
    sym = 0.5 * (sym + sym.T)
    if count is not None and count < k.size:
        start = np.random.default_rng(0).standard_normal(k.size)
        try:
            eigvals, eigvecs = eigsh(sym, k=count, which="LA", v0=start)
        except ArpackNoConvergence as exc:
            raise ValidationError(f"Lanczos iteration did not converge: {exc}") from exc
    else:
        eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], -1.0, 1.0)
    # right eigenvectors of P, unit norm under the stationary measure
    phi = np.sqrt(sums.sum()) * (half[:, None] * eigvecs[:, order])
    return eigvals, phi


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


def diffusion_embed(k: Kernel, d: int, t: float = 1.0, lanczos: bool = False) -> Embedding:
    """Embed by the top-d nontrivial eigenpairs of the normalized kernel.

    Eigenvector signs are fixed deterministically (largest-magnitude entry
    positive) so repeated runs agree bit for bit.  With ``lanczos`` only the
    top d + 1 eigenpairs are solved for (see ``_symmetric_eigensystem``).
    """
    n = k.size
    if not 1 <= d < n:
        raise ValidationError(f"embedding dimension must satisfy 1 <= d < n, got d={d}, n={n}")
    if t <= 0:
        raise ValidationError(f"diffusion time must be positive, got {t}")
    eigvals, phi = _symmetric_eigensystem(k, d + 1 if lanczos else None)
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
    dists = cdist(coords, coords)
    np.fill_diagonal(dists, np.inf)
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1:k]
    near = dists < kth
    ties = dists == kth
    # the lowest-index points at the k-th distance fill each row up to k
    near |= ties & (np.cumsum(ties, axis=1) <= k - near.sum(axis=1, keepdims=True))
    return near


def log_domain_kernel(exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-e(x,y) + min_y e(x,y)), min_y e(x,y)) of exponents e with one
    row per new point x, the kernel in the buffer of ``exponents``.

    Every row's largest entry is exactly 1, so no row underflows to zero sum
    however far its point lies.  Rows are normalized before use (see
    ``nystrom_extend``), so the shift changes nothing else in exact
    arithmetic.
    """
    nearest = exponents.min(axis=1)
    exponents -= nearest[:, None]
    np.negative(exponents, out=exponents)
    return np.exp(exponents, out=exponents), nearest


def nystrom_extend(emb: Embedding, cross_kernel: np.ndarray) -> np.ndarray:
    """Out-of-sample eigenvector extension phi_i -> lambda_i^(-1/2) A phi_i.

    ``cross_kernel`` has one row per new point and one column per reference
    point; rows are normalized to be stochastic.  Coordinates whose
    eigenvalue is below 1e-12 are skipped (filled with 0) with a warning.
    """
    cross = np.asarray(cross_kernel, dtype=float)
    if cross.ndim != 2 or cross.shape[1] != emb.n:
        raise ValidationError(f"cross kernel must be (N, {emb.n}), got {cross.shape}")
    sums = cross.sum(axis=1)
    bad = np.flatnonzero(sums <= 0)
    if len(bad):
        raise ValidationError(f"cross-kernel rows with zero sum: {bad.tolist()}")
    a_tilde = cross / sums[:, None]

    out = np.zeros((cross.shape[0], emb.dim))
    for i in range(emb.dim):
        lam = emb.eigenvalues[i]
        if lam <= EIGENVALUE_FLOOR:
            warnings.warn(f"skipping extension of coordinate {i}: eigenvalue {lam:.3e} "
                          f"below {EIGENVALUE_FLOOR:.0e}", stacklevel=2)
            continue
        out[:, i] = (a_tilde @ emb.eigenvectors[:, i]) / np.sqrt(lam)
    return out
