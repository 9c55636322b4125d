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
    off = np.sort(distances + np.diag(np.full(n, np.inf)), axis=1)
    r_eff = min(r, n - 1)
    return float(off[:, r_eff - 1].mean())


def gaussian_kernel(vectors: np.ndarray, r: int = 10) -> Kernel:
    """K(x,y) = exp(-|x-y|^2 / sigma^2), sigma = mean r-th-NN distance."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 2:
        raise ValidationError("gaussian_kernel needs >= 2 vectors")
    dists = cdist(vectors, vectors)
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


def _symmetric_eigensystem(k: Kernel):
    """All eigenpairs of P via the conjugate symmetric matrix, descending."""
    sums = k.entries.sum(axis=1)
    if np.any(sums <= 0):
        raise ValidationError("zero kernel row sum")
    half = 1.0 / np.sqrt(sums)
    sym = half[:, None] * k.entries * half[None, :]
    sym = 0.5 * (sym + sym.T)
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


def diffusion_embed(k: Kernel, d: int, t: float = 1.0) -> Embedding:
    """Embed by the top-d nontrivial eigenpairs of the normalized kernel.

    Eigenvector signs are fixed deterministically (largest-magnitude entry
    positive) so repeated runs agree bit for bit.
    """
    n = k.size
    if not 1 <= d < n:
        raise ValidationError(f"embedding dimension must satisfy 1 <= d < n, got d={d}, n={n}")
    if t <= 0:
        raise ValidationError(f"diffusion time must be positive, got {t}")
    eigvals, phi = _symmetric_eigensystem(k)
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
