"""Local z-scoring of an embedding into a homogeneous metric.

Every point gets the mean and covariance of its k nearest neighbors in
embedding coordinates; distances are measured after centering each side at
its own neighborhood and scaling by the averaged covariance pseudoinverses.
The kernel of that distance yields the standardized embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ValidationError
from .spectral import (Embedding, Kernel, diffusion_embed, nn_bandwidth,
                       nystrom_extend)


@dataclass(frozen=True)
class LocalMoments:
    """Per-point neighborhood mean, covariance, and pseudoinverse."""

    neighborhoods: np.ndarray   # (n, k) neighbor indices, self included
    mu: np.ndarray              # (n, d)
    sigma: np.ndarray           # (n, d, d)
    sigma_pinv: np.ndarray      # (n, d, d)
    k: int

    @property
    def n(self) -> int:
        return self.mu.shape[0]


def _eigh_pinv(mat: np.ndarray, rel_tol: float = 1e-6) -> np.ndarray:
    """PSD pseudoinverse via eigendecomposition, relative cutoff on lambda_max."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    top = vals.max(initial=0.0)
    if top <= 0.0:
        return np.zeros_like(mat)
    keep = vals > rel_tol * top
    inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def default_neighborhood(d: int) -> int:
    """k large enough to make a d-dimensional covariance estimable."""
    return max(2 * d + 2, 20)


def local_moments(emb: Embedding, k: int | None = None,
                  pinv_tol: float = 1e-6) -> LocalMoments:
    """k-NN moments around every point of the embedding (population 1/k).

    Rank-deficient covariances are expected when k is small relative to the
    dimension; the pseudoinverse handles them.
    """
    coords = emb.coordinates
    n, d = coords.shape
    if k is None:
        k = default_neighborhood(d)
    k = min(k, n)

    dists = cdist(coords, coords)
    order = np.argsort(dists, axis=1, kind="stable")
    hoods = order[:, :k]

    mu = np.empty((n, d))
    sigma = np.empty((n, d, d))
    pinv = np.empty((n, d, d))
    for i in range(n):
        block = coords[hoods[i]]
        mu[i] = block.mean(axis=0)
        centered = block - mu[i]
        sigma[i] = centered.T @ centered / k
        pinv[i] = _eigh_pinv(sigma[i], pinv_tol)
    return LocalMoments(neighborhoods=hoods, mu=mu, sigma=sigma,
                        sigma_pinv=pinv, k=k)


def whitened_distance_matrix(lm: LocalMoments, emb: Embedding) -> np.ndarray:
    """All pairwise whitened distances (squared-distance-like, not rooted).

    d_t(x,y) = 1/2 (c_x - c_y)^T (S_x+ + S_y+) (c_x - c_y), c = coord - mu.
    """
    coords = emb.coordinates
    centered = coords - lm.mu
    n = coords.shape[0]
    q = np.empty((n, n))
    for i in range(n):
        diff = centered[i] - centered          # (n, d)
        q[i] = np.einsum("nd,de,ne->n", diff, lm.sigma_pinv[i], diff)
    out = 0.5 * (q + q.T)
    np.fill_diagonal(out, 0.0)
    return np.maximum(out, 0.0)


def standardized_embedding(emb: Embedding, lm: LocalMoments, d: int,
                           t: float = 1.0, r: int = 10) -> Embedding:
    """Diffusion embedding of W = exp(-d_t / sigma) on whitened distances.

    The bandwidth uses the same mean r-th-nearest-neighbor rule as the
    Gaussian kernel, applied to the whitened distance values directly (they
    enter the kernel un-square-rooted).
    """
    dmat = whitened_distance_matrix(lm, emb)
    sigma = nn_bandwidth(dmat, r)
    if sigma <= 0.0:
        raise ValidationError("whitened distances are all zero; cannot set a bandwidth")
    entries = np.exp(-dmat / sigma)
    entries = 0.5 * (entries + entries.T)
    np.fill_diagonal(entries, 1.0)
    kernel = Kernel(entries=entries, bandwidth={"rule": f"mean-{r}nn-whitened",
                                                "value": sigma})
    out = diffusion_embed(kernel, d=d, t=t)
    return Embedding(eigenvalues=out.eigenvalues, eigenvectors=out.eigenvectors,
                     t=out.t, bandwidth=out.bandwidth, standardized=True)


def one_sided_cross_kernel(lm: LocalMoments, ref_coords: np.ndarray,
                           new_coords: np.ndarray, sigma: float) -> np.ndarray:
    """b(x,y) = exp(-1/2 [(x - mu_y) - (y - mu_y)]^T S_y+ [...] / sigma).

    Only the reference point's moments appear.  Both terms are centered at
    mu_y, so mu_y cancels: the form is (x - y)^T S_y+ (x - y), computed for
    all new points x against one reference point y at a time.  Returns one
    row per new point and one column per reference point.
    """
    q = np.empty((ref_coords.shape[0], new_coords.shape[0]))
    for j, y in enumerate(ref_coords):
        u = new_coords - y
        q[j] = np.einsum("nd,nd->n", u @ lm.sigma_pinv[j], u)
    q /= -2.0 * sigma
    np.exp(q, out=q)
    return q.T


def extend_standardized(lm: LocalMoments, emb_full: Embedding, psi: Embedding,
                        new_coords: np.ndarray,
                        sigma: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Extend the standardized eigenvectors to new embedding coordinates.

    ``new_coords`` are diffusion coordinates of the new points (already
    extended through the plain Nystrom step).  This is the Nystrom extension
    of ``psi`` with the one-sided kernel B as the cross kernel: rows of B are
    normalized and each eigenvector maps through s_i^(-1/2) B psi_i.
    Returns the extended coordinates and the row sums of B, the kernel mass
    each new point has on the reference set.
    """
    new_coords = np.atleast_2d(np.asarray(new_coords, dtype=float))
    if new_coords.shape[1] != emb_full.dim:
        raise ValidationError(f"new coordinates must have dimension {emb_full.dim}")
    if sigma is None:
        sigma = psi.bandwidth.get("value")
        if sigma is None:
            raise ValidationError("no bandwidth stored on the standardized embedding; "
                                  "pass sigma explicitly")

    b = one_sided_cross_kernel(lm, emb_full.coordinates, new_coords, float(sigma))
    return nystrom_extend(psi, b), b.sum(axis=1)
