"""Local z-scoring of an embedding into a homogeneous metric.

Every point gets the mean and covariance of its k nearest neighbors in
embedding coordinates; distances are measured after centering each side at
its own neighborhood and scaling by the averaged covariance pseudoinverses.
The kernel of that distance yields the standardized embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import (Embedding, diffusion_embed, exact_distances, exp_kernel, nn_bandwidth,
                       nystrom_extend)


@dataclass(frozen=True)
class LocalMoments:
    """Per-point neighborhood mean and covariance pseudoinverse."""

    mu: np.ndarray              # (n, d)
    sigma_pinv: np.ndarray      # (n, d, d)


def _eigh_pinv(mat: np.ndarray, rel_tol: float = 1e-6) -> np.ndarray:
    """PSD pseudoinverse via eigendecomposition, relative cutoff on lambda_max."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    top = vals.max(initial=0.0)
    if top <= 0.0:
        return np.zeros_like(mat)
    keep = vals > rel_tol * top
    inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def local_moments(emb: Embedding, k: int | None = None,
                  pinv_tol: float = 1e-6) -> LocalMoments:
    """k-NN moments around every point of the embedding (population 1/k).

    ``k`` None means max(2d + 2, 20), enough to make a d-dimensional
    covariance estimable; k is clamped to the point count.  Rank-deficient
    covariances are expected when k is small relative to the dimension; the
    pseudoinverse handles them.
    """
    coords = emb.coordinates
    n, d = coords.shape
    k = min(max(2 * d + 2, 20) if k is None else int(k), n)

    dists = exact_distances(coords, "euclidean")
    order = np.argsort(dists, axis=1, kind="stable")
    hoods = order[:, :k]

    mu = np.empty((n, d))
    pinv = np.empty((n, d, d))
    for i in range(n):
        block = coords[hoods[i]]
        mu[i] = block.mean(axis=0)
        centered = block - mu[i]
        pinv[i] = _eigh_pinv(centered.T @ centered / k, pinv_tol)
    return LocalMoments(mu=mu, sigma_pinv=pinv)


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
    kernel = exp_kernel(dmat / sigma, {"rule": f"mean-{r}nn-whitened", "value": sigma})
    out = diffusion_embed(kernel, d=d, t=t)
    return Embedding(eigenvalues=out.eigenvalues, eigenvectors=out.eigenvectors,
                     t=out.t, bandwidth=out.bandwidth, standardized=True)


def one_sided_cross_kernel(lm: LocalMoments, ref_coords: np.ndarray, new_coords: np.ndarray,
                           sigma: float) -> np.ndarray:
    """The exponents e(x,y) = 1/2 [(x - mu_y) - (y - mu_y)]^T S_y+ [...] / sigma
    of the one-sided kernel b(x,y) = exp(-e(x,y)).

    Only the reference point's moments appear.  Both terms are centered at
    mu_y, so mu_y cancels: the form is (x - y)^T S_y+ (x - y), computed for
    all new points x against one reference point y at a time.  The result
    has one row per new point and one column per reference point.
    """
    q = np.empty((ref_coords.shape[0], new_coords.shape[0]))
    for j, y in enumerate(ref_coords):
        u = new_coords - y
        q[j] = np.einsum("nd,nd->n", u @ lm.sigma_pinv[j], u)
    q /= 2.0 * sigma
    return q.T


def extend_standardized(lm: LocalMoments, emb_full: Embedding, psi: Embedding,
                        new_coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend the standardized eigenvectors to new embedding coordinates.

    ``new_coords`` are diffusion coordinates of the new points (already
    extended through the plain Nystrom step).  This is the Nystrom extension
    of ``psi`` with the one-sided kernel B as the cross kernel: rows of B are
    normalized and each eigenvector maps through s_i^(-1/2) B psi_i, with
    the bandwidth ``psi`` was built with.  Returns the extended coordinates
    and each new point's smallest exponent of B, q/(2 sigma) for the squared
    whitened distance q to its nearest reference point.
    """
    new_coords = np.atleast_2d(np.asarray(new_coords, dtype=float))
    if new_coords.shape[1] != emb_full.dim:
        raise ValidationError(f"new coordinates must have dimension {emb_full.dim}")
    return nystrom_extend(psi, one_sided_cross_kernel(lm, emb_full.coordinates, new_coords,
                                                      float(psi.bandwidth["value"])))
