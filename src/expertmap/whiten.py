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
from .spectral import (Embedding, Kernel, _symmetrize, diffusion_embed, exp_kernel,
                       nearest_neighbours, nn_bandwidth, nystrom_extend, row_tiles)


@dataclass(frozen=True)
class LocalMoments:
    """Per-point neighborhood mean and covariance pseudoinverse."""

    mu: np.ndarray              # (n, d)
    sigma_pinv: np.ndarray      # (n, d, d)


# eigenvalues at or below this fraction of a covariance's largest are
# dropped from its pseudoinverse
PINV_TOL = 1e-6


def _eigh_pinv(mats: np.ndarray) -> np.ndarray:
    """PSD pseudoinverses of a stack of matrices via eigendecomposition, each
    with the relative cutoff PINV_TOL on its own lambda_max."""
    vals, vecs = np.linalg.eigh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
    top = vals.max(axis=-1, initial=0.0, keepdims=True)
    keep = vals > PINV_TOL * top
    inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    pinv = (vecs * inv[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    # no positive eigenvalue: the pseudoinverse is +0, where the product
    # may have left -0.0
    pinv[top[..., 0] <= 0.0] = 0.0
    return pinv


def local_moments(emb: Embedding, k: int | None = None) -> LocalMoments:
    """k-NN moments around every point of the embedding (population 1/k).

    ``k`` None means max(2d + 2, 20), enough to make a d-dimensional
    covariance estimable; k is clamped to the point count.  A point's
    neighbourhood counts the point itself, and of equally near points the
    lower index first.  Rank-deficient covariances are expected when k is
    small relative to the dimension; the pseudoinverse handles them.

    The moments are formed a TILE of points at a time, each tile's
    covariances and pseudoinverses by one stacked product and one stacked
    ``eigh``; each point's result has the bits of the same steps taken on
    that point alone.
    """
    coords = emb.coordinates
    n, d = coords.shape
    k = min(max(2 * d + 2, 20) if k is None else int(k), n)

    hoods, _ = nearest_neighbours(coords, k)

    mu = np.empty((n, d))
    pinv = np.empty((n, d, d))
    for rows in row_tiles(n):
        blocks = coords[hoods[rows]]                 # (tile, k, d)
        mu[rows] = blocks.mean(axis=1)
        blocks -= mu[rows, None, :]
        cov = np.swapaxes(blocks, 1, 2) @ blocks
        cov /= k
        pinv[rows] = _eigh_pinv(cov)
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
    _symmetrize(q)
    np.fill_diagonal(q, 0.0)
    return np.maximum(q, 0.0, out=q)


def standardized_kernel(emb: Embedding, lm: LocalMoments, r: int = 10) -> Kernel:
    """W = exp(-d_t / sigma) on whitened distances.

    The bandwidth uses the same mean r-th-nearest-neighbor rule as the
    Gaussian kernel, applied to the whitened distance values directly (they
    enter the kernel un-square-rooted).
    """
    dmat = whitened_distance_matrix(lm, emb)
    sigma = nn_bandwidth(dmat, r)
    if sigma <= 0.0:
        raise ValidationError("whitened distances are all zero; cannot set a bandwidth")
    dmat /= sigma
    return exp_kernel(dmat, {"rule": f"mean-{r}nn-whitened", "value": sigma})


def standardized_embedding(kernel: Kernel, d: int, t: float = 1.0) -> Embedding:
    """Diffusion embedding of a ``standardized_kernel``."""
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
