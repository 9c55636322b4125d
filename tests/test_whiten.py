import dataclasses

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from expertmap.spectral import Embedding, Kernel, diffusion_embed, nn_bandwidth
from expertmap.whiten import (LocalMoments, extend_standardized, local_moments,
                              one_sided_cross_kernel, standardized_embedding,
                              whitened_distance_matrix)


def coords_embedding(coords, t=1.0):
    """Embedding whose diffusion coordinates are exactly ``coords``."""
    coords = np.asarray(coords, dtype=float)
    return Embedding(eigenvalues=np.ones(coords.shape[1]),
                     eigenvectors=coords, t=t)


def whitened_distance(lm, emb, x, y):
    """Scalar reference: 1/2 (c_x - c_y)^T (S_x+ + S_y+) (c_x - c_y), c = coord - mu."""
    coords = emb.coordinates
    delta = (coords[x] - lm.mu[x]) - (coords[y] - lm.mu[y])
    return float(0.5 * delta @ (lm.sigma_pinv[x] + lm.sigma_pinv[y]) @ delta)


def identity_moments(n, d, coords):
    return LocalMoments(mu=np.zeros((n, d)), sigma_pinv=np.tile(np.eye(d), (n, 1, 1)))


def covariances(coords, k):
    """Oracle: population covariance of each point's k nearest points, self
    included, ties broken by index."""
    hoods = np.argsort(cdist(coords, coords), axis=1, kind="stable")[:, :k]
    centered = coords[hoods] - coords[hoods].mean(axis=1, keepdims=True)
    return np.einsum("nkd,nke->nde", centered, centered) / k


class TestLocalMoments:
    def test_identical_neighbors_zero_covariance(self):
        emb = coords_embedding(np.zeros((5, 2)))
        lm = local_moments(emb, k=5)
        np.testing.assert_array_equal(lm.sigma_pinv, 0.0)

    def test_hand_three_point_neighborhood(self):
        emb = coords_embedding([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        lm = local_moments(emb, k=3)
        np.testing.assert_allclose(lm.mu[2], [0.0, 0.0], atol=1e-12)
        # covariance diag(2/3, 0), whose pseudoinverse is diag(3/2, 0)
        np.testing.assert_allclose(lm.sigma_pinv[2], np.diag([1.5, 0.0]), atol=1e-12)

    def test_k_equals_n_shares_moments(self):
        rng = np.random.default_rng(0)
        emb = coords_embedding(rng.normal(size=(12, 3)))
        lm = local_moments(emb, k=12)
        for i in range(1, 12):
            np.testing.assert_allclose(lm.mu[i], lm.mu[0], atol=1e-12)
            np.testing.assert_allclose(lm.sigma_pinv[i], lm.sigma_pinv[0], atol=1e-9)

    def test_penrose_conditions(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(30, 3))
        lm = local_moments(coords_embedding(coords), k=6)   # k < 2d+2: rank deficiency expected
        for i, s in enumerate(covariances(coords, 6)):
            p = lm.sigma_pinv[i]
            np.testing.assert_allclose(s @ p @ s, s, atol=1e-8)
            np.testing.assert_allclose(p @ s @ p, p, atol=1e-8)
            np.testing.assert_allclose((s @ p).T, s @ p, atol=1e-8)
            np.testing.assert_allclose((p @ s).T, p @ s, atol=1e-8)

    def test_neighborhood_size_clamped(self):
        coords = np.random.default_rng(2).normal(size=(4, 2))
        lm = local_moments(coords_embedding(coords), k=50)
        # every neighborhood is all 4 points, and its covariance divides by 4
        np.testing.assert_allclose(lm.mu, np.tile(coords.mean(axis=0), (4, 1)), atol=1e-12)
        np.testing.assert_allclose(lm.sigma_pinv, np.linalg.pinv(covariances(coords, 4)),
                                   atol=1e-9)


class TestWhitenedDistance:
    def test_identity_moments_reduce_to_squared_euclidean(self):
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(8, 2))
        emb = coords_embedding(coords)
        lm = identity_moments(8, 2, coords)
        for i in range(8):
            for j in range(8):
                expected = np.sum((coords[i] - coords[j]) ** 2)
                assert whitened_distance(lm, emb, i, j) == pytest.approx(expected)

    def test_zero_on_self(self):
        rng = np.random.default_rng(4)
        emb = coords_embedding(rng.normal(size=(10, 3)))
        lm = local_moments(emb, k=5)
        for i in range(10):
            assert whitened_distance(lm, emb, i, i) == 0.0

    def test_matrix_matches_pairwise_and_is_symmetric(self):
        rng = np.random.default_rng(5)
        emb = coords_embedding(rng.normal(size=(12, 2)))
        lm = local_moments(emb, k=6)
        mat = whitened_distance_matrix(lm, emb)
        np.testing.assert_allclose(mat, mat.T, atol=1e-12)
        for i in range(0, 12, 3):
            for j in range(0, 12, 4):
                assert mat[i, j] == pytest.approx(whitened_distance(lm, emb, i, j),
                                                  abs=1e-10)

    def test_global_scale_invariance(self):
        rng = np.random.default_rng(6)
        coords = rng.normal(size=(25, 3))
        for c in (0.1, 3.0, 42.0):
            emb1 = coords_embedding(coords)
            emb2 = coords_embedding(c * coords)
            lm1 = local_moments(emb1, k=8)
            lm2 = local_moments(emb2, k=8)
            d1 = whitened_distance_matrix(lm1, emb1)
            d2 = whitened_distance_matrix(lm2, emb2)
            np.testing.assert_allclose(d1, d2, atol=1e-8 * max(1.0, d1.max()))


def two_spread_clusters(n_per=40, ratio=10.0, gap=12.0, seed=7):
    rng = np.random.default_rng(seed)
    wide = rng.normal(0.0, 1.0, size=(n_per, 2))
    tight = rng.normal(0.0, 1.0 / ratio, size=(n_per, 2)) + np.array([gap, 0.0])
    return np.vstack([wide, tight])


def within_cluster_ratio(coords, n_per):
    from scipy.spatial.distance import pdist
    wide = pdist(coords[:n_per]).mean()
    tight = pdist(coords[n_per:]).mean()
    return wide / tight


class TestStandardizedEmbedding:
    def test_identity_moments_match_plain_diffusion(self):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(30, 2))
        emb = coords_embedding(coords)
        lm = identity_moments(30, 2, coords)
        std = standardized_embedding(emb, lm, d=2, t=1.0, r=5)

        sq = cdist(coords, coords) ** 2
        sigma = nn_bandwidth(sq, 5)
        entries = np.exp(-sq / sigma)
        np.fill_diagonal(entries, 1.0)
        plain = diffusion_embed(Kernel(entries=0.5 * (entries + entries.T)), d=2)
        np.testing.assert_allclose(std.coordinates, plain.coordinates, atol=1e-8)
        assert std.standardized

    def test_homogenizes_planted_spread_ratio(self):
        coords = two_spread_clusters()
        emb = coords_embedding(coords)
        before = within_cluster_ratio(emb.coordinates, 40)
        assert before > 4.0

        lm = local_moments(emb, k=20)
        # d large enough to carry the internal modes of both clusters
        std = standardized_embedding(emb, lm, d=6, t=1.0, r=10)
        after = within_cluster_ratio(std.coordinates, 40)
        assert 0.5 <= after <= 2.0
        assert abs(after - 1.0) < abs(before - 1.0)   # strictly toward 1

        # the whitened distances themselves are already homogenized
        dmat = whitened_distance_matrix(lm, emb)
        wide = dmat[:40, :40][np.triu_indices(40, 1)].mean()
        tight = dmat[40:, 40:][np.triu_indices(40, 1)].mean()
        assert 0.5 <= wide / tight <= 2.0

    def test_permutation_invariance_up_to_rows(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(20, 2))
        perm = rng.permutation(20)
        std1 = standardized_embedding(coords_embedding(coords),
                                      local_moments(coords_embedding(coords), k=6),
                                      d=2, r=5)
        std2 = standardized_embedding(coords_embedding(coords[perm]),
                                      local_moments(coords_embedding(coords[perm]), k=6),
                                      d=2, r=5)
        np.testing.assert_allclose(std2.coordinates, std1.coordinates[perm], atol=1e-8)


class TestExtendStandardized:
    def constant_moment_setup(self, seed=10):
        rng = np.random.default_rng(seed)
        coords = rng.normal(size=(25, 2))
        emb = coords_embedding(coords)
        # spatially constant moments: every point shares the global ones
        lm_global = local_moments(emb, k=25)
        std = standardized_embedding(emb, lm_global, d=3, t=1.0, r=5)
        return coords, emb, lm_global, std

    def test_self_extension_proportional_to_sqrt_s_psi(self):
        coords, emb, lm, std = self.constant_moment_setup()
        # with constant moments, b at half the bandwidth coincides with the
        # standardized kernel W, so the plain Nystrom algebra applies exactly
        half = dataclasses.replace(std, bandwidth={**std.bandwidth,
                                                   "value": std.bandwidth["value"] / 2.0})
        extended, _ = extend_standardized(lm, emb, half, coords)
        expected = std.eigenvectors * np.sqrt(std.eigenvalues)[None, :]
        np.testing.assert_allclose(extended, expected,
                                   atol=1e-8 * np.abs(expected).max())

    def test_duplicate_point_matches_reference_row(self):
        coords, emb, lm, std = self.constant_moment_setup(seed=11)
        z = 4
        whole, _ = extend_standardized(lm, emb, std, coords)
        dup, _ = extend_standardized(lm, emb, std, coords[[z]])
        np.testing.assert_allclose(dup[0], whole[z], atol=1e-8)

    def test_uniform_row_gives_scaled_mean(self):
        rng = np.random.default_rng(12)
        coords = rng.normal(size=(15, 2))
        emb = coords_embedding(coords)
        lm_real = local_moments(emb, k=6)
        std = standardized_embedding(emb, lm_real, d=2, t=1.0, r=5)
        # zero pseudoinverses make every one-sided affinity 1 (uniform row)
        lm_flat = LocalMoments(mu=lm_real.mu, sigma_pinv=np.zeros_like(lm_real.sigma_pinv))
        out, nearest = extend_standardized(lm_flat, emb, std, coords[[0]])
        expected = std.eigenvectors.mean(axis=0) / np.sqrt(std.eigenvalues)
        np.testing.assert_allclose(out[0], expected, atol=1e-10)
        assert nearest.tolist() == [0.0]

    def test_far_point_gets_finite_coordinates(self):
        # 1e3 spreads from the reference set, exp of the one-sided form
        # underflows to 0 for every reference point
        coords, emb, lm, std = self.constant_moment_setup(seed=15)
        far = coords.mean(axis=0) + 1e3 * coords.std(axis=0)
        out, nearest = extend_standardized(lm, emb, std, far[None, :])
        assert np.all(np.isfinite(out)) and nearest[0] > 745.0

    def test_one_sided_kernel_centers_cancel(self):
        rng = np.random.default_rng(13)
        coords = rng.normal(size=(10, 2))
        emb = coords_embedding(coords)
        lm = local_moments(emb, k=4)
        e = one_sided_cross_kernel(lm, coords, coords[:3], sigma=1.0)
        # the mu_y centering appears on both sides and cancels exactly
        for i in range(3):
            for j in range(10):
                delta = coords[i] - coords[j]
                expected = 0.5 * delta @ lm.sigma_pinv[j] @ delta
                assert e[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # each new point is a reference point, at exponent 0 from itself
        assert e.min(axis=1).tolist() == [0.0] * 3

    def test_one_sided_kernel_matches_the_per_reference_einsum(self):
        rng = np.random.default_rng(14)
        coords = rng.normal(size=(40, 3))
        emb = coords_embedding(coords)
        lm = local_moments(emb, k=6)
        new = rng.normal(size=(25, 3)) * 1.5
        sigma = 0.7
        # oracle: the form as written, centered at mu_y on both sides
        oracle = np.empty((25, 40))
        for j in range(40):
            u = (new - lm.mu[j]) - (coords[j] - lm.mu[j])
            oracle[:, j] = 0.5 * np.einsum("nd,de,ne->n", u, lm.sigma_pinv[j], u) / sigma
        e = one_sided_cross_kernel(lm, coords, new, sigma)
        assert e.shape == (25, 40)
        np.testing.assert_allclose(e, oracle, rtol=1e-12, atol=1e-12)
