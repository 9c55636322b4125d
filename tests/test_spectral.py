import numpy as np
import pytest

from expertmap.errors import ValidationError
from expertmap.spectral import (Embedding, Kernel, diffusion_embed, gaussian_kernel,
                                kernel_from_distances, log_domain_kernel, markov_normalize,
                                neighbour_overlap, nn_bandwidth, nystrom_extend)


def two_cluster_points(n_per=20, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, size=(n_per, 2))
    b = rng.normal(0.0, 0.5, size=(n_per, 2)) + np.array([gap, 0.0])
    return np.vstack([a, b])


class TestGaussianKernel:
    def test_unit_diagonal(self):
        k = gaussian_kernel(np.random.default_rng(1).normal(size=(15, 3)))
        np.testing.assert_array_equal(np.diag(k.entries), 1.0)

    def test_distance_sigma_gives_inverse_e(self):
        vectors = np.array([[0.0], [1.0], [2.5]])
        k = gaussian_kernel(vectors, r=1)
        sigma = k.bandwidth["value"]
        i, j = 0, 1
        d = abs(vectors[i, 0] - vectors[j, 0])
        assert k.entries[i, j] == pytest.approx(np.exp(-(d / sigma) ** 2))

    def test_three_collinear_points(self):
        # nearest-neighbor distances are all 1, so sigma = 1 and
        # K(0, 2) = exp(-4)
        k = gaussian_kernel(np.array([[0.0], [1.0], [2.0]]), r=1)
        assert k.bandwidth["value"] == pytest.approx(1.0)
        assert k.entries[0, 2] == pytest.approx(np.exp(-4.0))

    def test_identical_points_rejected(self):
        with pytest.raises(ValidationError, match="identical"):
            gaussian_kernel(np.zeros((5, 2)))

    def test_rule_matches_mean_rth_neighbor(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(30, 4))
        k = gaussian_kernel(vectors, r=5)
        from scipy.spatial.distance import cdist
        dists = cdist(vectors, vectors)
        np.fill_diagonal(dists, np.inf)
        expected = np.sort(dists, axis=1)[:, 4].mean()
        assert k.bandwidth["value"] == pytest.approx(expected)

    def test_from_distances_ignores_the_diagonal(self):
        vectors = np.random.default_rng(3).normal(size=(12, 3))
        dists = np.linalg.norm(vectors[:, None] - vectors[None], axis=2)
        np.fill_diagonal(dists, 1e-7)       # as a BLAS expansion can leave it
        k, ref = kernel_from_distances(dists, r=3), gaussian_kernel(vectors, r=3)
        assert k.bandwidth["rule"] == ref.bandwidth["rule"]
        assert k.bandwidth["value"] == pytest.approx(ref.bandwidth["value"], rel=1e-14)
        np.testing.assert_allclose(k.entries, ref.entries, rtol=1e-13)


class TestMarkovNormalize:
    def test_rows_sum_to_one(self):
        k = gaussian_kernel(np.random.default_rng(3).normal(size=(20, 3)))
        p = markov_normalize(k)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_all_ones_kernel_is_uniform_with_flat_spectrum(self):
        n = 8
        k = Kernel(entries=np.ones((n, n)))
        p = markov_normalize(k)
        np.testing.assert_allclose(p, 1.0 / n)
        emb = diffusion_embed(k, d=3)
        np.testing.assert_allclose(emb.eigenvalues, 0.0, atol=1e-12)

    def test_two_components_give_double_unit_eigenvalue(self):
        block = np.ones((4, 4))
        entries = np.block([[block, np.zeros((4, 4))],
                            [np.zeros((4, 4)), block]])
        emb = diffusion_embed(Kernel(entries=entries), d=2)
        assert emb.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert emb.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

def test_zero_row_sum_names_point():
    entries = np.array([[1.0, 0.5, 0.0],
                        [0.5, 1.0, 0.0],
                        [0.0, 0.0, 1.0]])
    k = Kernel(entries=entries)
    # strip the self-affinity so the isolated point really has row sum 0
    bad = k.entries.copy()
    bad[2, 2] = 0.0
    object.__setattr__(k, "entries", bad)
    with pytest.raises(ValidationError, match=r"\[2\]"):
        markov_normalize(k)


class TestDiffusionEmbed:
    def test_sign_separates_planted_clusters(self):
        pts = two_cluster_points()
        emb = diffusion_embed(gaussian_kernel(pts, r=5), d=1)
        phi = emb.eigenvectors[:, 0]
        first, second = phi[:20], phi[20:]
        assert (first.min() > 0 > second.max()) or (second.min() > 0 > first.max())

    def test_time_scales_each_axis(self):
        pts = two_cluster_points(seed=4)
        k = gaussian_kernel(pts, r=5)
        e1 = diffusion_embed(k, d=3, t=1.0)
        e2 = diffusion_embed(k, d=3, t=2.0)
        np.testing.assert_allclose(e2.coordinates,
                                   e1.coordinates * e1.eigenvalues[None, :],
                                   atol=1e-10)
        # per-axis distance ordering is preserved under the monotone rescale
        for axis in range(3):
            a = np.abs(e1.coordinates[:, axis][:, None] - e1.coordinates[:, axis])
            b = np.abs(e2.coordinates[:, axis][:, None] - e2.coordinates[:, axis])
            iu = np.triu_indices(len(pts), 1)
            order_a = np.argsort(a[iu], kind="stable")
            order_b = np.argsort(b[iu], kind="stable")
            assert np.array_equal(a[iu][order_a] == 0, b[iu][order_b] == 0)
            corr = np.corrcoef(a[iu], b[iu])[0, 1]
            assert corr > 0.99 or np.isnan(corr)

    def test_rank_one_kernel_collapses(self):
        emb = diffusion_embed(Kernel(entries=np.ones((6, 6))), d=2)
        assert np.max(np.abs(emb.coordinates)) < 1e-8

    def test_eigen_residuals(self):
        pts = np.random.default_rng(5).normal(size=(25, 3))
        k = gaussian_kernel(pts, r=5)
        emb = diffusion_embed(k, d=5)
        p = markov_normalize(k)
        for i in range(emb.dim):
            phi = emb.eigenvectors[:, i]
            res = np.linalg.norm(p @ phi - emb.eigenvalues[i] * phi)
            assert res <= 1e-8 * np.linalg.norm(phi)

    def test_orthonormal_under_stationary_measure(self):
        pts = np.random.default_rng(6).normal(size=(30, 3))
        k = gaussian_kernel(pts, r=5)
        emb = diffusion_embed(k, d=4)
        degrees = k.entries.sum(axis=1)
        pi = degrees / degrees.sum()          # stationary measure of P
        gram = (emb.eigenvectors * pi[:, None]).T @ emb.eigenvectors
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_permutation_equivariance(self):
        pts = two_cluster_points(seed=7)
        rng = np.random.default_rng(8)
        perm = rng.permutation(len(pts))
        e1 = diffusion_embed(gaussian_kernel(pts, r=5), d=2)
        e2 = diffusion_embed(gaussian_kernel(pts[perm], r=5), d=2)
        np.testing.assert_allclose(e2.coordinates, e1.coordinates[perm], atol=1e-8)

    @pytest.mark.parametrize("n, d", [(60, 4), (9, 8)])
    def test_lanczos_agrees_with_the_full_solve(self, n, d):
        # n = 9, d = 8: d + 1 = n eigenpairs are all of them, a full solve
        k = gaussian_kernel(np.random.default_rng(14).normal(size=(n, 3)), r=3)
        full, top = diffusion_embed(k, d=d), diffusion_embed(k, d=d, lanczos=True)
        np.testing.assert_allclose(top.eigenvalues, full.eigenvalues, rtol=0, atol=1e-12)
        np.testing.assert_allclose(top.coordinates, full.coordinates, rtol=0, atol=1e-9)

    def test_dimension_bounds(self):
        k = gaussian_kernel(np.random.default_rng(9).normal(size=(10, 2)), r=3)
        with pytest.raises(ValidationError):
            diffusion_embed(k, d=10)
        with pytest.raises(ValidationError):
            diffusion_embed(k, d=2, t=0.0)


def test_log_domain_kernel_keeps_a_far_row():
    exponents = np.array([[1000.0, 1001.0, 1e6], [0.0, 2.0, 1.0]])
    kernel, nearest = log_domain_kernel(exponents)
    assert kernel is exponents
    assert nearest.tolist() == [1000.0, 0.0]
    np.testing.assert_allclose(kernel, [[1.0, np.exp(-1.0), 0.0],
                                        [1.0, np.exp(-2.0), np.exp(-1.0)]], rtol=1e-15)


class TestNystrom:
    def test_self_extension_gives_sqrt_lambda_phi(self):
        pts = two_cluster_points(seed=10)
        k = gaussian_kernel(pts, r=5)
        emb = diffusion_embed(k, d=3)
        extended = nystrom_extend(emb, k.entries)
        expected = emb.eigenvectors * np.sqrt(emb.eigenvalues)[None, :]
        err = np.abs(extended - expected).max() / np.abs(expected).max()
        assert err < 1e-8

    def test_duplicate_point_matches(self):
        pts = two_cluster_points(seed=11)
        k = gaussian_kernel(pts, r=5)
        emb = diffusion_embed(k, d=3)
        z = 7
        cross = k.entries[[z], :]
        row = nystrom_extend(emb, cross)
        whole = nystrom_extend(emb, k.entries)
        np.testing.assert_allclose(row[0], whole[z], atol=1e-8)

    def test_uniform_row_gives_scaled_mean(self):
        pts = two_cluster_points(seed=12)
        k = gaussian_kernel(pts, r=5)
        emb = diffusion_embed(k, d=1)
        out = nystrom_extend(emb, np.ones((1, len(pts))))
        expected = emb.eigenvectors[:, 0].mean() / np.sqrt(emb.eigenvalues[0])
        assert out[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_tiny_eigenvalue_skipped_with_warning(self):
        emb = Embedding(eigenvalues=np.array([0.5, 1e-15]),
                        eigenvectors=np.random.default_rng(13).normal(size=(6, 2)),
                        t=1.0)
        with pytest.warns(UserWarning, match="skipping"):
            out = nystrom_extend(emb, np.ones((2, 6)))
        np.testing.assert_array_equal(out[:, 1], 0.0)


def test_nn_bandwidth_uses_farthest_when_r_too_large():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert nn_bandwidth(d, r=10) == pytest.approx(1.0)


class TestNeighbourOverlap:
    def test_same_geometry_overlaps_fully(self):
        coords = np.random.default_rng(4).normal(size=(30, 3))
        assert neighbour_overlap(coords, 2.0 * coords + 1.0, 5) == 1.0

    def test_hand_line(self):
        # nearest neighbour, ties to the lower index: 1, 0, 1, 2 on the line
        # 0 1 2 3, and 1, 0, 3, 1 when the last two points swap places
        a = np.array([[0.0], [1.0], [2.0], [3.0]])
        b = np.array([[0.0], [1.0], [3.0], [2.0]])
        assert neighbour_overlap(a, b, 1) == 0.5

    def test_k_clamped_to_the_other_points(self):
        coords = np.random.default_rng(5).normal(size=(4, 2))
        other = np.random.default_rng(6).normal(size=(4, 2))
        assert neighbour_overlap(coords, other, 10) == 1.0

    def test_matches_a_stable_sort_with_ties(self):
        # integer coordinates tie often; of equal distances the lower index
        # counts as nearer, as a stable sort orders them
        rng = np.random.default_rng(7)
        a, b = rng.integers(0, 4, size=(40, 2)), rng.integers(0, 4, size=(40, 2))

        def nearest(coords, k):
            dists = np.linalg.norm(coords[:, None] - coords[None], axis=2)
            np.fill_diagonal(dists, np.inf)
            return [set(row[:k]) for row in np.argsort(dists, axis=1, kind="stable")]
        for k in (1, 3, 7):
            expected = sum(len(x & y) for x, y in zip(nearest(a, k), nearest(b, k)))
            assert neighbour_overlap(a, b, k) == expected / (40 * k)
