import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist as scipy_cdist

from expertmap.errors import ValidationError
from expertmap.spectral import (Embedding, Kernel, _top_eigenpairs, diffusion_embed,
                                exact_distances, gaussian_kernel, kernel_from_distances,
                                markov_normalize, neighbour_overlap, nn_bandwidth,
                                nystrom_extend)


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
        dists = scipy_cdist(vectors, vectors)
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
    def test_agrees_with_eigh(self, n, d):
        # n = 9, d = 8: d + 1 = n eigenpairs are all of them, a full solve
        k = gaussian_kernel(np.random.default_rng(14).normal(size=(n, 3)), r=3)
        emb = diffusion_embed(k, d=d)
        sums = k.entries.sum(axis=1)
        vals, vecs = np.linalg.eigh(conjugate(k))
        vals, vecs = vals[::-1][1:d + 1], vecs[:, ::-1][:, 1:d + 1]
        phi = np.sqrt(sums.sum() / sums)[:, None] * vecs
        phi *= np.sign(phi[np.abs(phi).argmax(axis=0), np.arange(d)])
        np.testing.assert_allclose(emb.eigenvalues, vals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(emb.coordinates, phi * vals, rtol=0, atol=1e-9)

    def test_dimension_bounds(self):
        k = gaussian_kernel(np.random.default_rng(9).normal(size=(10, 2)), r=3)
        with pytest.raises(ValidationError):
            diffusion_embed(k, d=10)
        with pytest.raises(ValidationError):
            diffusion_embed(k, d=2, t=0.0)


def conjugate(k):
    """The symmetric conjugate D^-1/2 K D^-1/2 of a kernel's Markov matrix."""
    half = 1.0 / np.sqrt(k.entries.sum(axis=1))
    sym = half[:, None] * k.entries * half[None, :]
    return 0.5 * (sym + sym.T)


def block_kernel(*parts):
    """The block-diagonal Kernel of the Gaussian kernels of ``parts``: one
    graph component per part, so eigenvalue 1 repeats once per part."""
    sizes = [len(p) for p in parts]
    entries = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for part, size in zip(parts, sizes):
        entries[at:at + size, at:at + size] = gaussian_kernel(part, r=3).entries
        at += size
    return Kernel(entries=entries)


class TestTopEigenpairs:
    """_top_eigenpairs against np.linalg.eigh: eigenvalues within 1e-12 and
    unit eigenvectors within 1e-10, up to sign, or, for a repeated
    eigenvalue, the same projector onto its eigenspace."""

    def solve(self, k, count, monkeypatch, start=None):
        """(top eigenpairs, eigh's top eigenpairs, whether eigh ran on all of
        the conjugate), both descending; the Krylov basis starts at sqrt(D)
        unless ``start`` is given."""
        sym = conjugate(k)
        want_vals, want_vecs = np.linalg.eigh(sym)
        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real_eigh(a))
        if start is None:
            start = np.sqrt(k.entries.sum(axis=1))
        vals, vecs = _top_eigenpairs(sym, count, start)
        monkeypatch.undo()
        assert vals.shape == (count,) and vecs.shape == (k.size, count)
        return ((vals[::-1], vecs[:, ::-1]),
                (want_vals[::-1][:count], want_vecs[:, ::-1][:, :count]),
                sym.shape in calls)

    def assert_same(self, got, want, repeated=0):
        (vals, vecs), (want_vals, want_vecs) = got, want
        np.testing.assert_allclose(vals, want_vals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(len(vals)), rtol=0, atol=1e-12)
        # the first ``repeated`` pairs share one eigenvalue: compare projectors
        np.testing.assert_allclose(vecs[:, :repeated] @ vecs[:, :repeated].T,
                                   want_vecs[:, :repeated] @ want_vecs[:, :repeated].T,
                                   rtol=0, atol=1e-10)
        rest, want_rest = vecs[:, repeated:], want_vecs[:, repeated:]
        rest = rest * np.sign(np.sum(rest * want_rest, axis=0))
        np.testing.assert_allclose(rest, want_rest, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("count", [1, 9, 20])
    def test_gaussian_kernel(self, count, monkeypatch):
        k = gaussian_kernel(np.random.default_rng(20).normal(size=(150, 3)), r=5)
        got, want, full = self.solve(k, count, monkeypatch)
        assert not full
        self.assert_same(got, want)

    def test_disconnected_kernel_repeats_one(self, monkeypatch):
        rng = np.random.default_rng(21)
        k = block_kernel(*(rng.normal(size=(n, 2)) for n in (30, 25, 20)))
        got, want, _ = self.solve(k, 6, monkeypatch)
        np.testing.assert_allclose(got[0][:3], 1.0, rtol=0, atol=1e-12)
        self.assert_same(got, want, repeated=3)

    def test_a_missed_eigenvalue_takes_the_full_solve(self, monkeypatch):
        # a start with no entry on the second component keeps every Krylov
        # vector off it exactly, so the Ritz pairs converge without that
        # component's eigenvalue 1; only the Cholesky check can tell
        rng = np.random.default_rng(27)
        k = block_kernel(rng.normal(size=(150, 2)), rng.normal(size=(40, 2)))
        start = np.concatenate([rng.standard_normal(150), np.zeros(40)])
        got, want, full = self.solve(k, 3, monkeypatch, start)
        assert full
        self.assert_same(got, want, repeated=2)

    def test_two_components_stay_on_the_krylov_basis(self, monkeypatch):
        # past sqrt(D), eigenvalue 1 has one direction left, which the
        # sequence finds
        rng = np.random.default_rng(22)
        k = block_kernel(rng.normal(size=(60, 2)), rng.normal(size=(50, 2)))
        got, want, full = self.solve(k, 3, monkeypatch)
        assert not full
        self.assert_same(got, want, repeated=2)

    @pytest.mark.parametrize("count", [8, 9])
    def test_count_of_n_minus_one_or_more(self, count, monkeypatch):
        k = gaussian_kernel(np.random.default_rng(23).normal(size=(9, 2)), r=3)
        got, want, full = self.solve(k, count, monkeypatch)
        assert full
        self.assert_same(got, want)

    def test_early_invariant_subspace(self, monkeypatch):
        # four distinct points, ten copies each: the conjugate has rank 4, so
        # the Krylov space closes after a few vectors and restarts
        rng = np.random.default_rng(24)
        k = gaussian_kernel(np.repeat(rng.normal(size=(4, 2)), 10, axis=0), r=12)
        got, want, full = self.solve(k, 3, monkeypatch)
        assert not full
        self.assert_same(got, want)


@st.composite
def rows_with_ties(draw):
    """Up to 40 rows of up to 12 features, some of them copies of another
    row or all zero."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    x = draw(hnp.arrays(np.float64, (n, m), elements=st.floats(-1e6, 1e6))).copy()
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-1, n - 1)),
                              max_size=n)):
        x[a] = 0.0 if b < 0 else x[b]
    return x


# 90 x 17 x 90 terms: blocks of 42, 42 and 6 rows at EXACT_BLOCK = 2^16,
# with duplicate and zero rows among them
MANY_ROWS = np.random.default_rng(25).normal(size=(90, 17)) * 1e3
MANY_ROWS[40:50] = MANY_ROWS[3]
MANY_ROWS[60:63] = 0.0


class TestExactDistances:
    @settings(deadline=None, max_examples=200)
    @given(x=rows_with_ties())
    @example(x=np.array([[1.5, -2.0, 3.25]]))
    @example(x=np.array([[0.1], [0.3], [0.1], [-7.0]]))
    @example(x=np.zeros((3, 4)))
    @example(x=MANY_ROWS)
    def test_bits_equal_scipy(self, x):
        for metric in ("euclidean", "cityblock"):
            np.testing.assert_array_equal(exact_distances(x, metric),
                                          scipy_cdist(x, x, metric))


# twelve reference points for the property tests of nystrom_extend
SMALL_EMB = diffusion_embed(gaussian_kernel(two_cluster_points(n_per=6, seed=15), r=3), d=3)


def exponent_rows(high):
    """1 to 5 rows of finite exponents in [0, high], one per point of SMALL_EMB."""
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.just(SMALL_EMB.n)),
                      elements=st.floats(0.0, high))


class TestNystromLogDomain:
    @settings(deadline=None)
    @given(exponents=exponent_rows(1e300))
    # exp(-e) of the first row underflows to 0 everywhere; the second row is
    # equally far from every point
    @example(exponents=np.array([[1000.0, 1001.0] + [1e6] * 10, [1e300] * 12]))
    def test_any_finite_exponents_give_finite_coordinates(self, exponents):
        coords, nearest = nystrom_extend(SMALL_EMB, exponents.copy())
        assert np.all(np.isfinite(coords))
        np.testing.assert_array_equal(nearest, exponents.min(axis=1))

    @settings(deadline=None)
    @given(exponents=exponent_rows(50.0))
    def test_matches_the_plain_formula(self, exponents):
        emb = SMALL_EMB
        coords, _ = nystrom_extend(emb, exponents.copy())
        kernel = np.exp(-exponents)
        plain = (kernel / kernel.sum(axis=1, keepdims=True)) @ emb.eigenvectors
        plain /= np.sqrt(emb.eigenvalues)
        # a coordinate is a weighted mean of phi_i over the reference points
        # times lambda_i^-1/2, so this bounds its magnitude
        scale = np.abs(emb.eigenvectors).max(axis=0) / np.sqrt(emb.eigenvalues)
        assert np.all(np.abs(coords - plain) <= 1e-12 * scale)


class TestNystrom:
    def test_self_extension_gives_sqrt_lambda_phi(self):
        pts = two_cluster_points(seed=10)
        k = gaussian_kernel(pts, r=5)
        emb = diffusion_embed(k, d=3)
        extended, _ = nystrom_extend(emb, -np.log(k.entries))
        expected = emb.eigenvectors * np.sqrt(emb.eigenvalues)[None, :]
        err = np.abs(extended - expected).max() / np.abs(expected).max()
        assert err < 1e-8

    def test_duplicate_point_matches(self):
        pts = two_cluster_points(seed=11)
        k = gaussian_kernel(pts, r=5)
        emb = diffusion_embed(k, d=3)
        z = 7
        exponents = -np.log(k.entries)
        row, _ = nystrom_extend(emb, exponents[[z], :])
        whole, _ = nystrom_extend(emb, exponents)
        np.testing.assert_allclose(row[0], whole[z], atol=1e-8)

    def test_uniform_row_gives_scaled_mean(self):
        pts = two_cluster_points(seed=12)
        k = gaussian_kernel(pts, r=5)
        emb = diffusion_embed(k, d=1)
        out, _ = nystrom_extend(emb, np.zeros((1, len(pts))))
        expected = emb.eigenvectors[:, 0].mean() / np.sqrt(emb.eigenvalues[0])
        assert out[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_tiny_eigenvalue_skipped_with_warning(self):
        emb = Embedding(eigenvalues=np.array([0.5, 1e-15]),
                        eigenvectors=np.random.default_rng(13).normal(size=(6, 2)),
                        t=1.0)
        with pytest.warns(UserWarning, match="skipping"):
            out, _ = nystrom_extend(emb, np.zeros((2, 6)))
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
