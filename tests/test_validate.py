import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import nnls as scipy_nnls
from scipy.sparse.csgraph import connected_components

from expertmap import validate
from expertmap.dataset import DataMatrix
from expertmap.errors import BoundViolation, ValidationError
from expertmap.spectral import TILE, Kernel, gaussian_kernel
from expertmap.validate import (ValidationReport, affinity_histograms, confusion,
                                feature_lipschitz, neighbor_smoothness,
                                neighborhood_mass, nnls, nnls_rank, row_sum_rank,
                                separation_bound_check, spectral_dimension)


def matrix_from(values):
    values = np.asarray(values, dtype=float)
    mask = np.isfinite(values)
    n, m = values.shape
    names = tuple(f"q{k}" for k in range(m))
    return DataMatrix(values=values, mask=mask, feature_names=names,
                      point_ids=tuple(f"p{i}" for i in range(n)),
                      group_of={f: "default" for f in names},
                      weight_of={"default": 1.0})


class TestFeatureLipschitz:
    def test_constant_feature_is_degenerate_zero(self):
        coords = np.random.default_rng(0).normal(size=(10, 2))
        table = feature_lipschitz(coords, {"const": np.ones(10)})
        assert table.constant("const") == 0.0
        assert "const" in table.degenerate

    def test_linear_function_on_line(self):
        coords = np.array([[0.0], [1.0], [2.0]])
        table = feature_lipschitz(coords, {"f": np.array([0.0, 1.0, 2.0])})
        # |df| / |dx| = 1 before normalization; range 2 halves it
        assert table.constant("f") == pytest.approx(0.5)

    def test_sorted_ascending(self):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(30, 2))
        feats = {"a": rng.normal(size=30), "b": rng.normal(size=30),
                 "c": coords[:, 0]}
        table = feature_lipschitz(coords, feats)
        values = [v for _, v in table.rows]
        assert values == sorted(values)

    def test_neighbor_restriction_bounds_all_pairs(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(25, 3))
        x = rng.normal(size=25)
        local = feature_lipschitz(coords, {"x": x})
        # oracle: the largest range-normalized slope over all distinct pairs
        i, j = np.triu_indices(25, k=1)
        slopes = (np.abs(x[i] - x[j]) / np.ptp(x)
                  / np.linalg.norm(coords[i] - coords[j], axis=1))
        assert local.constant("x") <= slopes.max() + 1e-12


class TestNeighborhoodMass:
    def test_uniform_over_ten_others(self):
        # P = 1/11 everywhere: five others hold 5/11, six hold 6/11
        stats = neighborhood_mass(Kernel(entries=np.ones((11, 11))))
        np.testing.assert_array_equal(stats.counts, 6)

    def test_dominant_neighbor(self):
        # each point's one neighbour holds half of its row
        pair = np.ones((2, 2))
        entries = np.block([[pair, np.zeros((2, 2))], [np.zeros((2, 2)), pair]])
        stats = neighborhood_mass(Kernel(entries=entries))
        np.testing.assert_array_equal(stats.counts, 1)

    def test_two_neighbor_case(self):
        entries = np.full((5, 5), 0.5)
        entries[0, 1:] = entries[1:, 0] = [0.9, 0.8, 0.1, 0.1]
        np.fill_diagonal(entries, 1.0)
        stats = neighborhood_mass(Kernel(entries=entries))
        assert stats.counts[0] == 2    # (0.9 + 0.8) / 2.9 >= 1/2 > 0.9 / 2.9

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        k = gaussian_kernel(rng.normal(size=(20, 3)), r=5)
        perm = rng.permutation(20)
        stats = neighborhood_mass(k)
        permuted = neighborhood_mass(Kernel(entries=k.entries[np.ix_(perm, perm)]))
        np.testing.assert_array_equal(np.sort(stats.counts),
                                      np.sort(permuted.counts))

    def test_rows_past_the_first_tile(self):
        # a chain of pairs, 2 TILE + 6 points: each point's partner holds half
        entries = np.kron(np.eye(TILE + 3), np.ones((2, 2)))
        stats = neighborhood_mass(Kernel(entries=entries))
        np.testing.assert_array_equal(stats.counts, 1)


def engineered_kernel():
    """Markov spectrum (1, 0.5, 0, 0): paired blocks with cross affinity 1/3."""
    a, b = 1.0, 1.0 / 3.0
    entries = np.array([[1.0, a, b, b],
                        [a, 1.0, b, b],
                        [b, b, 1.0, a],
                        [b, b, a, 1.0]])
    return Kernel(entries=entries)


class TestSpectralDimension:
    def test_rank_one_perturbed_dimension_one(self):
        dim, t, curve = spectral_dimension(engineered_kernel())
        assert t == pytest.approx(2.0)
        assert curve[0] == pytest.approx(0.25)
        assert dim == 1

    def test_threshold_rule(self):
        from expertmap.validate import dimension_from_curve
        curve = np.array([0.011, 0.011, 0.011, 0.0, 0.0])
        assert validate.DIMENSION_CUTOFF == 0.01
        assert dimension_from_curve(curve) == 3

    def test_monotone_in_cutoff(self, monkeypatch):
        rng = np.random.default_rng(4)
        k = gaussian_kernel(rng.normal(size=(30, 4)), r=5)
        dims = []
        for cutoff in (0.001, 0.01, 0.05, 0.2):
            monkeypatch.setattr(validate, "DIMENSION_CUTOFF", cutoff)
            dim, _, _ = spectral_dimension(k)
            dims.append(dim)
        assert dims == sorted(dims, reverse=True)

    def test_disconnected_kernel_names_components(self):
        block = np.ones((3, 3))
        entries = np.block([[block, np.zeros((3, 3))],
                            [np.zeros((3, 3)), block]])
        with pytest.raises(ValidationError, match="2 components"):
            spectral_dimension(Kernel(entries=entries))

    def test_disconnected_gaussian_kernel_names_its_count(self):
        rng = np.random.default_rng(5)
        entries = np.zeros((36, 36))
        for at in (0, 12, 24):
            entries[at:at + 12, at:at + 12] = gaussian_kernel(rng.normal(size=(12, 2)),
                                                              r=3).entries
        with pytest.raises(ValidationError, match=r"\(3 components\)"):
            spectral_dimension(Kernel(entries=entries))


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 30), density=st.floats(0.0, 0.3), seed=st.integers(0, 2 ** 32 - 1))
def test_component_count_matches_scipy(n, density, seed):
    # 0.5 is an edge of the kernel's graph; 1e-12 and 0 are not
    draw = np.random.default_rng(seed).random((n, n))
    entries = np.triu(np.where(draw < density, 0.5, np.where(draw < 2 * density, 1e-12, 0.0)), 1)
    k = Kernel(entries=entries + entries.T + np.eye(n))
    want, _ = connected_components(k.entries > 1e-12, directed=False)
    assert validate.component_count(k) == want


class TestAffinityHistograms:
    def test_constant_labels_rejected(self):
        k = engineered_kernel()
        with pytest.raises(ValidationError, match="constant"):
            affinity_histograms(k.entries, np.ones(4))

    def test_perfect_separation_gives_zero_ratio(self):
        block = np.ones((5, 5))
        entries = np.block([[block, np.zeros((5, 5))],
                            [np.zeros((5, 5)), block]])
        g = np.array([0.0] * 5 + [1.0] * 5)
        hist = affinity_histograms(entries, g)
        assert np.nanmax(hist.ratio) == 0.0

    def test_label_independent_kernel_ratio_near_one(self):
        # The ratio is an estimate, so it is held to its own sampling error:
        # relative SE = sqrt((1 - p_neq) / a + (1 - p_eq) / b) for survival
        # counts a and b.  In the tail a and b are a few dozen pairs and the
        # SE exceeds 0.3, so no fixed tolerance fits every threshold.
        rng = np.random.default_rng(5)
        n = 80
        base = rng.uniform(0.2, 1.0, size=(n, n))
        entries = 0.5 * (base + base.T)
        np.fill_diagonal(entries, 1.0)
        g = (np.arange(n) % 2).astype(float)
        iu = np.triu_indices(n, k=1)
        unequal = g[iu[0]] != g[iu[1]]
        n_neq, n_eq = unequal.sum(), (~unequal).sum()

        def standard_scores(entries):
            hist = affinity_histograms(entries, g)
            vals = entries[iu]
            a = np.array([(vals[unequal] > t).sum() for t in hist.thresholds])
            b = np.array([(vals[~unequal] > t).sum() for t in hist.thresholds])
            np.testing.assert_array_equal(hist.survivors_unequal, a)
            np.testing.assert_array_equal(hist.survivors_equal, b)
            assert np.all(a > 0) and np.all(b > 0)
            # below the smallest affinity every pair survives: no sampling error
            full = hist.thresholds < vals.min()
            assert full.any() and not full.all()
            assert np.all(a[full] == n_neq) and np.all(b[full] == n_eq)
            assert np.all(hist.ratio[full] == 1.0)
            a, b, ratio = a[~full], b[~full], hist.ratio[~full]
            se = np.sqrt((1 - a / n_neq) / a + (1 - b / n_eq) / b)
            return np.abs(ratio - 1.0) / se

        assert np.all(standard_scores(entries) <= 3.0)
        # power: the same kernel made label-dependent breaks the bound
        dependent = entries + 0.05 * (g[:, None] == g[None, :])
        np.fill_diagonal(dependent, 1.0)
        assert np.max(standard_scores(dependent)) > 3.0

    def test_floor_excluded_from_counting(self):
        entries = engineered_kernel().entries
        g = np.array([0.0, 0.0, 1.0, 1.0])
        assert validate.AFFINITY_FLOOR == 0.1
        hist = affinity_histograms(entries, g)
        # all unequal-pair affinities are 1/3; the histogram mass sits there
        assert hist.hist_unequal.sum() == 4
        assert hist.thresholds[0] == pytest.approx(0.1)


class TestSeparationBound:
    def test_equality_when_f_equals_g(self):
        g = np.array([0.0, 0.0, 1.0, 1.0, 0.5])
        record = separation_bound_check(g, g)
        assert record.cost == 0.0
        assert record.lhs == pytest.approx(record.rhs)
        assert record.root_rhs == np.sqrt(record.lhs)
        assert record.holds

    def test_six_point_toy_hand_values(self):
        # unbalanced labels make the right side nonpositive for constant f
        g = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        f = np.full(6, 0.5)
        record = separation_bound_check(f, g)
        assert record.lhs == 0.0
        assert record.e_neq_g_gap == pytest.approx(1.0)
        assert record.s_pairs == 10
        assert record.max_factor == pytest.approx(3.0)
        assert record.cost == pytest.approx(0.25)
        assert record.rhs == pytest.approx(-0.5)
        assert record.root_rhs == pytest.approx(1.0 - np.sqrt(3.0))
        assert record.rhs <= 0.0 and record.holds

    def test_violation_raises_with_record(self, monkeypatch):
        # balanced constant-f case: the squared form's rhs = 0.5 > lhs = 0, and
        # the asserted form is tight, sqrt(0) >= 1 - 2 sqrt(1 * 0.25); a proven
        # bound cannot fail, so a negative slack forces the raise
        monkeypatch.setattr(validate, "SEPARATION_SLACK", -0.1)
        g = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        f = np.full(6, 0.5)
        with pytest.raises(BoundViolation) as err:
            separation_bound_check(f, g)
        assert err.value.record.rhs == pytest.approx(0.5)
        assert err.value.record.root_rhs == 0.0 and err.value.record.holds is False
        monkeypatch.setattr(validate, "SEPARATION_SLACK", 0.0)
        assert separation_bound_check(f, g).holds is True

    @settings(deadline=None, max_examples=300)
    @given(labels=st.lists(st.sampled_from([-2.0, 0.0, 0.25, 1.0, 3.5]), min_size=2,
                           max_size=40),
           noise=st.lists(st.floats(-1.0, 1.0), min_size=40, max_size=40),
           scale=st.sampled_from([0.0, 1e-12, 1e-3, 0.3, 1.0, 100.0]),
           shift=st.floats(-50.0, 50.0))
    def test_the_asserted_form_never_fails(self, labels, noise, scale, shift):
        # f = g + shift + scale * noise: from f = g, where the bound is an
        # equality, to f that ignores g
        g = np.array(labels)
        assume(len(np.unique(g)) > 1)
        f = g + shift + scale * np.array(noise[:len(g)])
        record = separation_bound_check(f, g)
        assert record.holds is True
        assert np.sqrt(record.lhs) >= record.root_rhs - validate.SEPARATION_SLACK

    def test_scaled_rhs_reported_not_asserted(self):
        g = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        record = separation_bound_check(np.full(6, 0.5), g, layer_norm_product=2.0)
        assert record.rhs_scaled == pytest.approx(record.rhs / 2.0)

    def test_constant_labels_rejected(self):
        with pytest.raises(ValidationError, match="constant"):
            separation_bound_check(np.ones(4), np.ones(4))


class TestRowSum:
    def test_simple_sum(self):
        d = matrix_from([[1.0, 2.0, 3.0]])
        assert row_sum_rank(d)[0] == pytest.approx(6.0)

    def test_all_zero(self):
        d = matrix_from([[0.0, 0.0]])
        assert row_sum_rank(d)[0] == 0.0

    def test_support_scaling(self):
        d = matrix_from([[1.0, np.nan]])
        assert row_sum_rank(d)[0] == pytest.approx(2.0)


def projected_gradient_nnls(a, b, iters=200000, tol=1e-13):
    """Brute-force oracle: plain projected gradient with exact step size."""
    lip = 2.0 * np.linalg.norm(a, 2) ** 2
    x = np.zeros(a.shape[1])
    for _ in range(iters):
        grad = 2.0 * a.T @ (a @ x - b)
        new = np.maximum(0.0, x - grad / lip)
        if np.max(np.abs(new - x)) < tol:
            return new
        x = new
    return x


class TestNnls:
    def test_identity_design_returns_target(self):
        y = np.array([1.0, 0.0, 2.5, 0.3])
        x, kkt = nnls(np.eye(4), y)
        np.testing.assert_allclose(x, y, atol=1e-12)
        assert kkt <= 1e-8

    def test_anticorrelated_feature_gets_zero(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=30)
        a = (-t)[:, None]
        x, kkt = nnls(a, t)
        assert x[0] == 0.0
        assert kkt <= 1e-8

    def test_duplicate_columns_unique_fit(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(20, 3))
        a = np.hstack([base, base[:, [0]]])
        b = base @ np.array([1.0, 0.5, 2.0]) + 0.01 * rng.normal(size=20)
        x1, _ = nnls(a, b)
        oracle = projected_gradient_nnls(a, b)
        np.testing.assert_allclose(a @ x1, a @ oracle, atol=1e-6)

    def test_kkt_and_oracle_on_random_problems(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(8, 30))
            n = int(rng.integers(2, 10))
            a = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            x, kkt = nnls(a, b)
            assert np.all(x >= 0)
            assert kkt <= 1e-8
            oracle = projected_gradient_nnls(a, b)
            np.testing.assert_allclose(a @ x, a @ oracle, atol=1e-6)

    @settings(deadline=None, max_examples=60)
    @given(m=st.integers(1, 40), n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           duplicate=st.booleans(), scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_matches_scipy(self, m, n, seed, duplicate, scale):
        rng = np.random.default_rng(seed)
        a = scale * rng.normal(size=(m, n))
        if duplicate and n > 1:
            a[:, -1] = a[:, 0]
        b = rng.normal(size=m)
        x, kkt = nnls(a, b)
        want, _ = scipy_nnls(a, b)
        assert np.all(x >= 0)
        # the fit is unique even where the weights are not
        fit = np.linalg.norm(a @ want) + np.linalg.norm(b)
        np.testing.assert_allclose(a @ x, a @ want, atol=1e-9 * fit)
        assert kkt <= 1e-9 * scale * fit
        if m >= n and not duplicate:
            np.testing.assert_allclose(x, want, rtol=1e-7, atol=1e-9 / scale)

    def test_nnls_rank_runs_without_scipy(self):
        # every import of SciPy fails in the child
        src = str(Path(validate.__file__).parents[1])
        code = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, {src!r})
import numpy as np
from expertmap import validate
rng = np.random.default_rng(5)
values = rng.normal(size=(40, 6))
weights, _, kkt = validate.nnls_rank(values, values @ {truth!r})
print(json.dumps([weights.tolist(), kkt]))
"""
        truth = [1.0, 0.0, 2.0, 0.0, 0.5, 0.0]
        proc = subprocess.run([sys.executable, "-c", code.format(src=src, truth=truth)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        weights, kkt = json.loads(proc.stdout)
        np.testing.assert_allclose(weights, truth, atol=1e-9)
        assert kkt <= 1e-9

    def test_nnls_rank_requires_complete_rows(self):
        with pytest.raises(ValidationError, match="impute"):
            nnls_rank(np.array([[1.0, np.nan], [2.0, 3.0]]), np.array([1.0, 2.0]))


class TestConfusion:
    def test_identity_is_diagonal(self):
        rng = np.random.default_rng(10)
        scores = rng.uniform(1, 10, size=50)
        mat = confusion(scores, scores)
        assert mat.sum() == 50
        assert np.all(mat == np.diag(np.diag(mat)))

    def test_reversal_is_antidiagonal_heavy(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(0, 1, size=40)
        mat = confusion(scores, -scores)
        anti = np.trace(np.fliplr(mat))
        assert np.trace(mat) < anti

    def test_range_quarters_not_population_quartiles(self):
        initial = np.array([0.0, 0.1, 0.2, 0.9])
        mat = confusion(initial, initial)
        # three points sit in the first range quarter despite 4 points total
        assert mat[0, 0] == 3 and mat[3, 3] == 1


class TestNeighborSmoothness:
    def test_constant_function_degenerate(self):
        k = gaussian_kernel(np.random.default_rng(19).normal(size=(12, 2)), r=3)
        result = neighbor_smoothness(k, np.ones(12))
        assert result.degenerate

    @pytest.mark.parametrize("n", [67, 324, 2 * TILE + 1])
    def test_tiles_give_the_averages_of_the_whole_matrix(self, n):
        # where the last tile is one row, NumPy takes a dot product in place
        # of the matrix-vector product, whose last bits can differ
        rng = np.random.default_rng(n)
        k = gaussian_kernel(rng.normal(size=(n, 4)), r=10)
        f = rng.normal(size=n)
        weights = k.entries.copy()
        np.fill_diagonal(weights, 0.0)
        expected = (weights / weights.sum(axis=1)[:, None]) @ f
        got = neighbor_smoothness(k, f).averages
        if n % TILE == 1:
            np.testing.assert_allclose(got, expected, rtol=1e-14)
        else:
            np.testing.assert_array_equal(got, expected)

    def test_a_point_with_no_affinity_to_the_others_is_an_error(self):
        entries = np.eye(TILE + 3)
        entries[:TILE, :TILE] = 0.5
        np.fill_diagonal(entries, 1.0)
        with pytest.raises(ValidationError, match="zero affinity to all others"):
            neighbor_smoothness(Kernel(entries=entries), np.arange(TILE + 3.0))


def test_validation_report_round_trip(tmp_path):
    report = ValidationReport()
    report.add_section("stats", {"mean": 1.5})
    report.add_table("numbers", ["idx", "value"], [[1, 2.0], [2, 4.0]])
    report.write(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["numbers.csv", "validation.json"]
    with open(tmp_path / "validation.json") as fh:
        payload = json.load(fh)
    # the config hash is the sidecars' to record: it covers paths.out
    assert payload == {"schema_version": 1, "sections": {"stats": {"mean": 1.5}}}
    body = (tmp_path / "numbers.csv").read_bytes()
    assert body == b"idx,value\r\n1,2.0\r\n2,4.0\r\n"
