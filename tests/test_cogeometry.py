import itertools
import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from expertmap.cogeometry import (PartitionTree, _balanced_agglomerate,
                                  build_partition_tree, depth_for,
                                  cosine_affinity, coupled_refine, emd_affinity,
                                  emd_distance_matrix, impute_matrix)
from expertmap.dataset import DataMatrix, ReferenceSet, select_reference
from expertmap.errors import InternalError, ValidationError
from expertmap.spectral import Kernel, gaussian_kernel


def matrix_from(values):
    values = np.asarray(values, dtype=float)
    mask = np.isfinite(values)
    n, m = values.shape
    names = tuple(f"q{k}" for k in range(m))
    return DataMatrix(values=values, mask=mask, feature_names=names,
                      point_ids=tuple(f"p{i}" for i in range(n)),
                      group_of={f: "default" for f in names},
                      weight_of={"default": 1.0})


def full_reference(d):
    return ReferenceSet(indices=np.arange(d.n_points))


NA = np.nan


class TestCosineAffinity:
    def test_hand_support_restricted(self):
        d = matrix_from([[1.0, 2.0, NA], [2.0, 4.0, 5.0]])
        a = cosine_affinity(full_reference(d), d)
        # over the shared support {0, 1}: 10 / (sqrt(5) * sqrt(20)) = 1
        assert a.entries[0, 1] == pytest.approx(1.0)

    def test_hand_orthogonal(self):
        d = matrix_from([[1.0, 0.0, NA], [0.0, 1.0, 3.0]])
        a = cosine_affinity(full_reference(d), d)
        assert a.entries[0, 1] == pytest.approx(0.5)    # cosine 0 -> (0 + 1) / 2

    def test_hand_opposite(self):
        d = matrix_from([[1.0, 2.0, NA], [-2.0, -4.0, 1.0]])
        a = cosine_affinity(full_reference(d), d)
        assert a.entries[0, 1] == pytest.approx(0.0)    # cosine -1 -> 0

    def test_self_affinity_is_one(self):
        d = matrix_from([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        a = cosine_affinity(full_reference(d), d)
        assert a.entries[0, 1] == pytest.approx(1.0)
        np.testing.assert_array_equal(np.diag(a.entries), 1.0)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(25, 6))
        values[rng.random((25, 6)) < 0.2] = NA
        # keep joint support nonempty: first two columns always observed
        values[:, :2] = rng.normal(size=(25, 2))
        d = matrix_from(values)
        a = cosine_affinity(full_reference(d), d)
        assert np.max(np.abs(a.entries - a.entries.T)) <= 1e-12
        assert a.entries.min() >= 0.0 and a.entries.max() <= 1.0

    def test_empty_joint_support_is_hard_error(self):
        d = matrix_from([[1.0, NA], [NA, 2.0]])
        with pytest.raises(ValidationError, match="no"):
            cosine_affinity(full_reference(d), d)

    def test_zero_restricted_norm_gives_cosine_zero(self):
        d = matrix_from([[0.0, 0.0], [1.0, 2.0]])
        a = cosine_affinity(full_reference(d), d)
        assert a.entries[0, 1] == 0.5                   # cosine forced to 0


def pair_block_affinity():
    entries = np.array([[1.0, 0.9, 0.1, 0.1],
                        [0.9, 1.0, 0.1, 0.1],
                        [0.1, 0.1, 1.0, 0.9],
                        [0.1, 0.1, 0.9, 1.0]])
    return Kernel(entries=entries)


class TestBuildPartitionTree:
    def test_recovers_best_two_partition(self):
        a = pair_block_affinity()
        tree = build_partition_tree(a, 2)
        level2 = set(tree.folders_at(2))

        # brute-force oracle: the pair split maximizing within-folder affinity
        best, best_score = None, -np.inf
        for combo in itertools.combinations(range(4), 2):
            rest = tuple(i for i in range(4) if i not in combo)
            score = a.entries[combo[0], combo[1]] + a.entries[rest[0], rest[1]]
            if score > best_score:
                best, best_score = {combo, rest}, score
        assert level2 == best

    def test_depth_one_single_root(self):
        tree = build_partition_tree(pair_block_affinity(), 1)
        assert tree.depth == 1
        assert tree.folders_at(1) == ((0, 1, 2, 3),)

    def test_identical_rows_satisfy_invariants(self):
        n = 8
        a = Kernel(entries=np.ones((n, n)))
        tree = build_partition_tree(a, 3)
        # construction of PartitionTree revalidates nesting/cover invariants
        assert tree.depth >= 2
        assert sum(len(f) for f in tree.folders_at(tree.depth)) == n

    def test_invariants_on_random_affinity(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 3))
        tree = build_partition_tree(gaussian_kernel(pts, r=5), 4)
        assert tree.depth == 4
        for level in range(1, 5):
            assert len(tree.folders_at(level)) <= 2 ** (level - 1)

    def test_non_finite_rejected(self):
        entries = np.ones((3, 3))
        entries[0, 1] = entries[1, 0] = np.inf
        with pytest.raises(ValidationError):
            Kernel(entries=entries)

    def test_json_round_trip(self, tmp_path):
        tree = build_partition_tree(pair_block_affinity(), 2)
        path = tmp_path / "tree.json"
        tree.save(path)
        again = PartitionTree.from_json(json.loads(path.read_text()))
        assert again == tree


def agglomerate_oracle(coords, depth, balance_factor):
    """Reference agglomeration: per merge, a scan of every live pair that
    fits under the cap; of those within 1e-12 of the least linkage, the
    first in index order."""
    n = coords.shape[0]
    dist = cdist(coords, coords)
    folders = [(i,) for i in range(n)]
    sizes = np.ones(n)
    a, b = np.triu_indices(n, 1)                       # row-major: index order

    snapshots = []
    for target in [2 ** (l - 1) for l in range(depth, 0, -1) if 2 ** (l - 1) <= n]:
        cap = max(2.0, math.ceil(balance_factor * n / target))
        while sum(f is not None for f in folders) > target:
            live = np.array([f is not None for f in folders])
            while not (ok := live[a] & live[b] & (sizes[a] + sizes[b] <= cap)).any():
                cap *= 2.0
            vals = dist[a[ok], b[ok]]
            k = np.flatnonzero(vals <= vals.min() + 1e-12)[0]
            i, j = a[ok][k], b[ok][k]
            # Lance-Williams update for average linkage
            ni, nj = sizes[i], sizes[j]
            dist[i, :] = dist[:, i] = (ni * dist[i] + nj * dist[j]) / (ni + nj)
            folders[i], folders[j] = tuple(sorted(folders[i] + folders[j])), None
            sizes[i] = ni + nj
        snapshots.append(tuple(f for f in folders if f is not None))
    return snapshots


def grid(*sides):
    return np.array(list(itertools.product(*(range(s) for s in sides))), dtype=float)


AGGLOMERATION_INPUTS = {
    "random60": lambda rng: rng.normal(size=(60, 10)),
    "random150": lambda rng: rng.normal(size=(150, 10)),
    "random324": lambda rng: rng.normal(size=(324, 10)),
    "grid_exact_ties": lambda rng: grid(10, 15),
    # distances within the 1e-12 band but not equal
    "grid_jitter": lambda rng: grid(5, 6, 4) + 1e-14 * rng.normal(size=(120, 3)),
    "identical": lambda rng: np.ones((40, 3)),
    "identical300": lambda rng: np.ones((300, 3)),
    "triplicates": lambda rng: np.repeat(rng.normal(size=(100, 10)), 3, axis=0),
}


@pytest.mark.parametrize("balance_factor", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("name", sorted(AGGLOMERATION_INPUTS))
def test_agglomeration_matches_full_sort_oracle(name, balance_factor):
    coords = AGGLOMERATION_INPUTS[name](np.random.default_rng(11))
    depth = depth_for(len(coords), None)
    assert (_balanced_agglomerate(coords, depth, balance_factor)
            == agglomerate_oracle(coords, depth, balance_factor))


def test_ties_break_on_the_first_pair_in_index_order():
    # pair linkages 1 + 1.2e-12, 1 + 0.6e-12 and 1: (2, 3) and (4, 5) lie
    # within 1e-12 of the least and (2, 3) comes first; (0, 1) never does
    coords = np.array([0.0, 1.0 + 1.2e-12, 100.0, 101.0 + 0.6e-12, 300.0, 301.0])[:, None]
    finest = _balanced_agglomerate(coords, depth=3, balance_factor=1.5)[0]
    assert finest == ((0,), (1,), (2, 3), (4, 5))
    assert finest == agglomerate_oracle(coords, 3, 1.5)[0]


def test_agglomeration_rejects_non_finite_coordinates():
    coords = np.zeros((4, 2))
    coords[1, 0] = np.nan
    with pytest.raises(InternalError, match="finite"):
        _balanced_agglomerate(coords, depth=2, balance_factor=1.5)


def line_tree():
    # 4 observations, 2 levels: root + two pairs
    return PartitionTree(axis="observations",
                         levels=(((0, 1, 2, 3),), ((0, 1), (2, 3))))


def emd(tree, x, y):
    return emd_distance_matrix(tree, np.vstack([x, y]))[0, 1]


class TestTreeEmd:
    def test_zero_on_equal_vectors(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert emd(line_tree(), x, x) == 0.0

    def test_root_only_collapses_to_mean_gap(self):
        tree = PartitionTree(axis="observations", levels=(((0, 1, 2),),))
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([2.0, 3.0, 4.0])
        # single folder of size 3, weight 2^0: 3 * |mean gap| = 3 * 1
        assert emd(tree, x, y) == pytest.approx(3.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        dist = emd_distance_matrix(line_tree(), rng.normal(size=(5, 4)))
        np.testing.assert_array_equal(dist, dist.T)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        tree = build_partition_tree(pair_block_affinity(), 2)
        tree = PartitionTree(axis="observations", levels=tree.levels)
        dist = emd_distance_matrix(tree, rng.normal(size=(60, 4)))
        # [x, y, z]: d(x, z) <= d(x, y) + d(y, z) over every triple
        assert np.all(dist[:, None, :] <= dist[:, :, None] + dist[None, :, :] + 1e-12)

    def test_missing_entries_rejected(self):
        x = np.array([[1.0, NA, 3.0, 4.0], [0.5, 7.0, 3.0, 4.0]])
        with pytest.raises(ValidationError, match="impute first"):
            emd_distance_matrix(line_tree(), x)


def planted_blocks(n_per=12, m_per=4, seed=4, sep=5.0):
    """2 point clusters x 2 feature groups with >= 5 sigma separation."""
    rng = np.random.default_rng(seed)
    n, m = 2 * n_per, 2 * m_per
    values = rng.normal(0.0, 1.0, size=(n, m))
    values[:n_per, :m_per] += sep
    values[:n_per, m_per:] -= sep
    values[n_per:, :m_per] -= sep
    values[n_per:, m_per:] += sep
    return matrix_from(values)


class TestCoupledRefine:
    def test_recovers_planted_blocks(self):
        d = planted_blocks()
        omega = full_reference(d)
        points_tree, obs_tree, affinity = coupled_refine(omega, d, 2, 1.0)
        assert set(points_tree.folders_at(2)) == {tuple(range(12)), tuple(range(12, 24))}
        assert set(obs_tree.folders_at(2)) == {tuple(range(4)), tuple(range(4, 8))}
        assert affinity.entries.min() >= 0.0 and affinity.entries.max() <= 1.0

    def test_permutation_equivariance(self):
        d = planted_blocks(seed=6)
        rng = np.random.default_rng(7)
        perm = rng.permutation(d.n_points)
        permuted = DataMatrix(values=d.values[perm], mask=d.mask[perm],
                              feature_names=d.feature_names,
                              point_ids=tuple(d.point_ids[i] for i in perm),
                              group_of=d.group_of, weight_of=d.weight_of)
        tree_a = coupled_refine(full_reference(d), d, 2, 1.0)[0]
        tree_b = coupled_refine(full_reference(permuted), permuted, 2, 1.0)[0]
        original = {frozenset(f) for f in tree_a.folders_at(2)}
        mapped = {frozenset(perm[list(f)].tolist()) for f in tree_b.folders_at(2)}
        assert original == mapped

    def test_missing_entries_handled(self):
        d = planted_blocks(seed=8)
        values = d.values.copy()
        rng = np.random.default_rng(9)
        holes = rng.random(values.shape) < 0.1
        values[holes] = NA
        d2 = matrix_from(values)
        omega = select_reference(d2, d2.n_features)
        points_tree, obs_tree, _ = coupled_refine(omega, d2, 2, 1.0)
        assert set(points_tree.folders_at(2)) == {tuple(range(12)), tuple(range(12, 24))}


def impute_entrywise(v, tree):
    """Per-entry reference: each hole takes the mean of the observed entries
    in its deepest folder that has any."""
    v = np.asarray(v, dtype=float)
    out = v.copy()
    observed = np.isfinite(v)
    for k in np.flatnonzero(~observed):
        for level in range(tree.depth, 0, -1):
            folder = next(f for f in tree.folders_at(level) if k in f)
            known = [i for i in folder if observed[i]]
            if known:
                out[k] = v[known].mean()
                break
    return out


class TestImpute:
    def tree(self):
        return PartitionTree(axis="observations",
                             levels=(((0, 1, 2, 3, 4),), ((0, 1), (2, 3, 4))))

    def impute(self, v, tree=None):
        return impute_matrix(np.asarray(v, dtype=float)[None, :], tree or self.tree())[0]

    def test_folder_mean(self):
        # the level-2 folder {2, 3, 4} observes 2 and 4; the root mean would be 6
        filled = self.impute([9.0, 9.0, NA, 2.0, 4.0])
        assert filled[2] == pytest.approx(3.0)

    def test_root_fallback_max_uncertainty(self):
        filled = self.impute([1.0, 3.0, NA, NA, NA])
        np.testing.assert_allclose(filled[2:], 2.0)

    def test_fully_observed_gives_empty_list(self):
        # no entry is imputed: the row comes back unchanged
        np.testing.assert_array_equal(self.impute(np.arange(5.0)), np.arange(5.0))

    def test_all_missing_rejected(self):
        with pytest.raises(ValidationError, match="no observed"):
            self.impute(np.full(5, NA))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="tree axis"):
            self.impute(np.arange(4.0))

    def test_level_deepens_as_siblings_appear(self):
        tree = PartitionTree(
            axis="observations",
            levels=(((0, 1, 2, 3),), ((0, 1), (2, 3))))
        assert self.impute([NA, NA, 5.0, 7.0], tree)[0] == pytest.approx(6.0)
        assert self.impute([NA, 4.0, 5.0, 7.0], tree)[0] == pytest.approx(4.0)

    def test_never_reads_masked_entries(self):
        filled = self.impute([NA, 4.0, NA, 6.0, 8.0])
        assert np.all(np.isfinite(filled))
        assert filled[0] == pytest.approx(4.0)
        assert filled[2] == pytest.approx(7.0)

    def test_matrix_imputation_matches_vector_path(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(20, 5))
        rows[rng.random((20, 5)) < 0.3] = NA
        rows[:, 0] = rng.normal(size=20)   # keep every row imputable
        tree = self.tree()
        fast = impute_matrix(rows, tree)
        slow = np.vstack([impute_entrywise(rows[i], tree) for i in range(20)])
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_emd_affinity_uses_median_bandwidth():
    d = planted_blocks(seed=11)
    tree = PartitionTree(axis="observations",
                         levels=(((0, 1, 2, 3, 4, 5, 6, 7),),
                                 ((0, 1, 2, 3), (4, 5, 6, 7))))
    a = emd_affinity(tree, d.values)
    assert a.entries.min() >= 0.0 and a.entries.max() <= 1.0
    np.testing.assert_array_equal(np.diag(a.entries), 1.0)
