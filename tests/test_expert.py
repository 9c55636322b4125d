import csv

import numpy as np
import pytest

from expertmap.cogeometry import PartitionTree
from expertmap.dataset import DataMatrix, ReferenceSet
from expertmap.errors import ValidationError
from expertmap.expert import (export_centroids, extract_pseudopoints,
                              import_labels, propagate_labels)


def matrix_from(values):
    values = np.asarray(values, dtype=float)
    mask = np.isfinite(values)
    n, m = values.shape
    names = tuple(f"q{k}" for k in range(m))
    return DataMatrix(values=values, mask=mask, feature_names=names,
                      point_ids=tuple(f"p{i}" for i in range(n)),
                      group_of={f: "default" for f in names},
                      weight_of={"default": 1.0})


def dyadic_tree(n, depth, axis="points"):
    """Range-splitting dyadic tree for test scaffolding."""
    levels = [(tuple(range(n)),)]
    for _ in range(depth - 1):
        nxt = []
        for folder in levels[-1]:
            nxt.extend(np.array_split(np.asarray(folder), 2))
        levels.append(tuple(tuple(int(i) for i in f) for f in nxt))
    return PartitionTree(axis=axis, levels=tuple(levels))


def full_reference(d):
    return ReferenceSet(indices=np.arange(d.n_points))


def pseudopoints(tree, level, d):
    """Pseudopoints of a complete matrix, whose observation tree is never used."""
    obs_tree = PartitionTree(axis="observations", levels=((tuple(range(d.n_features)),),))
    return extract_pseudopoints(tree, level, full_reference(d), d, obs_tree)


class TestExtractPseudopoints:
    def test_dyadic_level_with_32_folders_on_cms_sized_reference(self):
        # the 32-bin labeling layer on a 1614-point reference set
        n = 1614
        tree = dyadic_tree(n, depth=6)
        d = matrix_from(np.random.default_rng(0).normal(size=(n, 3)))
        ps = pseudopoints(tree, 6, d)
        assert len(ps.folder_ids) == 32
        assert sum(ps.member_counts) == n

    def test_identical_points_yield_that_point(self):
        d = matrix_from(np.tile([1.5, -2.0], (4, 1)))
        tree = dyadic_tree(4, depth=1)
        ps = pseudopoints(tree, 1, d)
        np.testing.assert_allclose(ps.centroids[0], [1.5, -2.0])

    def test_mean_of_two_points(self):
        d = matrix_from([[0.0, 2.0], [2.0, 0.0]])
        tree = dyadic_tree(2, depth=1)
        ps = pseudopoints(tree, 1, d)
        np.testing.assert_allclose(ps.centroids[0], [1.0, 1.0])

    def test_unobserved_cell_imputed_and_flagged(self):
        values = np.array([[1.0, np.nan, 5.0],
                           [3.0, np.nan, 7.0],
                           [0.0, 4.0, 0.0],
                           [0.0, 6.0, 0.0]])
        d = matrix_from(values)
        tree = dyadic_tree(4, depth=2)
        obs_tree = PartitionTree(axis="observations",
                                 levels=(((0, 1, 2),), ((0,), (1, 2))))
        ps = extract_pseudopoints(tree, 2, full_reference(d), d, obs_tree=obs_tree)
        # folder {0,1} never observes feature 1: imputed from feature 2's folder
        assert (0, 1) in ps.imputed_cells
        assert ps.centroids[0, 1] == pytest.approx(6.0)   # mean of q2 values 5,7


class TestLabelRoundTrip:
    def build(self, tmp_path, n=8):
        rng = np.random.default_rng(1)
        d = matrix_from(rng.normal(size=(n, 3)))
        tree = dyadic_tree(n, depth=4)   # level 4 holds 8 singleton folders
        ps = pseudopoints(tree, 4, d)
        path = tmp_path / "centroids.csv"
        export_centroids(ps, path, flip=np.zeros(d.n_features, dtype=bool))
        return d, tree, ps, path

    def fill_scores(self, path, out, scores):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        score_col = header.index("score")
        for i, row in enumerate(rows[1:]):
            row[score_col] = repr(float(scores[i]))
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows[1:])

    def test_export_has_one_row_per_folder_and_score_column(self, tmp_path):
        _, _, ps, path = self.build(tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(ps.folder_ids)
        assert rows[0][:2] == ["folder_id", "member_count"]
        assert rows[0][-1] == "score"
        assert all(row[-1] == "" for row in rows[1:])

    def test_round_trip_preserves_centroids(self, tmp_path):
        _, _, ps, path = self.build(tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        values = np.array([[float(v) for v in row[2:-1]] for row in rows[1:]])
        assert np.max(np.abs(values - ps.centroids)) < 1e-6

    def test_polarity_restored_for_display(self, tmp_path):
        d = matrix_from([[1.0, -2.0], [3.0, -4.0]])
        tree = dyadic_tree(2, depth=1)
        ps = pseudopoints(tree, 1, d)
        path = tmp_path / "c.csv"
        export_centroids(ps, path, flip=np.array([False, True]))
        with open(path, newline="") as fh:
            row = list(csv.reader(fh))[1]
        assert float(row[3]) == pytest.approx(3.0)   # -(-3) displayed

    def test_scores_round_trip_exactly(self, tmp_path):
        _, _, ps, path = self.build(tmp_path)
        scores = [1.25, 9.875, 3.0, 7.5, 2.0, 4.5, 6.25, 10.0]
        filled = tmp_path / "filled.csv"
        self.fill_scores(path, filled, scores)
        got = import_labels(filled, ps)
        assert [got[fid] for fid in ps.folder_ids] == scores

    def test_constant_scores_are_valid(self, tmp_path):
        _, _, ps, path = self.build(tmp_path)
        filled = tmp_path / "filled.csv"
        self.fill_scores(path, filled, [7.0] * 8)
        assert set(import_labels(filled, ps).values()) == {7.0}

    def test_missing_folder_named(self, tmp_path):
        _, _, ps, path = self.build(tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[-1] = "5"
        rows[3][-1] = ""    # folder 2 left unscored
        filled = tmp_path / "filled.csv"
        with open(filled, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ValidationError, match=r"missing scores for folders \[2\]"):
            import_labels(filled, ps)

    def test_out_of_range_score_rejected(self, tmp_path):
        _, _, ps, path = self.build(tmp_path)
        filled = tmp_path / "filled.csv"
        self.fill_scores(path, filled, [11.0] + [5.0] * 7)
        with pytest.raises(ValidationError, match="outside"):
            import_labels(filled, ps)

    def test_unknown_folder_rejected(self, tmp_path):
        _, _, ps, path = self.build(tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[-1] = "5"
        rows.append(["99", "1"] + ["0"] * (len(rows[0]) - 3) + ["5"])
        filled = tmp_path / "filled.csv"
        with open(filled, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ValidationError, match="unknown folder 99"):
            import_labels(filled, ps)

    def test_folder_listed_twice_rejected(self, tmp_path):
        # the last score would otherwise win without a word
        _, _, ps, path = self.build(tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[-1] = "5"
        rows.append(rows[1][:-1] + ["9"])
        filled = tmp_path / "filled.csv"
        with open(filled, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ValidationError, match="folder 0: listed more than once"):
            import_labels(filled, ps)

    def test_empty_pseudopoint_set_cannot_export(self, tmp_path):
        from expertmap.expert import PseudopointSet
        ps = PseudopointSet(folder_ids=(), centroids=np.zeros((0, 2)),
                            member_counts=(), feature_names=("a", "b"))
        with pytest.raises(ValidationError, match="empty"):
            export_centroids(ps, tmp_path / "x.csv", flip=np.zeros(2, dtype=bool))


class TestPropagate:
    def setup_case(self, scores, n=6):
        d = matrix_from(np.random.default_rng(2).normal(size=(n, 2)))
        tree = dyadic_tree(n, depth=2)
        return d, tree, dict(enumerate(scores))

    def test_two_folders_split_evenly(self):
        d, tree, scores = self.setup_case([1.0, 10.0])
        lf = propagate_labels(scores, tree, 2, full_reference(d), d)
        values, counts = np.unique(lf.values, return_counts=True)
        np.testing.assert_array_equal(values, [1.0, 10.0])
        np.testing.assert_array_equal(counts, [3, 3])

    def test_rescale_hits_zero_and_one(self):
        d, tree, scores = self.setup_case([2.0, 8.0])
        lf = propagate_labels(scores, tree, 2, full_reference(d), d)
        assert lf.rescaled.min() == 0.0 and lf.rescaled.max() == 1.0
        assert not lf.degenerate

    def test_constant_scores_pin_half(self):
        d, tree, scores = self.setup_case([4.0, 4.0])
        lf = propagate_labels(scores, tree, 2, full_reference(d), d)
        np.testing.assert_array_equal(lf.rescaled, 0.5)
        assert lf.degenerate

    def test_constant_on_folders(self):
        d, tree, scores = self.setup_case([3.0, 9.0], n=10)
        lf = propagate_labels(scores, tree, 2, full_reference(d), d)
        for j, folder in enumerate(tree.folders_at(2)):
            folder_values = lf.values[list(folder)]
            assert np.all(folder_values == scores[j])

    def test_rescale_preserves_order(self):
        d, tree, scores = self.setup_case([2.5, 7.5], n=8)
        lf = propagate_labels(scores, tree, 2, full_reference(d), d)
        order_raw = np.argsort(lf.values, kind="stable")
        order_rescaled = np.argsort(lf.rescaled, kind="stable")
        np.testing.assert_array_equal(order_raw, order_rescaled)

    def test_label_scale_round_trip(self):
        d, tree, scores = self.setup_case([2.0, 8.0])
        lf = propagate_labels(scores, tree, 2, full_reference(d), d)
        np.testing.assert_allclose(lf.to_label_scale(lf.rescaled), lf.values)
