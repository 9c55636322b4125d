import csv

import numpy as np
import pytest

from expertmap import dataset
from expertmap.dataset import (MISSING_TOKENS, DataMatrix, depolarize, load_matrix,
                               preprocess, save_matrix, select_reference)
from expertmap.errors import ParseError, ValidationError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def make_matrix(values, mask=None, groups=None, weights=None):
    values = np.asarray(values, dtype=float)
    if mask is None:
        mask = np.isfinite(values)
    values = np.where(mask, values, np.nan)
    n, m = values.shape
    names = tuple(f"f{k}" for k in range(m))
    return DataMatrix(values=values, mask=np.asarray(mask, dtype=bool),
                      feature_names=names,
                      point_ids=tuple(f"p{i}" for i in range(n)),
                      group_of={f: (groups or {}).get(f, "default") for f in names},
                      weight_of={**{"default": 1.0}, **(weights or {})})


class TestLoadMatrix:
    def test_na_sets_single_mask_entry(self, tmp_path):
        path = write(tmp_path, "id,a,b\np1,1,2\np2,NA,4\np3,5,6\n")
        d = load_matrix(path)
        assert d.values.shape == (3, 2)
        assert (~d.mask).sum() == 1
        assert not d.mask[1, 0]
        assert np.isnan(d.values[1, 0])

    def test_empty_cell_is_missing(self, tmp_path):
        d = load_matrix(write(tmp_path, "id,a\np1,\np2,3\n"))
        assert not d.mask[0, 0] and d.mask[1, 0]

    def test_empty_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_matrix(write(tmp_path, ""))

    def test_header_only_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_matrix(write(tmp_path, "id,a,b\n"))

    def test_bad_row_length_reports_row_number(self, tmp_path):
        path = write(tmp_path, "id,a,b\np1,1,2\np2,3\n")
        with pytest.raises(ParseError, match="row 3"):
            load_matrix(path)

    def test_non_numeric_reports_row(self, tmp_path):
        with pytest.raises(ParseError, match="row 2"):
            load_matrix(write(tmp_path, "id,a\np1,abc\n"))

    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate"):
            load_matrix(write(tmp_path, "id,a\np1,1\np1,2\n"))

    def test_round_trip_identity(self, tmp_path):
        path = write(tmp_path, "id,a,b\np1,1.5,NA\np2,-2.25,4\n")
        d = load_matrix(path)
        out = tmp_path / "out.csv"
        save_matrix(d, out)
        again = load_matrix(out)
        assert d.equals(again)

    def test_groups_default_and_weights(self, tmp_path):
        schema = {"groups": {"a": "mortality"}, "weights": {"mortality": 2.0}}
        d = load_matrix(write(tmp_path, "id,a,b\np1,1,2\n"), schema)
        assert d.group_of == {"a": "mortality", "b": "default"}
        assert d.weight_of["mortality"] == 2.0
        assert d.weight_of["default"] == 1.0


def parse_cells_oracle(path):
    """Oracle: the cell-by-cell parse, one float() per observed cell."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    values = np.full((len(body), len(rows[0]) - 1), np.nan)
    mask = np.zeros(values.shape, dtype=bool)
    for r, row in enumerate(body):
        for k, cell in enumerate(row[1:]):
            if cell in MISSING_TOKENS:
                continue
            values[r, k] = float(cell)
            mask[r, k] = True
    return values, mask


def load_in_chunks(path, monkeypatch):
    """load_matrix with PARSE_ROWS at 1, 2 and its default.  Every chunking
    must give the same bytes, or raise the same message; that matrix is
    returned, or that error raised."""
    outcomes = []
    for rows in (1, 2, dataset.PARSE_ROWS):
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "PARSE_ROWS", rows)
            try:
                outcomes.append(load_matrix(path))
            except ParseError as exc:
                outcomes.append(exc)
    first = outcomes[0]
    if isinstance(first, ParseError):
        assert [str(o) for o in outcomes] == [str(first)] * 3
        raise first
    for other in outcomes[1:]:
        assert other.point_ids == first.point_ids
        assert np.array_equal(other.mask, first.mask)
        assert other.values.tobytes() == first.values.tobytes()
    return first


class TestParsePath:
    TRICKY = ["", "NA", " 1.5", "nan", "-0.0", "1e-320", "1_000", "-inf", "+2.5e3 ",
              "1e400", "-nan", "3.", "7"]

    def test_tricky_tokens_bit_equal_to_the_cell_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        scales = 10.0 ** rng.integers(-300, 300, 40)
        tokens = self.TRICKY + [repr(x) for x in (rng.normal(size=40) * scales).tolist()]
        cells = rng.choice(tokens, size=(60, 7))
        header = "id," + ",".join(f"c{k}" for k in range(7))
        lines = [f"p{i}," + ",".join(row) for i, row in enumerate(cells)]
        path = write(tmp_path, "\n".join([header] + lines) + "\n")
        d = load_in_chunks(path, monkeypatch)
        values, mask = parse_cells_oracle(path)
        assert np.array_equal(d.mask, mask)
        assert d.values.tobytes() == values.tobytes()

    def test_each_token_alone(self, tmp_path, monkeypatch):
        for token in self.TRICKY:
            path = write(tmp_path, f"id,a,b\np1,{token},2\n")
            values, mask = parse_cells_oracle(path)
            d = load_in_chunks(path, monkeypatch)
            assert np.array_equal(d.mask, mask), token
            assert d.values.tobytes() == values.tobytes(), token

    def test_non_numeric_names_row_and_column(self, tmp_path, monkeypatch):
        path = write(tmp_path, "id,a,b\np1,1,2\np2,3,x1\np3,oops,4\n")
        with pytest.raises(ParseError) as err:
            load_in_chunks(path, monkeypatch)
        assert str(err.value) == f"{path}: row 3: non-numeric value 'x1' in column 'b'"

    def test_padded_missing_token_is_not_missing(self, tmp_path, monkeypatch):
        with pytest.raises(ParseError, match="row 2: non-numeric value ' NA' in column 'a'"):
            load_in_chunks(write(tmp_path, "id,a\np1, NA\n"), monkeypatch)

    def test_ragged_row_named(self, tmp_path, monkeypatch):
        path = write(tmp_path, "id,a,b\np1,1,2\np2,3,4,5\n")
        with pytest.raises(ParseError) as err:
            load_in_chunks(path, monkeypatch)
        assert str(err.value) == f"{path}: row 3: expected 3 fields, got 4"

    def test_first_fault_in_file_order_wins(self, tmp_path, monkeypatch):
        path = write(tmp_path, "id,a,b\np1,1,zz\np2,3\n")
        with pytest.raises(ParseError, match="row 2: non-numeric value 'zz' in column 'b'"):
            load_in_chunks(path, monkeypatch)
        path = write(tmp_path, "id,a,b\np1,1\np2,3,zz\n")
        with pytest.raises(ParseError, match="row 2: expected 3 fields, got 2"):
            load_in_chunks(path, monkeypatch)
        # a fault in a later chunk is found after the earlier chunks parse
        path = write(tmp_path, "id,a,b\np1,1,2\np2,3,4\np3,5,6\np4,7,zz\np5,9\n")
        with pytest.raises(ParseError, match="row 5: non-numeric value 'zz' in column 'b'"):
            load_in_chunks(path, monkeypatch)


def zscore(values, mask):
    """Oracle: per-feature observed mean 0 and sample sd 1, 0 for a feature
    that cannot be scaled, NaN where unobserved."""
    out = np.full(values.shape, np.nan)
    for k in range(values.shape[1]):
        col = values[mask[:, k], k]
        sd = col.std(ddof=1) if len(col) > 1 else 0.0
        out[mask[:, k], k] = (col - col.mean()) / sd if sd > 0 else 0.0
    return out


class TestStandardize:
    def test_hand_column(self):
        out, _, _ = preprocess(make_matrix([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)

    def test_constant_column_degenerate_and_zeroed(self):
        d = make_matrix([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        out, _, params = preprocess(d)
        assert "f0" in out.degenerate and params.degenerate == out.degenerate
        np.testing.assert_array_equal(out.values[:, 0], 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        d = make_matrix(rng.normal(2.0, 3.0, size=(40, 4)))
        once, _, _ = preprocess(d)
        twice, _, _ = preprocess(once)
        np.testing.assert_allclose(once.values, twice.values, atol=1e-9)

    def test_observed_moments(self):
        rng = np.random.default_rng(4)
        values = rng.normal(5.0, 2.0, size=(30, 3))
        mask = rng.random((30, 3)) > 0.2
        mask[:2] = True   # keep every column populated
        out, _, _ = preprocess(make_matrix(values, mask))
        for k in range(3):
            col = out.values[out.mask[:, k], k]
            assert abs(col.mean()) < 1e-9
            assert abs(col.std(ddof=1) - 1.0) < 1e-9

    def test_unobserved_feature_is_named(self):
        d = make_matrix([[1.0, np.nan], [2.0, np.nan]])
        with pytest.raises(ValidationError, match="f1"):
            preprocess(d)

    def test_mask_unchanged(self):
        rng = np.random.default_rng(5)
        mask = rng.random((20, 3)) > 0.3
        mask[0] = True
        d = make_matrix(rng.normal(size=(20, 3)), mask)
        assert np.array_equal(preprocess(d)[0].mask, d.mask)


class TestDepolarize:
    def test_anticorrelated_pair_gets_one_flip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=50)
        values = np.column_stack([x, -x])
        mask = np.ones_like(values, dtype=bool)
        z = zscore(values, mask)
        polarity = depolarize(z, mask)
        assert polarity.flip.sum() == 1
        out = np.where(polarity.flip, -z, z)
        assert np.corrcoef(out[:, 0], out[:, 1])[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_positively_loaded_features_untouched(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=60)
        values = np.column_stack([base + 0.1 * rng.normal(size=60) for _ in range(3)])
        mask = np.ones_like(values, dtype=bool)
        assert not depolarize(zscore(values, mask), mask).flip.any()

    def test_second_pass_adds_no_flips(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(80, 5))
        values[:, 2] *= -1.0
        values[:, 2] += values[:, 0] * -2.0
        mask = np.ones_like(values, dtype=bool)
        z = zscore(values, mask)
        once = depolarize(z, mask)
        assert once.flip.any()
        assert not depolarize(np.where(once.flip, -z, z), mask).flip.any()

    def test_mask_unchanged(self):
        rng = np.random.default_rng(9)
        mask = rng.random((40, 3)) > 0.2
        mask[:3] = True
        values = rng.normal(size=(40, 3))
        values[:, 1] = -values[:, 0] + 0.1 * values[:, 1]
        d = make_matrix(values, mask)
        out, polarity, _ = preprocess(d)
        assert polarity.flip.any()
        assert np.array_equal(out.mask, d.mask)


class TestApplyWeights:
    def test_doubling_one_group(self):
        d = make_matrix([[1.0, 1.0], [2.0, 2.0], [4.0, 3.0]], groups={"f0": "mortality"},
                        weights={"mortality": 2.0})
        out, polarity, _ = preprocess(d)
        z = zscore(d.values, d.mask)
        assert not polarity.flip.any()
        np.testing.assert_array_equal(out.values[:, 0], 2.0 * z[:, 0])
        np.testing.assert_array_equal(out.values[:, 1], z[:, 1])

    def test_unit_weights_identity(self):
        d = make_matrix([[1.0, -3.0], [0.5, 2.0], [2.0, 1.0], [0.0, -1.0]])
        out, polarity, _ = preprocess(d)
        z = zscore(d.values, d.mask)
        np.testing.assert_array_equal(out.values, np.where(polarity.flip, -z, z))

    def test_scalar_multiply(self):
        d = make_matrix([[1.0], [-1.0], [0.0]], groups={"f0": "g"},
                        weights={"g": 1.5})
        np.testing.assert_allclose(preprocess(d)[0].values[:, 0], [1.5, -1.5, 0.0])

    def test_non_positive_weight_rejected(self):
        d = make_matrix([[1.0]], groups={"f0": "g"}, weights={"g": 0.0})
        with pytest.raises(ValidationError, match="non-positive"):
            preprocess(d)

    def test_undefined_weight_rejected(self):
        d = make_matrix([[1.0]], groups={"f0": "g"})
        with pytest.raises(ValidationError, match="no weight defined for group 'g'"):
            preprocess(d)


class TestSelectReference:
    def test_eta_m_takes_everything(self):
        mask = np.array([[True, False], [False, False], [True, True]])
        d = make_matrix(np.ones((3, 2)), mask)
        assert select_reference(d, 2).n == 3

    def test_eta_zero_fully_observed(self):
        d = make_matrix(np.ones((4, 3)))
        ref = select_reference(d, 0)
        np.testing.assert_array_equal(ref.indices, [0, 1, 2, 3])

    def test_ninety_percent_reported_subset(self):
        # CMS-shaped: m features, rows planted with known missing counts;
        # eta = floor(0.1 m) keeps exactly the >=90%-reported rows (the
        # paper's real-data subset had n=1614, kept as a reference constant).
        m = 40
        counts = [0, 2, 4, 5, 6, 10, 20]
        mask = np.ones((len(counts), m), dtype=bool)
        for i, c in enumerate(counts):
            mask[i, :c] = False
        d = make_matrix(np.ones((len(counts), m)), mask)
        ref = select_reference(d, int(0.1 * m))
        np.testing.assert_array_equal(ref.indices, [0, 1, 2])

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(11)
        mask = rng.random((30, 8)) > 0.3
        d = make_matrix(rng.normal(size=(30, 8)), mask)
        prev: set = set()
        for eta in range(9):
            try:
                current = set(select_reference(d, eta).indices.tolist())
            except ValidationError:
                current = set()
            assert prev <= current
            prev = current

    def test_empty_result_suggests_larger_eta(self):
        mask = np.zeros((2, 3), dtype=bool)
        mask[:, 0] = True
        d = make_matrix(np.ones((2, 3)), mask)
        with pytest.raises(ValidationError, match="increase eta"):
            select_reference(d, 0)


def test_preprocess_transform_matches_pipeline():
    """The training matrix equals standardize -> depolarize -> weight written
    out step by step, and the stored transform gives the same rows alone."""
    rng = np.random.default_rng(12)
    values = rng.normal(3.0, 2.0, size=(50, 4))
    values[:, 1] *= -1.0
    values[:, 2] = 4.0        # constant: degenerate
    mask = rng.random((50, 4)) > 0.1
    mask[:3] = True
    d = make_matrix(values, mask, groups={"f3": "heavy"}, weights={"heavy": 2.0})
    processed, polarity, params = preprocess(d)
    z = zscore(d.values, d.mask)
    expected = np.where(polarity.flip, -z, z) * np.array([1.0, 1.0, 1.0, 2.0])
    assert polarity.flip.any() and processed.degenerate == ("f2",)
    np.testing.assert_array_equal(processed.values, expected)
    # row by row, as run_extend applies it to new points
    np.testing.assert_array_equal(params.transform(d.values[:5], d.mask[:5]),
                                  processed.values[:5])
