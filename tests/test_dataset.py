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


def matrices_equal(a: DataMatrix, b: DataMatrix) -> bool:
    """Exact equality of two matrices, unobserved cells aside."""
    return (a.feature_names == b.feature_names and a.point_ids == b.point_ids
            and np.array_equal(a.mask, b.mask)
            and np.array_equal(a.values[a.mask], b.values[b.mask])
            and a.group_of == b.group_of and a.weight_of == b.weight_of)


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
        assert matrices_equal(d, again)

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
    """load_matrix with PARSE_ROWS at 1, 2, 7 and its default.  Every chunking
    must give the same matrix, or raise the same error; that matrix is
    returned, or that error raised."""
    outcomes = []
    for rows in (1, 2, 7, dataset.PARSE_ROWS):
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "PARSE_ROWS", rows)
            try:
                outcomes.append(load_matrix(path))
            except (ParseError, ValidationError) as exc:
                outcomes.append(exc)
    first = outcomes[0]
    if isinstance(first, Exception):
        assert [(type(o), str(o)) for o in outcomes] == [(type(first), str(first))] * 4
        raise first
    for other in outcomes[1:]:
        assert ((other.feature_names, other.point_ids, other.group_of, other.weight_of)
                == (first.feature_names, first.point_ids, first.group_of, first.weight_of))
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
        path = write(tmp_path, "id,a,b\np1,1,2\np2,3,4\np3,5,6\np4,7\np5,9,zz\n")
        with pytest.raises(ParseError, match="row 5: expected 3 fields, got 2"):
            load_in_chunks(path, monkeypatch)


class TestChunkBoundaries:
    """load_matrix's reader at chunk sizes that split the file unevenly."""

    def test_ragged_last_chunk_matches_one_chunk(self, tmp_path, monkeypatch):
        # 16 rows: chunks of 7 leave a last chunk of 2
        rng = np.random.default_rng(8)
        lines = ["id,a,b,c"] + [f"p{i}," + ",".join("NA" if rng.random() < 0.2 else
                                                    repr(float(x)) for x in rng.normal(size=3))
                               for i in range(16)]
        path = write(tmp_path, "\n".join(lines) + "\n")
        d = load_in_chunks(path, monkeypatch)
        assert d.point_ids == tuple(f"p{i}" for i in range(16))
        values, mask = parse_cells_oracle(path)
        assert np.array_equal(d.mask, mask)
        assert d.values.tobytes() == values.tobytes()

    def test_fault_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        rows = [f"p{i},{i},{i}" for i in range(20)]
        for bad, message in (("p17,1,x", "row 19: non-numeric value 'x' in column 'b'"),
                             ("p17,1", "row 19: expected 3 fields, got 2")):
            path = write(tmp_path, "\n".join(["id,a,b", *rows[:17], bad, *rows[18:]]) + "\n")
            with pytest.raises(ParseError) as err:
                load_in_chunks(path, monkeypatch)
            assert str(err.value) == f"{path}: {message}"

    def test_header_only_has_no_data_rows(self, tmp_path, monkeypatch):
        path = write(tmp_path, "id,a,b\n")
        with pytest.raises(ParseError) as err:
            load_in_chunks(path, monkeypatch)
        assert str(err.value) == f"{path}: no data rows"

    def test_ids_repeated_across_chunks_are_listed(self, tmp_path, monkeypatch):
        ids = ["p0", "p1", "p2", "p3", "p0", "p5", "p6", "p7", "p3", "p0"]
        path = write(tmp_path, "id,a\n" + "".join(f"{pid},1\n" for pid in ids))
        with pytest.raises(ValidationError) as err:
            load_in_chunks(path, monkeypatch)
        assert str(err.value) == f"{path}: duplicate point ids: ['p0', 'p3']"


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
        out, _ = preprocess(make_matrix([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)

    def test_constant_column_degenerate_and_zeroed(self):
        d = make_matrix([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        out, params = preprocess(d)
        assert params.degenerate == ("f0",)
        np.testing.assert_array_equal(out.values[:, 0], 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        d = make_matrix(rng.normal(2.0, 3.0, size=(40, 4)))
        once, _ = preprocess(d)
        twice, _ = preprocess(once)
        np.testing.assert_allclose(once.values, twice.values, atol=1e-9)

    def test_observed_moments(self):
        rng = np.random.default_rng(4)
        values = rng.normal(5.0, 2.0, size=(30, 3))
        mask = rng.random((30, 3)) > 0.2
        mask[:2] = True   # keep every column populated
        out, _ = preprocess(make_matrix(values, mask))
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
        flip = depolarize(z, mask)
        assert flip.sum() == 1
        out = np.where(flip, -z, z)
        assert np.corrcoef(out[:, 0], out[:, 1])[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_positively_loaded_features_untouched(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=60)
        values = np.column_stack([base + 0.1 * rng.normal(size=60) for _ in range(3)])
        mask = np.ones_like(values, dtype=bool)
        assert not depolarize(zscore(values, mask), mask).any()

    def test_second_pass_adds_no_flips(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(80, 5))
        values[:, 2] *= -1.0
        values[:, 2] += values[:, 0] * -2.0
        mask = np.ones_like(values, dtype=bool)
        z = zscore(values, mask)
        once = depolarize(z, mask)
        assert once.any()
        assert not depolarize(np.where(once, -z, z), mask).any()

    def test_mask_unchanged(self):
        rng = np.random.default_rng(9)
        mask = rng.random((40, 3)) > 0.2
        mask[:3] = True
        values = rng.normal(size=(40, 3))
        values[:, 1] = -values[:, 0] + 0.1 * values[:, 1]
        d = make_matrix(values, mask)
        out, params = preprocess(d)
        assert params.flip.any()
        assert np.array_equal(out.mask, d.mask)


class TestApplyWeights:
    def test_doubling_one_group(self):
        d = make_matrix([[1.0, 1.0], [2.0, 2.0], [4.0, 3.0]], groups={"f0": "mortality"},
                        weights={"mortality": 2.0})
        out, params = preprocess(d)
        z = zscore(d.values, d.mask)
        assert not params.flip.any()
        np.testing.assert_array_equal(out.values[:, 0], 2.0 * z[:, 0])
        np.testing.assert_array_equal(out.values[:, 1], z[:, 1])

    def test_unit_weights_identity(self):
        d = make_matrix([[1.0, -3.0], [0.5, 2.0], [2.0, 1.0], [0.0, -1.0]])
        out, params = preprocess(d)
        z = zscore(d.values, d.mask)
        np.testing.assert_array_equal(out.values, np.where(params.flip, -z, z))

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
        np.testing.assert_array_equal(select_reference(d, 2).indices, [0, 1, 2])

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
    processed, params = preprocess(d)
    z = zscore(d.values, d.mask)
    expected = np.where(params.flip, -z, z) * np.array([1.0, 1.0, 1.0, 2.0])
    assert params.flip.any() and params.degenerate == ("f2",)
    np.testing.assert_array_equal(processed.values, expected)
    # row by row, as run_extend applies it to new points
    np.testing.assert_array_equal(params.transform(d.values[:5], d.mask[:5]),
                                  processed.values[:5])


class TestStaged:
    def test_a_block_that_raises_keeps_every_old_file(self, tmp_path):
        paths = [write(tmp_path, "old a", "a.csv"), write(tmp_path, "old b", "b.json")]
        with pytest.raises(RuntimeError, match="midway"):
            with dataset.staged(*paths) as files:
                for fh in files:
                    fh.write("new")
                raise RuntimeError("midway")
        assert [p.read_text() for p in paths] == ["old a", "old b"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.json"]

    def test_a_clean_exit_replaces_every_file(self, tmp_path):
        paths = [write(tmp_path, "old a", "a.csv"), tmp_path / "new.csv"]
        with dataset.staged(*paths) as files:
            for fh, path in zip(files, paths):
                fh.write(f"{path.name}\r\n")
            # nothing is replaced before the block exits
            assert paths[0].read_text() == "old a" and not paths[1].exists()
        assert [p.read_bytes() for p in paths] == [b"a.csv\r\n", b"new.csv\r\n"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "new.csv"]


def test_write_json_stamps_the_schema_version_and_sorts_keys(tmp_path):
    path = tmp_path / "x.json"
    dataset.write_json(path, {"b": [1, 2], "a": None})
    assert path.read_text() == '{"a": null, "b": [1, 2], "schema_version": 1}'
    dataset.write_json(path, {"b": 1}, indent=1)
    assert path.read_text() == '{\n "b": 1,\n "schema_version": 1\n}'
