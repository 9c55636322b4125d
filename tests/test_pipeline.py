"""The cross-kernel distance routine of the pipeline."""

import numpy as np
from scipy.spatial.distance import cdist as scipy_cdist

from expertmap import pipeline


def test_cdist_matches_scipy():
    rng = np.random.default_rng(40)
    n = 2 * pipeline.EXTEND_BLOCK + 37
    a = rng.normal(size=(n, 30)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    b = rng.normal(size=(23, 30))
    got = pipeline.cdist(a, b)
    want = scipy_cdist(a, b)
    assert got.shape == (n, 23)
    assert np.max(np.abs(got ** 2 - want ** 2) / want ** 2) <= 1e-12


def test_cdist_of_identical_rows_is_finite_and_non_negative():
    rng = np.random.default_rng(41)
    rows = rng.uniform(0.0, 1.0, size=(7, 1121)) * 1e3
    a = np.repeat(rows, 3, axis=0)
    got = pipeline.cdist(a, rows)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    # a row's distance to itself is rounding only, far below any other
    own = got[np.arange(21), np.arange(21) // 3]
    assert np.max(own) <= 1e-6 * np.min(scipy_cdist(rows, rows)[~np.eye(7, dtype=bool)])


def test_cdist_single_rows():
    a = np.array([[3.0, 4.0]])
    assert pipeline.cdist(a, np.zeros((1, 2))).tolist() == [[5.0]]
