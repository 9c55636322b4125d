"""How much memory the n x n builders allocate beyond their inputs.

tracemalloc counts NumPy's buffers but not LAPACK's own workspace, so these
bounds cover what the Python code allocates.  A bound is in units of one
n x n float64 matrix, the kernel a builder returns included; at 512 rows the
fixed blocks (EXACT_BLOCK terms, a TILE of rows) still cost a fraction of
one.
"""

import tracemalloc

import numpy as np
import pytest

from expertmap import cogeometry, spectral, validate, whiten

N = 512


def growth(fn, *args):
    """The peak bytes ``fn(*args)`` allocates beyond what is live before the
    call, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(N, 8))
    kernel = spectral.gaussian_kernel(x, r=10)
    emb = spectral.diffusion_embed(kernel, d=6)
    tree = cogeometry.PartitionTree(axis="observations", levels=(
        (tuple(range(16)),), (tuple(range(8)), tuple(range(8, 16))),
        tuple(tuple(range(a, a + 4)) for a in range(0, 16, 4))))
    return {"x": x, "kernel": kernel, "emb": emb, "lm": whiten.local_moments(emb),
            "tree": tree, "vectors": rng.normal(size=(N, 16))}


BUILDERS = {
    "gaussian_kernel": (1.5, lambda a: (spectral.gaussian_kernel, a["x"], 10)),
    # the distances are allocated before the call; the kernel takes their buffer
    "kernel_from_distances": (0.5, lambda a: (spectral.kernel_from_distances,
                                              spectral.cdist(a["x"], a["x"]), 10)),
    "emd_affinity": (3.0, lambda a: (cogeometry.emd_affinity, a["tree"], a["vectors"])),
    "standardized_kernel": (1.5, lambda a: (whiten.standardized_kernel, a["emb"], a["lm"])),
    "diffusion_embed": (2.5, lambda a: (spectral.diffusion_embed, a["kernel"], 6)),
    "local_moments": (1.0, lambda a: (whiten.local_moments, a["emb"])),
    "spectral_dimension": (1.5, lambda a: (validate.spectral_dimension, a["kernel"])),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_builder_holds_few_square_matrices(name, inputs):
    bound, call = BUILDERS[name]
    fn, *args = call(inputs)
    assert growth(fn, *args) / (N * N * 8) <= bound


def test_imputation_grows_by_few_rows_of_floats_per_row():
    m = 64
    levels = tuple(tuple(tuple(range(a, a + m // 2 ** l)) for a in range(0, m, m // 2 ** l))
                   for l in range(6))
    tree = cogeometry.PartitionTree(axis="observations", levels=levels)
    rng = np.random.default_rng(1)

    def peak(rows):
        x = rng.normal(size=(rows, m))
        x[rng.random(x.shape) < 0.2] = np.nan
        return growth(cogeometry.impute_matrix, x, tree)

    # per further row: the output, the zero-filled input, one gathered array
    # of folder means and the masks; at most 6 rows of m floats
    assert (peak(2000) - peak(1000)) / 1000 <= 6 * m * 8
