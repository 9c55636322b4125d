"""How much memory the n x n builders and the ensemble's readers and
writers allocate beyond their inputs.

tracemalloc counts NumPy's buffers but not LAPACK's own workspace, so these
bounds cover what the Python code allocates.  A builder's bound is in units
of one n x n float64 matrix, the kernel a builder returns included; at 512
rows the fixed blocks (EXACT_BLOCK terms, a TILE of rows) still cost a
fraction of one.  The ensemble's bounds are in units of what holding the
whole ensemble in some form would take: its file's text, its weights or its
representation.
"""

import tracemalloc

import numpy as np
import pytest

from expertmap import cogeometry, netens, spectral, validate, whiten
from expertmap.dataset import DataMatrix, ReferenceSet

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
    values = rng.normal(size=(N, 60))
    mask = rng.random(values.shape) >= 0.1
    values[~mask] = np.nan
    data = DataMatrix(values=values, mask=mask, feature_names=tuple(f"f{k}" for k in range(60)),
                      point_ids=tuple(map(str, range(N))), group_of={}, weight_of={})
    return {"x": x, "kernel": kernel, "emb": emb, "lm": whiten.local_moments(emb),
            "tree": tree, "vectors": rng.normal(size=(N, 16)), "data": data,
            "omega": ReferenceSet(indices=np.arange(N))}


BUILDERS = {
    "gaussian_kernel": (1.5, lambda a: (spectral.gaussian_kernel, a["x"], 10)),
    # its floor is 2 + m / n: the zero-filled rows beside the norms and the
    # cosines; 2.19 was measured, and 2.49 with a whole n x n denominator
    "cosine_affinity": (2.25, lambda a: (cogeometry.cosine_affinity, a["omega"], a["data"])),
    "emd_affinity": (3.0, lambda a: (cogeometry.emd_affinity, a["tree"], a["vectors"])),
    "standardized_kernel": (1.5, lambda a: (whiten.standardized_kernel, a["emb"], a["lm"])),
    "diffusion_embed": (2.5, lambda a: (spectral.diffusion_embed, a["kernel"], 6)),
    "local_moments": (1.0, lambda a: (whiten.local_moments, a["emb"])),
    "spectral_dimension": (1.5, lambda a: (validate.spectral_dimension, a["kernel"])),
    "neighbor_smoothness": (0.5, lambda a: (validate.neighbor_smoothness, a["kernel"],
                                            a["x"][:, 0])),
    "build_partition_tree": (3.5, lambda a: (cogeometry.build_partition_tree, a["kernel"],
                                             None)),
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


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    """24 nets of the default widths on 60 inputs, float32 weights, saved to
    a file; and 324 rows of inputs."""
    rng = np.random.default_rng(2)

    def weights(*shape):
        return rng.normal(size=shape).astype(np.float32).astype(np.float64)
    nets = []
    for i in range(24):
        h1, h2 = int(rng.integers(30, 71)), int(rng.integers(15, 36))
        nets.append(netens.Net(W1=weights(h1, 60), b1=weights(h1), W2=weights(h2, h1),
                               b2=weights(h2), V=weights(1, h2), b3=weights(1),
                               hyper=netens.NetHyper(h1=h1, h2=h2, seed=i)))
    e = netens.NetEnsemble(tuple(nets), master_seed=0)
    path = tmp_path_factory.mktemp("ensemble") / "ensemble.json"
    netens.save_ensemble(e, path)
    return e, path, rng.normal(size=(324, 60))


def test_save_holds_one_net_of_text_at_a_time(ensemble, tmp_path):
    # the text is ~12 bytes a weight, and formatting one net's from its
    # weights as Python floats took ~5 times its text: ~0.2 of the file's
    e, path, _ = ensemble
    assert growth(netens.save_ensemble, e, tmp_path / "e.json") <= 0.25 * path.stat().st_size


def test_load_holds_one_net_of_python_floats_at_a_time(ensemble):
    # the file's text, each weight as float32 and as float64, and one net's
    # lists of Python floats (~32 bytes a weight over the whole ensemble)
    e, path, _ = ensemble
    n_weights = sum(getattr(net, name).size for net in e.nets for name in netens.PARAMS)
    assert growth(netens.load_ensemble, path) <= path.stat().st_size + 16 * n_weights


def test_rank_builds_no_representation(ensemble):
    e, _, x = ensemble
    assert growth(netens.ensemble_rank, e, x) <= 0.25 * x.shape[0] * e.representation_dim * 8
