import concurrent.futures
import copy
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit as sigmoid

from expertmap import netens, synth
from expertmap.errors import InternalError, TrainingDiverged, ValidationError
from expertmap.spectral import neighbour_overlap
from expertmap.netens import (HyperRanges, Net, NetEnsemble, NetHyper, ensemble_rank,
                              forward_batch, init_net, load_ensemble, loss_and_gradients,
                              pretrain_autoencoder, representation, sample_hyper,
                              save_ensemble, train_backprop, train_ensemble)


def lipschitz_bound(net: Net) -> tuple[float, float]:
    """(metric bound ||W1||/4, output bound ||V|| ||W2|| ||W1|| / 64)."""
    w1, w2, v = (np.linalg.norm(w, 2) for w in (net.W1, net.W2, net.V))
    return w1 / 4.0, v * w2 * w1 / 64.0


def zero_net(m, h1, h2):
    hyper = NetHyper(h1=h1, h2=h2, seed=0)
    return Net(W1=np.zeros((h1, m)), b1=np.zeros(h1), W2=np.zeros((h2, h1)),
               b2=np.zeros(h2), V=np.zeros((1, h2)), b3=np.zeros(1), hyper=hyper)


def random_net(m, h1, h2, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    hyper = NetHyper(h1=h1, h2=h2, seed=seed)
    net = init_net(m, hyper, rng)
    return Net(W1=scale * net.W1, b1=rng.normal(0, 0.1, h1),
               W2=scale * net.W2, b2=rng.normal(0, 0.1, h2),
               V=scale * net.V, b3=rng.normal(0, 0.1, 1), hyper=hyper)


class TestSigmoid:
    def test_matches_expit_on_a_grid(self):
        z = np.linspace(-800.0, 800.0, 160001)
        np.testing.assert_allclose(netens.sigmoid(z), sigmoid(z), rtol=0, atol=2.3e-16)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_saturates_exactly_without_warning(self, dtype):
        out = netens.sigmoid(np.array([-1000.0, 1000.0], dtype=dtype))
        assert out.tolist() == [0.0, 1.0]

    def test_keeps_float32(self):
        z = np.linspace(-5.0, 5.0, 11, dtype=np.float32)
        assert netens.sigmoid(z).dtype == np.float32
        np.testing.assert_allclose(netens.sigmoid(z), sigmoid(z.astype(float)), rtol=1e-6)

    def test_writes_into_out(self):
        z = np.linspace(-3.0, 3.0, 7)
        expected = sigmoid(z)
        assert netens.sigmoid(z, out=z) is z
        np.testing.assert_allclose(z, expected, rtol=0, atol=2.3e-16)


def test_import_leaves_scipy_unloaded():
    # netens needs NumPy alone, so a program that only trains, loads or
    # evaluates nets pays for no SciPy import
    src = str(Path(netens.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import expertmap.netens; "
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "False"


class TestForward:
    def test_all_zero_weights_give_half(self):
        net = zero_net(4, 3, 2)
        h1, h2, f = forward_batch(net, np.zeros((1, 4)))
        np.testing.assert_array_equal(h1, 0.5)
        np.testing.assert_array_equal(h2, 0.5)
        assert f[0] == 0.5

    def test_scalar_chain_hand_values(self):
        hyper = NetHyper(h1=1, h2=1, seed=0)
        net = Net(W1=np.ones((1, 1)), b1=np.zeros(1), W2=np.ones((1, 1)),
                  b2=np.zeros(1), V=np.ones((1, 1)), b3=np.zeros(1), hyper=hyper)
        h1, h2, f = forward_batch(net, np.zeros((1, 1)))
        assert h1[0, 0] == pytest.approx(0.5)
        assert h2[0, 0] == pytest.approx(sigmoid(0.5))
        assert h2[0, 0] == pytest.approx(0.6225, abs=5e-5)
        assert f[0] == pytest.approx(sigmoid(sigmoid(0.5)))
        assert f[0] == pytest.approx(0.6508, abs=5e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            forward_batch(zero_net(4, 3, 2), np.zeros((1, 5)))

    def test_lipschitz_of_output(self):
        rng = np.random.default_rng(1)
        net = random_net(5, 4, 3, seed=2)
        _, bound = lipschitz_bound(net)
        pairs = rng.normal(size=(200, 2, 5))
        x, y = pairs[:, 0], pairs[:, 1]
        gap = np.abs(forward_batch(net, x)[2] - forward_batch(net, y)[2])
        assert np.all(gap <= bound * np.linalg.norm(x - y, axis=1) + 1e-12)


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 3))
        g = rng.uniform(size=12)
        mu = 1e-3
        step = 1e-5
        worst = 0.0
        for trial in range(10):
            net = random_net(3, 2, 2, seed=trial, scale=1.5)
            grads = {name: np.empty_like(getattr(net, name)) for name in netens.PARAMS}
            loss_and_gradients(net, X, g, mu, grads)
            for name in grads:
                arr = getattr(net, name)
                for idx in np.ndindex(arr.shape):
                    def loss_at(value):
                        patched = arr.copy()
                        patched[idx] = value
                        probe = Net(**{**{k: getattr(net, k) for k in
                                          ("W1", "b1", "W2", "b2", "V", "b3")},
                                       name: patched}, hyper=net.hyper)
                        return loss_and_gradients(probe, X, g, mu,
                                                  copy.deepcopy(grads))[0]
                    numeric = (loss_at(arr[idx] + step) - loss_at(arr[idx] - step)) / (2 * step)
                    denom = max(abs(numeric), abs(grads[name][idx]), 1e-8)
                    worst = max(worst, abs(numeric - grads[name][idx]) / denom)
        assert worst < 1e-4


class TestPretrain:
    def test_zero_epochs_is_identity(self):
        net = random_net(4, 3, 2, seed=4)
        out = pretrain_autoencoder(net, np.random.default_rng(0).normal(size=(10, 4)),
                                   epochs=0, rng=np.random.default_rng(1))
        assert out is net

    def test_empty_training_set(self):
        with pytest.raises(ValidationError, match="empty"):
            pretrain_autoencoder(random_net(3, 2, 2), np.zeros((0, 3)), 5,
                                 np.random.default_rng(0))


def separable_toy(seed=11, n_per=20):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 0.4, size=(n_per, 2)) + np.array([-2.0, 0.0])
    b = rng.normal(0, 0.4, size=(n_per, 2)) + np.array([2.0, 0.0])
    X = np.vstack([a, b])
    g = np.concatenate([np.zeros(n_per), np.ones(n_per)])
    return X, g


def logistic_oracle_cost(X, g, epochs=3000, lr=1.0):
    """Plain logistic regression trained by gradient descent."""
    w = np.zeros(X.shape[1])
    b = 0.0
    n = len(g)
    for _ in range(epochs):
        p = sigmoid(X @ w + b)
        grad = (p - g) * p * (1 - p)
        w -= lr * (2.0 / n) * X.T @ grad
        b -= lr * (2.0 / n) * grad.sum()
    return np.mean((sigmoid(X @ w + b) - g) ** 2)


class TestBackprop:
    def test_separable_toy_reaches_low_cost(self):
        X, g = separable_toy()
        assert logistic_oracle_cost(X, g) < 0.05   # the fixture is attainable
        hyper = NetHyper(h1=4, h2=3, seed=0, weight_decay=1e-5,
                         learning_rate=1.0, epochs=800)
        net = init_net(2, hyper, np.random.default_rng(12))
        trained, report = train_backprop(net, X, g)
        assert report.final_cost < 0.05

    def test_huge_weight_decay_shrinks_weights(self):
        X, g = separable_toy(seed=13)
        hyper = NetHyper(h1=3, h2=2, seed=0, weight_decay=1e6,
                         learning_rate=1e-7, epochs=200)
        net = init_net(2, hyper, np.random.default_rng(14))
        before = sum(np.sum(w ** 2) for w in (net.W1, net.W2, net.V))
        trained, _ = train_backprop(net, X, g)
        after = sum(np.sum(w ** 2) for w in (trained.W1, trained.W2, trained.V))
        assert after < before

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises_with_diagnostics(self):
        X, g = separable_toy(seed=15)
        hyper = NetHyper(h1=3, h2=2, seed=0, weight_decay=1e6,
                         learning_rate=1e3, epochs=500)
        net = init_net(2, hyper, np.random.default_rng(16))
        with pytest.raises(TrainingDiverged) as err:
            train_backprop(net, X, g)
        assert err.value.learning_rate == 1e3

    def test_labels_must_be_rescaled(self):
        X, g = separable_toy(seed=17)
        with pytest.raises(ValidationError, match="rescaled"):
            train_backprop(random_net(2, 3, 2), X, g * 10.0)

    def test_trajectory_finite_and_complete(self):
        # every epoch runs, and the reported cost is the trained net's own
        X, g = separable_toy(seed=18)
        hyper = NetHyper(h1=3, h2=2, seed=0, learning_rate=0.5, epochs=50)
        net = init_net(2, hyper, np.random.default_rng(19))
        trained, report = train_backprop(net, X, g)
        assert report.epochs_run == 50 and np.isfinite(report.final_cost)
        assert report.final_cost == float(np.mean((forward_batch(trained, X)[2] - g) ** 2))


def cast_net(net: Net, dtype) -> Net:
    return Net(W1=net.W1.astype(dtype), b1=net.b1.astype(dtype),
               W2=net.W2.astype(dtype), b2=net.b2.astype(dtype),
               V=net.V.astype(dtype), b3=net.b3.astype(dtype), hyper=net.hyper)


# The epoch code the training loops had before their parameters and
# gradients moved into flat buffers, kept as their oracle: a fresh array for
# each product, reduction and gradient, the rank-1 gradient as a matrix
# product, dropout masks drawn by shape, and each parameter updated on its
# own.  The loops must keep its bits.

def oracle_loss_and_gradients(net: Net, X: np.ndarray, g: np.ndarray, mu: float):
    n = X.shape[0]
    H1, H2, f = forward_batch(net, X)
    err = f - g
    with np.errstate(over="ignore", invalid="ignore"):
        cost = float(np.mean(err ** 2))
        penalty = mu * (np.sum(net.W1 ** 2) + np.sum(net.W2 ** 2) + np.sum(net.V ** 2))
    loss = cost + float(penalty)

    dz3 = (2.0 / n) * err
    dz3 *= f
    dz3 *= 1.0 - f
    dV = dz3[None, :] @ H2 + 2.0 * mu * net.V
    db3 = np.array([dz3.sum()])
    dZ2 = dz3[:, None] @ net.V
    dZ2 *= H2
    dZ2 *= 1.0 - H2
    dW2 = dZ2.T @ H1 + 2.0 * mu * net.W2
    db2 = dZ2.sum(axis=0)
    dZ1 = dZ2 @ net.W2
    dZ1 *= H1
    dZ1 *= 1.0 - H1
    dW1 = dZ1.T @ X + 2.0 * mu * net.W1
    db1 = dZ1.sum(axis=0)

    grads = {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2, "V": dV, "b3": db3}
    return loss, cost, grads


def oracle_train_backprop(net: Net, X: np.ndarray, g01: np.ndarray):
    g01 = np.asarray(g01, dtype=X.dtype)
    epochs, lr, mu = net.hyper.epochs, net.hyper.learning_rate, net.hyper.weight_decay
    params = {name: getattr(net, name).copy() for name in netens.PARAMS}
    current = replace(net, **params)
    for epoch in range(epochs):
        loss, _, grads = oracle_loss_and_gradients(current, X, g01, mu)
        if not np.isfinite(loss):
            raise TrainingDiverged("loss non-finite", epoch=epoch, learning_rate=lr)
        for name, p in params.items():
            g = grads[name]
            g *= lr
            p -= g
    final_cost = float(np.mean((forward_batch(current, X)[2] - g01) ** 2))
    if not np.isfinite(final_cost):
        raise TrainingDiverged("cost non-finite", epoch=epochs, learning_rate=lr)
    return current, netens.TrainReport(final_cost=final_cost, epochs_run=epochs)


def oracle_train_dae_layer(inputs, W, b, dropout_rate, epochs, lr, rng):
    n, width = inputs.shape
    h = W.shape[0]
    D = netens._glorot(rng, width, h).astype(inputs.dtype)
    c = np.zeros(width, dtype=inputs.dtype)
    W, b = W.copy(), b.copy()
    corrupted = np.empty_like(inputs)
    for epoch in range(epochs):
        np.copyto(corrupted, inputs)
        if dropout_rate > 0:
            corrupted[rng.random(inputs.shape) < dropout_rate] = 0.0
        H = netens._affine_sigmoid(corrupted, W, b)
        recon = H @ D.T
        recon += c
        if not np.all(np.isfinite(recon)):
            raise TrainingDiverged("reconstruction non-finite", epoch=epoch, learning_rate=lr)
        diff = np.subtract(recon, inputs, out=recon)
        diff *= 2.0 / (n * width)
        dD = diff.T @ H
        dc = diff.sum(axis=0)
        dZ = diff @ D
        dZ *= H
        dZ *= 1.0 - H
        dW = dZ.T @ corrupted
        db = dZ.sum(axis=0)
        for p, g in ((W, dW), (b, db), (D, dD), (c, dc)):
            g *= lr
            p -= g
    return W, b


def oracle_train_net(Xt, gt, pretrain_epochs, net, rng):
    """_train_net on the oracle's loops: (net, report, retried) or None."""
    Xt, gt = Xt.astype(np.float32), gt.astype(np.float32)
    net = cast_net(net, np.float32)
    for retried in (False, True):
        if retried:
            net = replace(net, hyper=replace(net.hyper,
                                             learning_rate=net.hyper.learning_rate * 0.5))
        try:
            layer_rng = copy.deepcopy(rng)
            lr, rate = net.hyper.learning_rate, net.hyper.dropout_rate
            W1, b1 = oracle_train_dae_layer(Xt, net.W1, net.b1, rate, pretrain_epochs, lr,
                                            layer_rng)
            H1 = netens._affine_sigmoid(Xt, W1, b1)
            W2, b2 = oracle_train_dae_layer(H1, net.W2, net.b2, rate, pretrain_epochs, lr,
                                            layer_rng)
            trained, report = oracle_train_backprop(replace(net, W1=W1, b1=b1, W2=W2, b2=b2),
                                                    Xt, gt)
        except TrainingDiverged:
            continue
        return cast_net(trained, np.float64), report, retried
    return None


def net_bytes(net: Net) -> list[bytes]:
    return [getattr(net, name).tobytes() for name in netens.PARAMS]


@pytest.fixture(scope="module")
def synth_rows():
    """324 standardized rows of 60 features and their labels in [0, 1]."""
    data, truth, _ = synth.generate(synth.SynthConfig(n_points=324, missing_rate=0.0))
    X = (data.values - data.values.mean(axis=0)) / data.values.std(axis=0)
    return X, (truth - truth.min()) / (truth.max() - truth.min())


class TestEpochsKeepTheOracleBits:
    """The training loops against the oracle's, bit for bit, at 324 rows
    (the regular BLAS path) and at 60 (below 80 rows)."""

    @pytest.mark.parametrize("rows", [324, 60])
    def test_loss_and_gradients_of_a_float32_net(self, synth_rows, rows):
        X, g = synth_rows
        net, _ = netens._start_net(X.shape[1], HyperRanges(), 7, 200, 0.5, 3)
        net = cast_net(net, np.float32)
        X, g = X[:rows].astype(np.float32), g[:rows].astype(np.float32)
        self.assert_same_bits(net, X, g, 3e-3)

    def test_loss_and_gradients_of_a_tiny_float64_net(self):
        rng = np.random.default_rng(3)
        X, g = rng.normal(size=(12, 3)), rng.uniform(size=12)
        for seed in range(5):
            self.assert_same_bits(random_net(3, 2, 2, seed=seed, scale=1.5), X, g, 1e-3)

    @staticmethod
    def assert_same_bits(net, X, g, mu):
        grads = {name: np.full_like(getattr(net, name), np.nan) for name in netens.PARAMS}
        loss, cost = loss_and_gradients(net, X, g, mu, grads)
        want_loss, want_cost, want = oracle_loss_and_gradients(net, X, g, mu)
        assert (loss.hex(), cost.hex()) == (want_loss.hex(), want_cost.hex())
        for name in netens.PARAMS:
            assert grads[name].dtype == want[name].dtype, name
            assert grads[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("rows", [324, 60])
    def test_train_net_matches_the_oracle_loop(self, synth_rows, rows):
        # nets 0, 2 and 3 drop inputs, net 1 is rerun with no dropout, and
        # net 0 at rate 48 diverges and is kept at 24
        X, g = synth_rows
        X, g = X[:rows], g[:rows]
        seen = []
        for i, rate, dropout in [(0, 0.5, None), (2, 0.5, None), (3, 0.5, None),
                                 (1, 0.5, 0.0), (0, 48.0, None)]:
            net, rng = netens._start_net(X.shape[1], HyperRanges(), 7, 30, rate, i)
            if dropout is not None:
                net = replace(net, hyper=replace(net.hyper, dropout_rate=dropout))
            oracle_rng = copy.deepcopy(rng)
            trained, report, retried, seconds = netens._train_net(X, g, 10, net, rng)
            want, want_report, want_retried = oracle_train_net(X, g, 10, net, oracle_rng)
            assert net_bytes(trained) == net_bytes(want)
            assert (report, retried) == (want_report, want_retried) and seconds > 0.0
            seen.append((net.hyper.dropout_rate > 0, retried))
        assert seen[:3] == [(True, False)] * 3
        assert seen[3:] == [(False, False), (True, True)]


@pytest.mark.filterwarnings("error")
def test_a_diverging_pretraining_raises_only_training_diverged():
    # at rate 40 each net's pretraining overflows; the overflow is caught as
    # divergence, and the net is retried at 20 or given up, with no warning
    data, truth, _ = synth.generate(synth.SynthConfig(n_points=600, missing_rate=0.0, seed=7))
    X = (data.values - data.values.mean(axis=0)) / data.values.std(axis=0)
    g = (truth - truth.min()) / (truth.max() - truth.min())
    results = [netens._train_net(X[:324], g[:324], 20,
                                 *netens._start_net(60, HyperRanges(), 7, 60, 40.0, i))
               for i in range(6)]
    assert all(result is None or result[2] for result in results)
    assert None in results


@pytest.mark.filterwarnings("error")
def test_pretraining_weights_that_overflow_on_the_last_epoch_diverge():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 5)).astype(np.float32)
    net = cast_net(random_net(5, 4, 3), np.float32)
    with pytest.raises(TrainingDiverged) as err:
        netens._train_dae_layer(X, net.W1, net.b1, 0.0, 1, 1e300, rng)
    assert err.value.epoch == 1


def train_ensemble_oracle(X: np.ndarray, g01: np.ndarray, K: int,
                          hyper_ranges: HyperRanges | None = None,
                          master_seed: int = 0,
                          epochs: int = 200, learning_rate: float = 0.5,
                          pretrain_epochs: int = 60,
                          train_rows: np.ndarray | None = None) -> NetEnsemble:
    """The serial loop train_ensemble replaced, kept as the reference.

    Each net trains in float32 on float32 roundings of the rows, labels and
    drawn weights, and is kept in float64, as in train_ensemble.
    """
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    ranges = hyper_ranges or HyperRanges()
    if train_rows is None:
        Xt, gt = X, np.asarray(g01, dtype=float)
    else:
        Xt, gt = X[train_rows], np.asarray(g01, dtype=float)[train_rows]
    if Xt.shape[0] == 0:
        raise ValidationError("empty training set after excluding imputed rows")
    Xt, gt = Xt.astype(np.float32), gt.astype(np.float32)

    nets: list[Net] = []
    failed: list[int] = []
    for i in range(K):
        def attempt(lr_scale: float) -> Net:
            rng = np.random.default_rng([master_seed, i])
            hyper = sample_hyper(ranges, i, rng, learning_rate * lr_scale, epochs)
            net = cast_net(init_net(X.shape[1], hyper, rng), np.float32)
            net = pretrain_autoencoder(net, Xt, pretrain_epochs, rng)
            net, _ = train_backprop(net, Xt, gt)
            return cast_net(net, np.float64)

        try:
            nets.append(attempt(1.0))
        except TrainingDiverged:
            try:
                nets.append(attempt(0.5))
            except TrainingDiverged:
                failed.append(i)

    if len(failed) > 0.1 * K:
        raise ValidationError(f"{len(failed)} of {K} nets diverged: {failed}")
    return NetEnsemble(nets=tuple(nets), master_seed=master_seed, failed=tuple(failed))


def test_float32_training_within_tolerance_of_float64():
    """_train_net's float32 nets against the same starts trained in float64."""
    data, truth, _ = synth.generate(synth.SynthConfig(n_points=300, missing_rate=0.0))
    X = (data.values - data.values.mean(axis=0)) / data.values.std(axis=0)
    g = (truth - truth.min()) / (truth.max() - truth.min())
    for i in range(2):
        net, rng = netens._start_net(X.shape[1], HyperRanges(), 3, 200, 0.5, i)
        trained32, _, retried, _ = netens._train_net(X, g, 60, net, rng)
        trained64 = pretrain_autoencoder(net, X, 60, copy.deepcopy(rng))
        trained64, _ = train_backprop(trained64, X, g)
        assert not retried and trained32.W1.dtype == np.float64
        rep32, mean32 = representation(NetEnsemble((trained32,), 0), X)
        rep64, mean64 = representation(NetEnsemble((trained64,), 0), X)
        np.testing.assert_allclose(rep32, rep64, rtol=0, atol=1e-4)
        np.testing.assert_allclose(mean32, mean64, rtol=0, atol=1e-5)


def small_ranges():
    return HyperRanges(h1=(3, 6), h2=(2, 4), dropout=(0.0, 0.2),
                       weight_decay=(1e-5, 1e-3))


def ensemble_to_json(e: NetEnsemble) -> str:
    """Oracle: the ensemble file's text built whole, the head and then every
    net's text."""
    head = json.dumps({"schema_version": netens.ENSEMBLE_SCHEMA, "master_seed": e.master_seed,
                       "failed": list(e.failed)}, separators=(",", ":"))
    return head[:-1] + ',"nets":[' + ",".join(map(netens._net_to_json, e.nets)) + "]}"


def ensemble_bytes(e: NetEnsemble) -> str:
    """The ensemble file's text, which tells every float32 weight apart."""
    return ensemble_to_json(e)


def never(earlier, current):
    """A stopping check for ensembles too small to run one."""
    raise AssertionError("the check ran")


def refuse_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if train_ensemble starts a worker pool."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse_pool)


class TestPoolMatchesSerialLoop:
    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        """Size the pool as for a BLAS pinned to one thread: one process a core."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    @pytest.mark.parametrize("K", [1, 2, 7])
    def test_bytes_equal_oracle(self, K):
        # K=7: more nets than workers on up to 6 cores, and uneven widths
        X, g = separable_toy(seed=32)
        kwargs = dict(K=K, hyper_ranges=HyperRanges(h1=(3, 12), h2=(2, 6)),
                      master_seed=4, epochs=30, pretrain_epochs=6)
        e, record = train_ensemble(X, g, check=never, **kwargs)
        assert ensemble_bytes(e) == ensemble_bytes(train_ensemble_oracle(X, g, **kwargs))
        if K == 7:
            assert len({net.W1.shape[0] for net in e.nets}) > 1
        assert record.retried == () and 1 <= record.workers <= K
        assert [r.epochs_run for r in record.reports] == [30] * K
        assert record.workers == 1 or record.children_max_rss_mb > 0
        assert record.waited_s >= 0.0

    @pytest.mark.parametrize("blas, cores, workers", [
        (None, 4, 1),     # BLAS takes every core: this process trains all nets
        ("2", 4, 2),
        ("1", 3, 3),      # more processes than this machine may have cores
        ("1", 1, 1),
    ])
    def test_processes_times_blas_threads_fit_the_cores(self, blas, cores, workers,
                                                        monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if blas is not None:
            monkeypatch.setenv("OMP_NUM_THREADS", blas)
        monkeypatch.setattr(netens.os, "sched_getaffinity", lambda pid: set(range(cores)))
        if workers == 1:
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse_pool)
        X, g = separable_toy(seed=35)
        kwargs = dict(K=7, hyper_ranges=small_ranges(), master_seed=8, epochs=15,
                      pretrain_epochs=3)
        e, record = train_ensemble(X, g, check=never, **kwargs)
        assert record.workers == workers
        assert ensemble_bytes(e) == ensemble_bytes(train_ensemble_oracle(X, g, **kwargs))

    def test_train_rows_bytes_equal_oracle(self):
        X, g = separable_toy(seed=33)
        rows = np.arange(len(X)) % 3 != 0
        kwargs = dict(K=3, hyper_ranges=small_ranges(), master_seed=6, epochs=20,
                      pretrain_epochs=4, train_rows=rows)
        assert ensemble_bytes(train_ensemble(X, g, check=never, **kwargs)[0]) == \
            ensemble_bytes(train_ensemble_oracle(X, g, **kwargs))

    # In float32 the penalty's W**2 overflows at far smaller rates than in
    # float64: 1e5 gives 5 retries at half rate and 10**5.5 makes 7 nets fail.
    RETRY = dict(K=20, hyper_ranges=small_ranges(), master_seed=5, epochs=10,
                 pretrain_epochs=0)

    def test_retry_at_half_rate_matches_oracle(self):
        X, g = separable_toy(seed=11)
        kwargs = dict(self.RETRY, learning_rate=1e5)
        e, record = train_ensemble(X, g, check=never, **kwargs)
        oracle = train_ensemble_oracle(X, g, **kwargs)
        assert ensemble_bytes(e) == ensemble_bytes(oracle)
        assert e.failed == () and len(record.retried) == 5
        rates = [net.hyper.learning_rate for net in e.nets]
        assert [i for i, rate in enumerate(rates) if rate == 0.5e5] == \
            list(record.retried)
        assert rates.count(1e5) == 15

    def test_too_many_failures_match_oracle(self):
        X, g = separable_toy(seed=11)
        kwargs = dict(self.RETRY, learning_rate=10 ** 5.5)
        with pytest.raises(ValidationError) as oracle:
            train_ensemble_oracle(X, g, **kwargs)
        assert str(oracle.value).startswith("7 of 20 nets diverged")
        with pytest.raises(ValidationError) as pooled:
            train_ensemble(X, g, check=never, **kwargs)
        assert str(pooled.value) == str(oracle.value)

    @pytest.mark.usefixtures("no_pool")
    def test_invalid_labels_rejected_before_any_worker(self):
        X, g = separable_toy(seed=34)
        with pytest.raises(ValidationError, match="rescaled"):
            train_ensemble(X, g * 10.0, check=never, K=3, hyper_ranges=small_ranges())
        with pytest.raises(ValidationError, match="row count"):
            train_ensemble(X, g[:-1], check=never, K=3, hyper_ranges=small_ranges())


def started(log) -> list[tuple[int, int]]:
    """(pid, net) of each net started, in the order they were written to
    ``log``."""
    if not log.exists():
        return []
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def fake_nets(monkeypatch, log, here, helper):
    """Make train_ensemble's nets ints: starting net i appends "<pid> <i>" to
    ``log`` and gives i, and training it calls ``here(i)`` in this process or
    ``helper(i)`` in a helper and gives (i, pid, False, 0.0), which is
    _train_net's (net, report, retried, seconds) with the pid as report."""
    parent = os.getpid()

    def start_net(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args[-1]}\n")
        return args[-1], None

    def train_net(Xt, gt, pretrain_epochs, net, rng):
        (here if os.getpid() == parent else helper)(net)
        return net, os.getpid(), False, 0.0
    monkeypatch.setattr(netens, "_start_net", start_net)
    monkeypatch.setattr(netens, "_train_net", train_net)


def wait_for_a_helper(log):
    """Wait until a process other than this one has started a net."""
    deadline = time.monotonic() + 30
    while all(pid == os.getpid() for pid, _ in started(log)):
        assert time.monotonic() < deadline, "no helper started a net"
        time.sleep(0.001)


class TestHandout:
    """Which process trains which net of a round, as each takes the next
    index from the shared counter."""

    @pytest.fixture(autouse=True)
    def two_processes(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(netens.os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.mark.parametrize("slow_here", [False, True], ids=["slow_helper", "slow_here"])
    def test_each_net_once_in_order(self, monkeypatch, tmp_path, slow_here):
        # the slow process's nets take 1 s and the other's 10 ms: the slow
        # one trains one net of the round while the other trains the rest,
        # and this process waits for the helper only when the helper is slow
        log = tmp_path / "started.log"

        def fast(i):
            wait_for_a_helper(log)
            time.sleep(0.01)

        def slow(i):
            time.sleep(1.0)
        fake_nets(monkeypatch, log, here=slow if slow_here else fast,
                  helper=fast if slow_here else slow)
        X, g = separable_toy(seed=43)
        e, record = train_ensemble(X, g, K=8, check=never)
        assert e.nets == tuple(range(8)) and record.workers == 2
        # each net is started once, by the process that trains it, and each
        # process takes its nets in index order
        assert dict((net, pid) for pid, net in started(log)) == dict(zip(e.nets, record.reports))
        assert len(started(log)) == 8
        for pid in set(record.reports):
            assert [net for p, net in started(log) if p == pid] == \
                [net for net, p in zip(e.nets, record.reports) if p == pid]
        slow_pid = os.getpid() if slow_here else (set(record.reports) - {os.getpid()}).pop()
        assert record.reports.count(slow_pid) == 1
        assert (record.waited_s > 0.5) == (not slow_here)
        assert multiprocessing.active_children() == []

    def test_more_helpers_than_cores_train_each_net_once(self, tmp_path):
        # three helpers and this process on two cores, nets of 1-3 ms, and a
        # short switch interval: a lost update to the counter would train a
        # net twice or leave one out
        log = tmp_path / "started.log"

        def train_net(i):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {i}\n")
            time.sleep(0.001 * (1 + i % 3))
            return os.getpid()
        state = (multiprocessing.get_context("fork").Value("q", 0), train_net)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with netens.forked_pool(3, state) as pool:
                for lo, h in netens._rounds(40):
                    tasks = [pool.submit(netens._take_nets, h) for _ in range(3)]
                    trained = netens._take_nets(h, state)
                    for task in tasks:
                        trained += task.result(timeout=60)
                    assert sorted(i for i, _ in trained) == list(range(lo, h))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(net for _, net in started(log)) == list(range(40))
        assert multiprocessing.active_children() == []

    def test_no_net_is_handed_out_after_a_helper_error(self, monkeypatch, tmp_path):
        # this process trains its first net until the helper's first net
        # has raised; then neither process starts another
        log = tmp_path / "started.log"

        def here(i):
            wait_for_a_helper(log)
            time.sleep(0.3)

        def helper(i):
            raise RuntimeError(f"net {i} broke")
        fake_nets(monkeypatch, log, here=here, helper=helper)
        X, g = separable_toy(seed=44)
        with pytest.raises(RuntimeError, match="broke"):
            train_ensemble(X, g, K=8, check=never)
        pids = [pid for pid, _ in started(log)]
        assert len(pids) == 2 and os.getpid() in pids and len(set(pids)) == 2
        assert multiprocessing.active_children() == []

    def test_an_error_in_net_0_fails_train_and_leaves_no_child(self, monkeypatch, tmp_path):
        # every process appends each net it starts to the log
        log = tmp_path / "started.log"
        real, real_start = netens._train_net, netens._start_net

        def train_net(Xt, gt, pretrain_epochs, net, rng):
            if net.hyper.seed == 0:
                raise RuntimeError("net 0 broke")
            return real(Xt, gt, pretrain_epochs, net, rng)

        def start_net(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {args[-1]}\n")
            return real_start(*args)
        monkeypatch.setattr(netens, "_train_net", train_net)
        monkeypatch.setattr(netens, "_start_net", start_net)
        X, g = separable_toy(seed=41)
        with pytest.raises(RuntimeError, match="net 0 broke"):
            train_ensemble(X, g, K=45, check=never, hyper_ranges=small_ranges(), epochs=15,
                           pretrain_epochs=3)
        # a net is started only when a process takes it, so few of the
        # round's 20 nets start before net 0 raises, and none past them
        nets = [net for _, net in started(log)]
        assert 0 in nets and max(nets) <= 19 and len(nets) < 20
        assert multiprocessing.active_children() == []


class TestStoppingRule:
    """Rounds of nets that stop when a round leaves the geometry as it was,
    against the oracle's first nets."""

    KWARGS = dict(hyper_ranges=small_ranges(), master_seed=10, epochs=15, pretrain_epochs=3)

    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    @staticmethod
    def representation_check(X, neighbours, threshold):
        """A check that depends on the nets alone: the overlap of the nearest
        neighbours by the two ensembles' representations of X, converged at
        ``threshold``."""
        def check(earlier, current):
            overlap = neighbour_overlap(representation(earlier, X)[0],
                                        representation(current, X)[0], neighbours)
            return overlap, overlap >= threshold
        return check

    def test_stopped_ensemble_is_the_oracle_prefix_whatever_the_processes(self, monkeypatch):
        # on this toy the 2-NN overlap is 0.9875 after 30 nets and 1 after 40
        X, g = separable_toy(seed=42)
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(netens.os, "sched_getaffinity", lambda pid: set(range(cores)))
            e, record = train_ensemble(X, g, K=50, check=self.representation_check(X, 2, 0.99),
                                       **self.KWARGS)
            assert record.workers == cores
            runs.append((ensemble_bytes(e), record.checks))
        assert runs[0] == runs[1]
        assert runs[0][1] == ((30, 0.9875), (40, 1.0))
        assert runs[0][0] == ensemble_bytes(train_ensemble_oracle(X, g, K=40, **self.KWARGS))

    @pytest.mark.parametrize("K", [7, 20, 30])
    def test_two_rounds_never_check(self, K):
        # the first check compares the nets after round 2 with those after
        # round 1, and no check runs after the last round
        X, g = separable_toy(seed=37)
        e, record = train_ensemble(X, g, K=K, check=never, **self.KWARGS)
        assert record.checks == ()
        assert ensemble_bytes(e) == ensemble_bytes(train_ensemble_oracle(X, g, K=K,
                                                                         **self.KWARGS))

    @pytest.mark.parametrize("converged, compared", [(True, [(20, 30)]),
                                                     (False, [(20, 30), (30, 40)])])
    def test_the_verdict_sets_the_stop(self, converged, compared):
        X, g = separable_toy(seed=38)
        overlap = self.representation_check(X, 5, 0.0)
        seen = []

        def check(earlier, current):
            seen.append((earlier.k, current.k))
            return overlap(earlier, current)[0], converged
        e, record = train_ensemble(X, g, K=50, check=check, **self.KWARGS)
        assert seen == compared
        assert [h for h, _ in record.checks] == [current for _, current in compared]
        assert all(0.0 < o <= 1.0 for _, o in record.checks)
        stopped = 30 if converged else 50
        assert ensemble_bytes(e) == ensemble_bytes(train_ensemble_oracle(X, g, K=stopped,
                                                                         **self.KWARGS))

    def test_a_check_that_raises_trains_to_the_cap(self):
        def failing(earlier, current):
            raise ValidationError("kernel not symmetric")
        X, g = separable_toy(seed=39)
        e, record = train_ensemble(X, g, K=45, check=failing, **self.KWARGS)
        assert record.checks == ((30, None), (40, None)) and e.k == 45

    def test_no_check_while_too_many_nets_diverged(self, monkeypatch):
        # 4 of the first 30 nets diverge, more than 10%: training goes on
        # without a check, and stops after 40 nets, of which 4 is 10%; a
        # forked helper trains its nets with this test's _train_net
        diverging = {0, 5, 12, 25}
        real = netens._train_net

        def train_net(Xt, gt, pretrain_epochs, net, rng):
            if net.hyper.seed in diverging:
                return None
            return real(Xt, gt, pretrain_epochs, net, rng)
        monkeypatch.setattr(netens, "_train_net", train_net)
        X, g = separable_toy(seed=40)
        for cores in (1, 2):
            monkeypatch.setattr(netens.os, "sched_getaffinity", lambda pid: set(range(cores)))
            e, record = train_ensemble(X, g, K=50, check=lambda a, b: (1.0, True),
                                       **self.KWARGS)
            assert record.workers == cores
            assert record.checks == ((40, 1.0),)
            assert e.failed == (0, 5, 12, 25)
            assert [net.hyper.seed for net in e.nets] == [i for i in range(40)
                                                          if i not in diverging]

    def test_too_many_diverged_fails_where_the_cap_would(self):
        # 7 of the first 20 nets diverge: no round may stop, and the error is
        # the oracle's at the cap
        X, g = separable_toy(seed=11)
        kwargs = dict(TestPoolMatchesSerialLoop.RETRY, K=40, learning_rate=10 ** 5.5)
        with pytest.raises(ValidationError) as oracle:
            train_ensemble_oracle(X, g, **kwargs)
        with pytest.raises(ValidationError) as err:
            train_ensemble(X, g, check=lambda a, b: (1.0, True), **kwargs)
        assert str(err.value) == str(oracle.value)
        assert " of 40 nets diverged" in str(err.value)


class TestEnsemble:
    def test_k1_representation_is_single_h1(self):
        X, g = separable_toy(seed=20)
        e, _ = train_ensemble(X, g, check=never, K=1, hyper_ranges=small_ranges(),
                              master_seed=5, epochs=30, pretrain_epochs=10)
        rep = representation(e, X)[0]
        h1 = forward_batch(e.nets[0], X)[0]
        np.testing.assert_array_equal(rep, h1)

    def test_same_seed_bit_identical(self):
        X, g = separable_toy(seed=21)
        kwargs = dict(K=3, hyper_ranges=small_ranges(), master_seed=9,
                      epochs=25, pretrain_epochs=8)
        a, _ = train_ensemble(X, g, check=never, **kwargs)
        b, _ = train_ensemble(X, g, check=never, **kwargs)
        assert ensemble_to_json(a) == ensemble_to_json(b)

    def test_representation_dim_concatenates_widths(self):
        X, g = separable_toy(seed=22)
        e, _ = train_ensemble(X, g, check=never, K=3, hyper_ranges=small_ranges(),
                              master_seed=2, epochs=10, pretrain_epochs=5)
        widths = [net.W1.shape[0] for net in e.nets]
        assert representation(e, X)[0].shape == (len(X), sum(widths))

    def test_persistence_round_trip(self, tmp_path):
        X, g = separable_toy(seed=23)
        e, _ = train_ensemble(X, g, check=never, K=2, hyper_ranges=small_ranges(),
                              master_seed=3, epochs=10, pretrain_epochs=5)
        save_ensemble(e, tmp_path / "ensemble.json")
        again = load_ensemble(tmp_path / "ensemble.json")
        assert (again.master_seed, again.failed) == (e.master_seed, e.failed)
        for net, net_again in zip(e.nets, again.nets, strict=True):
            assert net_again.hyper == net.hyper
            assert_bit_equal(net_again, net)
        np.testing.assert_array_equal(representation(e, X)[0], representation(again, X)[0])

    @pytest.mark.usefixtures("no_pool")
    def test_k_must_be_positive(self):
        X, g = separable_toy(seed=24)
        with pytest.raises(ValidationError):
            train_ensemble(X, g, check=never, K=0)

    @pytest.mark.usefixtures("no_pool")
    def test_train_rows_respected(self):
        X, g = separable_toy(seed=25)
        rows = np.zeros(len(X), dtype=bool)
        with pytest.raises(ValidationError, match="empty training set"):
            train_ensemble(X, g, check=never, K=1, hyper_ranges=small_ranges(),
                           train_rows=rows, epochs=5, pretrain_epochs=2)


def assert_bit_equal(net: Net, expected: Net) -> None:
    for name in netens.PARAMS:
        got, want = getattr(net, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


FINITE_FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
F32 = np.finfo(np.float32)
EDGE_FLOAT32 = np.array([0.0, -0.0, F32.smallest_subnormal, -F32.smallest_subnormal,
                         F32.smallest_normal - F32.smallest_subnormal, F32.smallest_normal,
                         F32.max, -F32.max, 1 / 3, 16777217.0], dtype=np.float32)


def net_of(values: np.ndarray) -> Net:
    """A net whose weight arrays, 2-d and 1-d, are built from ``values``."""
    w = values.astype(np.float64)
    return Net(W1=w[None, :], b1=w, W2=-w[:, None], b2=w[::-1].copy(),
               V=w[None, :1], b3=-w[:1], hyper=NetHyper(h1=1, h2=len(w), seed=4))


def _float32_net(net: Net) -> Net:
    """``net`` with each weight rounded to float32, as training leaves it."""
    return replace(net, **{name: getattr(net, name).astype(np.float32).astype(np.float64)
                           for name in netens.PARAMS})


class TestEnsembleFile:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(values=hnp.arrays(np.float32, st.integers(1, 40), elements=FINITE_FLOAT32))
    @example(values=EDGE_FLOAT32)
    def test_every_finite_float32_weight_round_trips_bit_exactly(self, tmp_path, values):
        net = net_of(values)
        save_ensemble(NetEnsemble((net,), master_seed=8, failed=(1,)), tmp_path / "e.json")
        again = load_ensemble(tmp_path / "e.json")
        assert (again.master_seed, again.failed, again.nets[0].hyper) == (8, (1,), net.hyper)
        assert_bit_equal(again.nets[0], net)

    @pytest.mark.parametrize("bad", [0.1, 1e39, np.inf, np.nan])
    def test_save_refuses_a_weight_that_is_not_a_finite_float32(self, tmp_path, bad):
        path = tmp_path / "e.json"
        net = net_of(EDGE_FLOAT32)
        save_ensemble(NetEnsemble((net,), 0), path)
        before = path.read_bytes()
        b1 = net.b1.copy()
        b1[3] = bad
        with pytest.raises(InternalError, match=re.escape(f"net 4's b1 holds {bad!r}, not a")):
            save_ensemble(NetEnsemble((replace(net, b1=b1),), 0), path)
        # the refused save leaves the file as it was, and no temporary file
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_writes_exactly_the_json_text(self, tmp_path):
        e = NetEnsemble(tuple(_float32_net(random_net(6, 3 + i, 2 + i, seed=i))
                              for i in range(3)), master_seed=5, failed=(1, 4))
        save_ensemble(e, tmp_path / "e.json")
        assert (tmp_path / "e.json").read_text(encoding="utf-8") == ensemble_to_json(e)
        save_ensemble(NetEnsemble((), master_seed=0), tmp_path / "none.json")
        assert (tmp_path / "none.json").read_text() == (
            '{"schema_version":2,"master_seed":0,"failed":[],"nets":[]}')

    def test_load_equals_decoding_the_whole_parse(self, tmp_path):
        # the oracle: the ensemble decoded from the JSON tree of the whole file
        e = NetEnsemble(tuple(_float32_net(random_net(6, 3 + i, 2 + i, seed=i))
                              for i in range(4)), master_seed=2, failed=(3,))
        path = tmp_path / "e.json"
        save_ensemble(e, path)
        oracle = netens.ensemble_from_json(json.loads(path.read_text()))
        again = load_ensemble(path)
        assert (again.master_seed, again.failed) == (oracle.master_seed, oracle.failed)
        for net, expected in zip(again.nets, oracle.nets, strict=True):
            assert net.hyper == expected.hyper
            assert_bit_equal(net, expected)

    def test_the_schema_version_is_checked_before_any_net(self, tmp_path):
        path = tmp_path / "e.json"
        save_ensemble(NetEnsemble((net_of(EDGE_FLOAT32),), 0), path)
        text = path.read_text().replace('"schema_version":2', '"schema_version":1')
        path.write_text(text.replace('"W1":[[', '"W1":[["x",'))
        with pytest.raises(ValidationError, match="has schema_version 1, not 2"):
            load_ensemble(path)

    @pytest.mark.parametrize("damage, why", [
        (lambda text: text.replace('"schema_version":2', '"schema_version":1'),
         "has schema_version 1, not 2"),
        (lambda text: text.replace('"schema_version":2,', ""), "has schema_version None"),
        (lambda text: text[:len(text) // 2], "is not valid JSON"),
        (lambda text: text.replace('"b3":', '"b4":'), "is malformed (KeyError: 'b3')"),
        (lambda text: text.replace('"W1":[[', '"W1":[["x",'), "is malformed (ValueError"),
        (lambda text: text.replace('"b2":[', '"b2":[NaN,'), "is malformed (ValueError: b2"),
        (lambda text: text.replace('"V":[[', '"V":[[1e39,'), "is malformed (ValueError: V"),
        (lambda text: text.replace('"b1":[', '"b1":[1' + "0" * 400 + ","),
         "is malformed (OverflowError: int too large to convert to float)"),
        (lambda text: text.replace('"W2":[[', '"W2":[[[1],'), "is malformed (ValueError"),
        (lambda text: text.replace('"nets":[', '"nets":[7,'), "is malformed (TypeError"),
    ], ids=["version 1", "no version", "truncated", "missing key", "not a number",
            "not finite", "beyond float32", "beyond float", "ragged", "not an object"])
    def test_load_refuses_what_is_not_a_version_2_ensemble(self, tmp_path, damage, why):
        path = tmp_path / "e.json"
        save_ensemble(NetEnsemble((net_of(EDGE_FLOAT32),), 0), path)
        path.write_text(damage(path.read_text()))
        with pytest.raises(ValidationError) as info:
            load_ensemble(path)
        assert f"ensemble file {path} {why}" in str(info.value)


class TestOneForwardPass:
    """representation against the forms that ran every net once per output."""

    @staticmethod
    def ensemble(m=6):
        nets = tuple(random_net(m, h1, h2, seed=i, scale=3.0)
                     for i, (h1, h2) in enumerate([(5, 3), (9, 4), (1, 2), (7, 7)]))
        return NetEnsemble(nets=nets, master_seed=0)

    def test_bit_equal_to_concatenate_and_mean(self):
        e = self.ensemble()
        X = np.random.default_rng(30).normal(size=(57, 6))
        rep, mean = representation(e, X)
        concat = np.concatenate([forward_batch(net, X)[0] for net in e.nets], axis=1)
        averaged = np.mean([forward_batch(net, X)[2] for net in e.nets], axis=0)
        assert rep.tobytes() == concat.tobytes() and rep.shape == concat.shape
        assert mean.tobytes() == averaged.tobytes()
        assert ensemble_rank(e, X).tobytes() == averaged.tobytes()

    @pytest.mark.parametrize("rows", [1, 57])
    def test_representation_and_rank_have_the_bits_of_one_pass(self, rows):
        e = self.ensemble()
        X = np.random.default_rng(32).normal(size=(rows, 6))
        _, mean = representation(e, X)
        got = ensemble_rank(e, X)
        assert got.shape == mean.shape and got.tobytes() == mean.tobytes()

    def test_width_is_checked_by_each(self):
        e = self.ensemble()
        for fn in (representation, ensemble_rank):
            with pytest.raises(ValidationError, match="input width 5 != net input 6"):
                fn(e, np.zeros((2, 5)))

    def test_single_row(self):
        e = self.ensemble()
        x = np.random.default_rng(31).normal(size=6)
        rep, mean = representation(e, x)
        assert rep.shape == (1, e.representation_dim) and mean.shape == (1,)
        assert ensemble_rank(e, x).tobytes() == np.mean(
            [forward_batch(net, x)[2] for net in e.nets], axis=0).tobytes()


def constant_output_net(m, value):
    hyper = NetHyper(h1=2, h2=2, seed=0)
    logit = np.log(value / (1.0 - value))
    return Net(W1=np.zeros((2, m)), b1=np.zeros(2), W2=np.zeros((2, 2)),
               b2=np.zeros(2), V=np.zeros((1, 2)), b3=np.array([logit]),
               hyper=hyper)


class TestEnsembleAggregates:
    def test_mean_of_two_constant_nets(self):
        from expertmap.netens import NetEnsemble
        e = NetEnsemble(nets=(constant_output_net(3, 0.2),
                              constant_output_net(3, 0.8)), master_seed=0)
        out = ensemble_rank(e, np.zeros((4, 3)))
        np.testing.assert_allclose(out, 0.5)

    def test_adding_equal_output_net_is_monotone_stable(self):
        from expertmap.netens import NetEnsemble
        base = (constant_output_net(3, 0.3), constant_output_net(3, 0.7))
        e2 = NetEnsemble(nets=base, master_seed=0)
        e3 = NetEnsemble(nets=base + (constant_output_net(3, 0.5),), master_seed=0)
        np.testing.assert_allclose(ensemble_rank(e3, np.zeros((1, 3))),
                                   ensemble_rank(e2, np.zeros((1, 3))))

    def test_identical_nets_equal_single(self):
        from expertmap.netens import NetEnsemble
        net = random_net(3, 2, 2, seed=26)
        e = NetEnsemble(nets=(net, net), master_seed=0)
        x = np.random.default_rng(27).normal(size=3)
        assert ensemble_rank(e, x[None, :])[0] == pytest.approx(
            forward_batch(net, x[None, :])[2][0])


class TestDnnDistance:
    def test_per_net_metric_bound(self):
        rng = np.random.default_rng(29)
        net = random_net(4, 3, 2, seed=30)
        metric_bound, _ = lipschitz_bound(net)
        pairs = rng.normal(size=(200, 2, 4))
        x, y = pairs[:, 0], pairs[:, 1]
        lhs = np.linalg.norm(forward_batch(net, x)[0] - forward_batch(net, y)[0], axis=1)
        assert np.all(lhs <= metric_bound * np.linalg.norm(x - y, axis=1) + 1e-12)


class TestLipschitzBound:
    def test_unit_chain(self):
        hyper = NetHyper(h1=1, h2=1, seed=0)
        net = Net(W1=np.ones((1, 1)), b1=np.zeros(1), W2=np.ones((1, 1)),
                  b2=np.zeros(1), V=np.ones((1, 1)), b3=np.zeros(1), hyper=hyper)
        metric, output = lipschitz_bound(net)
        assert metric == pytest.approx(0.25)
        assert output == pytest.approx(1.0 / 64.0)
        assert netens.layer_norm_product(net) == 1.0

    def test_scaled_identity(self):
        hyper = NetHyper(h1=3, h2=2, seed=0)
        net = Net(W1=2.0 * np.eye(3), b1=np.zeros(3), W2=np.zeros((2, 3)),
                  b2=np.zeros(2), V=np.zeros((1, 2)), b3=np.zeros(1), hyper=hyper)
        metric, _ = lipschitz_bound(net)
        assert metric == pytest.approx(0.5)
