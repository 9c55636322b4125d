import concurrent.futures
import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit as sigmoid

from expertmap import netens, synth
from expertmap.errors import TrainingDiverged, ValidationError
from expertmap.netens import (HyperRanges, Net, NetEnsemble, NetHyper,
                              ensemble_forward, ensemble_from_json, ensemble_rank,
                              ensemble_to_json,
                              forward_batch, init_net, loss_and_gradients,
                              pretrain_autoencoder, representation, sample_hyper,
                              train_backprop, train_ensemble)


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
    # every helper process that trains nets imports netens and nothing else
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
            _, _, grads = loss_and_gradients(net, X, g, mu)
            for name in grads:
                arr = getattr(net, name)
                for idx in np.ndindex(arr.shape):
                    def loss_at(value):
                        patched = arr.copy()
                        patched[idx] = value
                        probe = Net(**{**{k: getattr(net, k) for k in
                                          ("W1", "b1", "W2", "b2", "V", "b3")},
                                       name: patched}, hyper=net.hyper)
                        return loss_and_gradients(probe, X, g, mu)[0]
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
        X, g = separable_toy(seed=18)
        hyper = NetHyper(h1=3, h2=2, seed=0, learning_rate=0.5, epochs=50)
        net = init_net(2, hyper, np.random.default_rng(19))
        _, report = train_backprop(net, X, g)
        assert report.epochs_run == 50
        assert np.all(np.isfinite(report.trajectory))


def cast_net(net: Net, dtype) -> Net:
    return Net(W1=net.W1.astype(dtype), b1=net.b1.astype(dtype),
               W2=net.W2.astype(dtype), b2=net.b2.astype(dtype),
               V=net.V.astype(dtype), b3=net.b3.astype(dtype), hyper=net.hyper)


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
        trained32, _, retried = netens._train_net(X, g, 60, net, rng)
        trained64 = pretrain_autoencoder(net, X, 60, copy.deepcopy(rng))
        trained64, _ = train_backprop(trained64, X, g)
        assert not retried and trained32.W1.dtype == np.float64
        rep32, mean32 = ensemble_forward(NetEnsemble((trained32,), 0), X)
        rep64, mean64 = ensemble_forward(NetEnsemble((trained64,), 0), X)
        np.testing.assert_allclose(rep32, rep64, rtol=0, atol=1e-4)
        np.testing.assert_allclose(mean32, mean64, rtol=0, atol=1e-5)


def small_ranges():
    return HyperRanges(h1=(3, 6), h2=(2, 4), dropout=(0.0, 0.2),
                       weight_decay=(1e-5, 1e-3))


def ensemble_bytes(e: NetEnsemble) -> str:
    return json.dumps(ensemble_to_json(e), sort_keys=True)


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
        e, record = train_ensemble(X, g, **kwargs)
        assert ensemble_bytes(e) == ensemble_bytes(train_ensemble_oracle(X, g, **kwargs))
        if K == 7:
            assert len({net.W1.shape[0] for net in e.nets}) > 1
        assert record.retried == () and 1 <= record.workers <= K
        assert [r.epochs_run for r in record.reports] == [30] * K
        assert record.workers == 1 or record.children_max_rss_mb > 0

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
        e, record = train_ensemble(X, g, **kwargs)
        assert record.workers == workers
        assert ensemble_bytes(e) == ensemble_bytes(train_ensemble_oracle(X, g, **kwargs))

    def test_train_rows_bytes_equal_oracle(self):
        X, g = separable_toy(seed=33)
        rows = np.arange(len(X)) % 3 != 0
        kwargs = dict(K=3, hyper_ranges=small_ranges(), master_seed=6, epochs=20,
                      pretrain_epochs=4, train_rows=rows)
        assert ensemble_bytes(train_ensemble(X, g, **kwargs)[0]) == \
            ensemble_bytes(train_ensemble_oracle(X, g, **kwargs))

    # In float32 the penalty's W**2 overflows at far smaller rates than in
    # float64: 1e5 gives 5 retries at half rate and 10**5.5 makes 7 nets fail.
    RETRY = dict(K=20, hyper_ranges=small_ranges(), master_seed=5, epochs=10,
                 pretrain_epochs=0)

    def test_retry_at_half_rate_matches_oracle(self):
        X, g = separable_toy(seed=11)
        kwargs = dict(self.RETRY, learning_rate=1e5)
        e, record = train_ensemble(X, g, **kwargs)
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
            train_ensemble(X, g, **kwargs)
        assert str(pooled.value) == str(oracle.value)

    @pytest.mark.usefixtures("no_pool")
    def test_invalid_labels_rejected_before_any_worker(self):
        X, g = separable_toy(seed=34)
        with pytest.raises(ValidationError, match="rescaled"):
            train_ensemble(X, g * 10.0, K=3, hyper_ranges=small_ranges())
        with pytest.raises(ValidationError, match="row count"):
            train_ensemble(X, g[:-1], K=3, hyper_ranges=small_ranges())


class TestEnsemble:
    def test_k1_representation_is_single_h1(self):
        X, g = separable_toy(seed=20)
        e, _ = train_ensemble(X, g, K=1, hyper_ranges=small_ranges(),
                              master_seed=5, epochs=30, pretrain_epochs=10)
        rep = representation(e, X)
        h1 = forward_batch(e.nets[0], X)[0]
        np.testing.assert_array_equal(rep, h1)

    def test_same_seed_bit_identical(self):
        X, g = separable_toy(seed=21)
        kwargs = dict(K=3, hyper_ranges=small_ranges(), master_seed=9,
                      epochs=25, pretrain_epochs=8)
        a, _ = train_ensemble(X, g, **kwargs)
        b, _ = train_ensemble(X, g, **kwargs)
        assert json.dumps(ensemble_to_json(a), sort_keys=True) == \
            json.dumps(ensemble_to_json(b), sort_keys=True)

    def test_representation_dim_concatenates_widths(self):
        X, g = separable_toy(seed=22)
        e, _ = train_ensemble(X, g, K=3, hyper_ranges=small_ranges(),
                              master_seed=2, epochs=10, pretrain_epochs=5)
        widths = [net.W1.shape[0] for net in e.nets]
        assert representation(e, X).shape == (len(X), sum(widths))

    def test_persistence_round_trip(self):
        X, g = separable_toy(seed=23)
        e, _ = train_ensemble(X, g, K=2, hyper_ranges=small_ranges(),
                              master_seed=3, epochs=10, pretrain_epochs=5)
        again = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(e))))
        np.testing.assert_array_equal(representation(e, X), representation(again, X))

    @pytest.mark.usefixtures("no_pool")
    def test_k_must_be_positive(self):
        X, g = separable_toy(seed=24)
        with pytest.raises(ValidationError):
            train_ensemble(X, g, K=0)

    @pytest.mark.usefixtures("no_pool")
    def test_train_rows_respected(self):
        X, g = separable_toy(seed=25)
        rows = np.zeros(len(X), dtype=bool)
        with pytest.raises(ValidationError, match="empty training set"):
            train_ensemble(X, g, K=1, hyper_ranges=small_ranges(),
                           train_rows=rows, epochs=5, pretrain_epochs=2)


class TestOneForwardPass:
    """ensemble_forward against the forms that ran every net once per output."""

    @staticmethod
    def ensemble(m=6):
        nets = tuple(random_net(m, h1, h2, seed=i, scale=3.0)
                     for i, (h1, h2) in enumerate([(5, 3), (9, 4), (1, 2), (7, 7)]))
        return NetEnsemble(nets=nets, master_seed=0)

    def test_bit_equal_to_concatenate_and_mean(self):
        e = self.ensemble()
        X = np.random.default_rng(30).normal(size=(57, 6))
        rep, mean = ensemble_forward(e, X)
        concat = np.concatenate([forward_batch(net, X)[0] for net in e.nets], axis=1)
        averaged = np.mean([forward_batch(net, X)[2] for net in e.nets], axis=0)
        assert rep.tobytes() == concat.tobytes() and rep.shape == concat.shape
        assert mean.tobytes() == averaged.tobytes()
        assert representation(e, X).tobytes() == concat.tobytes()
        assert ensemble_rank(e, X).tobytes() == averaged.tobytes()

    def test_single_row(self):
        e = self.ensemble()
        x = np.random.default_rng(31).normal(size=6)
        rep, mean = ensemble_forward(e, x)
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
