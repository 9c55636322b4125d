"""Shallow sigmoid-net ensembles trained to propagate the expert function.

Each net is input -> sigmoid(h1) -> sigmoid(h2) -> sigmoid scalar, pretrained
layerwise as a denoising autoencoder and then trained by plain full-batch
gradient descent on squared error plus an L2 weight penalty.  The ensemble's
concatenated first-layer activations define the learned metric.

``train_ensemble`` trains nets side by side in as many processes as the cores
available to this process can hold without more threads than cores: the
calling process trains nets itself, alongside a pool of helper processes
forked from it (``forked_pool``).  Each process's BLAS starts its own threads
(one per core unless OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or OMP_NUM_THREADS
says otherwise), so with one BLAS thread every core trains a net, and with
one per core the calling process trains them all.  A forked helper keeps this
process's BLAS threading, so every net is computed with the same threading,
which the last bits of a matrix product depend on, and it starts with the
training rows, the labels and the pretraining epochs already in memory.
Whichever process trains net i draws its hyperparameters and initial
weights from the net's own generator, seeded with [master_seed, i], so a
net depends on its index alone; the nets are collected in index order.  So
the ensemble is the same to the byte whatever the number of processes.

The nets are trained in rounds: nets 0 to 19 first, then ten at a time, up
to K.  The helper pool stays up across rounds.  Every process, the calling
one included, takes the next index from one counter that they share and
trains that net, until the round's nets are all taken (see
``_take_nets``).  So each net is trained once, and no process waits while
a net of the round is left.  After each round the calling process alone
decides whether to stop, from the nets trained so far and those trained
before the round (see ``train_ensemble``).  Those nets are the same to the
byte whatever the number of processes, so the decision, and with it the
ensemble, is too.

Each net is trained in float32: its started weights, the training rows and
the labels are rounded to float32 once, every product and update of the
training loop stays in float32, and the trained net is cast back to float64.
Nets are stored and evaluated in float64, and saved with each weight in 9
significant digits, which give back its float32 value to the bit (see
``_weights_to_json``).  Weights and dropout masks are still drawn in
float64 from the net's generator, so a net starts where a float64 net with
the same seed would, to float32 precision.

An epoch of either training loop, ``train_backprop`` with
``loss_and_gradients`` and ``_train_dae_layer``, makes few NumPy calls and
keeps the bits of one fresh array per product, reduction and parameter:
the rank-1 gradient ``dz3 V`` is a broadcast product, which forms each
entry by one product as the matrix product with K = 1 did; the loss sums by
``np.add.reduce``, the reduction that ``np.mean`` and ``np.sum`` run; a
net's parameters are views of one flat buffer and their gradients views of
another, written in place by ``out=``, so the update ``step *= lr; theta -=
step`` is elementwise the update of each parameter on its own; and the
dropout draws go into one buffer by ``rng.random(out=...)``, the stream that
drawing by shape gives, and a dropped input has its bits cleared, which
makes it the +0.0 that writing 0.0 through a boolean index made.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import re
import resource
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataset import read_json_object, staged
from .errors import InternalError, TrainingDiverged, ValidationError


@dataclass(frozen=True)
class NetHyper:
    h1: int
    h2: int
    seed: int
    dropout_rate: float = 0.0
    weight_decay: float = 1e-4
    learning_rate: float = 0.5
    epochs: int = 200


PARAMS = ("W1", "b1", "W2", "b2", "V", "b3")

# Nets a round trains; the first round trains twice as many.
ROUND = 10


@dataclass(frozen=True)
class Net:
    W1: np.ndarray   # (h1, m)
    b1: np.ndarray   # (h1,)
    W2: np.ndarray   # (h2, h1)
    b2: np.ndarray   # (h2,)
    V: np.ndarray    # (1, h2)
    b3: np.ndarray   # (1,)
    hyper: NetHyper

    @property
    def n_inputs(self) -> int:
        return self.W1.shape[1]


@dataclass(frozen=True)
class TrainReport:
    final_cost: float          # squared-error term only, no weight penalty
    epochs_run: int


@dataclass(frozen=True)
class TrainingRecord:
    """How train_ensemble went; returned beside the ensemble, never saved in it."""

    reports: tuple[TrainReport, ...]   # one per kept net, in net order
    seconds: tuple[float, ...]         # _train_net's wall time, per kept net
    retried: tuple[int, ...]           # net indices kept at half the learning rate
    checks: tuple[tuple[int, float | None], ...]   # (nets trained, agreement
                                       # or None if the check raised), per check
    check_seconds: tuple[float, ...]   # wall time of each check
    workers: int                       # processes that trained nets, the caller included
    children_max_rss_mb: float         # largest peak RSS of any child this process
                                       # has waited for so far, helpers included
    waited_s: float                    # seconds this process waited for helpers


@dataclass(frozen=True)
class NetEnsemble:
    nets: tuple[Net, ...]
    master_seed: int
    failed: tuple[int, ...] = ()

    @property
    def k(self) -> int:
        return len(self.nets)

    @property
    def representation_dim(self) -> int:
        return sum(net.W1.shape[0] for net in self.nets)


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    r = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-r, r, size=(rows, cols))


def init_net(m: int, hyper: NetHyper, rng: np.random.Generator) -> Net:
    return Net(W1=_glorot(rng, hyper.h1, m), b1=np.zeros(hyper.h1),
               W2=_glorot(rng, hyper.h2, hyper.h1), b2=np.zeros(hyper.h2),
               V=_glorot(rng, 1, hyper.h2), b3=np.zeros(1), hyper=hyper)


def _cast_net(net: Net, dtype) -> Net:
    return replace(net, **{name: getattr(net, name).astype(dtype) for name in PARAMS})


def sigmoid(Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-Z)) elementwise for a float array, into ``out`` if given.

    exp(-Z) overflows to inf where Z is below about -709 (-88 in float32),
    which gives exactly 0; that overflow is expected and not warned about.
    """
    with np.errstate(over="ignore"):
        out = np.negative(Z, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)


def _affine_sigmoid(A: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sigmoid(A @ W.T + b), formed in the one buffer the product allocates."""
    Z = A @ W.T
    Z += b
    return sigmoid(Z, out=Z)


def _first_layer(net: Net, X: np.ndarray) -> np.ndarray:
    """The first-layer activations H1 of a 2-d batch."""
    if X.shape[1] != net.n_inputs:
        raise ValidationError(f"input width {X.shape[1]} != net input {net.n_inputs}")
    return _affine_sigmoid(X, net.W1, net.b1)


def forward_batch(net: Net, X: np.ndarray):
    """Activations for a batch: (H1, H2, f) with f in (0, 1)."""
    H1 = _first_layer(net, np.atleast_2d(X))
    H2 = _affine_sigmoid(H1, net.W2, net.b2)
    f = _affine_sigmoid(H2, net.V, net.b3).ravel()
    return H1, H2, f


def loss_and_gradients(net: Net, X: np.ndarray, g: np.ndarray, mu: float,
                       grads: dict) -> tuple[float, float]:
    """Full-batch loss C + mu*sum(W^2) and its cost C; the gradient of each
    parameter is written into ``grads[name]``, an array of its shape.

    A loss that overflows comes back non-finite, without a warning; the
    caller decides what that means.
    """
    n = X.shape[0]
    H1, H2, f = forward_batch(net, X)
    err = f - g
    with np.errstate(over="ignore", invalid="ignore"):
        cost = float(np.add.reduce(np.square(err)) / n)
        penalty = mu * (np.add.reduce(np.square(net.W1), axis=None)
                        + np.add.reduce(np.square(net.W2), axis=None)
                        + np.add.reduce(np.square(net.V), axis=None))
    loss = cost + float(penalty)

    dW1, db1, dW2, db2, dV, db3 = (grads[name] for name in PARAMS)
    dz3 = (2.0 / n) * err                            # (n,)
    dz3 *= f
    dz3 *= 1.0 - f
    np.matmul(dz3[None, :], H2, out=dV)
    dV += 2.0 * mu * net.V
    np.add.reduce(dz3, axis=0, keepdims=True, out=db3)
    dZ2 = dz3[:, None] * net.V                       # dH2, (n, h2)
    dZ2 *= H2
    dZ2 *= 1.0 - H2
    np.matmul(dZ2.T, H1, out=dW2)
    dW2 += 2.0 * mu * net.W2
    np.add.reduce(dZ2, axis=0, out=db2)
    dZ1 = dZ2 @ net.W2                               # dH1, (n, h1)
    dZ1 *= H1
    dZ1 *= 1.0 - H1
    np.matmul(dZ1.T, X, out=dW1)
    dW1 += 2.0 * mu * net.W1
    np.add.reduce(dZ1, axis=0, out=db1)
    return loss, cost


def _check_labels(X: np.ndarray, g01: np.ndarray) -> None:
    if g01.min() < 0.0 or g01.max() > 1.0:
        raise ValidationError("labels must be rescaled into [0, 1] before training")
    if X.shape[0] != len(g01):
        raise ValidationError("row count of data and labels differ")


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive pieces of the 1-d ``flat``, one of each shape."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


def train_backprop(net: Net, X: np.ndarray, g01: np.ndarray) -> tuple[Net, TrainReport]:
    """Gradient descent on the combined loss; raises on non-finite loss.

    Epochs, learning rate and weight decay come from ``net.hyper``.  The
    labels are cast to the dtype of ``X``.  The parameters are copied once
    into one flat buffer and their gradients go into another, so that an
    epoch's update is two calls.
    """
    g01 = np.asarray(g01, dtype=X.dtype)
    _check_labels(X, g01)
    epochs, lr, mu = net.hyper.epochs, net.hyper.learning_rate, net.hyper.weight_decay

    shapes = [getattr(net, name).shape for name in PARAMS]
    theta = np.concatenate([getattr(net, name) for name in PARAMS], axis=None)
    step = np.empty_like(theta)
    current = replace(net, **dict(zip(PARAMS, _views(theta, shapes))))
    grads = dict(zip(PARAMS, _views(step, shapes)))
    for epoch in range(epochs):
        loss, _ = loss_and_gradients(current, X, g01, mu, grads)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became non-finite at epoch {epoch} "
                                   f"(learning rate {lr})", epoch=epoch, learning_rate=lr)
        step *= lr
        theta -= step

    final_cost = float(np.mean((forward_batch(current, X)[2] - g01) ** 2))
    if not np.isfinite(final_cost):
        raise TrainingDiverged(f"cost non-finite after {epochs} epochs "
                               f"(learning rate {lr})", epoch=epochs, learning_rate=lr)
    return current, TrainReport(final_cost=final_cost, epochs_run=epochs)


def _train_dae_layer(inputs: np.ndarray, W: np.ndarray, b: np.ndarray,
                     dropout_rate: float, epochs: int, lr: float,
                     rng: np.random.Generator):
    """One denoising layer: corrupt, encode with sigmoid, decode linearly.

    The decoder is drawn in float64 from ``rng``; the layer is trained in
    the dtype of ``inputs``, with W, b, the decoder D and its bias c in one
    flat buffer and their gradients in another.
    """
    n, width = inputs.shape
    h = W.shape[0]
    shapes = [(h, width), (h,), (width, h), (width,)]
    theta = np.concatenate((W, b, _glorot(rng, width, h), np.zeros(width)), axis=None,
                           dtype=inputs.dtype)
    step = np.empty_like(theta)
    W, b, D, c = _views(theta, shapes)
    dW, db, dD, dc = _views(step, shapes)
    # an input is dropped by clearing its bits: it becomes +0.0, as writing
    # 0.0 through a boolean index made it, with no branch on a random mask
    bits = np.dtype(f"u{inputs.itemsize}")
    corrupted = inputs.copy()
    draws = np.empty(inputs.shape)
    kept = np.empty(inputs.shape, dtype=bits)
    scale = 2.0 / (n * width)
    # an overflow leaves a non-finite reconstruction, which the check below
    # raises on, so it is not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            if dropout_rate > 0:
                rng.random(out=draws)
                np.less(draws, dropout_rate, out=kept)   # 1 where dropped
                kept -= 1                                # 0 there, every bit set elsewhere
                np.bitwise_and(inputs.view(bits), kept, out=corrupted.view(bits))
            H = _affine_sigmoid(corrupted, W, b)
            recon = H @ D.T
            recon += c
            if not np.isfinite(recon).all():
                raise TrainingDiverged("autoencoder reconstruction non-finite",
                                       epoch=epoch, learning_rate=lr)
            diff = np.subtract(recon, inputs, out=recon)
            diff *= scale
            np.matmul(diff.T, H, out=dD)
            np.add.reduce(diff, axis=0, out=dc)
            dZ = diff @ D                                # dH, (n, h)
            dZ *= H
            dZ *= 1.0 - H
            np.matmul(dZ.T, corrupted, out=dW)
            np.add.reduce(dZ, axis=0, out=db)
            step *= lr
            theta -= step
    if not np.isfinite(theta).all():
        raise TrainingDiverged("autoencoder weights non-finite after the last epoch",
                               epoch=epochs, learning_rate=lr)
    return W, b


def pretrain_autoencoder(net: Net, X: np.ndarray, epochs: int,
                         rng: np.random.Generator) -> Net:
    """Layerwise denoising pretraining at the net's learning rate; 0 epochs
    is an exact no-op."""
    if X.shape[0] == 0:
        raise ValidationError("empty training set")
    if epochs == 0:
        return net
    lr = net.hyper.learning_rate
    W1, b1 = _train_dae_layer(X, net.W1, net.b1, net.hyper.dropout_rate,
                              epochs, lr, rng)
    H1 = _affine_sigmoid(X, W1, b1)
    W2, b2 = _train_dae_layer(H1, net.W2, net.b2, net.hyper.dropout_rate,
                              epochs, lr, rng)
    return replace(net, W1=W1, b1=b1, W2=W2, b2=b2)


@dataclass(frozen=True)
class HyperRanges:
    """Per-net sampling intervals; h1 centered at width 50 by default."""

    h1: tuple[int, int] = (30, 70)
    h2: tuple[int, int] = (15, 35)
    dropout: tuple[float, float] = (0.0, 0.3)
    weight_decay: tuple[float, float] = (1e-5, 1e-2)   # log-uniform


def sample_hyper(ranges: HyperRanges, index: int, rng: np.random.Generator,
                 learning_rate: float, epochs: int) -> NetHyper:
    h1 = int(rng.integers(ranges.h1[0], ranges.h1[1] + 1))
    h2 = int(rng.integers(ranges.h2[0], ranges.h2[1] + 1))
    dropout = float(rng.uniform(*ranges.dropout))
    mu = float(np.exp(rng.uniform(math.log(ranges.weight_decay[0]),
                                  math.log(ranges.weight_decay[1]))))
    return NetHyper(h1=h1, h2=h2, seed=index, dropout_rate=dropout,
                    weight_decay=mu, learning_rate=learning_rate, epochs=epochs)


def _start_net(m: int, ranges: HyperRanges, master_seed: int, epochs: int,
               learning_rate: float, i: int) -> tuple[Net, np.random.Generator]:
    """Net i before training, and its generator as the initial draws leave it."""
    rng = np.random.default_rng([master_seed, i])
    hyper = sample_hyper(ranges, i, rng, learning_rate, epochs)
    return init_net(m, hyper, rng), rng


def _train_net(Xt: np.ndarray, gt: np.ndarray, pretrain_epochs: int, net: Net,
               rng: np.random.Generator):
    """Train a started net at its learning rate and, if that diverges, at half.

    Both tries begin from the same weights and generator state, as if the net
    were drawn afresh at the lower rate.  Training runs in float32 on float32
    roundings of the rows, labels and started weights; the net comes back in
    float64.  Returns (net, report, retried, seconds) from the first try
    that converged, where seconds is the wall time of this call, or None when
    both diverged.
    """
    began = time.perf_counter()
    Xt, gt = Xt.astype(np.float32), gt.astype(np.float32)
    net = _cast_net(net, np.float32)
    for retried in (False, True):
        if retried:
            net = replace(net, hyper=replace(net.hyper,
                                             learning_rate=net.hyper.learning_rate * 0.5))
        try:
            trained = pretrain_autoencoder(net, Xt, pretrain_epochs, copy.deepcopy(rng))
            trained, report = train_backprop(trained, Xt, gt)
        except TrainingDiverged:
            continue
        return (_cast_net(trained, np.float64), report, retried,
                time.perf_counter() - began)
    return None


def blas_threads() -> int | None:
    """The threads a process's BLAS takes, as set by the variables BLAS
    libraries read when they load: the first of OPENBLAS_NUM_THREADS,
    MKL_NUM_THREADS and OMP_NUM_THREADS that holds a positive whole number,
    or None when none does and BLAS takes every core."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def worker_count() -> int:
    """Processes that may compute at once: one for each share of the cores
    that the BLAS of a process takes (``blas_threads``); with BLAS taking
    every core the count is 1."""
    threads = blas_threads()
    if threads is None:
        return 1
    cores = len(os.sched_getaffinity(0))
    return cores // min(threads, cores)


def _rounds(K: int):
    """(first, end) net indices of each round: 2 * ROUND nets, then ROUND at a
    time, the last round cut at K."""
    lo, h = 0, min(2 * ROUND, K)
    while lo < K:
        yield lo, h
        lo, h = h, min(h + ROUND, K)


# What the helpers of a forked_pool are given, set in each helper when it
# starts; None in any other process.
helper_state = None


def _hold(state) -> None:
    global helper_state
    helper_state = state


@contextlib.contextmanager
def forked_pool(workers: int, state):
    """A pool of ``workers`` helper processes forked from this one, each of
    which holds ``state`` as ``helper_state`` before its first task.

    A forked helper starts with this process's memory, ``state`` included,
    where a spawned one would import the package and be sent the state
    again, and it keeps this process's BLAS threading.  The helpers are
    forked at the first submit.  On exit the tasks not yet started are
    cancelled and the helpers are joined.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("fork"),
                               initializer=_hold, initargs=(state,))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _take_nets(end: int, state=None) -> list:
    """Train nets until the counter reaches ``end``: take its value as the
    next net's index and add one, under its lock, then start that net and
    train it.  Returns (index, result) for each net this process trained.

    ``state`` is (counter, train_net), where train_net(i) is _train_net's
    result for net i; a helper's is its helper_state, which it holds through
    the fork, since a shared counter cannot be sent to it.  An error raised
    while a net is trained sets the counter to ``end``, so that no process
    takes another net, and is raised.
    """
    counter, train_net = state or helper_state
    trained = []
    while True:
        with counter.get_lock():
            i = counter.value
            if i >= end:
                return trained
            counter.value = i + 1
        try:
            trained.append((i, train_net(i)))
        except BaseException:
            with counter.get_lock():
                counter.value = end
            raise


def _run_check(check, earlier: NetEnsemble, current: NetEnsemble) -> tuple[float | None, bool]:
    """``check(earlier, current)``; (None, False) when it raises ValidationError."""
    try:
        agreement, converged = check(earlier, current)
    except ValidationError:
        return None, False
    return float(agreement), bool(converged)


def _failed(results: list) -> list[int]:
    return [i for i, result in enumerate(results) if result is None]


def _too_many_failed(results: list) -> bool:
    """More than 10% of the nets trained so far diverged."""
    return len(_failed(results)) > 0.1 * len(results)


def train_ensemble(X: np.ndarray, g01: np.ndarray, K: int,
                   hyper_ranges: HyperRanges | None = None,
                   master_seed: int = 0,
                   epochs: int = 200, learning_rate: float = 0.5,
                   pretrain_epochs: int = 60,
                   train_rows: np.ndarray | None = None,
                   *, check) -> tuple[NetEnsemble, TrainingRecord]:
    """Up to K independently seeded nets; deterministic given (data, config, seed).

    ``train_rows`` restricts which rows are used for fitting (rows carrying
    imputed entries are normally excluded); representation later runs on
    everything.  A net whose loss diverges is retried once at half the
    learning rate; the ensemble fails if more than 10% of the nets trained
    do.  The inputs are checked here, before any helper process starts.

    Nets are trained in rounds (see ``_rounds``).  After each round but the
    first that leaves fewer than K nets, of which no more than 10% diverged,
    ``check(earlier, current)`` is called on two NetEnsembles: the nets kept
    before the round and those kept after it.  It returns (agreement,
    converged), and training stops when converged is true.  A call that
    raises ValidationError counts as not converged.  So training stops only
    where the nets trained pass the divergence rule, and the ensemble fails
    only where training all K nets would.  An error raised while any process
    trains a net fails the call before another round starts, and no helper
    outlives it.
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
    _check_labels(Xt, gt)

    from multiprocessing import get_context

    def train_net(i: int):
        return _train_net(Xt, gt, pretrain_epochs, *_start_net(
            X.shape[1], ranges, master_seed, epochs, learning_rate, i))
    # a counter of the next net to take: a round takes every net up to its
    # end, so it leaves the counter at the next round's first net
    state = (get_context("fork").Value("q", 0), train_net)
    workers = min(K, worker_count())
    results: list = []
    checks: list[tuple[int, float | None]] = []
    check_seconds: list[float] = []
    waited = 0.0
    earlier = None
    with (forked_pool(workers - 1, state) if workers > 1
          else contextlib.nullcontext()) as pool:
        for lo, h in _rounds(K):
            tasks = [pool.submit(_take_nets, h) for _ in range(workers - 1)]
            trained = dict(_take_nets(h, state))
            began = time.perf_counter()
            for future in tasks:
                trained.update(future.result())
            waited += time.perf_counter() - began
            results += [trained[i] for i in range(lo, h)]
            current = NetEnsemble(nets=tuple(result[0] for result in results if result),
                                  master_seed=master_seed)
            if earlier is not None and h < K and not _too_many_failed(results):
                began = time.perf_counter()
                agreement, converged = _run_check(check, earlier, current)
                checks.append((h, agreement))
                check_seconds.append(time.perf_counter() - began)
                if converged:
                    break
            earlier = current
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    failed = _failed(results)
    if _too_many_failed(results):
        raise ValidationError(f"{len(failed)} of {len(results)} nets diverged: {failed}")
    kept = [result for result in results if result is not None]
    ensemble = NetEnsemble(nets=tuple(net for net, *_ in kept), master_seed=master_seed,
                           failed=tuple(failed))
    record = TrainingRecord(
        reports=tuple(report for _, report, *_ in kept),
        seconds=tuple(seconds for *_, seconds in kept),
        retried=tuple(i for i, result in enumerate(results) if result and result[2]),
        checks=tuple(checks), check_seconds=tuple(check_seconds), workers=workers,
        children_max_rss_mb=children_rss, waited_s=waited)
    return ensemble, record


def ensemble_forward(e: NetEnsemble, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass of every net: (representation, mean output), for a
    caller that needs both; each has the bits of its own function's result.
    """
    X = np.atleast_2d(X)
    rep = np.empty((X.shape[0], e.representation_dim))
    outputs = np.empty((e.k, X.shape[0]))
    col = 0
    for i, net in enumerate(e.nets):
        H1, _, outputs[i] = forward_batch(net, X)
        rep[:, col:col + H1.shape[1]] = H1
        col += H1.shape[1]
    return rep, np.mean(outputs, axis=0)


def representation(e: NetEnsemble, X: np.ndarray) -> np.ndarray:
    """Concatenated first-layer activations, fixed net order.

    Each net's activations are written into one preallocated array and
    dropped; no second or third layer is computed.
    """
    X = np.atleast_2d(X)
    rep = np.empty((X.shape[0], e.representation_dim))
    col = 0
    for net in e.nets:
        H1 = _first_layer(net, X)
        rep[:, col:col + H1.shape[1]] = H1
        col += H1.shape[1]
    return rep


def ensemble_rank(e: NetEnsemble, X: np.ndarray) -> np.ndarray:
    """Mean of the per-net outputs, still on the [0, 1] training scale.

    Only one net's activations and the nets' outputs are held; no
    representation is built.
    """
    X = np.atleast_2d(X)
    outputs = np.empty((e.k, X.shape[0]))
    for i, net in enumerate(e.nets):
        outputs[i] = forward_batch(net, X)[2]
    return np.mean(outputs, axis=0)


def layer_norm_product(net: Net) -> float:
    """Product of the non-input layer operator norms (||W2|| * ||V||)."""
    return float(np.linalg.norm(net.W2, 2) * np.linalg.norm(net.V, 2))


# The ensemble file's schema.  Version 2 writes each weight in at most 9
# significant digits; version 1 wrote 17-digit float64 reprs.
ENSEMBLE_SCHEMA = 2


# A "-0" that is a whole number in the text, which json reads as the int 0.
_NEGATIVE_ZERO = re.compile(r"(?<=[\[,])-0(?=[,\]])")


def _template(shape: tuple[int, ...]) -> str:
    """A %-format of nested JSON lists of ``shape``, one "%.9g" a value."""
    inner = "%.9g" if len(shape) == 1 else _template(shape[1:])
    return "[" + ",".join([inner] * shape[0]) + "]"


def _weights_to_json(net: Net, name: str) -> str:
    """JSON text of one of ``net``'s weight arrays, each value in at most 9
    significant digits.

    Every weight is a float32 value, and 9 digits tell every float32 value
    apart: the decimal lies within 5e-9 of the value (relative), a float32
    rounding boundary at least 2^-25 (about 3e-8) away, and a float64 parse
    moves it by at most 2^-53.  Among subnormals the boundary is 2^-150
    away and the decimal within 5e-9 * 2^-126 (under 2^-153).  So reading
    the text through float32 gives back each weight to the bit.
    """
    a = getattr(net, name)
    with np.errstate(over="ignore"):
        exact = np.isfinite(a) & (a.astype(np.float32) == a)
    if not exact.all():
        raise InternalError(f"net {net.hyper.seed}'s {name} holds "
                            f"{float(a[~exact].flat[0])!r}, not a finite float32 value")
    text = _template(a.shape) % tuple(a.ravel().tolist())
    if np.signbit(a[a == 0]).any():
        text = _NEGATIVE_ZERO.sub("-0.0", text)
    return text


def _net_to_json(net: Net) -> str:
    weights = "".join(f'"{name}":{_weights_to_json(net, name)},' for name in PARAMS)
    hyper = json.dumps(asdict(net.hyper), separators=(",", ":"))
    return "{" + weights + '"hyper":' + hyper + "}"


def _net_from_json(obj: dict) -> Net:
    with np.errstate(over="ignore"):
        weights = {name: np.asarray(obj[name], np.float32).astype(np.float64)
                   for name in PARAMS}
    for name, w in weights.items():
        if not np.isfinite(w).all():
            raise ValueError(f"{name} holds a value that is not a finite float32 value")
    return Net(**weights, hyper=NetHyper(**obj["hyper"]))


def ensemble_from_json(obj: dict) -> NetEnsemble:
    """The ensemble that the parsed text of an ensemble file holds."""
    return NetEnsemble(nets=tuple(_net_from_json(n) for n in obj["nets"]),
                       master_seed=obj["master_seed"], failed=tuple(obj["failed"]))


def _pack_weights(obj: dict) -> dict:
    """``json``'s object_hook for the ensemble file: each weight list of a
    parsed object as a float32 array, so that only the net being parsed
    holds its weights as Python floats.

    A value that float32 cannot take is left as it is, for
    ``_net_from_json`` to fail on after the schema check, with the error it
    raises on the list; a value it takes gives ``_net_from_json`` the same
    float32 array as the list would.
    """
    with np.errstate(over="ignore"):
        for name in PARAMS:
            if isinstance(obj.get(name), list):
                with contextlib.suppress(TypeError, ValueError, OverflowError):
                    obj[name] = np.asarray(obj[name], np.float32)
    return obj


def save_ensemble(e: NetEnsemble, path) -> None:
    """Write the ensemble to ``path`` through ``dataset.staged``: compact
    JSON, schema version 2, the head and then one net's text at a time."""
    head = json.dumps({"schema_version": ENSEMBLE_SCHEMA, "master_seed": e.master_seed,
                       "failed": list(e.failed)}, separators=(",", ":"))
    with staged(path) as (fh,):
        # the nets go in before the closing brace of ``head``
        fh.write(head[:-1] + ',"nets":[')
        for i, net in enumerate(e.nets):
            fh.write(("," if i else "") + _net_to_json(net))
        fh.write("]}")


def load_ensemble(path) -> NetEnsemble:
    """The ensemble in the file ``path``; a file that does not hold a
    version-2 ensemble is a ValidationError that names it.

    The weights of each net are packed into arrays as the parser closes it
    (``_pack_weights``), so the parse never holds the whole ensemble as
    Python floats.
    """
    obj = read_json_object(path, "ensemble file", object_hook=_pack_weights)
    version = obj.get("schema_version")
    if version != ENSEMBLE_SCHEMA:
        raise ValidationError(f"ensemble file {path} has schema_version {version!r}, "
                              f"not {ENSEMBLE_SCHEMA}")
    try:
        return ensemble_from_json(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"ensemble file {path} is malformed "
                              f"({type(exc).__name__}: {exc})") from None
