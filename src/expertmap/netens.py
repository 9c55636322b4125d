"""Shallow sigmoid-net ensembles trained to propagate the expert function.

Each net is input -> sigmoid(h1) -> sigmoid(h2) -> sigmoid scalar, pretrained
layerwise as a denoising autoencoder and then trained by plain full-batch
gradient descent on squared error plus an L2 weight penalty.  The ensemble's
concatenated first-layer activations define the learned metric.

``train_ensemble`` trains nets side by side in as many processes as the cores
available to this process can hold without more threads than cores: the
calling process trains nets itself, alongside a pool of spawned helper
processes.  Each process's BLAS starts its own threads (one per core unless
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or OMP_NUM_THREADS says otherwise), so
with one BLAS thread every core trains a net, and with one per core the
calling process trains them all.  The helpers inherit this process's
environment, so every net is computed with the same BLAS threading, which
the last bits of a matrix product depend on.  The calling process draws each
net's hyperparameters and initial weights from the net's own generator,
seeded with [master_seed, i], and the rest of that generator goes with the
net to whichever process trains it; the nets are collected in index order.
So the ensemble is the same to the byte whatever the number of processes.

The nets are trained in rounds: nets 0 to 19 first, then ten at a time, up
to K.  The helper pool stays up across rounds, and each round's nets are
drawn at its start.  After each round the calling process alone decides
whether to stop, from the nets trained so far and those trained before the
round (see ``train_ensemble``).
Those nets are the same to the byte whatever the number of processes, so
the decision, and with it the ensemble, is too.

Each net is trained in float32: its started weights, the training rows and
the labels are rounded to float32 once, every product and update of the
training loop stays in float32, and the trained net is cast back to float64.
Nets are stored, saved and evaluated in float64.  Weights and dropout masks
are still drawn in float64 from the net's generator, so a net starts where
a float64 net with the same seed would, to float32 precision.
"""

from __future__ import annotations

import copy
import json
import math
import os
import resource
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import TrainingDiverged, ValidationError


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
    retried: tuple[int, ...]           # net indices kept at half the learning rate
    checks: tuple[tuple[int, float | None], ...]   # (nets trained, agreement
                                       # or None if the check raised), per check
    workers: int                       # processes that trained nets, the caller included
    children_max_rss_mb: float         # largest peak RSS of any child this process
                                       # has waited for so far, helpers included


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


def forward_batch(net: Net, X: np.ndarray):
    """Activations for a batch: (H1, H2, f) with f in (0, 1)."""
    X = np.atleast_2d(X)
    if X.shape[1] != net.n_inputs:
        raise ValidationError(f"input width {X.shape[1]} != net input {net.n_inputs}")
    H1 = _affine_sigmoid(X, net.W1, net.b1)
    H2 = _affine_sigmoid(H1, net.W2, net.b2)
    f = _affine_sigmoid(H2, net.V, net.b3).ravel()
    return H1, H2, f


def loss_and_gradients(net: Net, X: np.ndarray, g: np.ndarray, mu: float):
    """Full-batch loss C + mu*sum(W^2) and gradients for every parameter.

    A loss that overflows comes back non-finite, without a warning; the
    caller decides what that means.
    """
    n = X.shape[0]
    H1, H2, f = forward_batch(net, X)
    err = f - g
    with np.errstate(over="ignore", invalid="ignore"):
        cost = float(np.mean(err ** 2))
        penalty = mu * (np.sum(net.W1 ** 2) + np.sum(net.W2 ** 2) + np.sum(net.V ** 2))
    loss = cost + float(penalty)

    dz3 = (2.0 / n) * err                            # (n,)
    dz3 *= f
    dz3 *= 1.0 - f
    dV = dz3[None, :] @ H2 + 2.0 * mu * net.V
    db3 = np.array([dz3.sum()])
    dZ2 = dz3[:, None] @ net.V                       # dH2, (n, h2)
    dZ2 *= H2
    dZ2 *= 1.0 - H2
    dW2 = dZ2.T @ H1 + 2.0 * mu * net.W2
    db2 = dZ2.sum(axis=0)
    dZ1 = dZ2 @ net.W2                               # dH1, (n, h1)
    dZ1 *= H1
    dZ1 *= 1.0 - H1
    dW1 = dZ1.T @ X + 2.0 * mu * net.W1
    db1 = dZ1.sum(axis=0)

    grads = {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2, "V": dV, "b3": db3}
    return loss, cost, grads


def _check_labels(X: np.ndarray, g01: np.ndarray) -> None:
    if g01.min() < 0.0 or g01.max() > 1.0:
        raise ValidationError("labels must be rescaled into [0, 1] before training")
    if X.shape[0] != len(g01):
        raise ValidationError("row count of data and labels differ")


def train_backprop(net: Net, X: np.ndarray, g01: np.ndarray) -> tuple[Net, TrainReport]:
    """Gradient descent on the combined loss; raises on non-finite loss.

    Epochs, learning rate and weight decay come from ``net.hyper``.  The
    labels are cast to the dtype of ``X``.  The parameters are copied once
    and then updated in place.
    """
    g01 = np.asarray(g01, dtype=X.dtype)
    _check_labels(X, g01)
    epochs, lr, mu = net.hyper.epochs, net.hyper.learning_rate, net.hyper.weight_decay

    params = {name: getattr(net, name).copy() for name in PARAMS}
    current = replace(net, **params)
    for epoch in range(epochs):
        loss, _, grads = loss_and_gradients(current, X, g01, mu)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became non-finite at epoch {epoch} "
                                   f"(learning rate {lr})", epoch=epoch, learning_rate=lr)
        for name, p in params.items():
            g = grads[name]
            g *= lr
            p -= g

    final_cost = float(np.mean((forward_batch(current, X)[2] - g01) ** 2))
    if not np.isfinite(final_cost):
        raise TrainingDiverged(f"cost non-finite after {epochs} epochs "
                               f"(learning rate {lr})", epoch=epochs, learning_rate=lr)
    return current, TrainReport(final_cost=final_cost, epochs_run=epochs)


def _train_dae_layer(inputs: np.ndarray, W: np.ndarray, b: np.ndarray,
                     dropout_rate: float, epochs: int, lr: float,
                     rng: np.random.Generator):
    """One denoising layer: corrupt, encode with sigmoid, decode linearly.

    The decoder is drawn in float64 from ``rng`` and trained in the dtype of
    ``inputs``.
    """
    n, width = inputs.shape
    h = W.shape[0]
    D = _glorot(rng, width, h).astype(inputs.dtype)
    c = np.zeros(width, dtype=inputs.dtype)
    W, b = W.copy(), b.copy()
    corrupted = np.empty_like(inputs)
    for epoch in range(epochs):
        np.copyto(corrupted, inputs)
        if dropout_rate > 0:
            corrupted[rng.random(inputs.shape) < dropout_rate] = 0.0
        H = _affine_sigmoid(corrupted, W, b)
        recon = H @ D.T
        recon += c
        if not np.all(np.isfinite(recon)):
            raise TrainingDiverged("autoencoder reconstruction non-finite",
                                   epoch=epoch, learning_rate=lr)
        diff = np.subtract(recon, inputs, out=recon)
        diff *= 2.0 / (n * width)
        dD = diff.T @ H
        dc = diff.sum(axis=0)
        dZ = diff @ D                                # dH, (n, h)
        dZ *= H
        dZ *= 1.0 - H
        dW = dZ.T @ corrupted
        db = dZ.sum(axis=0)
        for p, g in ((W, dW), (b, db), (D, dD), (c, dc)):
            g *= lr
            p -= g
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
    float64.  Returns (net, report, retried) from the first try that
    converged, or None when both diverged.
    """
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
        return _cast_net(trained, np.float64), report, retried
    return None


def worker_count() -> int:
    """Processes that may compute at once: one for each share of the cores
    that the BLAS of a process takes.  A process's BLAS threads are set by
    the variables BLAS libraries read when they load; with none set, BLAS
    takes every core and the count is 1."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return cores // min(int(value), cores)
    return 1


def _rounds(K: int):
    """(first, end) net indices of each round: 2 * ROUND nets, then ROUND at a
    time, the last round cut at K."""
    lo, h = 0, min(2 * ROUND, K)
    while lo < K:
        yield lo, h
        lo, h = h, min(h + ROUND, K)


def _train_round(pool, train_net, starts: list) -> list:
    """_train_net's result for each started net, in order.

    The helpers in ``pool`` take the nets from the first up; this process
    takes them from the last down, each one that no helper has started.
    """
    futures = [pool.submit(train_net, *start) for start in starts] if pool else []
    results: list = [None] * len(starts)
    for i in reversed(range(len(starts))):
        if futures and not futures[i].cancel():
            break
        results[i] = train_net(*starts[i])
    for i, future in enumerate(futures):
        if not future.cancelled():
            results[i] = future.result()
    return results


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
    only where training all K nets would.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

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

    train_net = partial(_train_net, Xt, gt, pretrain_epochs)
    workers = min(K, worker_count())
    pool = (ProcessPoolExecutor(max_workers=workers - 1, mp_context=get_context("spawn"))
            if workers > 1 else None)
    results: list = []
    checks: list[tuple[int, float | None]] = []
    earlier = None
    try:
        for lo, h in _rounds(K):
            results += _train_round(pool, train_net, [
                _start_net(X.shape[1], ranges, master_seed, epochs, learning_rate, i)
                for i in range(lo, h)])
            current = NetEnsemble(nets=tuple(result[0] for result in results if result),
                                  master_seed=master_seed)
            if earlier is not None and h < K and not _too_many_failed(results):
                agreement, converged = _run_check(check, earlier, current)
                checks.append((h, agreement))
                if converged:
                    break
            earlier = current
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    failed = _failed(results)
    if _too_many_failed(results):
        raise ValidationError(f"{len(failed)} of {len(results)} nets diverged: {failed}")
    kept = [result for result in results if result is not None]
    ensemble = NetEnsemble(nets=tuple(net for net, _, _ in kept), master_seed=master_seed,
                           failed=tuple(failed))
    record = TrainingRecord(
        reports=tuple(report for _, report, _ in kept),
        retried=tuple(i for i, result in enumerate(results) if result and result[2]),
        checks=tuple(checks), workers=workers, children_max_rss_mb=children_rss)
    return ensemble, record


def ensemble_forward(e: NetEnsemble, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One forward pass of every net: (representation, mean output).

    The representation is the nets' first-layer activations side by side in
    net order, written net by net into one preallocated array, so that no
    net's activations outlive its turn.  The mean output is on the [0, 1]
    training scale.
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
    """Concatenated first-layer activations, fixed net order."""
    return ensemble_forward(e, X)[0]


def ensemble_rank(e: NetEnsemble, X: np.ndarray) -> np.ndarray:
    """Mean of the per-net outputs, still on the [0, 1] training scale."""
    return ensemble_forward(e, X)[1]


def layer_norm_product(net: Net) -> float:
    """Product of the non-input layer operator norms (||W2|| * ||V||)."""
    return float(np.linalg.norm(net.W2, 2) * np.linalg.norm(net.V, 2))


def _net_to_json(net: Net) -> dict:
    return {"W1": net.W1.tolist(), "b1": net.b1.tolist(),
            "W2": net.W2.tolist(), "b2": net.b2.tolist(),
            "V": net.V.tolist(), "b3": net.b3.tolist(),
            "hyper": {"h1": net.hyper.h1, "h2": net.hyper.h2,
                      "seed": net.hyper.seed,
                      "dropout_rate": net.hyper.dropout_rate,
                      "weight_decay": net.hyper.weight_decay,
                      "learning_rate": net.hyper.learning_rate,
                      "epochs": net.hyper.epochs}}


def _net_from_json(obj: dict) -> Net:
    hyper = NetHyper(**obj["hyper"])
    return Net(W1=np.asarray(obj["W1"]), b1=np.asarray(obj["b1"]),
               W2=np.asarray(obj["W2"]), b2=np.asarray(obj["b2"]),
               V=np.asarray(obj["V"]), b3=np.asarray(obj["b3"]), hyper=hyper)


def ensemble_to_json(e: NetEnsemble) -> dict:
    return {"schema_version": 1, "master_seed": e.master_seed,
            "failed": list(e.failed), "nets": [_net_to_json(n) for n in e.nets]}


def ensemble_from_json(obj: dict) -> NetEnsemble:
    return NetEnsemble(nets=tuple(_net_from_json(n) for n in obj["nets"]),
                       master_seed=obj["master_seed"], failed=tuple(obj["failed"]))


def save_ensemble(e: NetEnsemble, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ensemble_to_json(e), sort_keys=True))


def load_ensemble(path) -> NetEnsemble:
    with open(path, "r", encoding="utf-8") as fh:
        return ensemble_from_json(json.load(fh))
