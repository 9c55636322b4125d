"""Deterministic synthetic data with planted structure and ground truth.

Points live on a low-dimensional manifold split into clusters whose centers
are spaced exactly one period apart along the first intrinsic coordinate.
Most relevant features are sinusoidal lifts that alias those centers onto
each other, so raw Euclidean distance mixes the clusters; a small set of
informative features carries the cluster signal weakly, mixed into periodic
variation.  The ground truth is a smooth function of the manifold
coordinates and never touches the noise features.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .dataset import DataMatrix, save_matrix, write_json
from .errors import ValidationError

PERIOD = 2.0 * np.pi
INFO_FRACTION = 0.2        # share of relevant features mixing in the cluster axis
INFO_COEF = 0.45           # pre-standardization weight of the cluster axis
MISSING_ROW_SHARE = 0.5    # missingness concentrates on this share of rows


@dataclass(frozen=True)
class SynthConfig:
    n_points: int = 600
    intrinsic_dim: int = 2
    n_relevant_features: int = 40
    n_noise_features: int = 20
    n_clusters: int = 3
    cluster_spread_ratios: tuple[float, ...] = (1.0, 1.0, 0.1)
    missing_rate: float = 0.1
    polarity_flip_rate: float = 0.15
    label_noise: float = 0.0
    seed: int = 7

    def validate(self) -> None:
        counts = {"n_points": self.n_points, "intrinsic_dim": self.intrinsic_dim,
                  "n_relevant_features": self.n_relevant_features,
                  "n_clusters": self.n_clusters}
        for name, value in counts.items():
            if value < 1:
                raise ValidationError(f"{name} must be positive, got {value}")
        if self.n_noise_features < 0:
            raise ValidationError("n_noise_features must be >= 0")
        if self.n_clusters > self.n_points:
            raise ValidationError("more clusters than points")
        if len(self.cluster_spread_ratios) != self.n_clusters:
            raise ValidationError("need one spread ratio per cluster")
        for rate, name in ((self.missing_rate, "missing_rate"),
                           (self.polarity_flip_rate, "polarity_flip_rate"),
                           (self.label_noise, "label_noise")):
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {rate}")
        if self.missing_rate > MISSING_ROW_SHARE:
            raise ValidationError(f"missing_rate above {MISSING_ROW_SHARE} is not "
                                  "supported (missingness is row-concentrated)")


def _manifold_sample(cfg: SynthConfig, rng: np.random.Generator):
    """Cluster-structured intrinsic coordinates; centers one period apart."""
    clusters = np.arange(cfg.n_points) % cfg.n_clusters
    centers = np.zeros((cfg.n_clusters, cfg.intrinsic_dim))
    centers[:, 0] = PERIOD * np.arange(cfg.n_clusters)
    spreads = np.asarray(cfg.cluster_spread_ratios, dtype=float)
    theta = centers[clusters] + spreads[clusters, None] * rng.standard_normal(
        (cfg.n_points, cfg.intrinsic_dim))
    return theta, clusters


def _feature_maps(cfg: SynthConfig, rng: np.random.Generator):
    """Random alias-safe lift parameters for the relevant features."""
    m_rel = cfg.n_relevant_features
    n_info = max(1, int(round(INFO_FRACTION * m_rel))) if m_rel > 1 else 1
    freqs = rng.integers(1, 3, size=m_rel)                 # integer -> exact alias
    axis1 = rng.integers(-1, 2, size=m_rel)                 # -1, 0, 1
    other = rng.normal(0.0, 0.7, size=(m_rel, max(cfg.intrinsic_dim - 1, 1)))
    phases = rng.uniform(0.0, PERIOD, size=m_rel)
    return n_info, freqs, axis1, other, phases


def _relevant_features(theta: np.ndarray, cfg: SynthConfig, maps) -> np.ndarray:
    n_info, freqs, axis1, other, phases = maps
    rest = theta[:, 1:] if theta.shape[1] > 1 else np.zeros((theta.shape[0], 1))
    args = freqs[None, :] * (axis1[None, :] * theta[:, :1] + rest @ other.T) + phases
    feats = np.sin(args)
    # informative mix: weak linear term along the (non-aliased) cluster axis
    center_span = max(PERIOD * (cfg.n_clusters - 1), 1.0)
    t_axis = (theta[:, 0] - 0.5 * PERIOD * (cfg.n_clusters - 1)) / (0.5 * center_span)
    feats[:, :n_info] += INFO_COEF * t_axis[:, None]
    return feats


def ground_truth(theta: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    """Smooth scalar of the manifold coordinates: cluster trend + local wave."""
    mid = 0.5 * PERIOD * (cfg.n_clusters - 1)
    trend = np.tanh((theta[:, 0] - mid) / 3.0)
    wave = np.sin(0.9 * theta[:, 1] + 0.3) if theta.shape[1] > 1 else 0.0
    return 0.6 * trend + 0.4 * wave


def generate(cfg: SynthConfig) -> tuple[DataMatrix, np.ndarray, np.ndarray]:
    """Build (data, ground_truth, cluster_ids), fully reproducible from seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    theta, clusters = _manifold_sample(cfg, rng)
    maps = _feature_maps(cfg, rng)
    relevant = _relevant_features(theta, cfg, maps)
    noise = rng.standard_normal((cfg.n_points, cfg.n_noise_features))
    values = np.concatenate([relevant, noise], axis=1)
    m = values.shape[1]

    truth = ground_truth(theta, cfg)
    if cfg.label_noise > 0:
        truth = truth + cfg.label_noise * rng.standard_normal(cfg.n_points)

    flipped = rng.random(m) < cfg.polarity_flip_rate
    values[:, flipped] *= -1.0

    mask = np.ones((cfg.n_points, m), dtype=bool)
    if cfg.missing_rate > 0:
        afflicted = rng.random(cfg.n_points) < MISSING_ROW_SHARE
        cell_rate = cfg.missing_rate / MISSING_ROW_SHARE
        holes = rng.random((cfg.n_points, m)) < cell_rate
        holes[~afflicted] = False
        for i in np.flatnonzero(holes.all(axis=1)):
            holes[i, int(rng.integers(m))] = False
        mask[holes] = False

    feature_names = tuple([f"rel_{j:02d}" for j in range(cfg.n_relevant_features)]
                          + [f"noise_{j:02d}" for j in range(cfg.n_noise_features)])
    point_ids = tuple(f"p{i:04d}" for i in range(cfg.n_points))
    group_of = {name: ("relevant" if name.startswith("rel_") else "noise")
                for name in feature_names}
    weight_of = {g: 1.0 for g in set(group_of.values())}

    data = DataMatrix(values=np.where(mask, values, np.nan), mask=mask,
                      feature_names=feature_names, point_ids=point_ids,
                      group_of=group_of, weight_of=weight_of)
    return data, truth, clusters


def emit(cfg: SynthConfig, csv_path, truth_path) -> tuple[DataMatrix, np.ndarray, np.ndarray]:
    """Write the dataset CSV plus a truth sidecar JSON; returns the triple."""
    data, truth, clusters = generate(cfg)
    save_matrix(data, csv_path)
    write_json(truth_path, {"config": asdict(cfg),
                            "point_ids": list(data.point_ids),
                            "ground_truth": truth.tolist(),
                            "cluster_ids": clusters.tolist()})
    return data, truth, clusters
