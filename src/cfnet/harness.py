"""Experiment orchestration: seeded trials, Monte Carlo sweeps, CSV outputs.

Seed derivation (frozen; changing it breaks reproducibility guarantees):
trial i of master seed s uses numpy SeedSequence(s, spawn_key=(i,)), and the
independent random streams inside a trial extend that spawn key with
(stream_id, step).  Stream ids: 0 layout, 1 mobility, 2 fading, 3 k-means.
Trial seeds therefore never depend on how many realizations are requested,
and every alpha branch of a trial consumes identical layout, mobility and
fading randomness (common random numbers).

The k-means stream is the same at every step, so the alpha = 0 branch at step
t clusters exactly what alpha = 1 (or the bootstrap, at step 1) clustered at
step t - 1: the previous graph's Laplacian, which the blend returns as an
exact copy at both endpoints, with the same seed.  `run_trial` reuses those
vertex labels instead of clustering again, and maps them to users through the
current anchors; the outputs are the same bytes as without the reuse.

Results: a trial keeps its KPIs in one float array `kpis` of shape
(time_steps, n_alpha, 4).  The last axis follows KPI_NAMES, which is also the
column order of metrics.csv: sum_rate, temporal_smoothness, handovers,
zfbf_sum_rate.  An entry is NaN where its KPI is undefined: the history KPIs
at step 0, and the ZF rate when ZF evaluation is off.  Every output (per-trial
means, kpi_matrix, metrics.csv, summary.csv) is a reduction of these arrays.
"""

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import RadioParams, channel_gains, complex_channel
from .clustering import Partition, SpectralConfig, initial_partition, temporal_smoothed_partition
from .graph import build_graph
from .metrics import KPI_NAMES, record_step
from .topology import Layout, MobilityParams, generate_layout, step_waypoint

STREAM_LAYOUT = 0
STREAM_MOBILITY = 1
STREAM_FADING = 2
STREAM_KMEANS = 3


class ConfigError(Exception):
    """Invalid experiment configuration (bad file, bad value, bad override)."""


@dataclass
class ExperimentConfig:
    K: int = 30                   # users
    L: int = 50                   # base stations
    M: int = 20                   # subnetworks
    beta: float = 4.0             # path-loss exponent
    pt_over_sigma2_db: float = 0.0
    alpha_grid: tuple = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    time_steps: int = 5           # time instants per trial (first one bootstraps)
    realizations: int = 100
    master_seed: int = 0
    max_transition: float = 0.5
    min_transition: float = 0.0
    pause_prob: float = 0.0
    kmeans_restarts: int = 10
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-9
    outputs: str = "outputs"
    evaluate_zfbf: bool = True

    def validate(self) -> None:
        if min(self.K, self.L, self.M, self.time_steps, self.realizations) < 1:
            raise ConfigError("counts must all be at least 1")
        if self.M > self.L:
            raise ConfigError("cannot form more subnetworks than base stations")
        if not self.alpha_grid:
            raise ConfigError("alpha_grid must not be empty")
        if any(not 0.0 <= a <= 1.0 for a in self.alpha_grid):
            raise ConfigError("alpha values must lie in [0, 1]")
        if not 0.0 <= self.min_transition <= self.max_transition <= 1.0:
            raise ConfigError("need 0 <= min_transition <= max_transition <= 1")
        if not 0.0 <= self.pause_prob <= 1.0:
            raise ConfigError("pause_prob must lie in [0, 1]")
        if self.beta <= 0.0:
            raise ConfigError("beta must be positive")
        if self.kmeans_restarts < 1 or self.kmeans_max_iters < 1 or self.kmeans_tol < 0:
            raise ConfigError("bad k-means settings")

    def radio_params(self) -> RadioParams:
        return RadioParams(beta=self.beta,
                           pt_over_sigma2=10.0 ** (self.pt_over_sigma2_db / 10.0))

    def mobility_params(self) -> MobilityParams:
        return MobilityParams(max_transition=self.max_transition,
                              min_transition=self.min_transition,
                              pause_prob=self.pause_prob)

    def spectral_config(self, alpha: float, seed) -> SpectralConfig:
        return SpectralConfig(alpha=alpha, M=self.M,
                              kmeans_restarts=self.kmeans_restarts,
                              kmeans_max_iters=self.kmeans_max_iters,
                              kmeans_tol=self.kmeans_tol, seed=seed)


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _parse_value(name: str, kind, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(float(v) for v in raw.split(",") if v.strip() != "")
        return raw
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot parse value for '{name}': {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat `key = value` format; '#' starts a comment."""
    kinds = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        values[key] = _parse_value(key, kinds[key], raw)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a fully resolved config back into the flat format."""
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(repr(float(v)) for v in value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Frozen splitting rule: child `trial_index` of the master seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(trial_index,))


def derive_stream(base: np.random.SeedSequence, stream: int,
                  step: int = 0) -> np.random.SeedSequence:
    """Per-stream, per-step child of a trial seed (stateless, replayable)."""
    return np.random.SeedSequence(entropy=base.entropy,
                                  spawn_key=base.spawn_key + (stream, step))


@dataclass
class TrialResult:
    alpha_grid: tuple
    kpis: np.ndarray                   # (time_steps, n_alpha, 4), columns KPI_NAMES
    snapshots: Optional[list] = None   # (step, Layout, vertex labels, user assignment)


def run_trial(config: ExperimentConfig, seed, keep_snapshots: bool = False,
              snapshot_alpha: Optional[float] = None) -> TrialResult:
    """Simulate one seeded trial across the whole alpha grid.

    The layout, mobility and fading randomness is drawn once per step and
    shared by every alpha branch; only the partition history is per alpha.
    """
    config.validate()
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    radio = config.radio_params()
    mobility = config.mobility_params()
    kmeans_seed = derive_stream(base, STREAM_KMEANS)
    alphas = tuple(config.alpha_grid)
    if keep_snapshots and snapshot_alpha is None:
        snapshot_alpha = alphas[0]
    if snapshot_alpha is not None and snapshot_alpha not in alphas:
        raise ConfigError("snapshot_alpha must be one of the alpha_grid values")

    layout = generate_layout(config.K, config.L, derive_stream(base, STREAM_LAYOUT))
    gains = channel_gains(layout, radio)
    graph = build_graph(gains)
    fading = complex_channel(layout, radio, derive_stream(base, STREAM_FADING, 0)) \
        if config.evaluate_zfbf else None

    # the bootstrap step has no history, so it is alpha-independent
    first = initial_partition(graph, config.spectral_config(1.0, kmeans_seed))
    kpis = np.empty((config.time_steps, len(alphas), len(KPI_NAMES)))
    kpis[0] = record_step(0, gains, first, radio, zfbf_channel=fading).row()
    previous: list[Partition] = [first for _ in alphas]
    snapshots = None
    if keep_snapshots:
        snapshots = [(0, layout, first.vertex_labels.copy(), first.user_assignment.copy())]
    # vertex labels of the previous graph's Laplacian clustered on its own
    # (the bootstrap, then alpha = 1), which alpha = 0 clusters again
    alone = first.vertex_labels

    for t in range(1, config.time_steps):
        layout = step_waypoint(layout, mobility, derive_stream(base, STREAM_MOBILITY, t))
        gains_t = channel_gains(layout, radio)
        graph_t = build_graph(gains_t)
        fading = complex_channel(layout, radio, derive_stream(base, STREAM_FADING, t)) \
            if config.evaluate_zfbf else None
        alone_t = None
        for a, alpha in enumerate(alphas):
            if alpha == 0.0 and alone is not None:
                part = Partition.from_vertex_labels(alone, config.M, graph_t.anchor)
            else:
                part = temporal_smoothed_partition(
                    graph, graph_t, config.spectral_config(alpha, kmeans_seed))
            if alpha == 1.0:
                alone_t = part.vertex_labels
            kpis[t, a] = record_step(t, gains_t, part, radio, gains_prev=gains,
                                     partition_prev=previous[a],
                                     zfbf_channel=fading).row()
            previous[a] = part
            if keep_snapshots and alpha == snapshot_alpha:
                snapshots.append((t, layout, part.vertex_labels.copy(),
                                  part.user_assignment.copy()))
        gains, graph, alone = gains_t, graph_t, alone_t

    return TrialResult(alpha_grid=alphas, kpis=kpis, snapshots=snapshots)


def trial_kpi_means(result: TrialResult) -> np.ndarray:
    """(n_alpha, 4) means over the measured steps of one trial.

    The steps after the bootstrap are measured; a one-step trial has only the
    bootstrap.  Columns follow KPI_NAMES; NaN where a KPI is undefined.
    """
    measured = result.kpis[1:] if len(result.kpis) > 1 else result.kpis
    # one contiguous row per (alpha, KPI): numpy sums a row pairwise, where a
    # mean over axis 0 would add the steps in plain order and, from 8 steps
    # on, round differently
    return np.ascontiguousarray(np.moveaxis(measured, 0, -1)).mean(axis=-1)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: list                       # TrialResult per realization, in seed order
    kpi_means: np.ndarray = field(init=False)  # (realizations, n_alpha, 4) trial means

    def __post_init__(self):
        self.kpi_means = np.stack([trial_kpi_means(trial) for trial in self.trials])


def kpi_matrix(result: ExperimentResult, kpi: str) -> np.ndarray:
    """(realizations, n_alpha) matrix of per-trial means for one KPI."""
    return result.kpi_means[:, :, KPI_NAMES.index(kpi)]


def run_monte_carlo(config: ExperimentConfig, keep_snapshots: bool = True) -> ExperimentResult:
    """Run all realizations sequentially with the frozen seed-splitting rule.

    Aggregation always reduces over the trial-index order, so results do not
    depend on any execution interleaving.
    """
    config.validate()
    trials = [run_trial(config, trial_seed(config.master_seed, i),
                        keep_snapshots=keep_snapshots and i == 0)
              for i in range(config.realizations)]
    return ExperimentResult(config=config, trials=trials)


def _fmt(value: float) -> str:
    return "" if np.isnan(value) else f"{value:.9g}"


def _mean_and_se(column: np.ndarray) -> tuple:
    valid = column[~np.isnan(column)]
    if valid.size == 0:
        return np.nan, np.nan
    mean = float(valid.mean())
    se = float(valid.std(ddof=1) / np.sqrt(valid.size)) if valid.size > 1 else 0.0
    return mean, se


def summary_rows(result: ExperimentResult) -> list:
    """Per-alpha aggregate rows: mean and standard error of every KPI."""
    rows = []
    for a, alpha in enumerate(result.config.alpha_grid):
        row = {"alpha": alpha}
        for kpi in KPI_NAMES:
            mean, se = _mean_and_se(kpi_matrix(result, kpi)[:, a])
            row[f"{kpi}_mean"], row[f"{kpi}_se"] = mean, se
        rows.append(row)
    return rows


def emit_outputs(result: ExperimentResult, config: ExperimentConfig) -> list:
    """Write metrics.csv, summary.csv, snapshots and config.echo; return paths."""
    outdir = config.outputs
    try:
        os.makedirs(outdir, exist_ok=True)
        written = [_write_metrics(result, os.path.join(outdir, "metrics.csv")),
                   _write_summary(result, os.path.join(outdir, "summary.csv"))]
        written.extend(_write_snapshots(result, outdir))
        echo_path = os.path.join(outdir, "config.echo")
        with open(echo_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(config_to_text(config))
        written.append(echo_path)
    except OSError as exc:
        raise OSError(f"cannot write outputs under {outdir}: {exc}") from exc
    return written


def _write_metrics(result: ExperimentResult, path: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("trial,step,alpha,sum_rate,temporal_smoothness,handovers,zfbf_sum_rate\n")
        for i, trial in enumerate(result.trials):
            for t, step in enumerate(trial.kpis):
                for alpha, values in zip(trial.alpha_grid, step):
                    fh.write(",".join([str(i), str(t), _fmt(alpha)]
                                      + [_fmt(v) for v in values]) + "\n")
    return path


def _write_summary(result: ExperimentResult, path: str) -> str:
    names = ["alpha"]
    for kpi in KPI_NAMES:
        names += [f"{kpi}_mean", f"{kpi}_se"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in summary_rows(result):
            fh.write(",".join(_fmt(row[name]) for name in names) + "\n")
    return path


def _write_snapshots(result: ExperimentResult, outdir: str) -> list:
    paths = []
    for trial in result.trials[:1]:
        if not trial.snapshots:
            continue
        for step, layout, labels, assignment in trial.snapshots:
            path = os.path.join(outdir, f"snapshot_{step}.csv")
            _write_one_snapshot(layout, labels, assignment, path)
            paths.append(path)
    return paths


def _write_one_snapshot(layout: Layout, labels: np.ndarray,
                        assignment: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("entity,index,x,y,subnetwork\n")
        for i, (x, y) in enumerate(layout.bs_positions):
            fh.write(f"bs,{i},{x:.9g},{y:.9g},{labels[i]}\n")
        for k, (x, y) in enumerate(layout.user_positions):
            fh.write(f"user,{k},{x:.9g},{y:.9g},{assignment[k]}\n")
