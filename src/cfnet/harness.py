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
step t - 1: the previous graph's Laplacian, which the blend formula returns
bit for bit at both endpoints (both operands are finite, and `build_graph`
writes no -0.0), with the same seed.  `run_trial` reuses those vertex labels
instead of clustering again, and maps them to users through the current
anchors; the outputs are the same bytes as without the reuse.  That covers
step 1 on any grid and later steps on a grid holding 1.0; every other branch
of a step is clustered in one batch by `temporal_smoothed_partitions`, which
gives each branch the partition it would get alone.  An alpha_grid that
repeats a value (0.0 and -0.0 count as equal) is a config error.

Results: a trial keeps its KPIs in one float array `kpis` of shape
(time_steps, n_alpha, 4), each (step, alpha) row the record `record_step`
would return for it.  The last axis follows KPI_NAMES, which is also the
column order of metrics.csv.  An entry is NaN where its KPI is undefined:
the history KPIs at step 0, and the ZF rate when ZF evaluation is off.
Every output (per-trial means, kpi_matrix, metrics.csv, summary.csv) is a
reduction of these arrays.

A trial scores its KPIs after the last step.  It keeps every step's gains
in one (time_steps, K, L) array and its partitions as a (time_steps,
n_alpha) grid, the bootstrap partition at every alpha of step 0, so each
branch's history is the grid entry one step earlier.  One call of each gain
KPI scores the grid, each step's gains broadcast over its alphas:
`sum_rate` on every step, `temporal_smoothness` and `handover_count` on the
steps after the bootstrap.  Those functions reduce each entry as they reduce
it alone, so every KPI has the bits of a `record_step` call per row.  With
ZF on, the trial also keeps each step's fading channel, and one
`zfbf_evaluation` call scores the bootstrap row and each (step, alpha) row,
stacking their subnetworks by shape with each row's bits those it gets
alone; the bootstrap row's rate fills every alpha of step 0.
"""

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import RadioParams, channel_gains, complex_channel, sum_rate
from .clustering import Partition, SpectralConfig, initial_partition, temporal_smoothed_partitions
from .graph import build_graph
from .metrics import KPI_NAMES, handover_count, temporal_smoothness, zfbf_evaluation
from .topology import Layout, MobilityParams, generate_layout, step_waypoint

STREAM_LAYOUT = 0
STREAM_MOBILITY = 1
STREAM_FADING = 2
STREAM_KMEANS = 3

_RATE, _SMOOTH, _HANDOVERS, _ZF = map(
    KPI_NAMES.index, ("sum_rate", "temporal_smoothness", "handovers", "zfbf_sum_rate"))


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
    outputs: str = "outputs"
    evaluate_zfbf: bool = True

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be a finite number")
        if min(self.K, self.L, self.M, self.time_steps, self.realizations) < 1:
            raise ConfigError("counts must all be at least 1")
        if self.M > self.L:
            raise ConfigError("cannot form more subnetworks than base stations")
        if not self.alpha_grid:
            raise ConfigError("alpha_grid must not be empty")
        if len(set(self.alpha_grid)) != len(self.alpha_grid):   # 0.0 == -0.0
            raise ConfigError("alpha_grid must not repeat a value")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be at least 0")
        if not self.outputs:
            raise ConfigError("outputs must name a directory, not be empty")
        try:  # the stage objects hold every other rule
            for stage in [self.radio_params(), self.mobility_params(),
                          *(self.spectral_config(a, 0) for a in self.alpha_grid)]:
                stage.validate()
        except OverflowError as exc:
            raise ConfigError("pt_over_sigma2_db overflows the linear power") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def radio_params(self) -> RadioParams:
        return RadioParams(beta=self.beta,
                           pt_over_sigma2=10.0 ** (self.pt_over_sigma2_db / 10.0))

    def mobility_params(self) -> MobilityParams:
        return MobilityParams(max_transition=self.max_transition,
                              min_transition=self.min_transition,
                              pause_prob=self.pause_prob)

    def spectral_config(self, alpha: float, seed) -> SpectralConfig:
        return SpectralConfig(alpha=alpha, M=self.M, seed=seed)


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
            # + 0.0 reads -0.0 as 0.0, which metrics.csv would write as -0
            return tuple(float(v) + 0.0 for v in raw.split(",") if v.strip() != "")
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
    except (OSError, UnicodeDecodeError) as exc:
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
    kpis: np.ndarray                   # (time_steps, n_alpha, 4), columns KPI_NAMES
    snapshots: Optional[list] = None   # (step, Layout, vertex labels, user assignment)


def run_trial(config: ExperimentConfig, seed,
              snapshot_alpha: Optional[float] = None) -> TrialResult:
    """Simulate one seeded trial across the whole alpha grid.

    The layout, mobility and fading randomness is drawn once per step and
    shared by every alpha branch; only the partition history is per alpha.
    With a `snapshot_alpha` from the grid, the result keeps the layout and
    partition of every step on that alpha branch; with None it keeps none.
    """
    config.validate()
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    radio = config.radio_params()
    mobility = config.mobility_params()
    kmeans_seed = derive_stream(base, STREAM_KMEANS)
    alphas = tuple(config.alpha_grid)
    if snapshot_alpha is not None and snapshot_alpha not in alphas:
        raise ConfigError("snapshot_alpha must be one of the alpha_grid values")

    layout = generate_layout(config.K, config.L, derive_stream(base, STREAM_LAYOUT))
    # every step's gains and fading channel, and every row's (step,
    # partition), for the one call of each KPI after the last step
    step_gains = np.empty((config.time_steps, config.K, config.L))
    step_gains[0] = channel_gains(layout, radio)
    graph = build_graph(step_gains[0])
    channels = np.empty((config.time_steps, config.K, config.L), dtype=complex) \
        if config.evaluate_zfbf else None
    if channels is not None:
        channels[0] = complex_channel(layout, radio, derive_stream(base, STREAM_FADING, 0))

    # the bootstrap step has no history, so it is alpha-independent
    spectral = config.spectral_config(1.0, kmeans_seed)
    first = initial_partition(graph, spectral)
    scored = [(0, first)]
    snapshots = None if snapshot_alpha is None else [
        (0, layout, first.vertex_labels.copy(), first.user_assignment.copy())]
    # vertex labels of the previous graph's Laplacian clustered on its own
    # (the bootstrap, then alpha = 1), which alpha = 0 clusters again
    alone = first.vertex_labels

    for t in range(1, config.time_steps):
        layout = step_waypoint(layout, mobility, derive_stream(base, STREAM_MOBILITY, t))
        step_gains[t] = channel_gains(layout, radio)
        graph_t = build_graph(step_gains[t])
        if channels is not None:
            channels[t] = complex_channel(layout, radio, derive_stream(base, STREAM_FADING, t))
        # alpha = 0 reuses `alone`; every other branch is clustered in one batch
        reuse = alone is not None
        fresh = iter(temporal_smoothed_partitions(
            graph, graph_t, spectral, [alpha for alpha in alphas if not (alpha == 0.0 and reuse)]))
        alone_t = None
        for alpha in alphas:
            if alpha == 0.0 and reuse:
                part = Partition.from_vertex_labels(alone, config.M, graph_t.anchor)
            else:
                part = next(fresh)
            if alpha == 1.0:
                alone_t = part.vertex_labels
            scored.append((t, part))
            if alpha == snapshot_alpha:
                snapshots.append((t, layout, part.vertex_labels.copy(),
                                  part.user_assignment.copy()))
        graph, alone = graph_t, alone_t

    # the (step, alpha) grid of partitions, the bootstrap at every alpha of
    # step 0, so each branch's history is the grid row one step earlier
    grid = [first] * len(alphas) + [part for _, part in scored[1:]]
    shape = (config.time_steps, len(alphas))
    labels = np.stack([part.vertex_labels for part in grid]).reshape(*shape, config.L)
    assignment = np.stack([part.user_assignment for part in grid]).reshape(*shape, config.K)
    later = Partition(labels[1:], config.M, assignment[1:])
    kpis = np.full(shape + (len(KPI_NAMES),), np.nan)
    # each step's gains broadcast over its alphas
    kpis[..., _RATE] = sum_rate(step_gains[:, None], Partition(labels, config.M, assignment), radio)
    kpis[1:, :, _SMOOTH] = temporal_smoothness(step_gains[:-1, None], later, radio)
    kpis[1:, :, _HANDOVERS] = handover_count(
        Partition(labels[:-1], config.M, assignment[:-1]), later)
    if channels is not None:
        zf = zfbf_evaluation(channels, *zip(*scored), radio).sum_rate
        kpis[0, :, _ZF] = zf[0]
        kpis[1:, :, _ZF] = zf[1:].reshape(config.time_steps - 1, len(alphas))
    return TrialResult(kpis=kpis, snapshots=snapshots)


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


def run_monte_carlo(config: ExperimentConfig) -> ExperimentResult:
    """Run all realizations sequentially with the frozen seed-splitting rule.

    Aggregation always reduces over the trial-index order, so results do not
    depend on any execution interleaving.  Trial 0 keeps the snapshots of the
    grid's first alpha.
    """
    config.validate()
    trials = [run_trial(config, trial_seed(config.master_seed, i),
                        snapshot_alpha=config.alpha_grid[0] if i == 0 else None)
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


def emit_outputs(result: ExperimentResult, trial_index: Optional[int] = None) -> list:
    """Write metrics.csv, summary.csv, snapshots and config.echo; return paths.

    Any other snapshot_<t>.csv already in the directory is removed, so the
    snapshots on disk are always those of this run.

    `trial_index` marks the one-trial result of `cfnet trial`: the rows carry
    it, and config.echo opens with the command that reproduces the outputs.
    """
    outdir = result.config.outputs
    try:
        os.makedirs(outdir, exist_ok=True)
        written = [_write_metrics(result, os.path.join(outdir, "metrics.csv"),
                                  trial_index or 0),
                   _write_summary(result, os.path.join(outdir, "summary.csv"))]
        snapshots = _write_snapshots(result, outdir)
        _remove_stale_snapshots(outdir, snapshots)
        written.extend(snapshots)
        echo_path = os.path.join(outdir, "config.echo")
        with open(echo_path, "w", encoding="utf-8", newline="") as fh:
            if trial_index is not None:
                fh.write(f"# reproduce with: cfnet trial --config config.echo "
                         f"--trial-index {trial_index}\n")
            fh.write(config_to_text(result.config))
        written.append(echo_path)
    except OSError as exc:
        raise OSError(f"cannot write outputs under {outdir}: {exc}") from exc
    return written


def _write_metrics(result: ExperimentResult, path: str, first_trial: int) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(("trial", "step", "alpha") + KPI_NAMES) + "\n")
        for i, trial in enumerate(result.trials):
            for t, step in enumerate(trial.kpis):
                for alpha, values in zip(result.config.alpha_grid, step):
                    fh.write(",".join([str(first_trial + i), str(t), _fmt(alpha)]
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


def _remove_stale_snapshots(outdir: str, kept: list) -> None:
    # an earlier, longer run in the same directory left snapshot_<t>.csv
    # files for steps this run does not have
    keep = {os.path.basename(path) for path in kept}
    for name in os.listdir(outdir):
        if (name.startswith("snapshot_") and name.endswith(".csv")
                and name[len("snapshot_"):-len(".csv")].isdecimal() and name not in keep):
            os.remove(os.path.join(outdir, name))


def _write_one_snapshot(layout: Layout, labels: np.ndarray,
                        assignment: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("entity,index,x,y,subnetwork\n")
        for i, (x, y) in enumerate(layout.bs_positions):
            fh.write(f"bs,{i},{x:.9g},{y:.9g},{labels[i]}\n")
        for k, (x, y) in enumerate(layout.user_positions):
            fh.write(f"user,{k},{x:.9g},{y:.9g},{assignment[k]}\n")
