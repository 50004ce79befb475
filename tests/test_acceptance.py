"""Acceptance suite: one test per release criterion, one printed verdict each.

The heavyweight Monte Carlo batch (criteria 4 and 5) runs once per session;
everything else is seconds.  Trend assertions allow adjacent-grid violations
up to one standard error of the difference of the two batch means
(independence form, the most lenient defensible reading).
"""

import dataclasses

import numpy as np
import pytest

from cfnet.channel import RadioParams, channel_gains, complex_channel, sum_rate
from cfnet.clustering import Partition, initial_partition, temporal_smoothed_partition
from cfnet.graph import build_graph
from cfnet.harness import (ExperimentConfig, derive_stream, emit_outputs,
                           kpi_matrix, run_monte_carlo, run_trial, trial_seed,
                           STREAM_KMEANS, STREAM_LAYOUT, STREAM_MOBILITY)
from cfnet.metrics import zfbf_evaluation
from cfnet.oracle import INSTANCE_ALPHAS, certify
from cfnet.topology import generate_layout, step_waypoint


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed {detail}"


# ----------------------------------------------------------- shared batches

@pytest.fixture(scope="module")
def certificates():
    """The pipeline scored on the 100 instances of the C2 family, seed 2025."""
    return list(certify(2025, 100))


FIG_TREND_CONFIG = ExperimentConfig(
    K=30, L=50, M=20, beta=4.0, pt_over_sigma2_db=0.0,
    alpha_grid=(0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
    time_steps=5, realizations=500, master_seed=0, evaluate_zfbf=True)


@pytest.fixture(scope="module")
def fig_trend_result():
    return run_monte_carlo(FIG_TREND_CONFIG)


def _adjacent_ok(matrix: np.ndarray, a: int, b: int, direction: int):
    """diff of batch means in the wanted direction, with its one-SE slack."""
    n = matrix.shape[0]
    diff = (matrix[:, a].mean() - matrix[:, b].mean()) * direction
    slack = np.sqrt(matrix[:, a].var(ddof=1) / n + matrix[:, b].var(ddof=1) / n)
    return diff, slack


# ---------------------------------------------------------------- criteria

def test_c1_trace_identity(certificates):
    """Every enumerated partition: direct summed cut equals the indicator trace."""
    worst = max(c.trace_error for c in certificates)
    checked = sum(c.partitions for c in certificates)
    _report("C1 trace identity", worst <= 1e-9,
            f"(worst relative error {worst:.2e} over {checked} partitions)")


def test_c2_oracle_quality_gate(certificates):
    """Pipeline objective <= 1.25x the enumerated optimum in >=95%, never below."""
    never_below = not any(c.objective < c.optimum - 1e-9 * max(1.0, c.optimum)
                          for c in certificates)
    ratios = np.array([c.ratio for c in certificates])
    frac = float((ratios <= 1.25).mean())
    _report("C2 oracle quality gate", never_below and frac >= 0.95,
            f"(within 1.25x in {frac:.0%}, worst ratio {ratios.max():.2f}, "
            f"never below optimum: {never_below})")


def test_c3_endpoint_equivalence():
    """alpha=1 pipeline == plain per-step spectral clustering, labels and KPIs."""
    cfg = ExperimentConfig(K=12, L=16, M=4, alpha_grid=(1.0,), time_steps=4,
                           realizations=2, master_seed=11, evaluate_zfbf=False)
    all_equal = True
    for i in range(cfg.realizations):
        base = trial_seed(cfg.master_seed, i)
        trial = run_trial(cfg, base, snapshot_alpha=1.0)
        radio = cfg.radio_params()
        km = derive_stream(base, STREAM_KMEANS)
        lay = generate_layout(cfg.K, cfg.L, derive_stream(base, STREAM_LAYOUT))
        for t in range(cfg.time_steps):
            if t > 0:
                lay = step_waypoint(lay, cfg.mobility_params(),
                                    derive_stream(base, STREAM_MOBILITY, t))
            gains = channel_gains(lay, radio)
            bench = initial_partition(build_graph(gains), cfg.spectral_config(1.0, km))
            _, _, labels, assignment = trial.snapshots[t]
            if not (np.array_equal(labels, bench.vertex_labels)
                    and np.array_equal(assignment, bench.user_assignment)
                    and trial.kpis[t, 0, 0] == sum_rate(gains, bench, radio)):
                all_equal = False
    _report("C3 endpoint equivalence", all_equal,
            "(label sequences and KPIs identical under shared seeds)")


def test_c4_monotone_alpha_tradeoff(fig_trend_result):
    """Batch-mean smoothness non-increasing, handovers non-decreasing in alpha."""
    alphas = FIG_TREND_CONFIG.alpha_grid
    smooth = kpi_matrix(fig_trend_result, "temporal_smoothness")
    hand = kpi_matrix(fig_trend_result, "handovers")
    problems = []
    for a in range(len(alphas) - 1):
        d, s = _adjacent_ok(smooth, a, a + 1, direction=+1)
        if d < -s:
            problems.append(f"smoothness {alphas[a]}->{alphas[a+1]} diff {d:+.2f} slack {s:.2f}")
        d, s = _adjacent_ok(hand, a, a + 1, direction=-1)
        if d < -s:
            problems.append(f"handovers {alphas[a]}->{alphas[a+1]} diff {d:+.2f} slack {s:.2f}")
    detail = (f"(smoothness means {np.round(smooth.mean(0), 2).tolist()}, "
              f"handover means {np.round(hand.mean(0), 2).tolist()}"
              + (f"; violations: {'; '.join(problems)}" if problems else "") + ")")
    _report("C4 monotone alpha trade-off", not problems, detail)


def test_c5_operating_point(fig_trend_result):
    """alpha=0.9 vs 1.0: >=5% fewer handovers at <=5% sum-rate loss."""
    alphas = FIG_TREND_CONFIG.alpha_grid
    i9, i10 = alphas.index(0.9), alphas.index(1.0)
    hand = kpi_matrix(fig_trend_result, "handovers")
    rate = kpi_matrix(fig_trend_result, "sum_rate")
    zf = kpi_matrix(fig_trend_result, "zfbf_sum_rate")
    reduction = (hand[:, i10].mean() - hand[:, i9].mean()) / hand[:, i10].mean()
    loss = (rate[:, i10].mean() - rate[:, i9].mean()) / rate[:, i10].mean()
    zf_loss = (zf[:, i10].mean() - zf[:, i9].mean()) / zf[:, i10].mean()
    ok = reduction >= 0.05 and loss <= 0.05 and zf_loss <= 0.05
    _report("C5 operating point", ok,
            f"(handover reduction {reduction:.1%}, sum-rate loss {loss:.1%}, "
            f"beamformed-rate loss {zf_loss:.1%})")


def test_c6_zfbf_correctness():
    """Crosstalk <= 1e-9 relative when solvable; exact zero rate when overloaded."""
    rng = np.random.default_rng(31)
    worst_xtalk = 0.0
    zero_ok = True
    for i in range(50):
        num_bs = int(rng.integers(4, 12))
        num_users = int(rng.integers(2, 10))
        groups = int(rng.integers(1, min(num_bs, 4) + 1))
        cfg = ExperimentConfig(K=num_users, L=num_bs, M=groups)
        lay = generate_layout(num_users, num_bs, np.random.SeedSequence(31, spawn_key=(i,)))
        radio = cfg.radio_params()
        h = complex_channel(lay, radio, np.random.SeedSequence(31, spawn_key=(i, 1)))
        labels = rng.integers(0, groups, size=num_bs)
        labels[:groups] = np.arange(groups)
        part = Partition.from_vertex_labels(labels, groups, rng.integers(0, num_bs, num_users))
        result = zfbf_evaluation(h[None], [0], [part], radio)
        worst_xtalk = max(worst_xtalk, result.max_crosstalk[0])
        sizes_bs = np.bincount(part.vertex_labels, minlength=groups)
        sizes_users = np.bincount(part.user_assignment, minlength=groups)
        for m in range(groups):
            if sizes_users[m] > sizes_bs[m]:
                if np.any(result.per_user_rates[0, part.user_assignment == m] != 0.0):
                    zero_ok = False
    _report("C6 zero-forcing correctness", worst_xtalk <= 1e-9 and zero_ok,
            f"(worst relative crosstalk {worst_xtalk:.2e}, "
            f"overloaded users all at exactly zero rate: {zero_ok})")


def test_c7_determinism(tmp_path):
    """Same (config, master seed) twice: byte-identical metrics.csv."""
    base = ExperimentConfig(K=8, L=10, M=3, alpha_grid=(0.25, 0.9),
                            time_steps=3, realizations=4, master_seed=99)
    payloads = []
    for name in ("one", "two"):
        cfg = dataclasses.replace(base, outputs=str(tmp_path / name))
        result = run_monte_carlo(cfg)
        emit_outputs(result)
        payloads.append((tmp_path / name / "metrics.csv").read_bytes())
    _report("C7 determinism", payloads[0] == payloads[1],
            f"(two runs, {len(payloads[0])} bytes each, identical)")


def test_c8_partition_validity_fuzz():
    """10^4 fuzzed pipeline runs: labels cover all groups, users follow anchors."""
    rng = np.random.default_rng(7777)
    bad = 0
    for i in range(10_000):
        num_bs = int(rng.integers(2, 11))
        num_users = int(rng.integers(1, 13))
        groups = int(rng.integers(1, num_bs + 1))
        alpha = float(rng.choice(INSTANCE_ALPHAS))
        base = np.random.SeedSequence(7777, spawn_key=(i,))
        cfg = ExperimentConfig(K=num_users, L=num_bs, M=groups)
        lay = generate_layout(num_users, num_bs, derive_stream(base, STREAM_LAYOUT))
        radio = cfg.radio_params()
        g_prev = build_graph(channel_gains(lay, radio))
        moved = step_waypoint(lay, cfg.mobility_params(),
                              derive_stream(base, STREAM_MOBILITY, 1))
        g_now = build_graph(channel_gains(moved, radio))
        part = temporal_smoothed_partition(
            g_prev, g_now, cfg.spectral_config(alpha, derive_stream(base, STREAM_KMEANS)))
        if (part.vertex_labels.shape != (num_bs,)
                or part.vertex_labels.min() < 0
                or part.vertex_labels.max() >= groups
                or set(part.vertex_labels.tolist()) != set(range(groups))
                or not np.array_equal(part.user_assignment,
                                      part.vertex_labels[g_now.anchor])):
            bad += 1
    _report("C8 partition validity", bad == 0,
            f"(0 violations expected, got {bad} over 10000 fuzzed instances)")
