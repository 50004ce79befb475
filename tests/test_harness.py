import dataclasses
import hashlib
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnet.harness import (KPI_NAMES, ConfigError, ExperimentConfig, config_to_text,
                           derive_stream, emit_outputs, kpi_matrix, load_config,
                           parse_config_text, run_monte_carlo, run_trial,
                           summary_rows, trial_kpi_means, trial_seed)

SUM_RATE, SMOOTHNESS, HANDOVERS, ZF_RATE = range(len(KPI_NAMES))

SMALL = ExperimentConfig(K=6, L=8, M=3, alpha_grid=(0.5, 1.0), time_steps=3,
                         realizations=3, master_seed=7, outputs="unused")


# ------------------------------------------------------------------ config

def test_config_text_roundtrip():
    text = config_to_text(SMALL)
    again = parse_config_text(text)
    assert again == SMALL


def test_parse_rejects_unknown_keys_and_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("bogus_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("K 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("K = not_a_number\n")
    # the k-means budget is fixed in code; an older config.echo holding it is rejected
    with pytest.raises(ConfigError, match="unknown key 'kmeans_restarts'"):
        parse_config_text("kmeans_restarts = 10\n")


def test_readme_config_block_matches_the_defaults():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("### Config file", 1)[1].split("```\n")[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    lines = [line for line in lines if line]
    assert parse_config_text("\n".join(lines)) == ExperimentConfig()
    assert [line.split("=", 1)[0].strip() for line in lines] == \
        [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_parse_handles_comments_and_blanks():
    cfg = parse_config_text("# comment\n\nK = 4  # users\nL = 9\n")
    assert cfg.K == 4 and cfg.L == 9


def test_validation_errors():
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, alpha_grid=()).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, alpha_grid=(0.5, 1.2)).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, M=9).validate()  # more groups than BSs
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, realizations=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(SMALL, min_transition=0.6).validate()
    with pytest.raises(ConfigError, match="outputs"):
        dataclasses.replace(SMALL, outputs="").validate()
    for repeated in ((0.5, 1.0, 0.5), (0.0, -0.0)):
        with pytest.raises(ConfigError, match="repeat"):
            dataclasses.replace(SMALL, alpha_grid=repeated).validate()


def test_negative_zero_alpha_reads_as_zero():
    grid = parse_config_text("alpha_grid = -0.0,1\n").alpha_grid
    assert grid == (0.0, 1.0)
    assert np.copysign(1.0, grid[0]) == 1.0   # metrics.csv writes 0, not -0


def test_db_conversion():
    cfg = dataclasses.replace(SMALL, pt_over_sigma2_db=10.0)
    assert cfg.radio_params().pt_over_sigma2 == pytest.approx(10.0)
    assert SMALL.radio_params().pt_over_sigma2 == pytest.approx(1.0)


# ------------------------------------------------------------------- seeds

def test_trial_seeds_prefix_stable():
    first = [trial_seed(3, i).spawn_key for i in range(4)]
    doubled = [trial_seed(3, i).spawn_key for i in range(8)]
    assert doubled[:4] == first


def test_derive_stream_is_stateless():
    base = trial_seed(0, 1)
    a = derive_stream(base, 2, 5)
    b = derive_stream(base, 2, 5)
    assert np.array_equal(np.random.default_rng(a).random(4),
                          np.random.default_rng(b).random(4))


# ------------------------------------------------------------------ trials

def test_trial_deterministic():
    t1 = run_trial(SMALL, trial_seed(SMALL.master_seed, 0))
    t2 = run_trial(SMALL, trial_seed(SMALL.master_seed, 0))
    assert t1.kpis.shape == (SMALL.time_steps, len(SMALL.alpha_grid), len(KPI_NAMES))
    assert np.array_equal(t1.kpis, t2.kpis, equal_nan=True)


def test_single_step_trial_has_no_history_kpis():
    cfg = dataclasses.replace(SMALL, time_steps=1)
    trial = run_trial(cfg, trial_seed(cfg.master_seed, 0))
    assert trial.kpis.shape == (1, len(cfg.alpha_grid), len(KPI_NAMES))
    assert np.isnan(trial.kpis[0, :, SMOOTHNESS]).all()
    assert np.isnan(trial.kpis[0, :, HANDOVERS]).all()
    assert (trial.kpis[0, :, SUM_RATE] > 0.0).all()
    kpis = trial_kpi_means(trial)
    assert np.isnan(kpis[:, SMOOTHNESS]).all()
    assert kpis[0, SUM_RATE] > 0.0


def test_zfbf_disabled_leaves_kpi_empty(monkeypatch):
    from cfnet import harness

    def never(*args, **kwargs):
        raise AssertionError("zero-forcing is off")

    # no fading channel is drawn or kept, and nothing is zero-forced
    monkeypatch.setattr(harness, "complex_channel", never)
    monkeypatch.setattr(harness, "zfbf_evaluation", never)
    cfg = dataclasses.replace(SMALL, evaluate_zfbf=False)
    trial = run_trial(cfg, trial_seed(cfg.master_seed, 0))
    assert np.isnan(trial.kpis[:, :, ZF_RATE]).all()


@pytest.mark.parametrize("time_steps", [1, 3])
def test_zero_forcing_scores_a_trial_in_one_batch(monkeypatch, time_steps):
    """One call per trial: the bootstrap row, then each (step, alpha) row.

    The bootstrap row's rate fills every alpha at step 0; with one step it is
    the only row scored.
    """
    from cfnet import harness
    calls = []
    original = harness.zfbf_evaluation

    def recording(channels, steps, partitions, params):
        calls.append((channels.shape, list(steps), len(partitions)))
        return original(channels, steps, partitions, params)

    monkeypatch.setattr(harness, "zfbf_evaluation", recording)
    cfg = dataclasses.replace(SMALL, time_steps=time_steps)
    zf = run_trial(cfg, trial_seed(cfg.master_seed, 0)).kpis[:, :, ZF_RATE]
    steps = [0] + [t for t in range(1, time_steps) for _ in cfg.alpha_grid]
    assert calls == [((time_steps, cfg.K, cfg.L), steps, len(steps))]
    assert np.isfinite(zf).all()
    assert (zf[0] == zf[0, 0]).all()


GAIN_KPIS = ("sum_rate", "temporal_smoothness", "handover_count")


def record_gain_kpis(monkeypatch):
    """Route the harness's gain-KPI calls through recorders: per function
    name, the (args, result) of every call."""
    from cfnet import harness
    calls = {name: [] for name in GAIN_KPIS}

    def recorder(name, original):
        def recording(*args):
            out = original(*args)
            calls[name].append((args, out))
            return out
        return recording

    for name in GAIN_KPIS:
        monkeypatch.setattr(harness, name, recorder(name, getattr(harness, name)))
    return calls


@pytest.mark.parametrize("time_steps", [1, 2, 5])
def test_gain_kpis_score_a_trial_in_one_batch(monkeypatch, time_steps):
    """One call of each gain KPI per trial, on the (step, alpha) grid of
    partitions, each step's gains broadcast over its alphas: sum rate on
    every step, the history KPIs on the steps after the bootstrap."""
    calls = record_gain_kpis(monkeypatch)
    cfg = dataclasses.replace(SMALL, time_steps=time_steps)
    run_trial(cfg, trial_seed(cfg.master_seed, 0))
    grid, later = (time_steps, len(cfg.alpha_grid)), (time_steps - 1, len(cfg.alpha_grid))
    assert [len(calls[name]) for name in GAIN_KPIS] == [1, 1, 1]
    (gains, rows, _), rate = calls["sum_rate"][0]
    assert gains.shape == (time_steps, 1, cfg.K, cfg.L)
    assert rows.vertex_labels.shape == grid + (cfg.L,) and rate.shape == grid
    (gains_prev, rows, _), smooth = calls["temporal_smoothness"][0]
    assert gains_prev.shape == (time_steps - 1, 1, cfg.K, cfg.L) and smooth.shape == later
    (earlier, rows), handovers = calls["handover_count"][0]
    assert earlier.vertex_labels.shape == rows.vertex_labels.shape == later + (cfg.L,)
    assert handovers.shape == later


@pytest.mark.parametrize("changes", [{}, {"alpha_grid": (0.0, 0.25, 0.5, 0.9)},
                                     {"evaluate_zfbf": False}])
def test_stacked_gain_kpis_equal_one_row_calls(monkeypatch, changes):
    """On desk trials, every (step, alpha) entry of the stacked calls has the
    bytes `record_step` gives that row alone, and so has the KPI array."""
    from cfnet.clustering import Partition
    from cfnet.metrics import record_step
    cfg = dataclasses.replace(ExperimentConfig(realizations=2), **changes)
    radio = cfg.radio_params()
    for i in range(2):
        calls = record_gain_kpis(monkeypatch)
        kpis = run_trial(cfg, trial_seed(cfg.master_seed, i)).kpis
        (gains, grid, _), _ = calls["sum_rate"][0]
        stacked = np.stack([calls["sum_rate"][0][1],
                            np.vstack([np.full(len(cfg.alpha_grid), np.nan),
                                       calls["temporal_smoothness"][0][1]]),
                            np.vstack([np.full(len(cfg.alpha_grid), np.nan),
                                       calls["handover_count"][0][1]])], axis=-1)
        alphas, anchors = range(len(cfg.alpha_grid)), np.argmax(gains[:, 0], axis=2)
        parts = [[Partition.from_vertex_labels(grid.vertex_labels[t, a], cfg.M, anchors[t])
                  for a in alphas] for t in range(cfg.time_steps)]
        assert all(np.array_equal(parts[t][a].user_assignment, grid.user_assignment[t, a])
                   for t in range(cfg.time_steps) for a in alphas)
        alone = np.array([[record_step(0, gains[0, 0], part, radio)[:ZF_RATE]
                           for part in parts[0]]]
                         + [[record_step(t, gains[t, 0], parts[t][a], radio,
                                         gains_prev=gains[t - 1, 0],
                                         partition_prev=parts[t - 1][a])[:ZF_RATE]
                             for a in alphas] for t in range(1, cfg.time_steps)])
        assert stacked.tobytes() == alone.tobytes()
        assert kpis[:, :, :ZF_RATE].tobytes() == alone.tobytes()
        assert np.isnan(kpis[:, :, ZF_RATE]).all() != cfg.evaluate_zfbf


def test_common_random_numbers_across_alpha_grids():
    # a shared alpha value sees identical randomness whatever else is in the grid
    lone = dataclasses.replace(SMALL, alpha_grid=(0.5,))
    both = SMALL
    t_lone = run_trial(lone, trial_seed(7, 0))
    t_both = run_trial(both, trial_seed(7, 0))
    assert np.array_equal(t_lone.kpis[:, 0], t_both.kpis[:, 0], equal_nan=True)


def test_alpha_one_branch_matches_benchmark_replay():
    # independent replay: plain per-step spectral clustering with shared seeds
    from cfnet.channel import channel_gains, sum_rate as rate_of
    from cfnet.clustering import initial_partition
    from cfnet.graph import build_graph
    from cfnet.harness import (STREAM_KMEANS, STREAM_LAYOUT, STREAM_MOBILITY)
    from cfnet.topology import generate_layout, step_waypoint

    cfg = dataclasses.replace(SMALL, alpha_grid=(1.0,), evaluate_zfbf=False)
    base = trial_seed(cfg.master_seed, 1)
    trial = run_trial(cfg, base, snapshot_alpha=1.0)

    radio = cfg.radio_params()
    km = derive_stream(base, STREAM_KMEANS)
    lay = generate_layout(cfg.K, cfg.L, derive_stream(base, STREAM_LAYOUT))
    for t in range(cfg.time_steps):
        if t > 0:
            lay = step_waypoint(lay, cfg.mobility_params(),
                                derive_stream(base, STREAM_MOBILITY, t))
        gains = channel_gains(lay, radio)
        graph = build_graph(gains)
        bench = initial_partition(graph, cfg.spectral_config(1.0, km))
        _, _, labels, assignment = trial.snapshots[t]
        assert np.array_equal(labels, bench.vertex_labels)
        assert np.array_equal(assignment, bench.user_assignment)
        assert trial.kpis[t, 0, SUM_RATE] == pytest.approx(
            rate_of(gains, bench, radio))


def test_alpha_zero_reuse_is_exact():
    # alone on the grid, alpha = 0 clusters every step after the first itself;
    # beside alpha = 1 it reuses that branch's labels from the step before
    for i in range(2):
        grids = ((0.0,), (0.0, 1.0), (1.0, 0.0))
        trials = [run_trial(dataclasses.replace(SMALL, alpha_grid=grid, time_steps=5),
                            trial_seed(SMALL.master_seed, i), snapshot_alpha=0.0)
                  for grid in grids]
        lone = trials[0]
        for grid, trial in zip(grids[1:], trials[1:]):
            assert np.array_equal(lone.kpis[:, 0],
                                  trial.kpis[:, grid.index(0.0)], equal_nan=True)
            assert len(trial.snapshots) == len(lone.snapshots) == 5
            for (t1, _, labels1, users1), (t2, _, labels2, users2) in zip(
                    lone.snapshots, trial.snapshots):
                assert t1 == t2
                assert np.array_equal(labels1, labels2)
                assert np.array_equal(users1, users2)


def test_alpha_zero_reuses_previous_alpha_one_clustering(monkeypatch):
    # a call clusters a stack of alpha branches, so count the stack entries
    from cfnet import clustering
    entries = []
    original = clustering.kmeans_rows

    def counting(rows, *args, **kwargs):
        entries.append(1 if np.ndim(rows) == 2 else len(rows))
        return original(rows, *args, **kwargs)

    monkeypatch.setattr(clustering, "kmeans_rows", counting)
    cfg = dataclasses.replace(SMALL, alpha_grid=(0.0, 1.0), time_steps=5)
    run_trial(cfg, trial_seed(cfg.master_seed, 0))
    assert sum(entries) == 5  # the bootstrap and alpha = 1 at steps 1-4
    entries.clear()
    run_trial(dataclasses.replace(cfg, alpha_grid=(0.25, 0.0, 1.0, 0.5)),
              trial_seed(cfg.master_seed, 0))
    assert entries == [1, 3, 3, 3, 3]  # one batch of three branches per step
    # without 1.0 on the grid, alpha = 0 still reuses the bootstrap at step 1,
    # and from step 2 on it is clustered with the other branches
    for grid, expected in (((0.0, 0.5), [1, 1, 2, 2, 2]), ((0.0,), [1, 1, 1, 1])):
        entries.clear()
        run_trial(dataclasses.replace(cfg, alpha_grid=grid), trial_seed(cfg.master_seed, 0))
        assert entries == expected


def test_snapshot_alpha_must_be_on_grid():
    with pytest.raises(ConfigError):
        run_trial(SMALL, trial_seed(7, 0), snapshot_alpha=0.123)


# ------------------------------------------------------------- monte carlo

def test_monte_carlo_prefix_stability():
    short = run_monte_carlo(dataclasses.replace(SMALL, realizations=2))
    longer = run_monte_carlo(dataclasses.replace(SMALL, realizations=4))
    for kpi in ("sum_rate", "handovers"):
        assert np.array_equal(kpi_matrix(short, kpi),
                              kpi_matrix(longer, kpi)[:2], equal_nan=True)


def test_single_realization_summary_equals_trial_means():
    cfg = dataclasses.replace(SMALL, realizations=1)
    res = run_monte_carlo(cfg)
    kpis = trial_kpi_means(res.trials[0])
    rows = summary_rows(res)
    for a, row in enumerate(rows):
        assert row["sum_rate_mean"] == pytest.approx(kpis[a, SUM_RATE])
        assert row["sum_rate_se"] == 0.0


def test_summary_row_per_alpha():
    res = run_monte_carlo(SMALL)
    rows = summary_rows(res)
    assert len(rows) == len(SMALL.alpha_grid)
    assert [row["alpha"] for row in rows] == list(SMALL.alpha_grid)


# ----------------------------------------------------------------- outputs

def test_emit_outputs_files_and_determinism(tmp_path):
    cfg = dataclasses.replace(SMALL, outputs=str(tmp_path / "a"))
    res = run_monte_carlo(cfg)
    emit_outputs(res)
    cfg2 = dataclasses.replace(SMALL, outputs=str(tmp_path / "b"))
    res2 = run_monte_carlo(cfg2)
    emit_outputs(res2)
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    header = (a / "metrics.csv").read_text().splitlines()[0]
    assert header == "trial,step,alpha,sum_rate,temporal_smoothness,handovers,zfbf_sum_rate"


def test_metrics_rows_ordered_trial_step_alpha(tmp_path):
    cfg = dataclasses.replace(SMALL, outputs=str(tmp_path))
    res = run_monte_carlo(cfg)
    emit_outputs(res)
    rows = (tmp_path / "metrics.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == cfg.realizations * cfg.time_steps * len(cfg.alpha_grid)
    keys = []
    for row in rows:
        trial, step, alpha = row.split(",")[:3]
        keys.append((int(trial), int(step), float(alpha)))
    assert keys == sorted(keys)
    # first-step rows have empty history KPIs
    first = rows[0].split(",")
    assert first[4] == "" and first[5] == ""


def test_config_echo_roundtrip_reproduces_metrics(tmp_path):
    cfg = dataclasses.replace(SMALL, outputs=str(tmp_path / "run1"))
    res = run_monte_carlo(cfg)
    emit_outputs(res)
    echoed = load_config(tmp_path / "run1" / "config.echo")
    echoed = dataclasses.replace(echoed, outputs=str(tmp_path / "run2"))
    res2 = run_monte_carlo(echoed)
    emit_outputs(res2)
    assert (tmp_path / "run1" / "metrics.csv").read_bytes() == \
        (tmp_path / "run2" / "metrics.csv").read_bytes()


def test_snapshots_written_for_first_trial(tmp_path):
    cfg = dataclasses.replace(SMALL, outputs=str(tmp_path))
    res = run_monte_carlo(cfg)
    emit_outputs(res)
    for t in range(cfg.time_steps):
        path = tmp_path / f"snapshot_{t}.csv"
        assert path.exists()
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "entity,index,x,y,subnetwork"
        assert len(lines) == 1 + cfg.L + cfg.K
        labels = [int(line.split(",")[4]) for line in lines[1:1 + cfg.L]]
        assert set(labels) == set(range(cfg.M))


def test_stale_snapshots_of_a_longer_run_are_removed(tmp_path):
    cfg = dataclasses.replace(SMALL, outputs=str(tmp_path))
    for name in ("snapshot_7.csv", "snapshot_x.csv", "notes.csv"):
        (tmp_path / name).write_text("old\n")
    emit_outputs(run_monte_carlo(cfg))
    assert not (tmp_path / "snapshot_7.csv").exists()
    assert sorted(p.name for p in tmp_path.glob("snapshot_*.csv")) == [
        "snapshot_0.csv", "snapshot_1.csv", "snapshot_2.csv", "snapshot_x.csv"]
    assert (tmp_path / "notes.csv").read_text() == "old\n"


def test_long_horizon_outputs_are_pinned(tmp_path):
    """Output bytes and per-trial KPI means at 11 measured steps per trial.

    From 8 measured steps on, numpy's pairwise summation adds a trial's steps
    in another order than a plain running sum, so a KPI mean that changes its
    reduction changes the last bits of `kpi_means`; summary.csv rounds to 9
    digits and may hide that.  The hashes hold on numpy 2.4.6 with OpenBLAS
    0.3.31; another numpy or BLAS build may round the eigenvectors
    differently (ROADMAP item 5).
    """
    cfg = dataclasses.replace(SMALL, time_steps=12, realizations=3, outputs=str(tmp_path))
    result = run_monte_carlo(cfg)
    emit_outputs(result)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("metrics.csv", "summary.csv")}
    digests["kpi_means"] = hashlib.sha256(result.kpi_means.tobytes()).hexdigest()
    assert digests == {
        "metrics.csv": "88d5d56752acdf9041d2cbd2eaab72d3dbcb5e18d6c9d982e2b43319e707bf17",
        "summary.csv": "fc67a2911a0b9c7409e35d0cfb71f0e175e8b585bfeb8ba7ead0a7f89d2e1b7d",
        "kpi_means": "f47fea66f6339b9ab18662aa1e049d864ad64a4112b6ad39ccb0f7a54f64a204",
    }


@settings(max_examples=25, deadline=None)
@given(K=st.integers(1, 8), L=st.integers(1, 8), data=st.data(),
       alphas=st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.9, 1.0)),
                       min_size=1, max_size=4, unique=True),
       frozen=st.sampled_from(("max_transition", "pause_prob")), seed=st.integers(0, 999))
def test_zero_mobility_keeps_partitions(K, L, data, alphas, frozen, seed):
    """Users that never move: no handovers, and smoothness equals sum rate."""
    M = data.draw(st.integers(1, L), label="M")
    still = {"max_transition": 0.0} if frozen == "max_transition" else {"pause_prob": 1.0}
    cfg = ExperimentConfig(K=K, L=L, M=M, alpha_grid=tuple(alphas), time_steps=4,
                           realizations=1, master_seed=seed,
                           evaluate_zfbf=False, **still)
    kpis = run_trial(cfg, trial_seed(seed, 0)).kpis[1:]
    assert (kpis[:, :, HANDOVERS] == 0).all()
    assert np.array_equal(kpis[:, :, SMOOTHNESS], kpis[:, :, SUM_RATE])


@settings(max_examples=25, deadline=None)
@given(L=st.integers(1, 8), data=st.data(), seed=st.integers(0, 999),
       max_transition=st.floats(0.05, 1.0))
def test_singleton_groups_and_few_users_give_finite_kpis(L, data, seed, max_transition):
    """M = L, or fewer users than subnetworks, with mobility and ZF on.

    Every defined KPI is finite; only the history KPIs of step 0 are not
    defined.  At M = L every subnetwork is one BS, so every alpha yields the
    same partition and the same four KPIs at every step.
    """
    M = data.draw(st.integers(min(2, L), L), label="M")
    K = data.draw(st.integers(1, 8 if M == L else M - 1), label="K")
    cfg = ExperimentConfig(K=K, L=L, M=M, alpha_grid=(0.0, 0.5, 1.0), time_steps=3,
                           realizations=1, master_seed=seed,
                           max_transition=max_transition, evaluate_zfbf=True)
    kpis = run_trial(cfg, trial_seed(seed, 0)).kpis
    assert np.isfinite(kpis[1:]).all()
    assert np.isfinite(kpis[0][:, [SUM_RATE, ZF_RATE]]).all()
    assert np.isnan(kpis[0][:, [SMOOTHNESS, HANDOVERS]]).all()
    if M == L:
        assert np.array_equal(kpis, np.broadcast_to(kpis[:, :1], kpis.shape),
                              equal_nan=True)
