import dataclasses

import numpy as np
import pytest

from cfnet.harness import (ConfigError, ExperimentConfig, config_to_text,
                           derive_stream, emit_outputs, kpi_matrix, load_config,
                           parse_config_text, run_monte_carlo, run_trial,
                           summary_rows, trial_kpi_means, trial_seed)

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
    for a in range(len(SMALL.alpha_grid)):
        for r1, r2 in zip(t1.records[a], t2.records[a]):
            assert r1.sum_rate == r2.sum_rate
            assert r1.temporal_smoothness == r2.temporal_smoothness
            assert r1.handovers == r2.handovers
            assert r1.zfbf_sum_rate == r2.zfbf_sum_rate


def test_single_step_trial_has_no_history_kpis():
    cfg = dataclasses.replace(SMALL, time_steps=1)
    trial = run_trial(cfg, trial_seed(cfg.master_seed, 0))
    for a in range(len(cfg.alpha_grid)):
        assert len(trial.records[a]) == 1
        rec = trial.records[a][0]
        assert rec.temporal_smoothness is None
        assert rec.handovers is None
        assert rec.sum_rate > 0.0
    kpis = trial_kpi_means(trial)
    assert np.isnan(kpis["temporal_smoothness"]).all()
    assert kpis["sum_rate"][0] > 0.0


def test_zfbf_disabled_leaves_kpi_empty():
    cfg = dataclasses.replace(SMALL, evaluate_zfbf=False)
    trial = run_trial(cfg, trial_seed(cfg.master_seed, 0))
    assert all(rec.zfbf_sum_rate is None
               for recs in trial.records for rec in recs)


def test_common_random_numbers_across_alpha_grids():
    # a shared alpha value sees identical randomness whatever else is in the grid
    lone = dataclasses.replace(SMALL, alpha_grid=(0.5,))
    both = SMALL
    t_lone = run_trial(lone, trial_seed(7, 0))
    t_both = run_trial(both, trial_seed(7, 0))
    for r1, r2 in zip(t_lone.records[0], t_both.records[0]):
        assert r1.sum_rate == r2.sum_rate
        assert r1.temporal_smoothness == r2.temporal_smoothness
        assert r1.handovers == r2.handovers
        assert r1.zfbf_sum_rate == r2.zfbf_sum_rate


def test_alpha_one_branch_matches_benchmark_replay():
    # independent replay: plain per-step spectral clustering with shared seeds
    from cfnet.channel import channel_gains, sum_rate as rate_of
    from cfnet.clustering import spectral_partition
    from cfnet.graph import build_graph
    from cfnet.harness import (STREAM_KMEANS, STREAM_LAYOUT, STREAM_MOBILITY)
    from cfnet.topology import generate_layout, step_waypoint

    cfg = dataclasses.replace(SMALL, alpha_grid=(1.0,), evaluate_zfbf=False)
    base = trial_seed(cfg.master_seed, 1)
    trial = run_trial(cfg, base, keep_snapshots=True, snapshot_alpha=1.0)

    radio = cfg.radio_params()
    km = derive_stream(base, STREAM_KMEANS)
    lay = generate_layout(cfg.K, cfg.L, derive_stream(base, STREAM_LAYOUT))
    for t in range(cfg.time_steps):
        if t > 0:
            lay = step_waypoint(lay, cfg.mobility_params(),
                                derive_stream(base, STREAM_MOBILITY, t))
        gains = channel_gains(lay, radio)
        graph = build_graph(gains)
        bench = spectral_partition(graph, cfg.spectral_config(1.0, km))
        _, _, labels, assignment = trial.snapshots[t]
        assert np.array_equal(labels, bench.vertex_labels)
        assert np.array_equal(assignment, bench.user_assignment)
        assert trial.records[0][t].sum_rate == pytest.approx(
            rate_of(gains, bench, radio))


def assert_same_records(recs1, recs2):
    assert len(recs1) == len(recs2)
    for r1, r2 in zip(recs1, recs2):
        assert r1.sum_rate == r2.sum_rate
        assert r1.temporal_smoothness == r2.temporal_smoothness
        assert r1.handovers == r2.handovers
        assert r1.zfbf_sum_rate == r2.zfbf_sum_rate
        assert np.array_equal(r1.per_user_rates, r2.per_user_rates)


def test_alpha_zero_reuse_is_exact():
    # alone on the grid, alpha = 0 clusters every step after the first itself;
    # beside alpha = 1 it reuses that branch's labels from the step before
    for i in range(2):
        trials = [run_trial(dataclasses.replace(SMALL, alpha_grid=grid, time_steps=5),
                            trial_seed(SMALL.master_seed, i),
                            keep_snapshots=True, snapshot_alpha=0.0)
                  for grid in ((0.0,), (0.0, 1.0), (1.0, 0.0))]
        lone = trials[0]
        for trial in trials[1:]:
            assert_same_records(lone.records[0],
                                trial.records[trial.alpha_grid.index(0.0)])
            assert len(trial.snapshots) == len(lone.snapshots) == 5
            for (t1, _, labels1, users1), (t2, _, labels2, users2) in zip(
                    lone.snapshots, trial.snapshots):
                assert t1 == t2
                assert np.array_equal(labels1, labels2)
                assert np.array_equal(users1, users2)


def test_alpha_zero_reuses_previous_alpha_one_clustering(monkeypatch):
    from cfnet import clustering
    calls = []
    original = clustering.kmeans_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(clustering, "kmeans_rows", counting)
    cfg = dataclasses.replace(SMALL, alpha_grid=(0.0, 1.0), time_steps=5)
    run_trial(cfg, trial_seed(cfg.master_seed, 0))
    assert len(calls) == 5  # the bootstrap and alpha = 1 at steps 1-4


def test_snapshot_alpha_must_be_on_grid():
    with pytest.raises(ConfigError):
        run_trial(SMALL, trial_seed(7, 0), keep_snapshots=True, snapshot_alpha=0.123)


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
        assert row["sum_rate_mean"] == pytest.approx(kpis["sum_rate"][a])
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
    emit_outputs(res, cfg)
    cfg2 = dataclasses.replace(SMALL, outputs=str(tmp_path / "b"))
    res2 = run_monte_carlo(cfg2)
    emit_outputs(res2, cfg2)
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    header = (a / "metrics.csv").read_text().splitlines()[0]
    assert header == "trial,step,alpha,sum_rate,temporal_smoothness,handovers,zfbf_sum_rate"


def test_metrics_rows_ordered_trial_step_alpha(tmp_path):
    cfg = dataclasses.replace(SMALL, outputs=str(tmp_path))
    res = run_monte_carlo(cfg)
    emit_outputs(res, cfg)
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
    emit_outputs(res, cfg)
    echoed = load_config(tmp_path / "run1" / "config.echo")
    echoed = dataclasses.replace(echoed, outputs=str(tmp_path / "run2"))
    res2 = run_monte_carlo(echoed)
    emit_outputs(res2, echoed)
    assert (tmp_path / "run1" / "metrics.csv").read_bytes() == \
        (tmp_path / "run2" / "metrics.csv").read_bytes()


def test_snapshots_written_for_first_trial(tmp_path):
    cfg = dataclasses.replace(SMALL, outputs=str(tmp_path))
    res = run_monte_carlo(cfg)
    emit_outputs(res, cfg)
    for t in range(cfg.time_steps):
        path = tmp_path / f"snapshot_{t}.csv"
        assert path.exists()
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "entity,index,x,y,subnetwork"
        assert len(lines) == 1 + cfg.L + cfg.K
        labels = [int(line.split(",")[4]) for line in lines[1:1 + cfg.L]]
        assert set(labels) == set(range(cfg.M))
