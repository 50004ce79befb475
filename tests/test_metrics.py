import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnet.channel import D_MIN, RadioParams, channel_gains, complex_channel, sum_rate
from cfnet.clustering import SpectralConfig, initial_partition, temporal_smoothed_partition
from cfnet.graph import build_graph
from cfnet.metrics import (MetricsRecord, handover_count, record_step,
                           temporal_smoothness, zfbf_evaluation)
from cfnet.topology import AREA_SIDE, Layout, generate_layout

from conftest import make_partition, trend_holds


# ------------------------------------------------------------- smoothness

def test_smoothness_equals_previous_rate_for_static_network():
    lay = generate_layout(8, 6, seed=1)
    gains = channel_gains(lay, RadioParams())
    part = initial_partition(build_graph(gains), SpectralConfig(alpha=1.0, M=2, seed=0))
    # users did not move: scoring "yesterday" equals scoring today
    assert temporal_smoothness(gains, part, RadioParams()) == pytest.approx(
        sum_rate(gains, part, RadioParams()))


def test_smoothness_single_group_has_no_interference():
    lay = generate_layout(5, 4, seed=2)
    gains = channel_gains(lay, RadioParams())
    part = make_partition(np.zeros(4, int), np.argmax(gains, axis=1), 1)
    r = RadioParams().pt_over_sigma2
    expected = np.log2(1.0 + r * gains.max(axis=1)).sum()
    assert temporal_smoothness(gains, part, RadioParams()) == pytest.approx(expected)


def test_smoothness_matches_swapped_gains_oracle():
    # scalar recomputation of the rate chain with every quantity taken from
    # the previous step's gains, labels taken from the current partition
    rng = np.random.default_rng(29)
    gains_prev = rng.uniform(0.05, 6.0, size=(5, 6))
    gains_now = rng.uniform(0.05, 6.0, size=(5, 6))
    part_now = make_partition(np.array([0, 1, 0, 1, 1, 0]),
                              np.argmax(gains_now, axis=1), 2)
    r = 1.3
    expected = 0.0
    for k in range(5):
        row = gains_prev[k]
        best = max(range(6), key=lambda l: row[l])
        subnet = part_now.vertex_labels[best]  # anchor under yesterday's gains
        interference = sum(row[l] for l in range(6)
                           if part_now.vertex_labels[l] != subnet)
        expected += np.log2(1.0 + r * row[best] / (r * interference + 1.0))
    got = temporal_smoothness(gains_prev, part_now, RadioParams(pt_over_sigma2=r))
    assert got == pytest.approx(expected, rel=1e-12)


# -------------------------------------------------------------- handovers

def test_handover_identical_partitions():
    part = make_partition([0, 1, 0], [0, 1], 2)
    assert handover_count(part, part) == 0


def test_handover_user_moves_to_bigger_subnetwork():
    # user 0 served by {b0}, then by {b1, b2}: two new connections
    prev = make_partition([0, 1, 1], anchor=[0], M=2)
    cur = make_partition([0, 1, 1], anchor=[1], M=2)
    assert handover_count(prev, cur) == 2


def test_handover_swap_between_singleton_subnetworks():
    prev = make_partition([0, 1], anchor=[0, 1], M=2)
    cur = make_partition([0, 1], anchor=[1, 0], M=2)
    assert handover_count(prev, cur) == 2


def test_handover_asymmetric_counts_only_new_connections():
    prev = make_partition([0, 0, 1], anchor=[0], M=2)   # user with {b0, b1}
    cur = make_partition([0, 1, 1], anchor=[0], M=2)    # user with {b0}
    assert handover_count(prev, cur) == 0   # lost b1, gained nothing
    assert handover_count(cur, prev) == 1


def test_handover_bounded_by_full_connection_matrix():
    rng = np.random.default_rng(4)
    for _ in range(30):
        L = int(rng.integers(2, 8))
        K = int(rng.integers(1, 10))
        m = int(rng.integers(1, L + 1))
        def random_partition():
            while True:
                labels = rng.integers(0, m, size=L)
                if len(set(labels.tolist())) == m:
                    return make_partition(labels, rng.integers(0, L, size=K), m)
        a, b = random_partition(), random_partition()
        count = handover_count(a, b)
        assert 0 <= count <= K * L
        assert handover_count(a, a) == 0


# ------------------------------------------------------------------- zfbf

def zf_one(h, part, params):
    """The batch of one: `part` scored on the single channel `h`."""
    return zfbf_evaluation(np.asarray(h)[None], [0], [part], params)


def zf_reference(h, partition, params):
    """Per-subnetwork ZF of one row, the loop the batch replaced.

    Returns the per-user rates, the overloaded and rank-deficient counts and
    the max crosstalk.
    """
    num_users = h.shape[0]
    labels, assignment = partition.vertex_labels, partition.user_assignment
    pt = params.pt_over_sigma2
    overloaded = rank_deficient = 0
    max_crosstalk = 0.0
    transmitters = []
    for m in range(partition.M):
        bs = np.flatnonzero(labels == m)
        users = np.flatnonzero(assignment == m)
        if users.size == 0:
            continue
        if users.size > bs.size:
            overloaded += 1
            continue
        local = h[np.ix_(users, bs)]
        if np.linalg.matrix_rank(local) < users.size:
            rank_deficient += 1
            continue
        precoder = np.linalg.pinv(local)
        beam_power = (np.abs(precoder) ** 2).sum(axis=0)
        precoder = precoder * np.sqrt(bs.size * pt / (users.size * beam_power))[None, :]
        transmitters.append((bs, users, precoder))
    signal = np.zeros(num_users)
    interference = np.zeros(num_users)
    for bs, users, precoder in transmitters:
        received = h[:, bs] @ precoder
        own = received[users]
        intended = np.abs(np.diagonal(own))
        crosstalk = np.abs(own - np.diag(np.diagonal(own)))
        if users.size > 1:
            max_crosstalk = max(max_crosstalk, float((crosstalk / intended[:, None]).max()))
        signal[users] = intended ** 2
        others = np.ones(num_users, dtype=bool)
        others[users] = False
        interference[others] += (np.abs(received[others]) ** 2).sum(axis=1)
    rates = np.log2(1.0 + signal / (interference + 1.0))
    return rates, overloaded, rank_deficient, max_crosstalk


def test_overloaded_subnetwork_gets_zero_rate():
    rng = np.random.default_rng(5)
    h = (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))) / np.sqrt(2)
    # two users anchored at b0 which forms a singleton subnetwork
    part = make_partition([0, 1], anchor=[0, 0, 1], M=2)
    result = zf_one(h, part, RadioParams())
    assert result.per_user_rates[0, 0] == 0.0
    assert result.per_user_rates[0, 1] == 0.0
    assert result.overloaded.tolist() == [1]
    assert result.per_user_rates[0, 2] > 0.0


def test_single_link_matches_scalar_formula():
    h = np.array([[0.6 + 0.8j]])
    part = make_partition([0], anchor=[0], M=1)
    r = 2.5
    result = zf_one(h, part, RadioParams(pt_over_sigma2=r))
    expected = np.log2(1.0 + r * np.abs(h[0, 0]) ** 2)
    assert result.per_user_rates[0, 0] == pytest.approx(expected)


def test_zero_forcing_kills_intra_subnetwork_crosstalk():
    rng = np.random.default_rng(6)
    h = (rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))) / np.sqrt(2)
    part = make_partition([0, 0, 0, 0], anchor=[0, 1], M=1)
    result = zf_one(h, part, RadioParams())
    assert result.max_crosstalk[0] <= 1e-9
    assert np.all(result.per_user_rates > 0.0)


def test_zfbf_interference_only_from_other_subnetworks():
    rng = np.random.default_rng(7)
    h = (rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))) / np.sqrt(2)
    both = make_partition([0, 0, 1, 1], anchor=[0, 2], M=2)
    alone = make_partition([0, 0], anchor=[0], M=1)
    sub = zf_one(h, both, RadioParams())
    solo = zf_one(h[:1, :2], alone, RadioParams())
    # user 0 in the two-subnetwork layout sees interference, so its rate drops
    assert sub.per_user_rates[0, 0] < solo.per_user_rates[0, 0] + 1e-12


def test_rank_deficient_subnetwork_flagged_and_silent():
    row = np.array([0.3 + 0.1j, 0.2 - 0.4j])
    h = np.vstack([row, row])        # identical user channels: rank 1
    part = make_partition([0, 0], anchor=[0, 1], M=1)
    result = zf_one(h, part, RadioParams())
    assert result.rank_deficient.tolist() == [1]
    assert np.all(result.per_user_rates == 0.0)


def test_zfbf_total_power_budget_respected():
    rng = np.random.default_rng(9)
    h = (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))) / np.sqrt(2)
    part = make_partition([0] * 5, anchor=[0, 1, 2], M=1)
    pt = 1.7
    # recompute the scaled precoder exactly as the implementation defines it
    pre = np.linalg.pinv(h)
    power = (np.abs(pre) ** 2).sum(axis=0)
    pre = pre * np.sqrt(5 * pt / (3 * power))[None, :]
    assert (np.abs(pre) ** 2).sum() == pytest.approx(5 * pt)
    result = zf_one(h, part, RadioParams(pt_over_sigma2=pt))
    expected = np.log2(1.0 + (np.abs((h @ pre).diagonal()) ** 2))
    assert np.allclose(result.per_user_rates[0], expected)


def test_all_overloaded_network_sums_to_zero():
    rng = np.random.default_rng(10)
    h = (rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))) / np.sqrt(2)
    part = make_partition([0, 1], anchor=[0, 0, 1, 1], M=2)
    result = zf_one(h, part, RadioParams())
    assert result.sum_rate.tolist() == [0.0]
    assert result.overloaded.tolist() == [2]   # both subnetworks


def _random_row(rng, num_users, num_bs):
    """A partition of one of the shapes the batch must get right."""
    shape = rng.integers(5)
    if shape == 0:                       # M = L: every subnetwork one BS
        groups = num_bs
    elif shape == 1:                     # every user in one group
        groups = 1
    else:
        groups = int(rng.integers(1, num_bs + 1))
    labels = rng.integers(0, groups, size=num_bs)
    labels[rng.permutation(num_bs)[:groups]] = np.arange(groups)
    anchor = rng.integers(0, num_bs, size=num_users)
    if shape == 4:                       # users crowd a few subnetworks
        anchor = rng.choice(np.flatnonzero(labels < max(1, groups // 3)), size=num_users)
    return make_partition(labels, anchor, groups)


def test_zf_batch_matches_per_subnetwork_reference():
    """Bitwise: a batch row gets the rates, counts and crosstalk of the loop.

    The batches mix rows from different steps, 1-3 users per subnetwork,
    overloaded and rank-deficient groups (duplicated user channels), M = L,
    K < M, and every user in one group.
    """
    rng = np.random.default_rng(2024)
    kinds = {"overloaded": 0, "rank_deficient": 0, "k=1": 0, "k=2": 0, "k=3": 0,
             "K<M": 0, "M=L": 0, "one group": 0, "M>=8": 0}
    for _ in range(150):
        steps = int(rng.integers(1, 4))
        num_users = int(rng.integers(1, 13))
        num_bs = int(rng.integers(1, 15))
        # interference far above the noise, so its last bits reach the rates
        params = RadioParams(pt_over_sigma2=10.0 ** rng.uniform(0.0, 3.0))
        scale = 10.0 ** rng.uniform(-1.0, 1.0, size=(steps, num_users, num_bs))
        h = scale * (rng.standard_normal((steps, num_users, num_bs))
                     + 1j * rng.standard_normal((steps, num_users, num_bs)))
        for t in range(steps):           # duplicated user rows: singular groups
            if num_users > 1 and rng.random() < 0.5:
                a, b = rng.choice(num_users, size=2, replace=False)
                h[t, b] = h[t, a]
        rows = int(rng.integers(1, 7))
        row_steps = rng.integers(0, steps, size=rows)
        parts = [_random_row(rng, num_users, num_bs) for _ in range(rows)]
        batch = zfbf_evaluation(h, row_steps, parts, params)
        assert batch.per_user_rates.shape == (rows, num_users)
        for i, (t, part) in enumerate(zip(row_steps, parts)):
            rates, overloaded, rank_deficient, crosstalk = zf_reference(h[t], part, params)
            assert batch.per_user_rates[i].tobytes() == rates.tobytes()
            assert batch.overloaded[i] == overloaded
            assert batch.rank_deficient[i] == rank_deficient
            assert batch.max_crosstalk[i] == crosstalk
            users = np.bincount(part.user_assignment, minlength=part.M)
            kinds["overloaded"] += overloaded
            kinds["rank_deficient"] += rank_deficient
            for k in (1, 2, 3):
                kinds[f"k={k}"] += int((users == k).sum())
            kinds["K<M"] += num_users < part.M
            kinds["M=L"] += part.M == num_bs > 1
            kinds["one group"] += (users == num_users).any() and num_users > 1
            kinds["M>=8"] += part.M >= 8
    assert min(kinds.values()) >= 10, kinds


# ------------------------------------------------------------ record_step

def test_record_step_without_history():
    lay = generate_layout(6, 5, seed=12)
    gains = channel_gains(lay, RadioParams())
    part = initial_partition(build_graph(gains), SpectralConfig(alpha=1.0, M=2, seed=0))
    rec = record_step(0, gains, part, RadioParams())
    assert isinstance(rec, MetricsRecord)
    assert np.isnan(rec.temporal_smoothness)
    assert np.isnan(rec.handovers)
    assert np.isnan(rec.zfbf_sum_rate)
    assert rec.sum_rate == sum_rate(gains, part, RadioParams())


def test_record_step_with_history_fills_all_kpis():
    lay = generate_layout(6, 5, seed=13)
    params = RadioParams()
    gains = channel_gains(lay, params)
    graph = build_graph(gains)
    part = initial_partition(graph, SpectralConfig(alpha=1.0, M=2, seed=0))
    h = complex_channel(lay, params, seed=14)
    rec = record_step(3, gains, part, params, gains_prev=gains, partition_prev=part)
    assert rec.handovers == 0
    assert rec.temporal_smoothness == pytest.approx(rec.sum_rate)
    assert np.isnan(rec.zfbf_sum_rate)   # the harness scores ZF in batches
    zf = zf_one(h, part, params).sum_rate
    assert zf.shape == (1,) and zf[0] >= 0.0


# ----------------------------------------------------------------- trends

@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 8), L=st.integers(1, 8), data=st.data(), seed=st.integers(0, 999))
def test_coincident_positions_at_distance_clamp_give_finite_kpis(K, L, data, seed):
    """Duplicated BS positions, and users on a BS or within D_MIN of one.

    Distances below D_MIN clamp, so gains tie exactly.  The graphs, both
    partition functions at alphas 0, 0.5 and 1, and every KPI, zero-forcing
    too, stay finite, and no warning is raised.
    """
    coord = st.floats(0.0, AREA_SIDE)
    sites = np.array(data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=3),
                               label="sites"))
    bs = sites[data.draw(st.lists(st.integers(0, len(sites) - 1), min_size=L, max_size=L),
                         label="bs_sites")]
    near = st.floats(-D_MIN / 2, D_MIN / 2)
    layouts = []
    for step in ("prev", "now"):
        picks = data.draw(st.lists(st.tuples(st.integers(0, L - 1), near, near),
                                   min_size=K, max_size=K), label=f"users_{step}")
        users = np.clip([bs[b] + (dx, dy) for b, dx, dy in picks], 0.0, AREA_SIDE)
        layouts.append(Layout(bs_positions=bs, user_positions=users))
    M = data.draw(st.integers(1, L), label="M")
    params = RadioParams()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gains = [channel_gains(lay, params) for lay in layouts]
        g0, g1 = (build_graph(g) for g in gains)
        first = initial_partition(g0, SpectralConfig(alpha=1.0, M=M, seed=seed))
        zf_channel = complex_channel(layouts[1], params, seed)
        for alpha in (0.0, 0.5, 1.0):
            cfg = SpectralConfig(alpha=alpha, M=M, seed=seed)
            for part in (initial_partition(g1, cfg), temporal_smoothed_partition(g0, g1, cfg)):
                rec = record_step(1, gains[1], part, params, gains[0], first)
                assert np.isfinite(rec[:-1]).all()
                assert np.isfinite(zf_one(zf_channel, part, params).sum_rate).all()


def test_monotone_link_between_smoothness_and_handovers(two_step_batch):
    ok, detail = trend_holds(two_step_batch["smoothness"], direction=+1)
    assert ok, f"smoothness trend violated: {detail}"
    ok, detail = trend_holds(two_step_batch["handovers"], direction=-1)
    assert ok, f"handover trend violated: {detail}"
