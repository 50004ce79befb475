import numpy as np
import pytest

from cfnet.channel import (D_MIN, RadioParams, channel_gains, complex_channel,
                           per_user_sinr, sum_rate, user_rate)
from cfnet.graph import build_graph
from cfnet.topology import Layout, generate_layout

from conftest import make_partition


def test_colocated_pair_clamps_to_d_min():
    lay = Layout(bs_positions=np.array([[0.3, 0.3]]),
                 user_positions=np.array([[0.3, 0.3]]))
    g = channel_gains(lay, RadioParams(beta=4.0))
    assert g[0, 0] == pytest.approx(D_MIN ** -4)
    assert np.isfinite(g).all()


def test_direct_path_loss_value():
    lay = Layout(bs_positions=np.array([[0.0, 0.0]]),
                 user_positions=np.array([[0.5, 0.0]]))
    g = channel_gains(lay, RadioParams(beta=4.0))
    assert g[0, 0] == pytest.approx(16.0)


def test_fading_is_unit_mean():
    # Monte Carlo check that the fading factor has unit mean power
    lay = generate_layout(200, 500, seed=4)   # 1e5 user-BS pairs
    params = RadioParams()
    h = complex_channel(lay, params, seed=42)
    ratio = np.abs(h) ** 2 / channel_gains(lay, params)
    assert abs(ratio.mean() - 1.0) < 0.02


# the strongest BS of each user is its anchor vertex in the interference graph

def test_best_bs_tie_breaks_low_index():
    g = np.array([[1.0, 5.0, 5.0]])
    assert build_graph(g).anchor[0] == 1


def test_best_bs_plain_argmax():
    g = np.array([[3.0, 1.0, 2.0]])
    assert build_graph(g).anchor[0] == 0


def test_best_bs_matches_scan_oracle():
    rng = np.random.default_rng(0)
    g = rng.uniform(0.1, 10.0, size=(30, 50))
    anchor = build_graph(g).anchor
    for k in range(30):
        expected, val = 0, -np.inf
        for l in range(50):
            if g[k, l] > val:
                expected, val = l, g[k, l]
        assert anchor[k] == expected


def test_sinr_no_interference_with_single_subnetwork():
    rng = np.random.default_rng(3)
    g = rng.uniform(0.5, 4.0, size=(5, 6))
    anchor = np.argmax(g, axis=1)
    part = make_partition(np.zeros(6, int), anchor, 1)
    params = RadioParams(pt_over_sigma2=2.0)
    sinr = per_user_sinr(g, part, params)
    for k in range(5):
        expected = 2.0 * g[k].max()
        assert sinr[k] == pytest.approx(expected)


def test_sinr_hand_value():
    g = np.array([[4.0, 1.0]])
    part = make_partition([0, 1], anchor=[0], M=2)
    got = per_user_sinr(g, part, RadioParams(pt_over_sigma2=1.0))[0]
    assert got == pytest.approx(4.0 / (1.0 + 1.0))


def test_sinr_increases_with_power_ratio():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = rng.uniform(0.1, 5.0, size=(4, 6))
        anchor = np.argmax(g, axis=1)
        labels = rng.integers(0, 2, size=6)
        labels[:2] = [0, 1]
        part = make_partition(labels, anchor, 2)
        lo = per_user_sinr(g, part, RadioParams(pt_over_sigma2=1.0))
        hi = per_user_sinr(g, part, RadioParams(pt_over_sigma2=2.0))
        assert np.all(hi > lo)


def test_user_rate_values():
    assert user_rate(0.0) == 0.0
    assert user_rate(1.0) == pytest.approx(1.0)
    assert user_rate(3.0) == pytest.approx(2.0)


def test_sum_rate_single_user_equals_user_rate():
    g = np.array([[2.0, 0.5]])
    part = make_partition([0, 1], anchor=[0], M=2)
    params = RadioParams()
    assert sum_rate(g, part, params) == pytest.approx(
        user_rate(per_user_sinr(g, part, params)[0]))


def test_sum_rate_mirror_symmetry():
    # two users mirrored across the diagonal see identical gain rows
    bs = np.array([[0.2, 0.2], [0.8, 0.8]])
    users = np.array([[0.3, 0.2], [0.2, 0.3]])
    lay = Layout(bs_positions=bs, user_positions=users)
    g = channel_gains(lay, RadioParams())
    part = make_partition([0, 1], anchor=np.argmax(g, axis=1), M=2)
    rates = user_rate(per_user_sinr(g, part, RadioParams()))
    assert rates[0] == pytest.approx(rates[1])
    assert sum_rate(g, part, RadioParams()) == pytest.approx(2 * rates[0])


def test_sum_rate_matches_scalar_oracle():
    # independent straight-line recomputation of the whole rate chain
    rng = np.random.default_rng(17)
    g = rng.uniform(0.05, 8.0, size=(4, 6))
    labels = np.array([0, 1, 0, 1, 0, 1])
    anchor = np.argmax(g, axis=1)
    part = make_partition(labels, anchor, 2)
    r = 1.7
    params = RadioParams(pt_over_sigma2=r)

    expected = 0.0
    for k in range(4):
        best = max(range(6), key=lambda l: g[k, l])
        subnet = labels[anchor[k]]
        interference = sum(g[k, l] for l in range(6) if labels[l] != subnet)
        sinr = r * g[k, best] / (r * interference + 1.0)
        expected += np.log2(1.0 + sinr)
    assert sum_rate(g, part, params) == pytest.approx(expected, rel=1e-12)


def test_sum_rate_invariant_under_label_permutation():
    rng = np.random.default_rng(23)
    g = rng.uniform(0.1, 3.0, size=(6, 5))
    anchor = np.argmax(g, axis=1)
    labels = np.array([0, 1, 2, 1, 0])
    perm = np.array([2, 0, 1])
    p1 = make_partition(labels, anchor, 3)
    p2 = make_partition(perm[labels], anchor, 3)
    params = RadioParams()
    assert sum_rate(g, p1, params) == pytest.approx(sum_rate(g, p2, params))


def test_moving_interferer_into_subnetwork_never_hurts():
    rng = np.random.default_rng(31)
    for trial in range(20):
        g = rng.uniform(0.1, 5.0, size=(5, 7))
        anchor = np.argmax(g, axis=1)
        labels = rng.integers(0, 2, size=7)
        labels[:2] = [0, 1]
        part = make_partition(labels, anchor, 2)
        base = per_user_sinr(g, part, RadioParams())
        outsiders = [l for l in range(7) if labels[l] == 1]
        if len(outsiders) < 2:
            continue
        moved = labels.copy()
        moved[outsiders[0]] = 0
        part2 = make_partition(moved, anchor, 2)
        after = per_user_sinr(g, part2, RadioParams())
        members = np.flatnonzero(part.user_assignment == 0)
        inside_still = part2.user_assignment[members] == 0
        assert np.all(after[members][inside_still] >= base[members][inside_still] - 1e-12)


def test_single_subnetwork_maximizes_sum_rate_over_all_partitions():
    # with no interference term left, one big subnetwork beats every split
    from cfnet.oracle import enumerate_partitions
    rng = np.random.default_rng(5)
    g = rng.uniform(0.05, 6.0, size=(5, 6))
    anchor = np.argmax(g, axis=1)
    params = RadioParams()
    whole = sum_rate(g, make_partition(np.zeros(6, int), anchor, 1), params)
    for m in range(1, 7):
        for labels in enumerate_partitions(6, m):
            val = sum_rate(g, make_partition(labels, anchor, m), params)
            assert val <= whole + 1e-9


def test_partition_dim_mismatch_rejected():
    g = np.ones((2, 3))
    part = make_partition([0, 1], anchor=[0, 1], M=2)  # 2 vertices, gains have 3
    with pytest.raises(ValueError):
        per_user_sinr(g, part, RadioParams())
