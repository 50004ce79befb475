import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnet.topology import (Layout, MobilityParams, displace, generate_layout,
                            step_waypoint)


def test_minimal_layout_in_unit_square():
    lay = generate_layout(1, 1, seed=7)
    assert lay.user_positions.shape == (1, 2)
    assert lay.bs_positions.shape == (1, 2)
    assert np.all(lay.user_positions >= 0) and np.all(lay.user_positions <= 1)
    assert np.all(lay.bs_positions >= 0) and np.all(lay.bs_positions <= 1)


def test_layout_shapes_match_counts():
    lay = generate_layout(30, 50, seed=3)
    assert lay.user_positions.shape == (30, 2) and lay.bs_positions.shape == (50, 2)
    assert np.all((lay.user_positions >= 0) & (lay.user_positions <= 1))
    assert np.all((lay.bs_positions >= 0) & (lay.bs_positions <= 1))


def test_layout_deterministic_given_seed():
    a = generate_layout(10, 30, seed=123)
    b = generate_layout(10, 30, seed=123)
    assert np.array_equal(a.user_positions, b.user_positions)
    assert np.array_equal(a.bs_positions, b.bs_positions)


def test_layout_rejects_zero_counts():
    with pytest.raises(ValueError):
        generate_layout(0, 5, seed=1)
    with pytest.raises(ValueError):
        generate_layout(5, 0, seed=1)


def test_zero_transition_keeps_positions():
    lay = generate_layout(8, 4, seed=5)
    out = step_waypoint(lay, MobilityParams(max_transition=0.0), seed=9)
    assert np.array_equal(out.user_positions, lay.user_positions)


def test_displace_geometry():
    moved = displace(np.array([[0.5, 0.5]]), np.array([0.3]), np.array([0.0]))
    assert np.allclose(moved, [[0.8, 0.5]])
    moved = displace(np.array([[0.5, 0.5]]), np.array([0.3]), np.array([np.pi / 2]))
    assert np.allclose(moved, [[0.5, 0.8]])


def test_corner_user_stays_inside():
    # user jammed in a corner: every accepted redraw must stay in the square
    bs = np.array([[0.5, 0.5]])
    for seed in range(200):
        lay = Layout(bs_positions=bs, user_positions=np.array([[0.99, 0.99]]))
        out = step_waypoint(lay, MobilityParams(), seed=seed)
        assert np.all(out.user_positions >= 0.0)
        assert np.all(out.user_positions <= 1.0)


def test_containment_many_seeded_steps():
    # 10^4 user-steps across seeds; all destinations stay in the square
    lay = generate_layout(100, 3, seed=0)
    for seed in range(100):
        lay = step_waypoint(lay, MobilityParams(), seed=seed)
        assert np.all((lay.user_positions >= 0) & (lay.user_positions <= 1))


def test_displacement_never_exceeds_max_transition():
    lay = generate_layout(50, 3, seed=11)
    for seed in range(50):
        out = step_waypoint(lay, MobilityParams(max_transition=0.5), seed=seed)
        step = np.linalg.norm(out.user_positions - lay.user_positions, axis=1)
        assert np.all(step <= 0.5 + 1e-12)
        lay = out


def test_forced_length_draw_moves_exactly_that_far():
    lay = generate_layout(20, 2, seed=2)
    # clamp the draw interval to a point: every accepted move has length 0.2
    out = step_waypoint(lay, MobilityParams(max_transition=0.2, min_transition=0.2), seed=4)
    step = np.linalg.norm(out.user_positions - lay.user_positions, axis=1)
    assert np.allclose(step, 0.2)


def test_bs_positions_bitwise_stable_across_steps():
    lay = generate_layout(10, 6, seed=1)
    bs0 = lay.bs_positions.copy()
    for seed in range(20):
        lay = step_waypoint(lay, MobilityParams(), seed=seed)
    assert np.array_equal(lay.bs_positions, bs0)


def test_trajectory_deterministic_given_seed():
    def walk(seed):
        lay = generate_layout(12, 5, seed=77)
        for s in range(5):
            lay = step_waypoint(lay, MobilityParams(), seed=(seed, s))
        return lay.user_positions

    assert np.array_equal(walk(3), walk(3))


def test_pause_prob_freezes_all_users_at_one():
    lay = generate_layout(15, 4, seed=6)
    out = step_waypoint(lay, MobilityParams(pause_prob=1.0), seed=8)
    assert np.array_equal(out.user_positions, lay.user_positions)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lo=st.floats(0.0, 0.3), span=st.floats(0.0, 0.2))
def test_waypoint_bounds_property(seed, lo, span):
    lay = generate_layout(5, 2, seed=1)
    params = MobilityParams(min_transition=lo, max_transition=lo + span)
    out = step_waypoint(lay, params, seed=seed)
    step = np.linalg.norm(out.user_positions - lay.user_positions, axis=1)
    assert np.all(step <= lo + span + 1e-12)
    assert np.all((out.user_positions >= 0) & (out.user_positions <= 1))


def test_invalid_mobility_params_rejected():
    lay = generate_layout(3, 3, seed=0)
    with pytest.raises(ValueError):
        step_waypoint(lay, MobilityParams(max_transition=0.1, min_transition=0.2), seed=0)
    with pytest.raises(ValueError):
        step_waypoint(lay, MobilityParams(max_transition=1.5), seed=0)
