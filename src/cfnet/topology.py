"""Network layouts and discrete-time user mobility in a square service area."""

from dataclasses import dataclass

import numpy as np

# Redraw attempts before giving up on finding an in-area destination. From any
# point of the unit square at least a quarter of the direction circle stays
# inside, so hitting this cap means something is broken upstream.
_MAX_REDRAW_ROUNDS = 10_000

AREA_SIDE = 1.0  # side of the square service area


@dataclass
class Layout:
    """Positions of the fixed base stations and the mobile users."""

    bs_positions: np.ndarray    # (L, 2), never changes within a trial
    user_positions: np.ndarray  # (K, 2), updated every mobility step

    def validate(self) -> None:
        for name, pts in (("bs_positions", self.bs_positions),
                          ("user_positions", self.user_positions)):
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
                raise ValueError(f"{name} must be a nonempty (n, 2) array")
            if np.any(pts < 0.0) or np.any(pts > AREA_SIDE):
                raise ValueError(f"{name} has coordinates outside the service area")


@dataclass
class MobilityParams:
    max_transition: float = 0.5  # longest single-step move
    min_transition: float = 0.0
    pause_prob: float = 0.0      # chance a user sits out a step entirely

    def validate(self) -> None:
        if not 0.0 <= self.min_transition <= self.max_transition <= AREA_SIDE:
            raise ValueError(f"need 0 <= min_transition <= max_transition <= {AREA_SIDE}")
        if not 0.0 <= self.pause_prob <= 1.0:
            raise ValueError("pause_prob must lie in [0, 1]")


def generate_layout(num_users: int, num_bs: int, seed) -> Layout:
    """Draw a fresh layout, all positions i.i.d. uniform over the unit square.

    The draw order (base stations first, then users) is fixed so that a given
    seed always reproduces the same layout.
    """
    if num_users < 1 or num_bs < 1:
        raise ValueError("need at least one user and one base station")
    rng = np.random.default_rng(seed)
    bs = rng.uniform(0.0, AREA_SIDE, size=(num_bs, 2))
    users = rng.uniform(0.0, AREA_SIDE, size=(num_users, 2))
    return Layout(bs_positions=bs, user_positions=users)


def displace(positions: np.ndarray, lengths: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Move each point by its polar step (length, direction)."""
    step = np.stack([lengths * np.cos(thetas), lengths * np.sin(thetas)], axis=-1)
    return positions + step


def step_waypoint(layout: Layout, params: MobilityParams, seed) -> Layout:
    """Advance every user by one waypoint transition; base stations stay put.

    Each user draws a transition length uniform in [min_transition,
    max_transition] and a direction uniform in [0, 2*pi).  A draw whose
    destination falls outside the service area is rejected and redrawn (both
    length and direction), which preserves the uniform draw distributions
    conditioned on staying inside.
    """
    layout.validate()
    params.validate()
    rng = np.random.default_rng(seed)
    pos = layout.user_positions
    new_pos = pos.copy()

    if params.pause_prob > 0.0:
        moving = rng.random(len(pos)) >= params.pause_prob
        pending = np.flatnonzero(moving)
    else:
        pending = np.arange(len(pos))

    for _ in range(_MAX_REDRAW_ROUNDS):
        if pending.size == 0:
            break
        lengths = rng.uniform(params.min_transition, params.max_transition, size=pending.size)
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=pending.size)
        dest = displace(pos[pending], lengths, thetas)
        inside = np.all((dest >= 0.0) & (dest <= AREA_SIDE), axis=1)
        new_pos[pending[inside]] = dest[inside]
        pending = pending[~inside]
    if pending.size:
        raise RuntimeError("waypoint redraw could not find an in-area destination")

    return Layout(bs_positions=layout.bs_positions, user_positions=new_pos)

