"""Path-loss channel gains and the interference-limited rate model.

Large-scale (no-fading) gains drive every networking decision; the complex
fading channel exists only for the downlink beamforming evaluation.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .clustering import Partition
    from .topology import Layout

D_MIN = 0.01  # distance clamp keeping gains finite


@dataclass
class RadioParams:
    beta: float = 4.0            # path-loss exponent
    pt_over_sigma2: float = 1.0  # per-BS transmit power over noise power, linear

    def validate(self) -> None:
        if self.beta <= 0 or not 0 < self.pt_over_sigma2 < np.inf:
            raise ValueError("need beta > 0 and a finite pt_over_sigma2 > 0")
        # the largest gain term, a user at the clamp distance of a BS
        with np.errstate(over="ignore"):
            top = self.pt_over_sigma2 * np.float64(D_MIN) ** -self.beta
        if not np.isfinite(top):
            raise ValueError(f"beta = {self.beta} overflows the largest gain "
                             f"pt_over_sigma2 * D_MIN**-beta at pt_over_sigma2 = "
                             f"{self.pt_over_sigma2}")


def distances(layout: "Layout") -> np.ndarray:
    """Euclidean user-to-BS distance matrix, shape (K, L)."""
    diff = layout.user_positions[:, None, :] - layout.bs_positions[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def complex_channel(layout: "Layout", params: RadioParams, seed) -> np.ndarray:
    """Draw the faded complex channel d**(-beta/2) * g with g ~ CN(0, 1).

    Real parts are drawn before imaginary parts so a seed pins the matrix.
    """
    params.validate()
    d = np.maximum(distances(layout), D_MIN)
    rng = np.random.default_rng(seed)
    shape = d.shape
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return d ** (-params.beta / 2.0) * g


def channel_gains(layout: "Layout", params: RadioParams) -> np.ndarray:
    """Large-scale gains max(d, D_MIN)**(-beta), shape (K, L): one row per
    user, one column per BS."""
    params.validate()
    d = np.maximum(distances(layout), D_MIN)
    return d ** (-params.beta)


def per_user_sinr(gains: np.ndarray, partition: "Partition", params: RadioParams) -> np.ndarray:
    """Interference-limited SINR of every user under a partition.

    The numerator takes each user's strongest BS in the supplied gains; the
    interference sums the gains of every BS outside the user's subnetwork.
    Only the ratio pt_over_sigma2 enters:
    sinr = r * g_best / (r * sum_outside + 1).
    """
    num_users, num_bs = gains.shape
    labels = partition.vertex_labels
    assignment = partition.user_assignment
    if labels.shape[0] != num_bs or assignment.shape[0] != num_users:
        raise ValueError("partition does not match the gains dimensions")
    strongest = gains[np.arange(num_users), np.argmax(gains, axis=1)]
    outside = labels[None, :] != assignment[:, None]
    interference = np.where(outside, gains, 0.0).sum(axis=1)
    r = params.pt_over_sigma2
    return r * strongest / (r * interference + 1.0)


def user_rate(sinr):
    """Achievable rate log2(1 + sinr) in bits/s/Hz (scalar or array)."""
    return np.log2(1.0 + sinr)


def sum_rate(gains: np.ndarray, partition: "Partition", params: RadioParams) -> float:
    """Network sum rate under a partition, for the gains passed in.

    Passing the previous step's gains together with the current partition
    yields the temporal-smoothness score.
    """
    return float(user_rate(per_user_sinr(gains, partition, params)).sum())

