"""Path-loss channel gains and the interference-limited rate model.

Large-scale (no-fading) gains drive every networking decision; the complex
fading channel exists only for the downlink beamforming evaluation.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .clustering import Partition
    from .topology import Layout


@dataclass
class RadioParams:
    beta: float = 4.0            # path-loss exponent
    pt_over_sigma2: float = 1.0  # per-BS transmit power over noise power, linear
    d_min: float = 0.01          # distance clamp keeping gains finite

    def validate(self) -> None:
        if self.beta <= 0 or self.pt_over_sigma2 <= 0 or self.d_min <= 0:
            raise ValueError("beta, pt_over_sigma2 and d_min must be positive")


@dataclass
class ChannelGains:
    """Squared channel magnitudes, one row per user and one column per BS."""

    gains: np.ndarray
    includes_fading: bool = False

    @property
    def num_bs(self) -> int:
        return self.gains.shape[1]


def distances(layout: "Layout") -> np.ndarray:
    """Euclidean user-to-BS distance matrix, shape (K, L)."""
    diff = layout.user_positions[:, None, :] - layout.bs_positions[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def complex_channel(layout: "Layout", params: RadioParams, seed) -> np.ndarray:
    """Draw the faded complex channel d**(-beta/2) * g with g ~ CN(0, 1).

    Real parts are drawn before imaginary parts so a seed pins the matrix.
    """
    params.validate()
    d = np.maximum(distances(layout), params.d_min)
    rng = np.random.default_rng(seed)
    shape = d.shape
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return d ** (-params.beta / 2.0) * g


def channel_gains(layout: "Layout", params: RadioParams, fading_seed=None) -> ChannelGains:
    """Squared channel gains for a layout.

    Without `fading_seed` the gains are pure clamped path loss,
    max(d, d_min)**(-beta).  With it, each entry is additionally scaled by the
    squared magnitude of a unit-variance complex Gaussian fading coefficient.
    """
    params.validate()
    if fading_seed is None:
        d = np.maximum(distances(layout), params.d_min)
        return ChannelGains(gains=d ** (-params.beta), includes_fading=False)
    h = complex_channel(layout, params, fading_seed)
    return ChannelGains(gains=np.abs(h) ** 2, includes_fading=True)


def per_user_sinr(gains: ChannelGains, partition: "Partition", params: RadioParams) -> np.ndarray:
    """Interference-limited SINR of every user under a partition.

    The numerator takes each user's strongest BS in the supplied gains; the
    interference sums the gains of every BS outside the user's subnetwork.
    Only the ratio pt_over_sigma2 enters:
    sinr = r * g_best / (r * sum_outside + 1).
    """
    g = gains.gains
    num_users, num_bs = g.shape
    labels = partition.vertex_labels
    assignment = partition.user_assignment
    if labels.shape[0] != num_bs or assignment.shape[0] != num_users:
        raise ValueError("partition does not match the gains dimensions")
    strongest = g[np.arange(num_users), np.argmax(g, axis=1)]
    outside = labels[None, :] != assignment[:, None]
    interference = np.where(outside, g, 0.0).sum(axis=1)
    r = params.pt_over_sigma2
    return r * strongest / (r * interference + 1.0)


def user_rate(sinr):
    """Achievable rate log2(1 + sinr) in bits/s/Hz (scalar or array)."""
    return np.log2(1.0 + sinr)


def per_user_rates(gains: ChannelGains, partition: "Partition", params: RadioParams) -> np.ndarray:
    return user_rate(per_user_sinr(gains, partition, params))


def sum_rate(gains: ChannelGains, partition: "Partition", params: RadioParams) -> float:
    """Network sum rate under a partition, for the gains passed in.

    Passing the previous step's gains together with the current partition
    yields the temporal-smoothness score.
    """
    return float(per_user_rates(gains, partition, params).sum())

