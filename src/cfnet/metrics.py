"""Per-step KPIs: temporal smoothness, handover counting, ZF downlink rates.

`record_step` scores one step; `MetricsRecord.row` gives its KPIs in
KPI_NAMES order with NaN where undefined, which is one row of a trial's
(time_steps, n_alpha, 4) KPI array in the harness and the column order of
metrics.csv.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import ChannelGains, RadioParams, sum_rate
from .clustering import Partition

# intra-subnetwork leakage above this (relative to the intended signal)
# means the zero-forcing solve went numerically wrong
_ZF_CROSSTALK_TOL = 1e-9

KPI_NAMES = ("sum_rate", "temporal_smoothness", "handovers", "zfbf_sum_rate")


@dataclass
class MetricsRecord:
    """KPIs of one time step under one partition."""

    time_index: int
    sum_rate: float
    temporal_smoothness: Optional[float]  # undefined on the first step
    handovers: Optional[int]              # undefined on the first step
    zfbf_sum_rate: Optional[float]

    def row(self) -> list:
        """The KPIs in KPI_NAMES order, NaN where undefined."""
        return [np.nan if (v := getattr(self, k)) is None else v for k in KPI_NAMES]


def temporal_smoothness(gains_prev: ChannelGains, partition_t: Partition,
                        params: RadioParams) -> float:
    """Current BS grouping scored against the previous step's network state.

    The current vertex labels are applied to the previous step's user-to-BS
    anchoring (each user sits with the vertex that was strongest for it under
    `gains_prev`), and the resulting partition's sum rate is evaluated on
    `gains_prev`.  This matches the cut-based smoothness objective the
    partitioner optimizes, which scores today's labels on yesterday's graph.
    """
    if gains_prev.includes_fading:
        raise ValueError("temporal smoothness uses large-scale gains")
    if gains_prev.num_bs != partition_t.num_vertices:
        raise ValueError("partition does not match the gains dimensions")
    prev_anchor = np.argmax(gains_prev.gains, axis=1)
    prev_view = Partition.from_vertex_labels(partition_t.vertex_labels,
                                             partition_t.M, prev_anchor)
    return sum_rate(gains_prev, prev_view, params)


def handover_count(partition_prev: Partition, partition_t: Partition) -> int:
    """Number of (user, BS) connections present now but not before."""
    prev = partition_prev.connection_matrix()
    cur = partition_t.connection_matrix()
    if prev.shape != cur.shape:
        raise ValueError("partitions cover different network sizes")
    return int(np.count_nonzero(cur & ~prev))


@dataclass
class ZfbfResult:
    per_user_rates: np.ndarray
    overloaded: list = field(default_factory=list)       # more users than BSs
    rank_deficient: list = field(default_factory=list)   # solvable size, singular channel
    max_crosstalk: float = 0.0

    @property
    def sum_rate(self) -> float:
        return float(self.per_user_rates.sum())


def zfbf_evaluation(channel_complex: np.ndarray, partition: Partition,
                    params: RadioParams) -> ZfbfResult:
    """Zero-forcing downlink rates, one independent precoder per subnetwork.

    Each subnetwork with K_m users and L_m >= K_m BSs uses the right
    pseudo-inverse of its internal channel, scaled so the subnetwork radiates
    a total power of L_m * P_t split equally across its users.  Users in a
    subnetwork with K_m > L_m (or a rank-deficient channel, which is flagged)
    get zero rate and such subnetworks stay silent.  Interference at a user
    comes only from other subnetworks' transmissions.
    """
    h = np.asarray(channel_complex)
    num_users, num_bs = h.shape
    labels = partition.vertex_labels
    assignment = partition.user_assignment
    if labels.shape[0] != num_bs or assignment.shape[0] != num_users:
        raise ValueError("partition does not match the channel dimensions")
    pt = params.pt_over_sigma2  # noise power normalized to 1

    result = ZfbfResult(per_user_rates=np.zeros(num_users))
    transmitters = []
    for m in range(partition.M):
        bs = np.flatnonzero(labels == m)
        users = np.flatnonzero(assignment == m)
        if users.size == 0:
            continue
        if users.size > bs.size:
            result.overloaded.append(m)
            continue
        local = h[np.ix_(users, bs)]
        if np.linalg.matrix_rank(local) < users.size:
            result.rank_deficient.append(m)
            continue
        precoder = np.linalg.pinv(local)  # (L_m, K_m), local @ precoder == I
        beam_power = (np.abs(precoder) ** 2).sum(axis=0)
        precoder = precoder * np.sqrt(bs.size * pt / (users.size * beam_power))[None, :]
        transmitters.append((bs, users, precoder))

    signal = np.zeros(num_users)
    interference = np.zeros(num_users)
    for bs, users, precoder in transmitters:
        received = h[:, bs] @ precoder  # amplitude from each beam at every user
        own = received[users]
        intended = np.abs(np.diagonal(own))
        crosstalk = np.abs(own - np.diag(np.diagonal(own)))
        if users.size > 1:
            rel = float((crosstalk / intended[:, None]).max())
            result.max_crosstalk = max(result.max_crosstalk, rel)
            if rel > _ZF_CROSSTALK_TOL:
                raise ArithmeticError(
                    f"zero-forcing crosstalk {rel:.3e} exceeds {_ZF_CROSSTALK_TOL:.0e}")
        signal[users] = intended ** 2
        others = np.ones(num_users, dtype=bool)
        others[users] = False
        interference[others] += (np.abs(received[others]) ** 2).sum(axis=1)

    sinr = signal / (interference + 1.0)
    result.per_user_rates = np.log2(1.0 + sinr)
    return result


def record_step(time_index: int, gains_t: ChannelGains, partition_t: Partition,
                params: RadioParams, gains_prev: Optional[ChannelGains] = None,
                partition_prev: Optional[Partition] = None,
                zfbf_channel: Optional[np.ndarray] = None) -> MetricsRecord:
    """Bundle all KPIs of one step; history-based ones stay None without history."""
    smoothness = None
    if gains_prev is not None:
        smoothness = temporal_smoothness(gains_prev, partition_t, params)
    handovers = None
    if partition_prev is not None:
        handovers = handover_count(partition_prev, partition_t)
    zf_rate = None
    if zfbf_channel is not None:
        zf_rate = zfbf_evaluation(zfbf_channel, partition_t, params).sum_rate
    return MetricsRecord(time_index=time_index,
                         sum_rate=sum_rate(gains_t, partition_t, params),
                         temporal_smoothness=smoothness, handovers=handovers,
                         zfbf_sum_rate=zf_rate)
