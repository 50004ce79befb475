"""Per-step KPIs: temporal smoothness, handover counting, ZF downlink rates.

`record_step` scores one step as a `MetricsRecord`: the KPIs in KPI_NAMES
order with NaN where undefined, which is one row of a trial's
(time_steps, n_alpha, 4) KPI array in the harness and the column order of
metrics.csv.  It leaves the ZF rate NaN: `zfbf_evaluation` scores a whole
trial's rows in one call, its subnetworks stacked by shape (K_m, L_m), and
gives each row the bits a call with that row alone gives.  Two rules keep
it so: each stack's (K, L_m) channels are gathered F-ordered, as `h[:, bs]`
is, because BLAS multiplies a C-ordered (K, L_m) matrix by a one-user
precoder along another path that rounds differently; and a user's
interference is a running sum in subnetwork order.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .channel import RadioParams, sum_rate, user_rate
from .clustering import Partition

# intra-subnetwork leakage above this (relative to the intended signal)
# means the zero-forcing solve went numerically wrong
_ZF_CROSSTALK_TOL = 1e-9


class MetricsRecord(NamedTuple):
    """KPIs of one time step under one partition, NaN where undefined."""

    sum_rate: float
    temporal_smoothness: float  # NaN on the first step
    handovers: float            # NaN on the first step
    zfbf_sum_rate: float        # NaN from record_step; the harness fills it in


KPI_NAMES = MetricsRecord._fields


def temporal_smoothness(gains_prev: np.ndarray, partition_t: Partition,
                        params: RadioParams) -> float:
    """Current BS grouping scored against the previous step's network state.

    The current vertex labels are applied to the previous step's user-to-BS
    anchoring (each user sits with the vertex that was strongest for it under
    `gains_prev`), and the resulting partition's sum rate is evaluated on
    `gains_prev`.  This matches the cut-based smoothness objective the
    partitioner optimizes, which scores today's labels on yesterday's graph.
    """
    if gains_prev.shape[1] != len(partition_t.vertex_labels):
        raise ValueError("partition does not match the gains dimensions")
    prev_anchor = np.argmax(gains_prev, axis=1)
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
    """ZF outcome of each scored row: one partition on one step's channel."""

    per_user_rates: np.ndarray   # (rows, K)
    overloaded: np.ndarray       # (rows,) subnetworks with more users than BSs
    rank_deficient: np.ndarray   # (rows,) solvable size, singular channel
    max_crosstalk: np.ndarray    # (rows,) worst relative intra-subnetwork leakage

    @property
    def sum_rate(self) -> np.ndarray:
        """(rows,) ZF sum rate of each row."""
        return self.per_user_rates.sum(axis=1)


def _members(labels: np.ndarray, groups: int):
    """Per row of (rows, n) labels: (rows, groups) group sizes, the indices
    sorted by label (ascending within a group), and where each group starts
    among them."""
    rows = labels.shape[0]
    count = np.bincount((labels + np.arange(rows)[:, None] * groups).ravel(),
                        minlength=rows * groups).reshape(rows, groups)
    return count, np.argsort(labels, axis=1, kind="stable"), np.cumsum(count, axis=1) - count


def zfbf_evaluation(channels: np.ndarray, steps: Sequence[int],
                    partitions: Sequence[Partition], params: RadioParams) -> ZfbfResult:
    """Zero-forcing downlink rates of a batch of rows, one precoder per subnetwork.

    Row i scores `partitions[i]` on the fading channel `channels[steps[i]]`;
    `channels` is (T, K, L).  Each subnetwork with K_m users and L_m >= K_m
    BSs uses the right pseudo-inverse of its internal channel, scaled so the
    subnetwork radiates a total power of L_m * P_t split equally across its
    users.  Users in a subnetwork with K_m > L_m (or a rank-deficient channel,
    which is flagged) get zero rate and such subnetworks stay silent.
    Interference at a user comes only from other subnetworks' transmissions.

    The served subnetworks of all rows are grouped by shape (K_m, L_m), and
    each shape is solved as one stack.  A row's rates are the bits a call
    with that row alone gives.
    """
    h = np.asarray(channels)
    if h.ndim != 3:
        raise ValueError("channels must be a (steps, users, BSs) array")
    _, num_users, num_bs = h.shape
    steps = np.asarray(steps, dtype=np.intp)
    if steps.shape != (len(partitions),):
        raise ValueError("need one step index per partition")
    for part in partitions:
        if part.vertex_labels.shape != (num_bs,) or part.user_assignment.shape != (num_users,):
            raise ValueError("partition does not match the channel dimensions")
    rows, groups = len(partitions), max(part.M for part in partitions)
    pt = params.pt_over_sigma2  # noise power normalized to 1
    bs_count, bs_sorted, bs_start = _members(
        np.stack([part.vertex_labels for part in partitions]), groups)
    user_count, users_sorted, user_start = _members(
        np.stack([part.user_assignment for part in partitions]), groups)
    overloaded = user_count > bs_count
    solvable = (user_count > 0) & ~overloaded

    rank_deficient = np.zeros(rows, dtype=np.int64)
    max_crosstalk = np.zeros(rows)
    signal = np.zeros((rows, num_users))
    # the power each subnetwork sends each user of the other subnetworks
    contribution = np.zeros((rows, groups, num_users))
    by_bs = h.transpose(0, 2, 1)  # (T, L, K) view
    shapes = set(zip(user_count[solvable].tolist(), bs_count[solvable].tolist()))
    for k_m, l_m in sorted(shapes):
        r, m = np.nonzero(solvable & (user_count == k_m) & (bs_count == l_m))
        users = users_sorted[r[:, None], user_start[r, m][:, None] + np.arange(k_m)]
        bs = bs_sorted[r[:, None], bs_start[r, m][:, None] + np.arange(l_m)]
        step = steps[r][:, None]
        local = by_bs[step[:, :, None], bs[:, None, :], users[:, :, None]]  # (n, k_m, l_m)
        full = np.linalg.matrix_rank(local) == k_m
        rank_deficient += np.bincount(r[~full], minlength=rows)
        r, m, users, bs, step = r[full], m[full], users[full], bs[full], step[full]
        precoder = np.linalg.pinv(local[full])  # (n, l_m, k_m), local @ precoder == I
        beam_power = (np.abs(precoder) ** 2).sum(axis=1)
        precoder = precoder * np.sqrt(l_m * pt / (k_m * beam_power))[:, None, :]
        # each (K, l_m) channel F-ordered as h[:, bs] is: a C-ordered copy
        # sends k_m = 1 down another BLAS path, which rounds differently
        received = by_bs[step, bs].transpose(0, 2, 1) @ precoder  # (n, K, k_m)
        n = np.arange(r.size)[:, None]
        own = received[n, users]
        intended = np.abs(np.diagonal(own, axis1=1, axis2=2))
        if k_m > 1:
            crosstalk = np.abs(own - np.where(np.eye(k_m, dtype=bool), own, 0))
            rel = (crosstalk / intended[:, :, None]).max(axis=(1, 2))
            np.fmax.at(max_crosstalk, r, rel)  # NaN never raises the max
            wrong = rel > _ZF_CROSSTALK_TOL
            if wrong.any():
                raise ArithmeticError(f"zero-forcing crosstalk {rel[wrong].max():.3e} "
                                      f"exceeds {_ZF_CROSSTALK_TOL:.0e}")
        signal[r[:, None], users] = intended ** 2
        power = (np.abs(received) ** 2).sum(axis=2)
        power[n, users] = 0.0
        contribution[r, m] = power

    interference = np.zeros((rows, num_users))
    for m in range(groups):  # a running sum in subnetwork order, as one row alone adds it
        interference += contribution[:, m]
    sinr = signal / (interference + 1.0)
    return ZfbfResult(per_user_rates=user_rate(sinr), overloaded=overloaded.sum(axis=1),
                      rank_deficient=rank_deficient, max_crosstalk=max_crosstalk)


def record_step(time_index: int, gains_t: np.ndarray, partition_t: Partition,
                params: RadioParams, gains_prev: Optional[np.ndarray] = None,
                partition_prev: Optional[Partition] = None) -> MetricsRecord:
    """The gain-based KPIs of one step; the history-based ones are NaN without
    history, and the ZF rate is NaN (`zfbf_evaluation` scores it in batches)."""
    # time_index is unused; perfbench/run.py passes it positionally
    return MetricsRecord(
        sum_rate(gains_t, partition_t, params),
        np.nan if gains_prev is None else temporal_smoothness(gains_prev, partition_t, params),
        np.nan if partition_prev is None else handover_count(partition_prev, partition_t),
        np.nan)
