"""Spectral partitioning of the interference graph with temporal smoothing.

The pipeline blends the current and previous graph Laplacians, embeds the
vertices with the eigenvectors of the blend, clusters the embedded rows with
seeded k-means, and refines those labels by greedy single-vertex moves on the
blended cut alpha * cut(G_t) + (1 - alpha) * cut(G_prev).  The returned
labels are a local minimum of the blended cut under single-vertex moves that
keep every group nonempty.  alpha = 1 reduces to plain per-instant spectral
clustering; alpha = 0 keeps optimizing against the previous graph.

The alpha branches of one step share both graphs and the k-means seed, so
`temporal_smoothed_partitions` clusters them as one batch: one stacked
`eigh` over the blends, one k-means over the (B, n, M) stack of embeddings,
and the descent on each blend.  `kmeans_rows` takes one row matrix or such a
stack through the same code, a single matrix being a stack of one, and every
entry gets the labels it would get on its own.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
# numpy-private, but the very function SeedSequence splits entropy and spawn
# keys into uint32 words with; test_restart_states_equal_numpy_seeding fails
# if a numpy release changes it
from numpy.random.bit_generator import _coerce_to_uint32_array

from .graph import AffinityGraph

# the k-means budget of every clustering
KMEANS_RESTARTS = 10     # k-means++ restarts; the lowest SSE wins
KMEANS_MAX_ITERS = 100   # Lloyd iterations per restart, at most


@dataclass
class SpectralConfig:
    alpha: float                 # blend weight on the current graph, in [0, 1]
    M: int                       # number of subnetworks
    seed: "int | np.random.SeedSequence" = 0
    # class constants, not fields: perfbench/tracing.py's partition_key reads them
    kmeans_restarts: ClassVar[int] = KMEANS_RESTARTS
    kmeans_max_iters: ClassVar[int] = KMEANS_MAX_ITERS
    # no SSE tolerance remains (a restart stops when its labels repeat); only
    # perfbench's partition_key reads this
    kmeans_tol: ClassVar[float] = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.M < 1:
            raise ValueError("need at least one subnetwork")


@dataclass
class Partition:
    """Assignment of the L BS vertices (and through them, users) to subnetworks.

    `from_vertex_labels` builds one checked partition.  Arrays with leading
    axes, (..., L) labels and (..., K) assignments, stand for a stack of
    partitions of one network; the gain KPIs in `channel` and `metrics`
    take either.
    """

    vertex_labels: np.ndarray   # (L,) values in {0..M-1}, every label present
    M: int
    user_assignment: np.ndarray  # (K,) label of each user's anchor vertex

    @classmethod
    def from_vertex_labels(cls, labels, M: int, anchor) -> "Partition":
        labels = np.asarray(labels, dtype=np.int64)
        anchor = np.asarray(anchor, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] < 1:
            raise ValueError("vertex labels must be a nonempty vector")
        if M < 1 or labels.min() < 0 or labels.max() >= M:
            raise ValueError("vertex labels out of range")
        if np.any(np.bincount(labels, minlength=M) == 0):
            raise ValueError("every subnetwork needs at least one base station")
        return cls(vertex_labels=labels, M=M, user_assignment=labels[anchor])

    def connection_matrix(self) -> np.ndarray:
        """(K, L) boolean matrix, (..., K, L) for a stack: user k is served
        by every BS sharing its label."""
        return self.vertex_labels[..., None, :] == self.user_assignment[..., :, None]


def blended_laplacian(lap_t: np.ndarray, lap_prev: np.ndarray, alpha) -> np.ndarray:
    """Convex combination alpha * lap_t + (1 - alpha) * lap_prev.

    `alpha` is one weight or a vector of them, and a vector gives one blend
    per entry, stacked.  At alpha 1 and 0 the formula returns the operand bit
    for bit: 1 x + 0 y and 0 x + 1 y are exact when both operands are finite
    and the returned one holds no -0.0, which `build_graph` never writes.
    Equal inputs return a copy of the operand at every alpha.
    """
    if lap_t.shape != lap_prev.shape:
        raise ValueError("laplacians must share the same vertex set")
    alpha = np.asarray(alpha, dtype=float)
    if not ((0.0 <= alpha) & (alpha <= 1.0)).all():
        raise ValueError("alpha must lie in [0, 1]")
    if np.array_equal(lap_t, lap_prev):
        return np.broadcast_to(lap_t, alpha.shape + lap_t.shape).copy()
    alpha = alpha[..., None, None]
    return alpha * lap_t + (1.0 - alpha) * lap_prev


def smallest_eigenvectors(matrix: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal eigenvectors of the `count` smallest eigenvalues, ascending.

    Takes one (n, n) matrix or a (B, n, n) stack, decomposed by one `eigh`
    call whose eigenvectors equal those of each matrix on its own.  Rejects a
    matrix with a non-finite entry, which `eigh` would not read above the
    diagonal, or whose asymmetry exceeds 1e-9 relative to its largest entry.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    if not 1 <= count <= a.shape[-1]:
        raise ValueError("eigenvector count out of range")
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))   # NaN and inf carry up
    if not np.isfinite(scale).all():
        raise ValueError("matrix entries must be finite")
    if (np.abs(a - a.swapaxes(-2, -1)).max(axis=(-2, -1)) > 1e-9 * scale).any():
        raise ValueError("matrix is not symmetric within tolerance")
    _, vecs = np.linalg.eigh(a)
    return vecs[..., :count]


# numpy's SeedSequence hashing (pool of 4 words) and PCG64 set-seq seeding.
# numpy hashes the entropy prefix all restarts share into its pool; cfnet
# mixes in each restart's last word r with the hash constants that follow a
# prefix of `prefix` words, _INIT_A * _MULT_A**(4 prefix + i) for i = 0..4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875     # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED     # generate_state output
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_HASH_B = [_INIT_B * _MULT_B ** i & _MASK32 for i in range(9)]
_OUT_XOR = np.array(_HASH_B[:8], dtype=np.uint32).reshape(2, 4)
_OUT_MUL = np.array(_HASH_B[1:], dtype=np.uint32).reshape(2, 4)
_RESTART_WORDS = np.arange(KMEANS_RESTARTS, dtype=np.uint32)[:, None]
# the restart Generators, loaded afresh for each seeding draw and replay, and
# the last seed's restart draws (see _restart_draws); module state, so one
# thread at a time
_RESTART_RNGS = [np.random.Generator(np.random.PCG64(0)) for _ in range(KMEANS_RESTARTS)]
_last_draws = (None, None)


def _restart_states(root: np.random.SeedSequence) -> list:
    """PCG64 states of the KMEANS_RESTARTS restart Generators of seed `root`.

    Restart r's state is that of `PCG64(SeedSequence(root.entropy,
    spawn_key=root.spawn_key + (r,)))`, computed without building either.
    Every restart's assembled entropy starts with the same `prefix` words:
    the root's entropy padded to 4 words, then its spawn key.  numpy hashes
    that prefix into the pool of `SeedSequence(root.entropy,
    spawn_key=root.spawn_key)`, and the last word, r, is mixed in here for
    all restarts at once.  Then `generate_state(4, uint64)`'s output hash
    gives the four seed words (s0, s1, s2, s3), and PCG64 seeds from
    initstate s0 << 64 | s1 and initseq s2 << 64 | s3 by inc = 2 initseq + 1,
    state = 0, step, state += initstate, step.
    """
    # pool size 4 whatever root.pool_size is; an empty spawn key skips the
    # padding, which leaves the pool unchanged
    pool = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key).pool
    prefix = max(4, len(_coerce_to_uint32_array(root.entropy)))
    prefix += len(_coerce_to_uint32_array(root.spawn_key))
    # the last word, r, of every restart at once; uint32 arithmetic wraps
    consts = np.array([_INIT_A * pow(_MULT_A, 4 * prefix + i, 1 << 32) & _MASK32
                       for i in range(5)], dtype=np.uint32)
    last = (_RESTART_WORDS ^ consts[:4]) * consts[1:]
    last ^= last >> 16
    mixed = pool * np.uint32(_MIX_L) - last * np.uint32(_MIX_R)
    mixed ^= mixed >> 16
    # generate_state's eight uint32 words per restart, cycling over the pool
    out = (mixed[:, None, :] ^ _OUT_XOR) * _OUT_MUL
    out ^= out >> 16
    states = []
    for w in out.reshape(-1, 8).tolist():
        # uint64 word i is w[2i] | w[2i + 1] << 32, whatever the byte order
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
        states.append({"bit_generator": "PCG64",
                       "state": {"state": ((inc + initstate) * _PCG64_MULT + inc) & _MASK128,
                                 "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _draw_seeding(states: list, n: int, M: int) -> tuple:
    """Each restart's k-means++ numbers for n rows and M centres: the module's
    Generator r, loaded with states[r], draws `integers(n)` into initial[r],
    then `random(M - 1)` into weighted[r].  Returns (initial, weighted)."""
    rngs = _RESTART_RNGS[:len(states)]
    for rng, state in zip(rngs, states):
        rng.bit_generator.state = state
    initial = np.array([rng.integers(n) for rng in rngs])
    weighted = np.array([rng.random(M - 1) for rng in rngs]).reshape(len(states), M - 1)
    return initial, weighted


def _restart_draws(root: np.random.SeedSequence, n: int, M: int) -> tuple:
    """(states, initial, weighted) of seed `root`'s restarts for n rows and M
    centres: `_restart_states(root)`, then `_draw_seeding` from them.

    A memo of one entry, keyed by the seed's value (entropy and spawn key)
    and (n, M), keeps the last result, so the clusterings of one harness
    trial, which share their seed, derive and draw these numbers once.  A
    hit returns the numbers a fresh derivation gives, read-only.  Only seeds
    whose entropy and spawn key words are all ints are compared; any other
    seed is derived afresh.
    """
    global _last_draws
    key = (root.entropy, root.spawn_key, n, M)
    if not all(isinstance(word, int) for word in (root.entropy, *root.spawn_key)):
        key = None
    elif key == _last_draws[0]:
        return _last_draws[1]
    states = _restart_states(root)
    initial, weighted = _draw_seeding(states, n, M)
    initial.flags.writeable = weighted.flags.writeable = False
    _last_draws = key, (states, initial, weighted)
    return _last_draws[1]


def _kmeans_pp_centers(rows: np.ndarray, M: int, states: list, initial: np.ndarray,
                       weighted: np.ndarray) -> tuple:
    """k-means++ seeding of every (entry, restart) pair.

    Returns the (B, R, M, d) centres and the (B, R, n) index of each row's
    nearest centre.  `rows` is a (B, n, d) stack and `states` holds one
    PCG64 state per restart, at most KMEANS_RESTARTS of them; `initial` and
    `weighted` are the numbers `_draw_seeding` draws from them, shared by
    all entries.  Each pair's centres are those a seeding of its entry on
    its own draws from a Generator in restart r's state:
    `integers(n)` for the first centre, then for each further centre one draw
    weighted by the squared distance d2 to the nearest centre so far, or
    `integers(n)` when every row already coincides with a centre.  The
    weighted draw is made as `Generator.choice(n, p=d2 / total)` makes it
    (normalised cumulative sum, one `random()`, a right-sided search, here
    `(cdf <= u).sum()` on the nondecreasing cdf), so it picks the same index.

    `integers(n)` then `random(M - 1)` are the numbers those sequential draws
    give while no total is 0.  A pair whose total reaches 0 drew
    `integers(n)` there, so its later centres are replayed from the module's
    Generator r reloaded with states[r].  A Generator that loads states[r]
    and draws those numbers (`_draw_seeding`), then takes part in the
    seeding of one entry, ends in the state that seeding leaves it in.
    Distances to a picked row come from an exact table
    ((rows - rows[j])**2).sum(), filled once per entry and picked row: the
    arithmetic of Lloyd's exact form, since every centre is a row.
    So the nearest centre, updated where a new centre is strictly closer than
    d2 (ties keep the earliest, as argmin does), is the argmin of the exact
    distances: Lloyd's first assignment.  A zero total leaves every row at
    distance 0 from an earlier centre, so the replayed centres cannot take a
    row from it.
    """
    B, n, d = rows.shape
    R = len(states)
    flat = rows.reshape(B * n, d)
    base = n * np.arange(B)[:, None]             # row b * n + j of `flat` is rows[b, j]
    table = np.empty((B * n, n))
    filled = np.zeros(B * n, dtype=bool)
    picks = np.empty((M, B, R), dtype=np.int64)
    totals = np.empty((M - 1, B, R))
    nearest = np.zeros((B, R, n), dtype=np.int64)
    picks[0] = base + initial
    # a zero total makes its pair's cdf 0/0; that pair is replayed below
    with np.errstate(invalid="ignore"):
        for m in range(M):
            pick = picks[m]
            if m:
                d2.sum(axis=2, out=totals[m - 1])
                cdf = (d2 / totals[m - 1, :, :, None]).cumsum(axis=2)
                cdf /= cdf[:, :, -1:]
                np.add(base, (cdf <= weighted[:, m - 1, None]).sum(axis=2), out=pick)
            new = pick[~filled[pick]]
            if new.size:
                diff = rows[new // n]
                diff -= flat[new][:, None, :]
                diff *= diff
                table[new] = diff.sum(axis=2)
                filled[new] = True
                del diff
            dist = table[pick]
            if not m:
                d2 = dist
            else:
                np.putmask(nearest, dist < d2, m)
                np.minimum(d2, dist, out=d2)
    centers = flat[picks.transpose(1, 2, 0)]
    late = (totals == 0.0).sum(axis=0)           # per pair, centres drawn at a zero total
    for b, r in zip(*late.nonzero()):
        rng, start = _RESTART_RNGS[r], M - late[b, r]
        rng.bit_generator.state = states[r]
        rng.integers(n)
        rng.random(start - 1)
        for m in range(start, M):
            centers[b, r, m] = rows[b, rng.integers(n)]
    return centers, nearest


_EPS = np.finfo(float).eps


def _gemm_gap_bound(scale: float, d: int) -> float:
    """Gap from a row's smallest GEMM distance that certifies its label.

    The GEMM form e = ||c||^2 - 2 x.c leaves out the row's own ||x||^2, a
    constant that shifts every centre's distance alike and so cancels from
    every gap between centres.  With scale at least ||x|| + max ||c||, e lies
    within gamma_{d+1} * scale^2 of its true value (a d-term dot product and
    a d-term sum of squares, then one addition, bounded by 2 ||x|| ||c|| +
    ||c||^2 <= scale^2), and the exact form ((x - c)**2).sum() within
    gamma_{d+2} * scale^2 of the true squared distance, in any summation
    order (gamma_n = n u / (1 - n u), u the unit roundoff); both lie inside
    gamma_{d+3} * scale^2.  A gap above four times that leaves one centre
    nearest in both forms.  A float above fl(smallest + bound) lies above
    smallest + bound, so the test e <= fl(smallest + bound) passing for one
    centre alone certifies it.  The bound grows with scale, so one scale at
    least every row's, such as max ||x|| + max ||c||, certifies every row it
    passes.  |e| <= scale^2, so (2 scale)^2 overflows before e can, and such
    a row is never certified; the last term covers the absolute error of
    gradual underflow.
    """
    nu = (d + 3) * _EPS / 2
    return nu / (1.0 - nu) * (2.0 * scale) ** 2 + d * 2.0 ** -1070


def _lloyd(rows: np.ndarray, centers: np.ndarray, first: np.ndarray, max_iters: int):
    """Lloyd iterations of every restart at once from (R, M, d) seed centres.

    `first` is the (R, n) first assignment, each row's nearest seed centre
    by the exact distances ((x - c)**2).sum() (`_kmeans_pp_centers` returns
    it).  Returns (R, n) labels and (R,) SSEs, each restart's equal to a run
    on its own with exact distances.  Later assignments take their distances,
    less each row's own ||x||^2, from one GEMM over all restarts, and a row
    is certified when exactly one centre's distance is at most
    fl(smallest + `_gemm_gap_bound`), at one scale per iteration:
    max ||x|| + max ||c|| over the rows and the centres of the restarts
    still in the batch, carried ones included.
    The test is written over the distances as 0.0 and 1.0, whose column sum
    counts each row's passing centres and whose product with 0..M-1 gives
    the index of a row's one passing centre.  Every other row, NaN, inf and
    exact GEMM ties included, takes its label from the exact form, so labels
    do not depend on GEMM rounding.  A restart stops at the first iteration
    whose labels, after the empty-cluster repair, repeat its previous ones,
    or at `max_iters`.  Its SSE is scored once, from its final labels and the
    centroids they give.

    A stopped restart is carried on in the batch until at least half of the
    restarts in it have stopped in one iteration; then the batch keeps only
    those still moving, so each compaction at least halves it, and it ends
    once none moves.  Carrying changes no bit of a stopped restart: its
    labels repeated, so the scatter, which sums each group in row order
    whatever the batch's width, gives its centroids again; its next
    assignment reads those centroids and gives the exact form's labels,
    since a larger scale only sends more rows to the exact form; and the
    empty-cluster repair then acts as it did before.
    """
    rows = np.ascontiguousarray(rows)
    n, d = rows.shape
    R, M, _ = centers.shape
    cen = centers.transpose(1, 0, 2)     # (M, a, d) for the a active restarts
    xmax = np.sqrt(np.einsum("ij,ij->i", rows, rows).max())
    index = np.arange(M, dtype=float)
    xt = -2.0 * rows.T                   # c.xt is -2 x.c to the bit, barring over/underflow
    weights = np.broadcast_to(rows.ravel(), (R, n * d)).ravel()   # each restart's rows in turn
    offsets = np.arange(R)[:, None]      # restart i's groups are m * a + i
    columns = np.arange(d)
    lab = first.copy()                   # the repair below writes into it
    labels = np.empty((R, n), dtype=np.int64)
    final = np.empty((M, R, d))          # each restart's centroids once it stops
    act = np.arange(R)
    # entered once per call, not once per iteration: it costs about 2 us
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iters):
            a = act.size
            if it:
                prev = lab
                cc = np.einsum("mrj,mrj->mr", cen, cen)
                # (M, a * n) distances less ||x||^2; overflow leaves inf or NaN, never certified
                dist = (cen.reshape(M * a, d) @ xt).reshape(M, a, n)
                dist += cc[:, :, None]
                dist = dist.reshape(M, a * n)
                near = dist.min(axis=0)
                near += _gemm_gap_bound(xmax + np.sqrt(cc.max()), d)
                # 1.0 where a centre lies within the bound; one such centre is the row's label
                np.less_equal(dist, near, out=dist)
                lab = (index @ dist).astype(np.int64)
                k = np.flatnonzero(dist.sum(axis=0) != 1.0)
                if k.size:
                    # one centre at a time, so no temporary outgrows the rows taken
                    taken, restart = rows[k % n], k // n
                    exact = np.empty((k.size, M))
                    for m in range(M):
                        exact[:, m] = ((taken - cen[m, restart]) ** 2).sum(axis=1)
                    lab[k] = exact.argmin(axis=1)
                lab = lab.reshape(a, n)
            group = lab * a + offsets[:a]
            counts = np.bincount(group.ravel(), minlength=M * a).reshape(M, a)
            if not counts.all():
                # an emptied cluster steals the point lying farthest from its own
                # centroid, skipping singletons so no other cluster is emptied;
                # that reads each row's exact distance to its own centroid only
                for r in np.flatnonzero((counts == 0).any(axis=0)):
                    fit = ((rows - cen[lab[r], r]) ** 2).sum(axis=1)
                    for m in np.flatnonzero(counts[:, r] == 0):
                        worst = int(np.argmax(np.where(counts[lab[r], r] <= 1, -1.0, fit)))
                        counts[lab[r, worst], r] -= 1
                        lab[r, worst] = m
                        counts[m, r] = 1
                group = lab * a + offsets[:a]
            if it:
                # repeated labels give the centroids (and SSE) already held; a
                # stopped restart is carried, unchanged, until half have stopped
                moved = (lab != prev).any(axis=1)
                moving = np.count_nonzero(moved)
                if not moving:
                    break
                if 2 * moving <= a:
                    done = ~moved
                    labels[act[done]] = lab[done]
                    final[:, act[done]] = cen[:, done]
                    act, lab, cen, counts = act[moved], lab[moved], cen[:, moved], counts[:, moved]
                    a = moving
                    group = lab * a + offsets[:a]
            # the scatter-add sums each group in row order, as mean(axis=0) of
            # the group's rows does when they have two or more columns
            sums = np.bincount((group[:, :, None] * d + columns).ravel(),
                               weights=weights[:a * n * d], minlength=M * a * d)
            cen = sums.reshape(M, a, d) / counts[:, :, None]
    labels[act] = lab
    final[:, act] = cen
    sq = rows - final.reshape(M * R, d)[labels * R + offsets]
    sq *= sq
    return labels, sq.reshape(R, n * d).sum(axis=1)


def kmeans_rows(rows: np.ndarray, M: int, seed=0) -> np.ndarray:
    """Cluster rows into M nonempty groups, best of KMEANS_RESTARTS k-means++ runs.

    `rows` is one (n, d) matrix, which gives (n,) labels, or a (B, n, d)
    stack, which gives (B, n) labels, each entry's equal to a call with that
    entry alone and the same seed.  Restart r of seed s draws from PCG64
    seeded by `SeedSequence(s.entropy, spawn_key=s.spawn_key + (r,))`, an int
    seed standing for `SeedSequence(seed)`; `_restart_states` derives those
    states from numpy's pool of the prefix all restarts share, mixing in each
    restart's last word r.  Each restart's k-means++ numbers, `integers(n)`
    and `random(M - 1)`, are drawn once for the whole stack, and
    `_restart_draws` keeps the last seed's states and numbers, keyed by the
    seed's value and (n, M): the calls of a harness trial share one seed, so
    all but its first reuse them.  The seeding of every (entry, restart) pair
    runs as one batch, with weighted draws that replicate `Generator.choice`
    (see `_kmeans_pp_centers`), which also gives each row's nearest seed by
    the exact distances, Lloyd's first assignment.  Then, entry by entry, the
    Lloyd iterations of all restarts run as one batch (see `_lloyd`), each
    restart until its labels repeat or KMEANS_MAX_ITERS iterations, with the
    labels and SSE of a run on its own; a stopped restart is carried on,
    unchanged, until half of the batch has stopped, and each restart's SSE
    is scored once, from its final labels.  Per entry, the run with the
    lowest SSE wins and ties keep the earliest restart.  Labels come from
    the exact squared distances wherever GEMM rounding could change them, so
    they do not depend on the BLAS build.  Deterministic given (rows, seed).
    Rows must be finite, with squared distances that do not overflow.

    The restart Generators and the memo of the last seed's draws are module
    state, so two threads must not call this at once; cfnet calls it from
    one thread.  A call that hits the memo leaves the Generators as an
    earlier call left them, unless a seeding pair is replayed.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (2, 3):
        raise ValueError("expected a 2-d row matrix or a 3-d stack of them")
    stack = rows if rows.ndim == 3 else rows[None]
    if not 1 <= M <= stack.shape[1]:
        raise ValueError("cluster count must lie in [1, number of rows]")
    with np.errstate(over="ignore", invalid="ignore"):
        span = stack.max(axis=1) - stack.min(axis=1)
        spread = stack.shape[1] * (span * span).sum(axis=1)   # bounds every squared distance and SSE
    if not np.isfinite(spread).all():
        raise ValueError("rows must be finite, with squared distances that do not overflow")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # Lloyd runs one entry at a time: batched over entries, its (R·B, n, d)
    # temporaries grow B-fold, which at desk scale (B = 5) raised peak memory
    # by 1.4 MB (3%) for about 5% more throughput
    best = []
    seeding = _kmeans_pp_centers(stack, M, *_restart_draws(root, stack.shape[1], M))
    for entry, centers, first in zip(stack, *seeding):
        labels, sse = _lloyd(entry, centers, first, KMEANS_MAX_ITERS)
        best.append(labels[int(np.argmin(sse))])
    return np.array(best).reshape(rows.shape[:-1])


def _descend_cut(lap: np.ndarray, labels: np.ndarray, M: int) -> np.ndarray:
    """Greedy single-vertex moves on the cut of the graph behind `lap`.

    The weights are the negated off-diagonal of the Laplacian, so for a
    blended Laplacian the cut is the blended cut.  Each step applies the move
    with the largest cut reduction (ties: lowest vertex, then lowest label)
    that leaves its source group nonempty, until no move gains more than
    1e-12 times the largest weight.  links[v, m] is the weight from vertex v
    into group m, kept up to date at O(L) per move, so a step costs O(L M).
    """
    weights = -lap
    np.fill_diagonal(weights, 0.0)
    labels = labels.copy()
    rows = np.arange(labels.shape[0])
    links = weights @ np.eye(M)[labels]
    counts = np.bincount(labels, minlength=M)
    tol = 1e-12 * weights.max()
    while True:
        gain = links - links[rows, labels][:, None]
        gain[rows, labels] = -np.inf
        gain[counts[labels] == 1] = -np.inf
        v, b = divmod(int(np.argmax(gain)), M)
        if not gain[v, b] > tol:
            return labels
        a = labels[v]
        links[:, a] -= weights[:, v]
        links[:, b] += weights[:, v]
        counts[a] -= 1
        counts[b] += 1
        labels[v] = b


def temporal_smoothed_partitions(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                                 cfg: SpectralConfig, alphas) -> list:
    """`temporal_smoothed_partition` at each of `alphas` in place of cfg.alpha.

    The blends are clustered as one batch: one stacked `eigh`, one k-means
    over the stacked embeddings, then the descent on each blend.  Each
    partition equals that of a call at its alpha alone.
    """
    cfg.validate()
    if not alphas:
        return []
    blends = blended_laplacian(graph_t.laplacian, graph_prev.laplacian, alphas)
    labels = kmeans_rows(smallest_eigenvectors(blends, cfg.M), cfg.M, seed=cfg.seed)
    return [Partition.from_vertex_labels(_descend_cut(blend, raw, cfg.M), cfg.M, graph_t.anchor)
            for blend, raw in zip(blends, labels)]


def temporal_smoothed_partition(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                                cfg: SpectralConfig) -> Partition:
    """Partition the current step's graph, pulled toward the previous step's.

    Embeds the vertices with the eigenvectors of the blended Laplacian,
    clusters the embedded rows, then descends on the blended cut; the
    returned labels are a local minimum of the blended cut under
    single-vertex moves that keep every group nonempty.  Vertex labels carry
    over to users through the current anchor map.
    """
    return temporal_smoothed_partitions(graph_prev, graph_t, cfg, (cfg.alpha,))[0]


def initial_partition(graph_0: AffinityGraph, cfg: SpectralConfig) -> Partition:
    """Bootstrap partition (no history yet); a graph blended with itself is an
    exact copy, so this is also the plain alpha = 1 per-instant partition."""
    return temporal_smoothed_partition(graph_0, graph_0, cfg)
