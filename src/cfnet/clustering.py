"""Spectral partitioning of the interference graph with temporal smoothing.

The pipeline blends the current and previous graph Laplacians, embeds the
vertices with the eigenvectors of the blend, clusters the embedded rows with
seeded k-means, and refines those labels by greedy single-vertex moves on the
blended cut alpha * cut(G_t) + (1 - alpha) * cut(G_prev).  The returned
labels are a local minimum of the blended cut under single-vertex moves that
keep every group nonempty.  alpha = 1 reduces to plain per-instant spectral
clustering; alpha = 0 keeps optimizing against the previous graph.
"""

from dataclasses import dataclass

import numpy as np

from .graph import AffinityGraph


@dataclass
class SpectralConfig:
    alpha: float                 # blend weight on the current graph, in [0, 1]
    M: int                       # number of subnetworks
    kmeans_restarts: int = 10
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-9     # relative SSE change that counts as converged
    seed: "int | np.random.SeedSequence" = 0

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.M < 1:
            raise ValueError("need at least one subnetwork")
        if self.kmeans_restarts < 1 or self.kmeans_max_iters < 1 or self.kmeans_tol < 0:
            raise ValueError("bad k-means settings")


@dataclass
class Partition:
    """Assignment of the L BS vertices (and through them, users) to subnetworks."""

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

    @property
    def num_vertices(self) -> int:
        return self.vertex_labels.shape[0]

    def connection_matrix(self) -> np.ndarray:
        """(K, L) boolean matrix: user k is served by every BS sharing its label."""
        return self.vertex_labels[None, :] == self.user_assignment[:, None]


def blended_laplacian(lap_t: np.ndarray, lap_prev: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination alpha * lap_t + (1 - alpha) * lap_prev.

    The endpoints and the equal-input case return an exact copy of the
    corresponding operand, so downstream eigendecompositions see bitwise
    identical matrices in those cases.
    """
    if lap_t.shape != lap_prev.shape:
        raise ValueError("laplacians must share the same vertex set")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 1.0:
        return lap_t.copy()
    if alpha == 0.0:
        return lap_prev.copy()
    if lap_t is lap_prev or np.array_equal(lap_t, lap_prev):
        return lap_t.copy()
    return alpha * lap_t + (1.0 - alpha) * lap_prev


def smallest_eigenvectors(matrix: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal eigenvectors of the `count` smallest eigenvalues, ascending.

    Rejects inputs whose asymmetry exceeds 1e-9 relative to the largest entry.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not 1 <= count <= a.shape[0]:
        raise ValueError("eigenvector count out of range")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-9 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    _, vecs = np.linalg.eigh(a)
    return vecs[:, :count]


# the Lloyd distance array is built in blocks of rows holding at most this
# many elements (256 KB of float64), so at large L * M the temporary stays in
# cache instead of being mapped afresh on every iteration
_BLOCK_ELEMENTS = 1 << 15


def _kmeans_pp_centers(rows: np.ndarray, M: int, rngs: list) -> np.ndarray:
    """k-means++ seeding of every restart at once; returns (R, M, d) centers.

    Restart r draws from `rngs[r]` alone, in the order of a seeding on its
    own: `integers(n)` for the first center, then for each further center one
    draw weighted by the squared distance d2 to the nearest center so far, or
    `integers(n)` when every row already coincides with a center.  The
    weighted draw is made as `Generator.choice(n, p=d2 / total)` makes it
    (normalised cumulative sum, one `random()`, a right-sided search), so it
    returns the same index and leaves the Generator in the same state.
    """
    n = rows.shape[0]
    centers = np.empty((len(rngs), M, rows.shape[1]))
    idx = np.array([rng.integers(n) for rng in rngs])
    centers[:, 0] = rows[idx]
    d2 = ((rows[None, :, :] - centers[:, :1, :]) ** 2).sum(axis=2)
    # a zero total makes its restart's cdf 0/0; that restart does not read it
    with np.errstate(invalid="ignore"):
        for m in range(1, M):
            totals = d2.sum(axis=1)
            cdf = (d2 / totals[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            for r, rng in enumerate(rngs):
                if totals[r] > 0.0:
                    idx[r] = cdf[r].searchsorted(rng.random(), side="right")
                else:
                    idx[r] = rng.integers(n)  # all remaining rows coincide with a center
            centers[:, m] = rows[idx]
            d2 = np.minimum(d2, ((rows[None, :, :] - centers[:, m:m + 1, :]) ** 2).sum(axis=2))
    return centers


def _lloyd(rows: np.ndarray, centers: np.ndarray, max_iters: int, tol: float):
    n, M = rows.shape[0], centers.shape[0]
    block = max(1, _BLOCK_ELEMENTS // centers.size)
    d2 = np.empty((n, M))
    labels = np.zeros(n, dtype=np.int64)
    sse_prev = np.inf
    sse = np.inf
    for _ in range(max_iters):
        # each row's distances are reduced on their own, so blocking is exact
        for lo in range(0, n, block):
            part = rows[lo:lo + block]
            d2[lo:lo + block] = ((part[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=M)
        # an emptied cluster steals the point lying farthest from its own
        # centroid, skipping singletons so no other cluster is emptied
        for m in np.flatnonzero(counts == 0):
            fit = d2[np.arange(n), labels].copy()
            fit[counts[labels] <= 1] = -1.0
            worst = int(np.argmax(fit))
            counts[labels[worst]] -= 1
            labels[worst] = m
            counts[m] = 1
        # add.at sums each group in row order, as mean(axis=0) of the group's
        # rows does when they have two or more columns
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, rows)
        centers = sums / counts[:, None]
        sse = float(((rows - centers[labels]) ** 2).sum())
        if np.isfinite(sse_prev) and abs(sse_prev - sse) <= tol * max(sse_prev, 1e-12):
            break
        sse_prev = sse
    return labels, sse


def _restart_seed(root: np.random.SeedSequence, restart: int) -> np.random.SeedSequence:
    # stateless spawn so repeated calls with the same config replay exactly
    return np.random.SeedSequence(entropy=root.entropy,
                                  spawn_key=root.spawn_key + (restart,))


def kmeans_rows(rows: np.ndarray, M: int, restarts: int = 10, max_iters: int = 100,
                tol: float = 1e-9, seed=0) -> np.ndarray:
    """Cluster rows into M nonempty groups, best of `restarts` k-means++ runs.

    The k-means++ seeding of all restarts runs as one batch, each restart
    drawing from its own Generator in its own order, with weighted draws that
    replicate `Generator.choice` (see `_kmeans_pp_centers`).  Each restart
    then runs Lloyd iterations to convergence (relative SSE change below
    `tol`) or `max_iters`; the run with the lowest SSE wins and ties keep the
    earliest restart.  Deterministic given (rows, seed).  Rows must be
    finite, with squared distances that do not overflow.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d row matrix")
    if not 1 <= M <= rows.shape[0]:
        raise ValueError("cluster count must lie in [1, number of rows]")
    with np.errstate(over="ignore", invalid="ignore"):
        span = rows.max(axis=0) - rows.min(axis=0)
        spread = rows.shape[0] * (span @ span)   # bounds every squared distance and SSE
    if not np.isfinite(spread):
        raise ValueError("rows must be finite, with squared distances that do not overflow")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(_restart_seed(root, r)) for r in range(restarts)]
    best_labels, best_sse = None, np.inf
    for centers in _kmeans_pp_centers(rows, M, rngs):
        labels, sse = _lloyd(rows, centers, max_iters, tol)
        if sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels


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


def _cluster_laplacian(lap: np.ndarray, anchor: np.ndarray, cfg: SpectralConfig) -> Partition:
    embedding = smallest_eigenvectors(lap, cfg.M)
    labels = kmeans_rows(embedding, cfg.M, restarts=cfg.kmeans_restarts,
                         max_iters=cfg.kmeans_max_iters, tol=cfg.kmeans_tol,
                         seed=cfg.seed)
    labels = _descend_cut(lap, labels, cfg.M)
    return Partition.from_vertex_labels(labels, cfg.M, anchor)


def spectral_partition(graph: AffinityGraph, cfg: SpectralConfig) -> Partition:
    """Plain per-instant spectral partition of a single graph (no history)."""
    cfg.validate()
    return _cluster_laplacian(graph.laplacian, graph.anchor, cfg)


def temporal_smoothed_partition(graph_prev: AffinityGraph, graph_t: AffinityGraph,
                                cfg: SpectralConfig) -> Partition:
    """Partition the current step's graph, pulled toward the previous step's.

    Embeds the vertices with the eigenvectors of the blended Laplacian,
    clusters the embedded rows, then descends on the blended cut; the
    returned labels are a local minimum of the blended cut under
    single-vertex moves that keep every group nonempty.  Vertex labels carry
    over to users through the current anchor map.
    """
    cfg.validate()
    if graph_prev.num_vertices != graph_t.num_vertices:
        raise ValueError("graphs must cover the same base stations")
    blend = blended_laplacian(graph_t.laplacian, graph_prev.laplacian, cfg.alpha)
    return _cluster_laplacian(blend, graph_t.anchor, cfg)


def initial_partition(graph_0: AffinityGraph, cfg: SpectralConfig) -> Partition:
    """Bootstrap partition for the first time step (no history yet)."""
    return temporal_smoothed_partition(graph_0, graph_0, cfg)
