import numpy as np
import pytest

from cfnet import clustering
from cfnet.clustering import (Partition, SpectralConfig, blended_laplacian,
                              initial_partition, kmeans_rows,
                              smallest_eigenvectors, temporal_smoothed_partition)
from cfnet.harness import STREAM_KMEANS, derive_stream, trial_seed
from cfnet.oracle import blended_objective, brute_force_best

from conftest import graph_from_weights, graph_pair, trend_holds


# ---------------------------------------------------------------- blending

def test_blend_endpoints_are_exact_copies():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    b = np.array([[3.0, -3.0], [-3.0, 3.0]])
    assert np.array_equal(blended_laplacian(a, b, 1.0), a)
    assert np.array_equal(blended_laplacian(a, b, 0.0), b)


def test_blend_midpoint():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    b = np.array([[3.0, -3.0], [-3.0, 3.0]])
    assert np.allclose(blended_laplacian(a, b, 0.5), [[2.0, -2.0], [-2.0, 2.0]])


def test_blend_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        blended_laplacian(np.eye(2), np.eye(3), 0.5)
    with pytest.raises(ValueError):
        blended_laplacian(np.eye(2), np.eye(2), 1.5)


def test_blend_returns_each_operand_bit_for_bit_at_its_end():
    # 1 x + 0 y is x bit for bit unless x holds a -0.0, which array_equal
    # cannot tell from 0.0; few users leave BSs with no anchored user, whose
    # Laplacian rows are all zero
    alphas = np.array([0.0, 0.3, 1.0])
    for seed, (K, L) in enumerate([(3, 12), (6, 20), (30, 50)] * 4):
        g0, g1 = graph_pair(seed, K, L)
        assert len(set(g0.anchor)) < L and not np.array_equal(g0.laplacian, g1.laplacian)
        for lap in (g0.laplacian, g1.laplacian):
            assert not np.signbit(lap[lap == 0.0]).any()
        stack = blended_laplacian(g1.laplacian, g0.laplacian, alphas)
        for alpha, blend in zip(alphas, stack):   # so the scalar ends are checked too
            alone = blended_laplacian(g1.laplacian, g0.laplacian, alpha)
            assert blend.tobytes() == alone.tobytes()
        assert stack[0].tobytes() == g0.laplacian.tobytes()
        assert stack[-1].tobytes() == g1.laplacian.tobytes()


def test_blend_of_equal_matrices_ignores_alpha():
    a = np.array([[0.3, -0.3], [-0.3, 0.3]])
    for alpha in (0.1, 0.37, 0.99):
        assert np.array_equal(blended_laplacian(a, a.copy(), alpha), a)


# ------------------------------------------------------------ eigenvectors

def test_eigenvectors_of_zero_matrix_are_orthonormal():
    y = smallest_eigenvectors(np.zeros((3, 3)), 2)
    assert y.shape == (3, 2)
    assert np.allclose(y.T @ y, np.eye(2), atol=1e-12)
    assert np.allclose(np.zeros((3, 3)) @ y, 0.0)


def test_eigenvectors_diagonal_case():
    y = smallest_eigenvectors(np.diag([3.0, 1.0, 2.0]), 2)
    # eigenvalues 1 and 2 live on coordinates 1 and 2
    assert np.allclose(np.abs(y[:, 0]), [0, 1, 0], atol=1e-12)
    assert np.allclose(np.abs(y[:, 1]), [0, 0, 1], atol=1e-12)


def test_eigenpair_residuals_and_ordering():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 8))
    a = a + a.T
    y = smallest_eigenvectors(a, 8)
    rayleigh = np.array([y[:, i] @ a @ y[:, i] for i in range(8)])
    assert np.all(np.diff(rayleigh) >= -1e-10)  # ascending
    scale = np.linalg.norm(a, 2)
    for i in range(8):
        residual = np.linalg.norm(a @ y[:, i] - rayleigh[i] * y[:, i])
        assert residual <= 1e-8 * scale
    # full eigensystem reconstructs the matrix
    assert np.allclose((y * rayleigh) @ y.T, a, atol=1e-8 * scale)


def test_eigenvectors_reject_asymmetric_input():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        smallest_eigenvectors(a, 1)
    # eigh reads only the lower triangle, and no asymmetry test sees a NaN
    for bad in (np.nan, np.inf, -np.inf):
        a = np.eye(3)
        a[0, 1] = bad
        for matrix in (a, np.stack([np.eye(3), a])):
            with pytest.raises(ValueError, match="finite"):
                smallest_eigenvectors(matrix, 1)


def test_eigenvector_count_bounds():
    with pytest.raises(ValueError):
        smallest_eigenvectors(np.eye(3), 4)
    with pytest.raises(ValueError):
        smallest_eigenvectors(np.eye(3), 0)


# ----------------------------------------------------------------- k-means

def test_kmeans_one_row_per_cluster():
    rows = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    labels = kmeans_rows(rows, 3, seed=1)
    assert sorted(labels.tolist()) == [0, 1, 2]
    centers = rows[np.argsort(labels)]
    assert centers.shape == (3, 2)


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(7)
    a = rng.normal(scale=0.5, size=(20, 3))
    b = rng.normal(scale=0.5, size=(20, 3)) + 10.0
    rows = np.vstack([a, b])
    labels = kmeans_rows(rows, 2, seed=3)
    assert len(set(labels[:20].tolist())) == 1
    assert len(set(labels[20:].tolist())) == 1
    assert labels[0] != labels[20]


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 4))
    assert np.array_equal(kmeans_rows(rows, 6, seed=11), kmeans_rows(rows, 6, seed=11))


def test_kmeans_all_labels_present_under_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        m = int(rng.integers(1, n + 1))
        rows = rng.normal(size=(n, int(rng.integers(1, 5))))
        if rng.random() < 0.3:
            rows[: n // 2] = rows[0]  # force duplicates
        labels = kmeans_rows(rows, m, seed=int(rng.integers(1 << 31)))
        assert labels.shape == (n,)
        assert set(labels.tolist()) == set(range(m))


def test_kmeans_handles_all_identical_rows():
    rows = np.ones((6, 2))
    labels = kmeans_rows(rows, 3, seed=0)
    assert set(labels.tolist()) == {0, 1, 2}


def test_kmeans_rejects_bad_cluster_count():
    with pytest.raises(ValueError):
        kmeans_rows(np.ones((3, 2)), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_rows(bad):
    rows = np.ones((6, 2))
    rows[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        kmeans_rows(rows, 3, seed=0)
    with pytest.raises(ValueError, match="finite"):
        kmeans_rows(rows, 1, seed=0)
    with pytest.raises(ValueError, match="finite"):
        kmeans_rows(np.stack([np.ones((6, 2)), rows]), 1, seed=0)


def test_kmeans_single_cluster_returns_zeros():
    rows = np.random.default_rng(2).normal(size=(3, 5, 2))
    for shaped in (rows[0], rows):
        labels = kmeans_rows(shaped, 1, seed=4)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.zeros(shaped.shape[:-1], dtype=np.int64))


def test_kmeans_rejects_rows_whose_squared_distances_overflow():
    with pytest.raises(ValueError, match="overflow"):
        kmeans_rows(np.array([[0.0], [1e200], [2e200]]), 2, seed=0)


# Reference k-means: one restart at a time, seeded with Generator.choice draws,
# centroids from a per-cluster mean.  The library must give the same labels,
# and per restart the same SSE.

def _ref_kmeans_pp_centers(rows, M, rng):
    n = rows.shape[0]
    centers = np.empty((M, rows.shape[1]))
    centers[0] = rows[int(rng.integers(n))]
    d2 = ((rows - centers[0]) ** 2).sum(axis=1)
    for m in range(1, M):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[m] = rows[idx]
        d2 = np.minimum(d2, ((rows - centers[m]) ** 2).sum(axis=1))
    return centers


# stops by SSE change, the library when labels repeat: matches show no input stops elsewhere
def _ref_lloyd(rows, M, rng, max_iters, tol):
    n = rows.shape[0]
    centers = _ref_kmeans_pp_centers(rows, M, rng)
    labels = np.zeros(n, dtype=np.int64)
    sse_prev = np.inf
    sse = np.inf
    for _ in range(max_iters):
        d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=M)
        for m in np.flatnonzero(counts == 0):
            fit = d2[np.arange(n), labels].copy()
            fit[counts[labels] <= 1] = -1.0
            worst = int(np.argmax(fit))
            counts[labels[worst]] -= 1
            labels[worst] = m
            counts[m] = 1
        for m in range(M):
            centers[m] = rows[labels == m].mean(axis=0)
        sse = float(((rows - centers[labels]) ** 2).sum())
        if np.isfinite(sse_prev) and abs(sse_prev - sse) <= tol * max(sse_prev, 1e-12):
            break
        sse_prev = sse
    return labels, sse


def _ref_restart_rng(root, restart):
    return np.random.default_rng(np.random.SeedSequence(
        entropy=root.entropy, spawn_key=root.spawn_key + (restart,)))


def _ref_kmeans_rows(rows, M, restarts=10, max_iters=100, tol=1e-9, seed=0):
    rows = np.asarray(rows, dtype=float)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    best_labels, best_sse = None, np.inf
    for r in range(restarts):
        labels, sse = _ref_lloyd(rows, M, _ref_restart_rng(root, r), max_iters, tol)
        if sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels


def kmeans_fuzz_inputs():
    """(rows, M, seed) covering the shapes and degeneracies k-means meets,
    with int seeds and, for one input in five of the first 120, the
    SeedSequence seeds the harness passes.

    Rows have at least two columns, or one column with M = 1: numpy's mean
    of a single column sums pairwise, not in row order, and the pipeline's
    embeddings have M columns.
    """
    rng = np.random.default_rng(2024)
    for i in range(120):
        n = int(rng.integers(2, 40))
        m = (1, n, int(rng.integers(2, n + 1)))[i % 3]
        rows = rng.normal(size=(n, int(rng.integers(2, 12))))
        if i % 4 == 1:
            rows[: n // 2] = rows[0]      # duplicate rows
        elif i % 4 == 2:
            rows = np.round(rows)         # many ties between distances
        seed = int(rng.integers(1 << 31))
        if i % 5 == 4:
            # the harness's k-means seed: a nonempty spawn key, entropy up to 2^62
            seed = derive_stream(trial_seed(seed << (i % 32), i), STREAM_KMEANS)
        yield rows, m, seed
    # hard inputs for the GEMM distances ||x||^2 - 2 x.c + ||c||^2: rows
    # offset by 1e8 (severe cancellation), rows near 1e155 (||x||^2
    # overflows, their squared distances do not) and lattice rows (exact
    # distance ties)
    for i in range(108):
        n = int(rng.integers(2, 40))
        m = (1, n, int(rng.integers(2, n + 1)))[i % 3]
        shape = (n, int(rng.integers(2, 12)))
        if i < 36:
            rows = rng.normal(size=shape) + 1e8
        elif i < 72:
            rows = 1e155 * (1.0 + 1e-4 * rng.normal(size=shape))
        else:
            rows = rng.integers(-2, 3, size=shape) * 0.1
        yield rows, m, int(rng.integers(1 << 31))
    # all rows equal: every distance ties, so the empty-cluster repair runs
    for m in (1, 2, 5):
        yield np.full((6, 3), 0.25), m, m
    yield np.ones((5, 1)), 1, 3
    for g0, g1, alpha, m, _ in small_pipeline_runs():
        blend = blended_laplacian(g1.laplacian, g0.laplacian, alpha)
        yield smallest_eigenvectors(blend, m), m, 17


def test_kmeans_matches_reference_implementation(monkeypatch):
    for rows, m, seed in kmeans_fuzz_inputs():
        assert np.array_equal(kmeans_rows(rows, m, seed=seed),
                              _ref_kmeans_rows(rows, m, seed=seed))
    # a short iteration budget stops restarts before they converge
    monkeypatch.setattr(clustering, "KMEANS_MAX_ITERS", 2)
    rows, m, seed = np.random.default_rng(3).normal(size=(30, 4)), 6, 5
    assert np.array_equal(kmeans_rows(rows, m, seed=seed),
                          _ref_kmeans_rows(rows, m, max_iters=2, seed=seed))


def lloyd_runs(restarts=3):
    """Per restart of every fuzz input: rows, the batched seeding's centers,
    the library's (labels, sse) from the batched Lloyd run of all restarts and
    the reference's (labels, sse) from that restart alone.  The seeding runs
    on a stack of one entry."""
    root = np.random.SeedSequence(5)
    states = [_ref_restart_rng(root, r).bit_generator.state for r in range(restarts)]
    for rows, m, _ in kmeans_fuzz_inputs():
        centers, first = clustering._kmeans_pp_centers(rows[None], m, states)
        centers = centers[0]
        labels, sse = clustering._lloyd(rows, centers, first[0], 100)
        for r in range(restarts):
            yield (rows, centers[r], (labels[r], sse[r]),
                   _ref_lloyd(rows, m, _ref_restart_rng(root, r), 100, 1e-9))


def test_lloyd_matches_reference_restart_by_restart():
    # an equal SSE shows the centroids agree to the last bit, not only the labels
    for _, _, (labels, sse), (ref_labels, ref_sse) in lloyd_runs():
        assert np.array_equal(labels, ref_labels)
        assert sse == ref_sse


def test_lloyd_exact_fallback_matches_certified_path(monkeypatch):
    # an infinite bound sends every row to the exact form, whose labels the
    # certificate promises; the all-identical-rows inputs run the repair
    default = [result for _, _, result, _ in lloyd_runs()]
    monkeypatch.setattr(clustering, "_gemm_gap_bound", lambda scale, d: np.inf)
    exact = list(lloyd_runs())
    assert len(exact) == len(default)
    for (labels, sse), (_, _, (exact_labels, exact_sse), (ref_labels, ref_sse)) \
            in zip(default, exact):
        assert np.array_equal(exact_labels, labels)
        assert np.array_equal(exact_labels, ref_labels)
        assert exact_sse == sse == ref_sse


def test_restart_stops_when_the_repair_restores_its_labels(monkeypatch):
    # all rows equal: every assignment puts each row in cluster 0 and the
    # repair refills the emptied clusters as it did one iteration before, so
    # the labels compared after the repair repeat and every restart stops on
    # its first GEMM assignment (counted by its one certificate bound)
    calls = []
    bound = clustering._gemm_gap_bound
    monkeypatch.setattr(clustering, "_gemm_gap_bound",
                        lambda scale, d: calls.append(scale) or bound(scale, d))
    for m in (2, 5):
        calls.clear()
        assert set(kmeans_rows(np.full((6, 3), 0.25), m, seed=m).tolist()) == set(range(m))
        assert len(calls) == 1


def test_batched_seeding_replays_generator_choice():
    # the weighted draw replicates Generator.choice(n, p=...): the same rows
    # are picked and every Generator ends in the same state.  A numpy release
    # that changes how choice draws fails here.
    # With a stack of one entry, restarts that reach a zero total (the
    # all-identical-rows inputs) are replayed from their reset Generator.
    root = np.random.SeedSequence(99)
    states = [_ref_restart_rng(root, r).bit_generator.state for r in range(4)]
    for rows, m, _ in kmeans_fuzz_inputs():
        centers, _ = clustering._kmeans_pp_centers(rows[None], m, states)
        for r, rng in enumerate(clustering._RESTART_RNGS[:4]):
            ref_rng = _ref_restart_rng(root, r)
            assert np.array_equal(centers[0, r], _ref_kmeans_pp_centers(rows, m, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def _spawned_root():
    """A root that has spawned children; the restart rule ignores that count."""
    root = np.random.SeedSequence(11, spawn_key=(4,))
    root.spawn(3)
    return root


# roots covering how SeedSequence turns entropy and spawn keys into words
RESTART_ROOTS = [
    np.random.SeedSequence(0),
    np.random.SeedSequence(12345),
    np.random.SeedSequence(2**32 - 1),
    np.random.SeedSequence(2**32),
    np.random.SeedSequence(2**40 + 3, spawn_key=(7,)),
    np.random.SeedSequence(2**127 + 12345),
    np.random.SeedSequence(2**128 - 1, spawn_key=(0, 0)),
    np.random.SeedSequence(np.uint64(2**63 + 7)),
    np.random.SeedSequence([1, 2, 3]),
    np.random.SeedSequence([2**33, "0x10", "17"], spawn_key=(2,)),
    np.random.SeedSequence(np.array([7, 8, 9, 10, 11], dtype=np.uint32)),
    np.random.SeedSequence(3, spawn_key=tuple(range(4, 24))),
    np.random.SeedSequence(3, spawn_key=(2**32, 2**40 + 1)),
    np.random.SeedSequence(99, pool_size=8),
    np.random.SeedSequence(99, spawn_key=(1, 3, 0), pool_size=8),
    derive_stream(trial_seed(2**40 + 9, 4), STREAM_KMEANS),
    np.random.SeedSequence(2**200 + 1, spawn_key=(3, 2**35)),
    np.random.SeedSequence([1, 2, 3, 4, 5, 6], spawn_key=(9,)),
    np.random.SeedSequence(5, spawn_key=(np.uint64(5),)),
    _spawned_root(),
]


def test_restart_states_equal_numpy_seeding():
    # restart r's Generator is the frozen PCG64(SeedSequence(entropy,
    # spawn_key + (r,))); a numpy release that changes SeedSequence or PCG64
    # seeding fails here
    for root in RESTART_ROOTS:
        expected = [_ref_restart_rng(root, r).bit_generator.state
                    for r in range(clustering.KMEANS_RESTARTS)]
        assert clustering._restart_states(root) == expected, root


def stacked_kmeans_inputs():
    """(stack, M, seed): fuzz inputs of equal shape and M stacked together,
    and each fuzz input stacked with its rows reversed and with all its rows
    equal to its first, which reaches a zero seeding total when M > 1."""
    inputs = list(kmeans_fuzz_inputs())
    groups = {}
    for rows, m, seed in inputs:
        groups.setdefault((rows.shape, m), []).append((rows, seed))
    for (_, m), members in groups.items():
        if len(members) > 1:
            yield np.stack([rows for rows, _ in members]), m, members[0][1]
    for rows, m, seed in inputs[::3]:
        yield np.stack([rows, rows[::-1], np.broadcast_to(rows[0], rows.shape)]), m, seed


def test_stacked_kmeans_matches_one_at_a_time():
    for stack, m, seed in stacked_kmeans_inputs():
        labels = kmeans_rows(stack, m, seed=seed)
        assert labels.shape == stack.shape[:2]
        for rows, got in zip(stack, labels):
            assert np.array_equal(got, kmeans_rows(rows, m, seed=seed))
            assert np.array_equal(got, _ref_kmeans_rows(rows, m, seed=seed))


def test_seeding_labels_are_nearest_seed_by_exact_distances():
    # Lloyd's first assignment comes from the seeding: per pair and row, the
    # first minimum of the exact ((x - c)**2).sum() over that pair's seeds.
    # The stacks include duplicate rows, lattice ties and pairs replayed after
    # a zero total
    inputs = [(rows[None], m, seed) for rows, m, seed in kmeans_fuzz_inputs()]
    for stack, m, seed in inputs + list(stacked_kmeans_inputs()):
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        centers, first = clustering._kmeans_pp_centers(stack, m, clustering._restart_states(root))
        exact = ((stack[:, None, :, None, :] - centers[:, :, None, :, :]) ** 2).sum(axis=-1)
        assert np.array_equal(first, exact.argmin(axis=-1))


def desk_stacks():
    """(stack, seed): the harness's desk scale, beyond the fuzz: n = 50 BSs
    embedded in d = M = 20 columns, five alpha branches stacked, 19 seeding
    rounds."""
    alphas = np.array([0.25, 0.5, 0.75, 0.9, 1.0])
    for i in range(2):
        g0, g1 = graph_pair(31 + i, 30, 50)
        stack = smallest_eigenvectors(blended_laplacian(g1.laplacian, g0.laplacian, alphas), 20)
        assert stack.shape == (5, 50, 20)
        yield stack, derive_stream(trial_seed(7, i), STREAM_KMEANS)


def test_desk_scale_stacked_kmeans_matches_reference():
    for stack, seed in desk_stacks():
        labels = kmeans_rows(stack, 20, seed=seed)
        for rows, got in zip(stack, labels):
            assert np.array_equal(got, _ref_kmeans_rows(rows, 20, seed=seed))


def test_desk_scale_lloyd_matches_reference_restart_by_restart():
    # every restart's stopping point, not only the winner's: its labels, and
    # its SSE to the bit, equal the reference's under the SSE-change rule
    for stack, seed in desk_stacks():
        centers, first = clustering._kmeans_pp_centers(stack, 20, clustering._restart_states(seed))
        for rows, entry_centers, entry_first in zip(stack, centers, first):
            labels, sse = clustering._lloyd(rows, entry_centers, entry_first, 100)
            for r in range(clustering.KMEANS_RESTARTS):
                ref_labels, ref_sse = _ref_lloyd(rows, 20, _ref_restart_rng(seed, r), 100, 1e-9)
                assert np.array_equal(labels[r], ref_labels)
                assert sse[r] == ref_sse


# ---------------------------------------------------------------- pipeline

def test_alpha_one_equals_plain_spectral_clustering():
    g0, g1 = graph_pair(2, 10, 8)
    for seed in (0, 1, 2):
        cfg = SpectralConfig(alpha=1.0, M=3, seed=seed)
        smoothed = temporal_smoothed_partition(g0, g1, cfg)
        plain = initial_partition(g1, cfg)
        assert np.array_equal(smoothed.vertex_labels, plain.vertex_labels)
        assert np.array_equal(smoothed.user_assignment, plain.user_assignment)


def test_equal_graphs_make_alpha_irrelevant():
    g0, _ = graph_pair(4, 10, 8)
    labels = None
    for alpha in (0.0, 0.25, 0.6, 1.0):
        cfg = SpectralConfig(alpha=alpha, M=3, seed=9)
        part = temporal_smoothed_partition(g0, g0, cfg)
        if labels is None:
            labels = part.vertex_labels
        assert np.array_equal(part.vertex_labels, labels)


def test_initial_partition_definition():
    g0, _ = graph_pair(6, 10, 8)
    cfg = SpectralConfig(alpha=0.4, M=2, seed=5)
    a = initial_partition(g0, cfg)
    b = temporal_smoothed_partition(g0, g0, cfg)
    assert np.array_equal(a.vertex_labels, b.vertex_labels)


def test_single_group_collapses_labels():
    g0, _ = graph_pair(8, 10, 8)
    part = initial_partition(g0, SpectralConfig(alpha=1.0, M=1, seed=0))
    assert np.all(part.vertex_labels == 0)


def test_disconnected_components_split_exactly():
    w = np.zeros((6, 6))
    for i, j in ((0, 1), (1, 2), (0, 2)):
        w[i, j] = w[j, i] = 2.0
    for i, j in ((3, 4), (4, 5), (3, 5)):
        w[i, j] = w[j, i] = 3.0
    g = graph_from_weights(w, anchor=[0, 3])
    part = initial_partition(g, SpectralConfig(alpha=1.0, M=2, seed=2))
    assert len(set(part.vertex_labels[:3].tolist())) == 1
    assert len(set(part.vertex_labels[3:].tolist())) == 1
    assert part.vertex_labels[0] != part.vertex_labels[3]


def test_partition_labels_always_cover_groups():
    rng = np.random.default_rng(3)
    for _ in range(60):
        num_bs = int(rng.integers(2, 10))
        num_users = int(rng.integers(1, 12))
        m = int(rng.integers(1, num_bs + 1))
        g0, g1 = graph_pair(int(rng.integers(1 << 30)), num_users, num_bs)
        alpha = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
        part = temporal_smoothed_partition(
            g0, g1, SpectralConfig(alpha=alpha, M=m, seed=int(rng.integers(1 << 31))))
        assert set(part.vertex_labels.tolist()) == set(range(m))
        assert np.array_equal(part.user_assignment, part.vertex_labels[g1.anchor])


def test_partition_validation_errors():
    with pytest.raises(ValueError):
        Partition.from_vertex_labels(np.array([0, 0, 2]), 3, np.array([0]))  # label 1 empty
    with pytest.raises(ValueError):
        Partition.from_vertex_labels(np.array([0, 3]), 2, np.array([0]))     # out of range


def small_pipeline_runs():
    """40 seeded small graph pairs with the pipeline's partition of each.

    Yields (g0, g1, alpha, m, partition) with L <= 8 and m in {2, 3}.
    """
    rng = np.random.default_rng(42)
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    for i in range(40):
        num_bs = int(rng.integers(4, 9))
        num_users = int(rng.integers(2, 13))
        m = int(rng.integers(2, 4))
        alpha = alphas[i % 5]
        g0, g1 = graph_pair(int(rng.integers(1 << 30)), num_users, num_bs)
        part = temporal_smoothed_partition(
            g0, g1, SpectralConfig(alpha=alpha, M=m, seed=i))
        yield g0, g1, alpha, m, part


def improving_moves(g0, g1, labels, m, alpha):
    """Single-vertex moves keeping every group nonempty that lower the objective."""
    mine = blended_objective(g0, g1, labels, alpha)
    found = []
    for v in range(labels.shape[0]):
        if np.count_nonzero(labels == labels[v]) == 1:
            continue
        for b in range(m):
            if b == labels[v]:
                continue
            moved = labels.copy()
            moved[v] = b
            if blended_objective(g0, g1, moved, alpha) < mine - 1e-9 * max(1.0, mine):
                found.append((v, b))
    return found


def test_spectral_never_beats_brute_force():
    # the enumerated optimum is a true lower bound on the pipeline's objective
    for g0, g1, alpha, m, part in small_pipeline_runs():
        _, best = brute_force_best(g0, g1, alpha, m)
        mine = blended_objective(g0, g1, part.vertex_labels, alpha)
        assert mine >= best - 1e-9 * max(1.0, best)


def test_output_is_local_minimum_of_blended_cut():
    for g0, g1, alpha, m, part in small_pipeline_runs():
        assert improving_moves(g0, g1, part.vertex_labels, m, alpha) == []
    # with M = L every group is a singleton: no move is allowed, so the
    # k-means labels come back unchanged
    for seed in (3, 7, 11):
        g0, g1 = graph_pair(seed, num_users=6, num_bs=5)
        cfg = SpectralConfig(alpha=0.5, M=5, seed=seed)
        part = temporal_smoothed_partition(g0, g1, cfg)
        blend = blended_laplacian(g1.laplacian, g0.laplacian, cfg.alpha)
        raw = kmeans_rows(smallest_eigenvectors(blend, cfg.M), cfg.M, seed=seed)
        assert np.array_equal(part.vertex_labels, raw)


def test_smoothness_trend_over_two_step_batch(two_step_batch):
    ok, detail = trend_holds(two_step_batch["smoothness"], direction=+1)
    assert ok, f"smoothness rose with alpha beyond one standard error: {detail}"
