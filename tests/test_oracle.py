import hashlib
import importlib.util
import itertools
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import cfnet
import cfnet.cli  # noqa: F401  (the tracer wraps cli.main)
from cfnet import oracle
from cfnet.oracle import (BudgetExceeded, blended_objective, brute_force_best,
                          enumerate_partitions, random_instances)

from conftest import graph_from_weights, graph_pair


@lru_cache(maxsize=None)
def stirling2(n: int, m: int) -> int:
    """Number of ways to split n items into m nonempty groups."""
    if m < 0 or n < 0:
        raise ValueError("negative arguments")
    if n == 0 and m == 0:
        return 1
    if n == 0 or m == 0 or m > n:
        return 0
    return m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


def test_stirling_base_values():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 1) == 1
    assert stirling2(4, 4) == 1
    assert stirling2(8, 3) == 966
    assert stirling2(5, 0) == 0


def test_enumeration_counts_match_stirling():
    for L in range(1, 9):
        for M in range(1, L + 1):
            count = sum(1 for _ in enumerate_partitions(L, M))
            assert count == stirling2(L, M), (L, M)


def test_enumeration_yields_canonical_unique_partitions():
    # the order decides ties, so it is checked against an independent
    # enumeration: itertools.product's labellings, in its lexicographic order,
    # kept when they are restricted-growth strings (each label at most one
    # above those before it) that use all the groups.  Vertex i of such a
    # string has a label of at most i, so the product stops there.
    for L in range(1, 9):
        for M in range(1, L + 1):
            candidates = itertools.product(*(range(min(i + 1, M)) for i in range(L)))
            expected = [labels for labels in candidates
                        if len(set(labels)) == M
                        and all(v <= max(labels[:i], default=-1) + 1
                                for i, v in enumerate(labels))]
            got = np.array(list(enumerate_partitions(L, M)))
            assert np.array_equal(got, np.array(expected)), (L, M)


def test_budget_rejects_oversized_requests():
    with pytest.raises(BudgetExceeded):
        list(enumerate_partitions(20, 3))
    with pytest.raises(BudgetExceeded):
        list(enumerate_partitions(9, 2))


def test_enumeration_rejects_bad_group_count():
    with pytest.raises(ValueError):
        list(enumerate_partitions(4, 0))
    with pytest.raises(ValueError):
        list(enumerate_partitions(4, 5))


def test_brute_force_zero_cut_on_disconnected_components():
    from cfnet.graph import AffinityGraph
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 2.0
    w[2, 3] = w[3, 2] = 1.5
    lap = np.diag(w.sum(1)) - w
    g = AffinityGraph(anchor=np.array([0, 2]), weights=w, laplacian=lap)
    part, obj = brute_force_best(g, g, alpha=1.0, num_groups=2)
    assert obj == 0.0
    assert part.vertex_labels[0] == part.vertex_labels[1]
    assert part.vertex_labels[2] == part.vertex_labels[3]
    assert part.vertex_labels[0] != part.vertex_labels[2]


def test_alpha_zero_ignores_current_graph():
    g_prev, g_t = graph_pair(1, 8, 6)
    _, obj_a = brute_force_best(g_prev, g_t, alpha=0.0, num_groups=2)
    g_prev2, g_other = graph_pair(99, 8, 6)
    _, obj_b = brute_force_best(g_prev, g_other, alpha=0.0, num_groups=2)
    assert obj_a == pytest.approx(obj_b)


def test_brute_force_matches_independent_double_enumeration():
    # recompute the optimum with explicit loops over all canonical bipartitions
    g_prev, g_t = graph_pair(7, num_users=6, num_bs=6)
    alpha = 0.6
    best = np.inf
    count = 0
    for bits in range(1, 2 ** 5):  # vertex 0 fixed in group 0
        labels = np.array([0] + [bits >> i & 1 for i in range(5)])
        if labels.max() == 0:
            continue
        count += 1
        obj = 0.0
        for w, weight_mat in ((alpha, g_t.weights), (1 - alpha, g_prev.weights)):
            cut = 0.0
            for i in range(6):
                for j in range(6):
                    if labels[i] != labels[j]:
                        cut += weight_mat[i, j]
            obj += w * cut
        best = min(best, obj)
    assert count == 31
    _, got = brute_force_best(g_prev, g_t, alpha=alpha, num_groups=2)
    assert got == pytest.approx(best, rel=1e-12)


def _ref_brute_force_best(graph_prev, graph_t, alpha, num_groups):
    """brute_force_best as a loop: every partition scored by blended_objective,
    the first strict minimum kept.  Returns (labels, objective)."""
    best_labels, best_obj = None, np.inf
    for labels in enumerate_partitions(graph_t.num_vertices, num_groups):
        obj = blended_objective(graph_prev, graph_t, labels, alpha)
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    return best_labels, best_obj


def _symmetric(upper):
    w = np.triu(upper, 1)
    return graph_from_weights(w + w.T)


def reference_graph_pairs(num_vertices, rng):
    """Graph pairs of one kind each: all-equal, all-zero and small-integer
    weights, whose many ties the first canonical minimum must win; weights
    spread over ten decades, in whole powers of ten or not; and mixed-sign
    weights, whose cuts cancel."""
    shape = (num_vertices, num_vertices)
    yield _symmetric(np.full(shape, 0.7)), _symmetric(np.full(shape, 0.7))
    yield _symmetric(np.zeros(shape)), _symmetric(np.zeros(shape))
    # in tenths, cuts tied in exact arithmetic round apart, so the minimum
    # found depends on the order in which each cut is summed
    yield _symmetric(rng.integers(0, 3, shape) * 0.1), _symmetric(rng.integers(0, 3, shape) * 0.1)
    yield (_symmetric(10.0 ** rng.integers(-5, 5, shape)),
           _symmetric(10.0 ** rng.uniform(-5, 5, shape)))
    yield (_symmetric(rng.normal(size=shape) * 10.0 ** rng.uniform(-2, 2, shape)),
           _symmetric(rng.integers(-3, 4, shape).astype(float)))


def test_brute_force_matches_loop_reference_exactly():
    rng = np.random.default_rng(31)
    for num_vertices in range(2, 9):
        for groups in range(1, min(num_vertices, 4) + 1):
            for g_prev, g_t in reference_graph_pairs(num_vertices, rng):
                for alpha in (0.0, 0.3, 0.5, 1.0):
                    part, obj = brute_force_best(g_prev, g_t, alpha, groups)
                    labels, ref_obj = _ref_brute_force_best(g_prev, g_t, alpha, groups)
                    case = (num_vertices, groups, alpha, g_t.weights.tolist())
                    assert np.array_equal(part.vertex_labels, labels), case
                    assert obj == ref_obj, case


def test_partition_table_is_read_only_and_enumeration_yields_copies():
    table = oracle._partition_table(6, 3)
    assert table is oracle._partition_table(6, 3)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert np.array_equal(table, np.array(list(enumerate_partitions(6, 3))))
    g_prev, g_t = graph_pair(3, 8, 6)
    first, obj = brute_force_best(g_prev, g_t, 0.4, 3)
    expected = first.vertex_labels.copy()
    first.vertex_labels[:] = 0
    for labels in enumerate_partitions(6, 3):
        assert labels.flags.writeable
        labels[:] = 2
    again, again_obj = brute_force_best(g_prev, g_t, 0.4, 3)
    assert np.array_equal(again.vertex_labels, expected)
    assert again_obj == obj
    assert np.array_equal(table, np.array(list(enumerate_partitions(6, 3))))


def test_brute_force_returns_a_python_float_objective():
    g_prev, g_t = graph_pair(4, 8, 5)
    for alpha in (0.4, np.float64(0.4)):
        _, obj = brute_force_best(g_prev, g_t, alpha, 2)
        assert type(obj) is float


def test_brute_force_rejects_non_finite_weights():
    # checked before any scoring, so numpy has no inf * 0 to warn about
    for value, alpha in ((np.nan, 0.5), (np.inf, 0.5), (1.0, np.nan), (1.0, np.inf)):
        g_prev, g_t = graph_pair(5, 8, 5)
        g_t.weights[0, 1] = g_t.weights[1, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                brute_force_best(g_prev, g_t, alpha, 2)


def test_stacked_scores_equal_blended_objective_bit_for_bit():
    """brute_force_best's scores and objective rest on a numpy property: each
    (L, L) block of a stacked sum(axis=(-2, -1)) gets the bits of that block
    summed alone.  Holds on numpy 2.4.6."""
    for g_prev, g_t, alpha, groups, _ in random_instances(2025, 100):
        L = g_t.num_vertices
        stacked = oracle._blended_cuts(g_prev, g_t, oracle._separated_pairs(L, groups), alpha)
        alone = [blended_objective(g_prev, g_t, labels, alpha)
                 for labels in enumerate_partitions(L, groups)]
        assert stacked.tolist() == alone, (L, groups, alpha)


def test_perfbench_tracer_spans_certify():
    """The benchmark's traced mode wraps cfnet's functions and reads
    SpectralConfig's k-means budget; certify must still run under it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(cfnet)
    try:
        certificates = list(oracle.certify(2025, 2))
    finally:
        tracer.remove()
    assert len(certificates) == 2
    stats = tracer.busy_and_self()
    assert stats["clustering.partition"][0] == 2
    assert stats["oracle.brute_force_best"][0] == 2
    assert oracle.brute_force_best is brute_force_best


def test_blended_objective_endpoints():
    g_prev, g_t = graph_pair(13, 8, 6)
    labels = np.array([0, 1, 0, 1, 0, 1])
    full = blended_objective(g_prev, g_t, labels, 1.0)
    hist = blended_objective(g_prev, g_t, labels, 0.0)
    mid = blended_objective(g_prev, g_t, labels, 0.5)
    assert mid == pytest.approx(0.5 * full + 0.5 * hist)


def test_random_instances_are_pinned():
    """The C2 instance family: each instance's (L, K, M, alpha) and weights.

    Gate C2's thresholds would notice a changed draw only if it moved the
    certified ratios.  The weights digest holds on numpy 2.4.6; another build
    may round the mobility step's cos and sin differently.
    """
    sizes, weights = hashlib.sha256(), hashlib.sha256()
    for g_prev, g_t, alpha, groups, _ in random_instances(2025, 100):
        sizes.update(f"{g_t.num_vertices},{len(g_t.anchor)},{groups},{alpha!r};".encode())
        weights.update(g_prev.weights.tobytes() + g_t.weights.tobytes())
    assert sizes.hexdigest() == (
        "79b66132d215237885ec6b2143f3450ce2ca72b6209eea6fbf83642a99bf8b7c")
    assert weights.hexdigest() == (
        "fd741d7eef9d530b0208baf093324f10797fb14e63cbe2d0a233b4f24fa845ab")
