"""Output checks, computed apart from cfnet with plain numpy.

Each check returns a list of problems; an empty list means the output passed.
Nothing here imports cfnet: the radio model, the cut and the enumeration are
written out again from their definitions so that a fault in the program
cannot hide in its own reference.
"""

import csv
import itertools
import math
import os
import warnings

import numpy as np

D_MIN = 0.01
METRICS_HEADER = ["trial", "step", "alpha", "sum_rate", "temporal_smoothness",
                  "handovers", "zfbf_sum_rate"]
KPIS = ("sum_rate", "temporal_smoothness", "handovers", "zfbf_sum_rate")
# metrics.csv and the snapshot positions carry 9 significant digits
FILE_RTOL = 1e-6


def gains(users, bs, beta):
    d = np.sqrt(((users[:, None, :] - bs[None, :, :]) ** 2).sum(axis=2))
    return np.maximum(d, D_MIN) ** (-beta)


def sum_rate(g, labels, anchor, r):
    """Sum over users of log2(1 + r g_anchor / (r sum_outside g + 1))."""
    own = labels[anchor]
    outside = (labels[None, :] != own[:, None]) * g
    signal = g[np.arange(g.shape[0]), anchor]
    return float(np.log2(1.0 + r * signal / (r * outside.sum(axis=1) + 1.0)).sum())


def connections(labels, anchor):
    return {(k, l) for k, a in enumerate(anchor)
            for l in np.flatnonzero(labels == labels[a])}


def handovers(labels_prev, anchor_prev, labels, anchor):
    return len(connections(labels, anchor) - connections(labels_prev, anchor_prev))


def step_kpis(bs, users_prev, users, labels_prev, labels, beta, r):
    """(sum_rate, temporal_smoothness, handovers) of one step, from positions."""
    g = gains(users, bs, beta)
    g_prev = gains(users_prev, bs, beta)
    anchor, anchor_prev = g.argmax(axis=1), g_prev.argmax(axis=1)
    return (sum_rate(g, labels, anchor, r), sum_rate(g_prev, labels, anchor_prev, r),
            handovers(labels_prev, anchor_prev, labels, anchor))


def close(a, b, rtol, atol=1e-9):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _number(text):
    return float(text) if text != "" else math.nan


def read_metrics(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != METRICS_HEADER:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    return np.array([[_number(v) for v in row] for row in rows[1:]], dtype=float)


def read_snapshot(path):
    bs, users = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            item = (float(row["x"]), float(row["y"]), int(row["subnetwork"]))
            (bs if row["entity"] == "bs" else users).append(item)
    bs, users = np.array(bs), np.array(users)
    return bs[:, :2], bs[:, 2].astype(int), users[:, :2], users[:, 2].astype(int)


def trial_means(table, alphas, steps):
    """(trials, alphas, 4) per-trial means over the steps after the bootstrap."""
    cube = table[:, 3:].reshape(-1, steps, len(alphas), 4)
    measured = cube[:, 1:] if steps > 1 else cube
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-empty KPI columns
        return np.nanmean(measured, axis=1)


def check_sweep(outdir, cfg):
    """Check one `cfnet run` output directory against the config that made it."""
    problems = []
    alphas, steps, trials = cfg["alpha_grid"], cfg["time_steps"], cfg["realizations"]
    table = read_metrics(os.path.join(outdir, "metrics.csv"))

    expected = np.array([(i, t, a) for i in range(trials) for t in range(steps)
                         for a in alphas], dtype=float)
    if table.shape != (len(expected), 7) or not np.array_equal(table[:, :3], expected):
        return [f"metrics.csv rows are not trials x steps x alphas in order "
                f"({table.shape[0]} rows, expected {len(expected)})"]
    first = table[:, 1] == 0
    if not np.isnan(table[first, 4:6]).all() or np.isnan(table[~first, 3:6]).any():
        problems.append("history KPIs are not empty exactly on the bootstrap step")
    zf = table[:, 6]
    if cfg["evaluate_zfbf"]:
        if not (np.isfinite(zf).all() and (zf >= 0).all()):
            problems.append("zero-forcing rates are not all finite and >= 0")
    elif not np.isnan(zf).all():
        problems.append("zero-forcing rates present although evaluation is off")

    means = trial_means(table, alphas, steps)
    with open(os.path.join(outdir, "summary.csv"), newline="", encoding="utf-8") as fh:
        summary = list(csv.DictReader(fh))
    if [float(row["alpha"]) for row in summary] != list(alphas):
        problems.append("summary.csv does not list the alpha grid in order")
    else:
        for a, row in enumerate(summary):
            for k, kpi in enumerate(KPIS):
                fresh = means[:, a, k]
                fresh = fresh[~np.isnan(fresh)]
                stored = _number(row[f"{kpi}_mean"])
                if fresh.size == 0 and math.isnan(stored):
                    continue
                if fresh.size == 0 or not close(stored, float(fresh.mean()), FILE_RTOL):
                    problems.append(f"summary.csv {kpi}_mean at alpha {alphas[a]} is "
                                    f"{stored}, aggregation of metrics.csv gives "
                                    f"{fresh.mean() if fresh.size else 'nothing'}")

    # trial 0 of the first alpha branch, rebuilt from the snapshot files
    r = 10.0 ** (cfg["pt_over_sigma2_db"] / 10.0)
    previous = None
    for t in range(steps):
        bs, labels, users, assigned = read_snapshot(os.path.join(outdir, f"snapshot_{t}.csv"))
        g = gains(users, bs, cfg["beta"])
        anchor = g.argmax(axis=1)
        if set(labels.tolist()) != set(range(cfg["M"])):
            problems.append(f"snapshot_{t}: labels do not cover all {cfg['M']} groups")
        if not np.array_equal(assigned, labels[anchor]):
            problems.append(f"snapshot_{t}: a user is not with its strongest BS")
        row = table[t * len(alphas)]
        got = [float(v) for v in (row[3:4] if previous is None else row[3:6])]
        if previous is None:
            want = [sum_rate(g, labels, anchor, r)]
        else:
            want = list(step_kpis(bs, previous[1], users, previous[0], labels, cfg["beta"], r))
        if not all(close(x, y, FILE_RTOL) for x, y in zip(got, want)):
            problems.append(f"trial 0 step {t}: metrics.csv has {got}, "
                            f"recomputed from the snapshot {want}")
        previous = (labels, users)
    return problems


def blended_cut(w_prev, w_t, labels, alpha):
    cut = labels[:, None] != labels[None, :]
    return float(alpha * w_t[cut].sum() + (1.0 - alpha) * w_prev[cut].sum())


def enumerated_optimum(w_prev, w_t, alpha, groups):
    """Smallest blended cut over every labelling that uses all groups."""
    n = w_t.shape[0]
    labels = np.array(list(itertools.product(range(groups), repeat=n)))
    labels = labels[np.all([(labels == m).any(axis=1) for m in range(groups)], axis=0)]
    cut = labels[:, :, None] != labels[:, None, :]
    blend = alpha * w_t + (1.0 - alpha) * w_prev
    return float((cut * blend).sum(axis=(1, 2)).min())


def graph_weights(g):
    """Interference-ratio weights from large-scale gains, as README defines them."""
    n = g.shape[1]
    w = np.zeros((n, n))
    for k, a in enumerate(g.argmax(axis=1)):
        w[a] += g[k] / g[k, a]
    np.fill_diagonal(w, 0.0)
    return w + w.T


def check_instance(inst, out, sample):
    """Check one oracle-certify instance's outputs; see run.py for the fields."""
    problems = []
    beta, r, alpha, groups = inst["beta"], inst["r"], inst["alpha"], inst["M"]
    bs, users_prev, users = inst["bs"], inst["users_prev"], inst["users"]
    w_prev, w_t = out["w_prev"], out["w_t"]
    tag = f"instance {inst['tag']}"
    for name in ("boot", "spectral", "best"):
        labels = out[name]
        if set(labels.tolist()) != set(range(groups)):
            problems.append(f"{tag}: {name} labels do not use all {groups} groups")
    spectral = blended_cut(w_prev, w_t, out["spectral"], alpha)
    best = blended_cut(w_prev, w_t, out["best"], alpha)
    if not close(best, out["best_obj"], 1e-9) or not close(spectral, out["spectral_obj"], 1e-9):
        problems.append(f"{tag}: reported objectives {out['best_obj']}, {out['spectral_obj']} "
                        f"re-score to {best}, {spectral}")
    if spectral < best - 1e-9 * max(1.0, best):
        problems.append(f"{tag}: spectral objective {spectral} is below the optimum {best}")
    if sample:
        for name, w, pos in (("previous", w_prev, users_prev), ("current", w_t, users)):
            if not np.allclose(w, graph_weights(gains(pos, bs, beta)), rtol=1e-12, atol=0):
                problems.append(f"{tag}: {name} graph weights differ from a recomputation")
        exact = enumerated_optimum(w_prev, w_t, alpha, groups)
        if not close(exact, best, 1e-9):
            problems.append(f"{tag}: optimum {best}, independent enumeration {exact}")
    want = step_kpis(bs, users_prev, users, out["boot"], out["spectral"], beta, r)
    got = (out["sum_rate"], out["temporal_smoothness"], out["handovers"])
    if not all(close(x, y, 1e-9) for x, y in zip(got, want)):
        problems.append(f"{tag}: KPIs {got}, recomputed {want}")
    return problems
