"""cfnet benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 45 --trace 0

Runs from the root of a cfnet checkout and imports cfnet from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Progress and the first
problems found go to standard error.  See perfbench/README.md for the
workloads, the metrics and the reference figures.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads and inherited by the set-up probes.
# On a few shared cores, BLAS threads that wait on each other turn another
# process's load into a several-fold slowdown of this one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 7
# Operations are timed in CPU seconds of this process (all its threads): time
# the scheduler gives to other processes on the shared cores is not counted.
clock = time.process_time

DESK = {"K": 30, "L": 50, "M": 20, "beta": 4.0, "pt_over_sigma2_db": 0.0,
        "alpha_grid": (0.0, 0.25, 0.5, 0.75, 0.9, 1.0), "time_steps": 5,
        "evaluate_zfbf": True}
LARGE = {"K": 300, "L": 500, "M": 100, "beta": 4.0, "pt_over_sigma2_db": 0.0,
         "alpha_grid": (0.0, 0.5, 1.0), "time_steps": 3, "evaluate_zfbf": False}
ORACLE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
REFERENCE_SEED = 0

sys.path.insert(0, HERE)
import checks  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_cfnet():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cfnet", "__init__.py")):
        raise SystemExit(f"perfbench: no cfnet sources under {src}")
    sys.path.insert(0, src)
    import cfnet
    import cfnet.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cfnet.__file__))) != src:
        raise SystemExit(f"perfbench: imported cfnet from {cfnet.__file__}, not from {src}")
    return cfnet


def round_seed(seed, r, kpi_rounds):
    """Master seed of round r: the KPI rounds are a reference set, the rest follow `seed`.

    No two rounds of a run share inputs, since r differs between them.
    """
    return int(np.random.SeedSequence([REFERENCE_SEED if r < kpi_rounds else seed, r])
               .generate_state(1)[0])


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


class Gauge:
    """Fixed plain-numpy work whose CPU time follows the host's speed.

    The shared host under this benchmark speeds up and slows down by a fifth
    or more over tens of seconds, and CPU seconds follow it (README, "Timing
    on a shared machine").  A slice of fixed work runs after every timed
    round: Lloyd iterations and a symmetric eigendecomposition at the
    workload's matrix sizes, written here and not taken from cfnet, so that
    a change to cfnet does not change it.  Each round's timings are scaled
    by `ref_s` over the mean slice time of the rounds within `window` of it,
    so they read as CPU seconds on a host where one slice takes `ref_s`.
    """

    def __init__(self, rows, groups, reps, ref_s, window):
        rng = np.random.default_rng(2412)
        self.rows = rng.standard_normal((rows, groups))
        sym = rng.standard_normal((rows, rows))
        self.sym = sym + sym.T
        self.groups, self.reps, self.ref_s, self.window = groups, reps, ref_s, window

    def slice(self):
        """CPU seconds of one slice."""
        start = clock()
        for _ in range(self.reps):
            np.linalg.eigh(self.sym)
            centers = self.rows[:self.groups].copy()
            for _ in range(10):
                d2 = ((self.rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                labels = d2.argmin(axis=1)
                for m in range(self.groups):
                    members = self.rows[labels == m]
                    if len(members):
                        centers[m] = members.mean(axis=0)
        return clock() - start

    def factors(self, slices):
        """Per round, `ref_s` over the mean slice of the rounds near it."""
        out = []
        for r in range(len(slices)):
            near = slices[max(0, r - self.window):r + self.window + 1]
            out.append(self.ref_s * len(near) / sum(near))
        return out


class Sweep:
    """`cfnet run` in-process on a generated config; an operation is a trial."""

    def __init__(self, cfnet, spec, trials_per_round, kpi_rounds, seed, workdir):
        self.cfnet, self.spec, self.seed, self.workdir = cfnet, spec, seed, workdir
        self.trials_per_round, self.kpi_rounds = trials_per_round, kpi_rounds
        alphas, steps = len(spec["alpha_grid"]), spec["time_steps"]
        self.partitions_per_op = 1 + (steps - 1) * alphas
        self.kpi_rows = []        # metrics.csv rows of the KPI rounds
        self.output_bytes = 0
        self.sha256 = None
        self._trial_times = []
        timed = cfnet.harness.run_trial

        def run_trial(*args, **kwargs):
            start = clock()
            try:
                return timed(*args, **kwargs)
            finally:
                self._trial_times.append(clock() - start)
        cfnet.harness.run_trial = run_trial

    def _config(self, tag, spec, master_seed):
        cfg = dict(spec, realizations=self.trials_per_round, master_seed=master_seed)
        cfg["outputs"] = os.path.join(self.workdir, tag)
        path = os.path.join(self.workdir, f"{tag}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            for key, value in cfg.items():
                if isinstance(value, tuple):
                    value = ",".join(repr(v) for v in value)
                elif isinstance(value, bool):
                    value = "true" if value else "false"
                fh.write(f"{key} = {value}\n")
        return cfg, path

    def setup(self):
        _, path = self._config("round0", self.spec, round_seed(self.seed, 0, self.kpi_rounds))
        self.cfnet.harness.load_config(path).validate()
        # the same code paths at desk size, so that lazy set-up is done before timing
        warm = dict(DESK, time_steps=2, alpha_grid=(0.0, 1.0),
                    evaluate_zfbf=self.spec["evaluate_zfbf"])
        _, path = self._config("warmup", warm, 0)
        self._call(path)

    def _call(self, path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cfnet.cli.main(["run", "--config", path])
        if code != 0:
            raise RuntimeError(f"cfnet run --config {path} exited with {code}")

    def round(self, r, tag=None):
        """Run round r; return (seconds, per-operation seconds, failed, problems)."""
        cfg, path = self._config(tag or f"round{r}", self.spec,
                                 round_seed(self.seed, r, self.kpi_rounds))
        self._trial_times.clear()
        start = clock()
        try:
            self._call(path)
        except Exception as exc:  # a failed round counts its trials as failed
            return clock() - start, [], self.trials_per_round, [repr(exc)]
        elapsed = clock() - start
        times = list(self._trial_times)
        metrics_csv = os.path.join(cfg["outputs"], "metrics.csv")
        try:
            problems = checks.check_sweep(cfg["outputs"], cfg)
            table = checks.read_metrics(metrics_csv)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems, table = [f"round {r}: unreadable outputs: {exc!r}"], None
        if r < self.kpi_rounds and tag is None and table is not None:
            self.output_bytes += sum(os.path.getsize(os.path.join(cfg["outputs"], n))
                                     for n in os.listdir(cfg["outputs"]))
            self.kpi_rows.append(table[table[:, 1] > 0])
            if r == 0:
                with open(metrics_csv, "rb") as fh:
                    self.sha256 = hashlib.sha256(fh.read()).hexdigest()
        shutil.rmtree(cfg["outputs"])
        return elapsed, times, 0, problems

    def kpis(self):
        rows = np.vstack(self.kpi_rows)
        out = {"sum_rate_bps_hz": rows[:, 3].mean(),
               "temporal_smoothness_bps_hz": rows[:, 4].mean(),
               "handovers_per_step": rows[:, 5].mean()}
        zf = rows[:, 6]
        extra = {"metrics.zf_sum_rate_bps_hz": float(zf.mean()) if np.isfinite(zf).all() else 0.0,
                 "oracle.cut_ratio": 0.0}
        return out, extra


class Oracle:
    """Tiny one-step instances, each certified against the exact optimum.

    An operation is one instance: build the graph pair, bootstrap a partition
    on the first graph, partition the blend, score the step, enumerate the
    optimum.  Instances are drawn as the C2 acceptance instances are, from a
    per-round seed.  The bootstrap has its own k-means stream, so no
    clustering input repeats within an instance.
    """

    per_round = 32
    sample_every = 8

    def __init__(self, cfnet, kpi_rounds, seed, workdir):
        self.cfnet, self.kpi_rounds, self.seed = cfnet, kpi_rounds, seed
        self.partitions_per_op = 2
        self.kpi_values = []      # (sum_rate, smoothness, handovers, cut ratio)
        self.output_bytes = 0
        self.sha256 = None
        self.new_operation = lambda: None

    def instances(self, r):
        base_seed = round_seed(self.seed, r, self.kpi_rounds)
        rng = np.random.default_rng(base_seed)
        for i in range(self.per_round):
            num_bs = int(rng.integers(4, 9))
            num_users = int(rng.integers(2, 13))
            groups = int(rng.integers(2, 4))
            yield {"tag": f"{r}.{i}", "L": num_bs, "K": num_users, "M": groups,
                   "alpha": ORACLE_ALPHAS[i % len(ORACLE_ALPHAS)],
                   "base": np.random.SeedSequence(base_seed, spawn_key=(i,))}

    def run_instance(self, inst):
        cf = self.cfnet
        stream = cf.harness.derive_stream
        base, alpha, groups = inst["base"], inst["alpha"], inst["M"]
        config = cf.harness.ExperimentConfig(K=inst["K"], L=inst["L"], M=groups)
        radio = config.radio_params()
        layout = cf.topology.generate_layout(inst["K"], inst["L"], stream(base, 0))
        gains_prev = cf.channel.channel_gains(layout, radio)
        g_prev = cf.graph.build_graph(gains_prev)
        boot = cf.clustering.initial_partition(
            g_prev, config.spectral_config(1.0, stream(base, 3, 1)))
        moved = cf.topology.step_waypoint(layout, config.mobility_params(), stream(base, 1, 1))
        gains_t = cf.channel.channel_gains(moved, radio)
        g_t = cf.graph.build_graph(gains_t)
        part = cf.clustering.temporal_smoothed_partition(
            g_prev, g_t, config.spectral_config(alpha, stream(base, 3)))
        rec = cf.metrics.record_step(1, gains_t, part, radio, gains_prev=gains_prev,
                                     partition_prev=boot)
        best, best_obj = cf.oracle.brute_force_best(g_prev, g_t, alpha, groups)
        spectral_obj = cf.oracle.blended_objective(g_prev, g_t, part.vertex_labels, alpha)
        inst.update(beta=radio.beta, r=radio.pt_over_sigma2, bs=layout.bs_positions,
                    users_prev=layout.user_positions, users=moved.user_positions)
        return {"w_prev": g_prev.weights, "w_t": g_t.weights, "boot": boot.vertex_labels,
                "spectral": part.vertex_labels, "best": best.vertex_labels,
                "best_obj": best_obj, "spectral_obj": spectral_obj,
                "sum_rate": rec.sum_rate, "temporal_smoothness": rec.temporal_smoothness,
                "handovers": rec.handovers}

    def setup(self):
        # a round index no run reaches, so the warm-up shares no inputs with a measured round
        for inst in list(self.instances(10**6))[:4]:
            self.run_instance(inst)

    def round(self, r, tag=None):
        elapsed, times, failed, problems = 0.0, [], 0, []
        for i, inst in enumerate(self.instances(r)):
            self.new_operation()
            start = clock()
            try:
                out = self.run_instance(inst)
            except Exception as exc:  # counted, and the round goes on
                failed += 1
                problems.append(f"instance {inst['tag']}: {exc!r}")
                continue
            took = clock() - start
            elapsed += took
            times.append(took)
            problems += checks.check_instance(inst, out, i % self.sample_every == 0)
            if r < self.kpi_rounds and tag is None:
                ratio = out["spectral_obj"] / out["best_obj"] if out["best_obj"] > 0 else 1.0
                self.kpi_values.append((out["sum_rate"], out["temporal_smoothness"],
                                        out["handovers"], ratio))
        return elapsed, times, failed, problems

    def kpis(self):
        v = np.array(self.kpi_values)
        out = {"sum_rate_bps_hz": v[:, 0].mean(),
               "temporal_smoothness_bps_hz": v[:, 1].mean(),
               "handovers_per_step": v[:, 2].mean()}
        return out, {"metrics.zf_sum_rate_bps_hz": 0.0, "oracle.cut_ratio": float(v[:, 3].mean())}


# Every run starts with the workload's KPI rounds, whose inputs do not depend
# on --seed: the quality metrics are then exact, and move only when cfnet's
# behaviour does.  The rounds after them follow --seed.
WORKLOADS = {
    "desk-sweep": lambda cf, seed, wd: Sweep(cf, DESK, 4, 2, seed, wd),
    "large-network": lambda cf, seed, wd: Sweep(cf, LARGE, 1, 1, seed, wd),
    "oracle-certify": lambda cf, seed, wd: Oracle(cf, 8, seed, wd),
}

# Gauge sizes follow each workload's k-means input (L rows of M columns);
# on the workloads of BENCHMARK.json a slice is about 5% of a round, and the
# window spans about ten seconds of rounds either way.
# ref_s is near a slice's median CPU seconds on the reference machine in its
# faster hours (README).
GAUGES = {
    "desk-sweep": lambda: Gauge(50, 20, reps=40, ref_s=0.1, window=2),
    "large-network": lambda: Gauge(500, 100, reps=2, ref_s=0.55, window=1),
    "oracle-certify": lambda: Gauge(8, 3, reps=40, ref_s=0.01, window=25),
}


def make_workload(name, seed, workdir):
    cfnet = import_cfnet()
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[name](cfnet, seed, workdir)
    workload.setup()
    workload.gauge = GAUGES[name]()
    workload.gauge.slice()  # warm-up
    return cfnet, workload


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(args):
    """Median over fresh processes of the CPU seconds from start to ready.

    Each probe is a whole process that starts the interpreter, imports, sets
    the workload up (warm-up included) and exits.  The median is scaled by
    gauge slices run before each probe, as the timed rounds are.
    """
    gauge = GAUGES[args.workload]()
    gauge.slice()  # warm-up
    samples, slices = [], []
    for _ in range(SETUP_SAMPLES):
        slices.append(gauge.slice())
        before = children_cpu_s()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe exited with {proc.returncode}")
        samples.append(children_cpu_s() - before)
    return statistics.median(samples) * gauge.ref_s * len(slices) / sum(slices)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds):
    """Rounds until `seconds` of timed work, the KPI rounds and one more are done.

    Timings are scaled by the gauge slices run between the rounds.
    """
    total, rounds, slices, failed, problems, r = 0.0, [], [], 0, [], 0
    while r <= workload.kpi_rounds or total < seconds:
        elapsed, op_times, round_failed, round_problems = workload.round(r)
        slices.append(workload.gauge.slice())
        total += elapsed
        rounds.append((elapsed, op_times))
        failed += round_failed
        problems += round_problems
        r += 1
    factors = workload.gauge.factors(slices)
    scaled_total = sum(f * elapsed for f, (elapsed, _) in zip(factors, rounds))
    times = [f * t for f, (_, op_times) in zip(factors, rounds) for t in op_times]
    raw = [t for _, op_times in rounds for t in op_times]
    log(f"{r} rounds, {len(times) + failed} operations, {total:.3f} CPU s timed "
        f"({scaled_total:.3f} s scaled); gauge slice median "
        f"{statistics.median(slices):.5f} s against ref_s {workload.gauge.ref_s}; "
        f"unscaled partitions_per_s {len(raw) * workload.partitions_per_op / total:.4f}, "
        f"trial_s_p50 {statistics.median(raw):.6f}")
    kpis, _ = workload.kpis()
    metrics = {
        "partitions_per_s": (len(times) * workload.partitions_per_op / scaled_total, "1/s"),
        "trial_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sum_rate_bps_hz": (kpis["sum_rate_bps_hz"], "bit/s/Hz"),
        "temporal_smoothness_bps_hz": (kpis["temporal_smoothness_bps_hz"], "bit/s/Hz"),
        "handovers_per_step": (kpis["handovers_per_step"], "count"),
    }
    return len(times) + failed, failed, problems, metrics


def measure_traced(cfnet, workload, spans_path):
    """The KPI rounds traced, each paired with an untraced rerun of its inputs.

    The KPI rounds have the same inputs on every run, so the counts repeat
    exactly; the pairing gives the tracing overhead as traced minus untraced
    seconds.
    """
    tracer = Tracer()
    workload.new_operation = tracer.new_scope
    traced = untraced = 0.0
    attempted, failed, problems = 0, 0, []
    for r in range(workload.kpi_rounds):
        for traced_pass in ((True, False) if r % 2 == 0 else (False, True)):
            if traced_pass:
                tracer.install(cfnet)
                try:
                    elapsed, op_times, round_failed, round_problems = workload.round(r)
                finally:
                    tracer.remove()
                traced += elapsed
                attempted += len(op_times) + round_failed
                failed += round_failed
                problems += round_problems
            else:
                untraced += workload.round(r, tag="untraced")[0]
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("name,start,end,parent\n")
        for name, start, end, parent in tracer.spans:
            fh.write(f"{name},{start!r},{end!r},{parent}\n")
    _, extra = workload.kpis()
    metrics = tracer.layer_metrics()
    metrics["harness.output_bytes"] = (workload.output_bytes, "bytes")
    metrics["oracle.cut_ratio"] = (extra["oracle.cut_ratio"], "ratio")
    metrics["metrics.zf_sum_rate_bps_hz"] = (extra["metrics.zf_sum_rate_bps_hz"], "bit/s/Hz")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.peak_rss_mb"] = (peak_rss_mb(), "MB")
    log(f"traced {traced:.3f} s, untraced {untraced:.3f} s, {len(tracer.spans)} spans "
        f"written to {os.path.relpath(spans_path, ROOT)}")
    return attempted, failed, problems, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_probe:
            make_workload(args.workload, args.seed, workdir)
            return 0
        setup_s = None if args.trace else setup_seconds(args)
        cfnet, workload = make_workload(args.workload, args.seed, workdir)
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv")
            attempted, failed, problems, metrics = measure_traced(cfnet, workload, spans)
        else:
            attempted, failed, problems, metrics = measure(workload, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            if workload.sha256:
                log(f"round 0 metrics.csv sha256 {workload.sha256}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:10]:
        log("problem:", problem)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
