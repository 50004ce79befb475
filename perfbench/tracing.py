"""Spans around calls into cfnet's modules, recorded from outside the program.

`Tracer.install` replaces each traced public function with a timing wrapper
in every cfnet module namespace that binds it, so calls made through
`from .x import f` bindings are caught too.  Spans (name, start, end, parent)
are kept in memory; `layer_metrics` turns them into busy and self seconds.
"""

import hashlib
import sys
import time

import numpy as np

# (module, function) -> span name
SPANS = {
    ("topology", "generate_layout"): "topology.generate_layout",
    ("topology", "step_waypoint"): "topology.step_waypoint",
    ("channel", "channel_gains"): "channel.channel_gains",
    ("channel", "complex_channel"): "channel.complex_channel",
    ("graph", "build_graph"): "graph.build_graph",
    ("clustering", "temporal_smoothed_partition"): "clustering.partition",
    ("clustering", "smallest_eigenvectors"): "clustering.smallest_eigenvectors",
    ("clustering", "kmeans_rows"): "clustering.kmeans_rows",
    ("metrics", "record_step"): "metrics.record_step",
    ("metrics", "zfbf_evaluation"): "metrics.zfbf_evaluation",
    ("oracle", "brute_force_best"): "oracle.brute_force_best",
    ("harness", "run_monte_carlo"): "harness.run_monte_carlo",
    ("harness", "run_trial"): "harness.run_trial",
    ("harness", "emit_outputs"): "harness.emit_outputs",
    ("cli", "main"): "cli.main",
}


def effective_laplacian(graph_prev, graph_t, alpha):
    """The blend the partitioner clusters, by the rule blended_laplacian documents."""
    lap_t, lap_prev = graph_t.laplacian, graph_prev.laplacian
    if alpha == 1.0 or np.array_equal(lap_t, lap_prev):
        return lap_t
    if alpha == 0.0:
        return lap_prev
    return alpha * lap_t + (1.0 - alpha) * lap_prev


def partition_key(graph_prev, graph_t, cfg):
    """Hash of everything a partition call's clustering depends on."""
    seed = cfg.seed
    seed_id = (seed.entropy, seed.spawn_key) if isinstance(seed, np.random.SeedSequence) else seed
    digest = hashlib.sha1(effective_laplacian(graph_prev, graph_t, cfg.alpha).tobytes())
    return (digest.hexdigest(), cfg.M, cfg.kmeans_restarts, cfg.kmeans_max_iters,
            cfg.kmeans_tol, repr(seed_id))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._originals = []     # (module, attribute, original function)
        self.partitions_enumerated = 0
        self.repeated_calls = 0
        self._seen = set()

    def new_scope(self):
        """Start a new trial: repeats are only counted within one."""
        self._seen = set()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
        return traced

    def _wrap_partition(self, fn):
        inner = self._wrap("clustering.partition", fn)

        def partition(graph_prev, graph_t, cfg):
            key = partition_key(graph_prev, graph_t, cfg)
            if key in self._seen:
                self.repeated_calls += 1
            self._seen.add(key)
            return inner(graph_prev, graph_t, cfg)
        return partition

    def _wrap_trial(self, fn):
        inner = self._wrap("harness.run_trial", fn)

        def run_trial(*args, **kwargs):
            self.new_scope()
            return inner(*args, **kwargs)
        return run_trial

    def _wrap_enumeration(self, fn):
        def enumerate_partitions(*args, **kwargs):
            for labels in fn(*args, **kwargs):
                self.partitions_enumerated += 1
                yield labels
        return enumerate_partitions

    def install(self, cfnet):
        if self._originals:
            raise RuntimeError("tracer already installed")
        targets = []
        for (module, attr), name in SPANS.items():
            fn = getattr(getattr(cfnet, module), attr)
            if name == "clustering.partition":
                wrapper = self._wrap_partition(fn)
            elif name == "harness.run_trial":
                wrapper = self._wrap_trial(fn)
            else:
                wrapper = self._wrap(name, fn)
            targets.append((fn, wrapper))
        fn = cfnet.oracle.enumerate_partitions
        targets.append((fn, self._wrap_enumeration(fn)))
        modules = [m for n, m in sys.modules.items()
                   if n == "cfnet" or n.startswith("cfnet.")]
        for fn, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._originals.append((module, attr, fn))

    def remove(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []

    def busy_and_self(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, busy, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, busy + end - start, self_s + end - start - child_time[i])
        return out

    def layer_metrics(self):
        stats = self.busy_and_self()

        def busy(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def self_time(name):
            return stats.get(name, (0, 0.0, 0.0))[2]

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        partition_calls = calls("clustering.partition")
        return {
            "clustering.kmeans_rows_s": (busy("clustering.kmeans_rows"), "s"),
            "clustering.kmeans_rows_calls": (calls("clustering.kmeans_rows"), "count"),
            "clustering.smallest_eigenvectors_s": (busy("clustering.smallest_eigenvectors"), "s"),
            "clustering.partition_s": (busy("clustering.partition"), "s"),
            "clustering.partition_calls": (partition_calls, "count"),
            "clustering.refine_s": (self_time("clustering.partition"), "s"),
            "clustering.repeated_calls": (self.repeated_calls, "count"),
            "clustering.distinct_ratio": (
                (partition_calls - self.repeated_calls) / partition_calls
                if partition_calls else 1.0, "ratio"),
            "metrics.record_step_s": (busy("metrics.record_step"), "s"),
            "metrics.zfbf_evaluation_s": (busy("metrics.zfbf_evaluation"), "s"),
            "metrics.kpi_self_s": (self_time("metrics.record_step"), "s"),
            "oracle.brute_force_best_s": (busy("oracle.brute_force_best"), "s"),
            "oracle.partitions_enumerated": (self.partitions_enumerated, "count"),
            "topology.generate_layout_s": (busy("topology.generate_layout"), "s"),
            "topology.step_waypoint_s": (busy("topology.step_waypoint"), "s"),
            "channel.channel_gains_s": (busy("channel.channel_gains"), "s"),
            "channel.complex_channel_s": (busy("channel.complex_channel"), "s"),
            "graph.build_graph_s": (busy("graph.build_graph"), "s"),
            "harness.self_s": (self_time("harness.run_monte_carlo")
                               + self_time("harness.run_trial"), "s"),
            "harness.emit_outputs_s": (busy("harness.emit_outputs"), "s"),
            "cli.self_s": (self_time("cli.main"), "s"),
        }
