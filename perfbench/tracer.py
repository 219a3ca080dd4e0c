"""Span tracing of treetrace's layers, installed from outside the package.

Every public function of the seven layer modules is wrapped in a span
recorder.  Each wrapper is installed wherever a caller looks the function up:
the defining module, every module that bound it with ``from ... import``,
module-level dicts that hold it (``verify._FUNCTIONS``), and, for
``Tree.canonical``, the class.  Spans stay in memory; ``metrics`` turns them
into per-layer counts and times, and ``write_spans`` dumps them at the end.

A layer's self time is the time inside its spans minus the time inside their
child spans, so the self times of all layers add up to the traced work.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

LAYERS = ("channels", "trees", "instances", "string_recon", "tree_recon", "harness", "verify")
PIPELINES = ("reconstruct_labels_known_topology", "reconstruct_fuzzy", "reconstruct_encoded")
FAILURE_CLASSES = ("InconsistentTracesError", "ReconstructionFailedError", "MergeError",
                   "UndecidedPositionsError")
SAMPLERS = ("channels.ted_trace", "channels.lp_trace", "channels.string_trace")


def metric_units(check_names) -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    units: dict[str, str] = {}
    for fn in ("lp_trace", "ted_trace", "string_trace", "ted_apply"):
        units[f"channels.{fn}.calls"] = "count"
        units[f"channels.{fn}.busy_s"] = "s"
    units["channels.nodes_in"] = "count"
    units["channels.ns_per_node"] = "ns"
    units["string_recon.ml_reconstruct.calls"] = "count"
    units["string_recon.ml_reconstruct.busy_s"] = "s"
    for name in ("candidates_scored", "traces_in", "distinct_traces"):
        units[f"string_recon.{name}"] = "count"
    units["string_recon.distinct_ratio"] = "ratio"
    units["string_recon.embedding_counts.calls"] = "count"
    units["string_recon.dp_cells"] = "computed_cells"
    units["string_recon.inconsistent"] = "count"
    units["instances.enumerate_fuzzy_trees.calls"] = "count"
    units["instances.enumerate_fuzzy_trees.busy_s"] = "s"
    units["instances.enumerate_fuzzy_trees.trees_out"] = "count"
    units["instances.random_tree.busy_s"] = "s"
    units["instances.busy_s"] = "s"
    for p in PIPELINES:
        units[f"tree_recon.{p}.calls"] = "count"
        units[f"tree_recon.{p}.busy_s"] = "s"
        units[f"tree_recon.{p}.self_s"] = "s"
    units["tree_recon.dual_strings.calls"] = "count"
    units["tree_recon.dual_strings.busy_s"] = "s"
    for cls in FAILURE_CLASSES + ("other",):
        units[f"tree_recon.failed.{cls}"] = "count"
    units["trees.canonical.calls"] = "count"
    units["trees.canonical.busy_s"] = "s"
    units["trees.preorder_label_string.busy_s"] = "s"
    units["harness.run_trial.calls"] = "count"
    units["harness.successes"] = "count"
    for check in check_names:
        units[f"verify.{check}.busy_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.accounted"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def _candidate_count(args, kwargs) -> int:
    n = args[1] if len(args) > 1 else kwargs["n"]
    cands = args[3] if len(args) > 3 else kwargs.get("candidates")
    return 2**n if cands is None else len(cands)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.counts: Counter = Counter()
        # One entry per span, in the order the spans opened.  Arrays keep a
        # few million spans in tens of megabytes.
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.outer = bytearray()  # bit 0: outermost span of its name; bit 1: of its layer
        self._stack: list[int] = []
        self._depth: Counter = Counter()  # open spans per name and per layer

    # -- hooks: counts taken at the layer boundaries, outside the span clock

    def _before(self, name, args, kwargs):
        c = self.counts
        if name in SAMPLERS:
            c["channels.nodes_in"] += len(args[0]) if name == "channels.string_trace" else args[0].n
        elif name == "string_recon.ml_reconstruct":
            traces = args[0]
            c["string_recon.traces_in"] += len(traces)
            c["string_recon.distinct_traces"] += len({str(t) for t in traces})
            c["string_recon.candidates_scored"] += _candidate_count(args, kwargs)
        elif name == "string_recon.embedding_counts":
            n_c, width = args[0].shape
            m = len(args[1])
            if m <= width:
                c["string_recon.dp_cells"] += n_c * width * m

    def _after(self, name, result):
        if name == "harness.run_trial" and result:
            self.counts["harness.successes"] += 1
        elif name == "instances.enumerate_fuzzy_trees":
            self.counts["instances.enumerate_fuzzy_trees.trees_out"] += len(result)

    def _failed(self, name, exc):
        cls = type(exc).__name__
        if name == "string_recon.ml_reconstruct" and cls == "InconsistentTracesError":
            self.counts["string_recon.inconsistent"] += 1
        elif name.startswith("tree_recon.") and name[11:] in PIPELINES:
            key = cls if cls in FAILURE_CLASSES else "other"
            self.counts[f"tree_recon.failed.{key}"] += 1

    # -- span recording

    def _open(self, name, layer) -> int:
        depth = self._depth
        self.outer.append(int(not depth[name]) | int(not depth[layer]) << 1)
        depth[name] += 1
        depth[layer] += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx, name, layer) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[name] -= 1
        self._depth[layer] -= 1

    def wrap(self, name, layer, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, layer, fn)

        def traced(*args, **kwargs):
            self._before(name, args, kwargs)
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span, name, layer)
                self._failed(name, exc)
                raise
            self._close(span, name, layer)
            self._after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, layer, fn):
        # One span per item: the work happens in next(), not in the call.
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span = self._open(name, layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span, name, layer)
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        names = {}  # id(original) -> (span name, layer, original)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    names[id(obj)] = (f"{layer}.{attr}", layer, obj)
        for check, fn in modules["verify"]._FUNCTIONS.items():
            names[id(fn)] = (f"verify.{check}", "verify", fn)
        wrappers = {key: self.wrap(*spec) for key, spec in names.items()}

        namespaces = [vars(m) for m in modules.values()] + [vars(package)]
        for ns in namespaces:
            for key, val in list(ns.items()):
                if id(val) in wrappers:
                    ns[key] = wrappers[id(val)]
                elif isinstance(val, dict):
                    for k, v in val.items():
                        if id(v) in wrappers:
                            val[k] = wrappers[id(v)]
        tree_cls = modules["trees"].Tree
        tree_cls.canonical = self.wrap("trees.canonical", "trees", tree_cls.canonical)

    # -- results

    def metrics(self, check_names, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        durs = [end - start for start, end in zip(self.starts, self.ends)]
        child_ns = [0] * len(durs)
        for dur, parent in zip(durs, self.parents):
            if parent >= 0:
                child_ns[parent] += dur
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_ns: Counter = Counter()
        for name, dur, child, outer in zip(self.names, durs, child_ns, self.outer):
            layer = name.partition(".")[0]
            calls[name] += 1
            if outer & 1:
                busy[name] += dur
            if outer & 2:
                busy[layer] += dur
            self_ns[name] += dur - child
            self_ns[layer] += dur - child

        out: dict[str, float] = {}
        for key in metric_units(check_names):
            base, _, kind = key.rpartition(".")
            if kind == "calls":
                out[key] = calls[base]
            elif kind == "busy_s":
                out[key] = busy[base] / 1e9
            elif kind == "self_s":
                out[key] = self_ns[base] / 1e9
            else:
                out[key] = self.counts[key]
        sampler_ns = sum(busy[name] for name in SAMPLERS)
        nodes = self.counts["channels.nodes_in"]
        out["channels.ns_per_node"] = sampler_ns / nodes if nodes else 0.0
        traces = self.counts["string_recon.traces_in"]
        out["string_recon.distinct_ratio"] = (
            self.counts["string_recon.distinct_traces"] / traces if traces else 0.0
        )
        out["trace.accounted"] = sum(self_ns[layer] for layer in LAYERS) / 1e9 / wall_s
        del out["trace.overhead"]  # needs the untraced units; run.py adds it
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, parent index, start ns, end ns."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.parents, self.starts, self.ends):
                fh.write("\t".join(map(str, row)) + "\n")
