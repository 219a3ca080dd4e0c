"""Fixed kernels that gauge how fast the box runs right now.

The measuring box shares its cores with other tenants, and its speed changes
from second to second and drifts over minutes.  run.py times one of these
kernels in its own process: before and after each unit, and while the unit
runs, at the stops the unit's worker makes between operations about every
half second of work (worker.py, _Gauge).  It scales the unit's times by
REFERENCE_S over the mean reading.  Each workload names the kernel closest
to the work it spends its time in (workloads.py, "gauge"):

- "python" allocates small objects, walks a tree, joins strings and counts
  in dicts, as most of treetrace does;
- "numpy" runs the same subsequence-count recurrence as
  string_recon.embedding_counts on a fixed 4096 x 24 matrix, which gauges
  the cache and memory traffic that the python kernel does not.

A change to the program changes how often the worker stops, but not what a
reading measures.
"""

import functools
import gc
import time

# Scaled times are seconds at the speed at which a kernel reads its
# REFERENCE_S.  Over the ten-seed runs of baseline.json the median readings
# were 10.4 ms for the python kernel and 10.5 ms for the numpy one.
REFERENCE_S = {"python": 0.0104, "numpy": 0.0101}


class _Item:
    __slots__ = ("key", "kids", "label")

    def __init__(self, key, kids, label):
        self.key = key
        self.kids = kids
        self.label = label


def _python_kernel(size: int = 8000) -> int:
    table = {}
    for i in range(size):
        table[i] = _Item(i, tuple(range(i % 5)), i & 1)
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(k + 5 * v + 1 for k in table[v].kids if k + 5 * v + 1 < size)
    text = ",".join(str(table[v].label) for v in order)
    counts = {}
    for ch in text:
        counts[ch] = counts.get(ch, 0) + 1
    return len(order) + sum(counts.values()) + len(sorted(table, key=lambda k: -k))


@functools.cache
def _numpy_inputs():
    import numpy as np  # only a "numpy" gauge loads numpy into run.py

    rng = np.random.default_rng(12345)
    return (np, rng.integers(0, 2, size=(4096, 24)).astype(np.int8),
            rng.integers(0, 2, size=16).astype(np.int8))


def _numpy_kernel() -> int:
    np, cands, trace = _numpy_inputs()
    g = np.zeros((cands.shape[0], len(trace) + 1), dtype=np.int64)
    g[:, 0] = 1
    for i in range(cands.shape[1]):
        eq = cands[:, i : i + 1] == trace[None, :]
        g[:, 1:] += eq * g[:, :-1]
    return int(g[:, -1].sum())


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def reference_seconds(kernel: str, repeats: int = 5) -> float:
    """Median time of one kernel, about 50 ms in all: the CPU speed right now.

    The collector is off while it runs, so the heap the caller has built does
    not change the reading.
    """
    run = KERNELS[kernel]
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            run()
            times.append(time.perf_counter_ns() - t0)
    finally:
        gc.enable()
    return sorted(times)[len(times) // 2] / 1e9
