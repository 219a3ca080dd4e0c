"""One unit of a benchmark workload, run in a fresh process.

Started by run.py, one process at a time:

    worker.py <workload> <seed> <spawn_ns> <traced 0|1> <smoke 0|1> <ask_fd> <reply_fd>

spawn_ns is the orchestrator's CLOCK_MONOTONIC reading taken just before it
started this process, so setup_s covers interpreter start, the numpy and
treetrace imports, and building the workload's inputs.  ask_fd and reply_fd
are the pipe ends of the gauge (see _Gauge).  The unit's result goes to
stdout as one JSON line.
"""

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GAUGE_EVERY_NS = 500_000_000


class _Gauge:
    """Between operations, about every GAUGE_EVERY_NS of work, asks the
    orchestrator to time the reference kernel and waits until it has.  The
    waits are left out of wall_s; operation latencies never contain one.
    Traced units do not ask, so their spans hold no waits."""

    def __init__(self, ask_fd: int, reply_fd: int, enabled: bool):
        self.ask_fd, self.reply_fd, self.enabled = ask_fd, reply_fd, enabled
        self.last_ns = time.perf_counter_ns()
        self.waited_ns = 0

    def tick(self) -> None:
        now = time.perf_counter_ns()
        if self.enabled and now - self.last_ns >= GAUGE_EVERY_NS:
            os.write(self.ask_fd, b"?")
            os.read(self.reply_fd, 1)
            self.last_ns = time.perf_counter_ns()
            self.waited_ns += self.last_ns - now

    def close(self) -> None:
        os.close(self.ask_fd)
        os.close(self.reply_fd)


def _timed_trials(harness, latencies, failures, gauge):
    """Time every run_trial call; an exception is recorded and scored False."""
    run_trial = harness.run_trial

    def timed(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            ok = run_trial(*args, **kwargs)
        except Exception as exc:
            failures.append(type(exc).__name__)
            latencies.append(None)
            ok = False
        else:
            latencies.append((time.perf_counter_ns() - t0) / 1e6)
        gauge.tick()
        return ok

    harness.run_trial = timed


def _timed_checks(verify, latencies, failures, gauge):
    """Time every verify check; an exception or a False result is a failure."""

    def timed(name, fn):
        def run(**kwargs):
            t0 = time.perf_counter_ns()
            try:
                passed, detail = fn(**kwargs)
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            if passed:
                latencies.append((time.perf_counter_ns() - t0) / 1e6)
            else:
                failures.append(name)
                latencies.append(None)
            gauge.tick()
            return passed, detail

        return run

    for name, fn in list(verify._FUNCTIONS.items()):
        verify._FUNCTIONS[name] = timed(name, fn)


def main(argv) -> int:
    workload, seed, spawn_ns = argv[1], int(argv[2]), int(argv[3])
    traced, smoke = argv[4] == "1", argv[5] == "1"
    gauge = _Gauge(int(argv[6]), int(argv[7]), enabled=not traced)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import treetrace
    from treetrace import harness, verify
    from workloads import WORKLOADS

    if Path(treetrace.__file__).resolve().parent != ROOT / "src" / "treetrace":
        print(f"treetrace imported from {treetrace.__file__}, not this checkout", file=sys.stderr)
        return 2

    spec = WORKLOADS[workload]
    params = dict(spec["smoke"] if smoke else spec["params"])
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(treetrace)
    latencies: list = []
    failures: list = []
    if spec["kind"] == "battery":
        _timed_checks(verify, latencies, failures, gauge)

        def unit():
            return "".join(f"{name},{ok}\n" for name, ok, _ in verify.run_checks(params["level"]))
    elif spec["kind"] == "sweep":
        _timed_trials(harness, latencies, failures, gauge)
        experiment = harness.ExperimentSpec(master_seed=seed, **params)

        def unit():
            return harness.rows_to_csv(harness.run_experiment(experiment))
    else:
        _timed_trials(harness, latencies, failures, gauge)

        def unit():
            return f"{harness.doubling_search(master_seed=seed, **params)}\n"

    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    t0 = time.perf_counter_ns()
    result = unit()
    wall_s = (time.perf_counter_ns() - t0 - gauge.waited_ns) / 1e9
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gauge.close()

    out = {
        "setup_s": (ready_ns - spawn_ns) / 1e9,
        "wall_s": wall_s,
        "op_ms": latencies,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "result": result,
        "digest": hashlib.sha256(result.encode()).hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        from tracer import metric_units

        out["layers"] = tracer.metrics(list(verify._FUNCTIONS), wall_s)
        out["layer_units"] = metric_units(list(verify._FUNCTIONS))
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(trace_dir / f"{workload}.spans.tsv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
