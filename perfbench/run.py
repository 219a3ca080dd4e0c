"""treetrace benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload ml-sweep --seed 0 --seconds 25 --trace 0

Runs units of the workload one after another, each in a fresh single-threaded
process (worker.py), until --seconds have passed and at least the workload's
min_units untraced units are done.  Every unit of a run repeats the same work: the inputs come from
--seed alone.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  With --trace 1 the units
alternate between untraced and traced, which gives trace.overhead.
End-to-end times are scaled by a reference kernel that this process times
before, during and after each unit, on the CPU the units run on (see
reference.py and README.md).

A run is correct when every unit produced the same result bytes, the result
matches the digest pinned for this seed in digests.json (or, for a seed with
no pinned digest, passes the structural checks in `_invariant_errors`), and
no operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import REFERENCE_S, reference_seconds  # noqa: E402
from workloads import MIN_FINAL_RATE, SEARCH_BUDGET_RANGE, WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
RUN_LIMIT_S = 170  # a run ends, failed, rather than pass 180 s
SINGLE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class UnitError(RuntimeError):
    """A worker process failed, timed out or printed no result."""


def run_unit(workload: str, seed: int, traced: bool, smoke: bool, timeout: float) -> dict:
    """One unit in a fresh worker process.  While it runs, this process
    answers the worker's gauge: each time the worker asks, it times the
    reference kernel (unit["readings"]) and lets the worker go on."""
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    ask_r, ask_w = os.pipe()
    reply_r, reply_w = os.pipe()
    deadline = time.monotonic() + timeout
    kernel = WORKLOADS[workload]["gauge"]
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(spawn_ns),
           "1" if traced else "0", "1" if smoke else "0", str(ask_w), str(reply_r)]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, pass_fds=(ask_w, reply_r))
    finally:
        os.close(ask_w)
        os.close(reply_r)
    readings = []
    with proc, open(ask_r, "rb", buffering=0) as ask, open(reply_w, "wb", buffering=0) as reply:
        try:
            # The worker asks only between operations and prints its result
            # after closing its ends, so its output pipes cannot fill meanwhile.
            while select.select([ask], [], [], max(0.0, deadline - time.monotonic()))[0]:
                if not ask.read(1):
                    break
                readings.append(reference_seconds(kernel))
                try:
                    reply.write(b"!")
                except BrokenPipeError:  # the worker died; its exit code tells
                    break
            else:
                raise subprocess.TimeoutExpired(cmd, timeout)
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.communicate()
            raise UnitError(f"unit timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.strip():
        raise UnitError(f"worker exited {proc.returncode}:\n{err[-4000:]}")
    unit = json.loads(out.strip().splitlines()[-1])
    unit["traced"] = traced
    unit["readings"] = readings
    return unit


def run_units(args, min_units: int) -> list[dict]:
    """Units, one after another, until --seconds have passed.

    The reference kernel is timed in this process before and after each
    unit and at the unit's gauge stops, and the unit's scale comes from the
    mean of those readings.
    """
    start = time.monotonic()
    units: list[dict] = []
    durations = [0.0]
    kernel = WORKLOADS[args.workload]["gauge"]
    reading = reference_seconds(kernel)
    while (len(units) < min_units or (args.trace and len(units) % 2)
           or time.monotonic() - start + statistics.median(durations) <= args.seconds):
        t0 = time.monotonic()
        traced = args.trace == 1 and len(units) % 2 == 1
        unit = run_unit(args.workload, args.seed, traced, args.smoke,
                        RUN_LIMIT_S - (t0 - start))
        before, reading = reading, reference_seconds(kernel)
        readings = [before, *unit["readings"], reading]
        unit["scale"] = REFERENCE_S[kernel] / statistics.mean(readings)
        units.append(unit)
        durations = [d for d in durations if d] + [time.monotonic() - t0]
    return units


def percentile(sorted_ms: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_ms)))
    return sorted_ms[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of count samples lie beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(pct / 100 * count))


def op_latencies(unit: dict) -> list[float]:
    """The unit's scaled operation latencies, in the order they ran.  A failed
    operation reads as the whole unit, above every completed one."""
    return [unit["wall_s"] * 1000 * unit["scale"] if ms is None else ms * unit["scale"]
            for ms in unit["op_ms"]]


def _invariant_errors(workload: str, smoke: bool, result: str) -> list[str]:
    kind = WORKLOADS[workload]["kind"]
    params = WORKLOADS[workload]["smoke" if smoke else "params"]
    if kind == "battery":
        lines = [line.split(",") for line in result.splitlines()]
        bad = [name for name, passed in lines if passed != "True"]
        return [f"checks failed: {bad}"] if bad or not lines else []
    if kind == "search":
        budget = int(result)
        lo, hi = SEARCH_BUDGET_RANGE
        ok = budget & (budget - 1) == 0 and (smoke or lo <= budget <= hi)
        return [] if ok else [f"search budget {budget} is not a power of two in [{lo}, {hi}]"]
    header, *rows = result.splitlines()
    errors = []
    if header != "experiment,family,n,q,model,traces,trials,successes,rate,wall_time_ms,seed":
        errors.append(f"unexpected CSV header {header!r}")
    if [int(r.split(",")[5]) for r in rows] != list(params["trace_grid"]):
        errors.append("CSV rows do not follow the trace grid")
    for row in rows:
        fields = row.split(",")
        trials, successes, rate = int(fields[6]), int(fields[7]), float(fields[8])
        if trials != params["trials"] or rate != successes / trials or fields[9] != "0":
            errors.append(f"inconsistent CSV row {row!r}")
    if not smoke and rows and float(rows[-1].split(",")[8]) < MIN_FINAL_RATE:
        errors.append(f"success rate at the largest trace count below {MIN_FINAL_RATE}")
    return errors


def check_outputs(workload: str, seed: int, smoke: bool, units: list[dict]) -> tuple[bool, str]:
    digests = {u["digest"] for u in units}
    if len(digests) != 1:
        return False, f"units disagree: {len(digests)} distinct results"
    digest = digests.pop()
    errors = _invariant_errors(workload, smoke, units[0]["result"])
    pinned = None
    if not smoke:
        table = json.loads((HERE / "digests.json").read_text()).get(workload, {})
        pinned = table.get("*", table.get(str(seed)))
    if pinned is not None and pinned != digest:
        errors.append(f"result digest {digest[:16]} != pinned {pinned[:16]}")
    if errors:
        return False, "; ".join(errors)
    how = "matches the pinned digest" if pinned else "no pinned digest; structural checks pass"
    return True, f"{len(units)} units agree, {how} ({digest[:16]})"


def _environment(units: list[dict]) -> str:
    src = ROOT / "src" / "treetrace"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        commit = top[1] if top and Path(top[0]).resolve() == ROOT else "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    return (f"env nproc={os.cpu_count()} python={units[0]['python']} numpy={units[0]['numpy']} "
            f"platform={platform.machine()} commit={commit} src_sha256={h.hexdigest()[:16]}")


def end_to_end(workload: str, units: list[dict], smoke: bool) -> tuple[dict, str]:
    """The end-to-end metrics.

    Every unit runs the same operations in the same order.  op_ms_p50 is the
    median over operations of each operation's median over the units.
    op_ms_tail is the workload's fixed percentile of all the units'
    operations pooled; a full-size run with fewer than ten operations beyond
    it raises UnitError rather than report another one.
    """
    per_unit = [op_latencies(u) for u in units]
    if len({len(ms) for ms in per_unit}) != 1:
        counts = [len(ms) for ms in per_unit]
        raise UnitError(f"units ran different numbers of operations: {counts}")
    pooled = sorted(ms for unit_ms in per_unit for ms in unit_ms)
    pct = WORKLOADS[workload]["tail_pct"]
    note = (f"op_ms_tail is p{pct:g} of {len(pooled)} operations over {len(units)} units, "
            f"{beyond(len(pooled), pct)} beyond it")
    if not smoke and beyond(len(pooled), pct) < 10:
        raise UnitError(f"{note}; it needs at least 10")
    values = {
        "setup_s": statistics.median(u["setup_s"] * u["scale"] for u in units),
        "wall_s": statistics.median(u["wall_s"] * u["scale"] for u in units),
        "op_ms_p50": statistics.median(statistics.median(op) for op in zip(*per_unit)),
        "op_ms_tail": percentile(pooled, pct),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    return values, note


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    names = list(traced[0]["layers"])
    values = {k: statistics.median(u["layers"][k] for u in traced) for k in names}
    values["trace.overhead"] = (statistics.median(u["wall_s"] * u["scale"] for u in traced)
                                / statistics.median(u["wall_s"] * u["scale"] for u in plain))
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes and one unit per mode, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treetrace" / "__init__.py").is_file():
        print(f"error: no treetrace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    traced_mode = args.trace == 1
    if traced_mode:
        min_units = 2 if args.smoke else 4
    else:
        min_units = 1 if args.smoke else WORKLOADS[args.workload]["min_units"]
    # This process and its workers share one CPU, so each reading of the
    # reference kernel gauges the CPU the units run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ.update(SINGLE_THREAD)  # for a numpy gauge in this process too
    start = time.monotonic()
    try:
        units = run_units(args, min_units)
        plain = [u for u in units if not u["traced"]]
        if not traced_mode:
            values, note = end_to_end(args.workload, plain, args.smoke)
    except UnitError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    correct, detail = check_outputs(args.workload, args.seed, args.smoke, units)
    failures = [f for u in units for f in u["failures"]]
    attempted = sum(len(u["op_ms"]) for u in units)
    if failures:
        correct = False
        detail += f"; {len(failures)} operations failed"

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)} ({len(plain)} untraced) in {time.monotonic() - start:.1f} s")
    print(_environment(units))
    print(f"check {'ok' if correct else 'FAILED'}: {detail}")
    for key in ("setup_s", "wall_s", "scale"):
        print(f"units {key}: " + " ".join(f"{u[key]:.4f}{'t' if u['traced'] else ''}" for u in units))
    print(f"error_rate {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} operations) {sorted(set(failures))}")
    if traced_mode:
        traced_units = [u for u in units if u["traced"]]
        values = per_layer(plain, traced_units)
        layer_units = traced_units[0]["layer_units"]
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in values.items()}
    else:
        print(note)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
