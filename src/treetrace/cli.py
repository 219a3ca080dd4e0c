"""Command-line harness.

Subcommands: gen, trace, recon, enumerate, experiment, search, verify.
Spec files for `experiment` and `search` are flat key=value text, one key
per line, with keys named after the flags; flags given on the command line
win.  Exit codes: 0 success, 1 a failed verify check, 2 an invalid spec or
input (one line on stderr), 3 a search past its trace budget.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import channels, harness, trees, verify
from .trees import Tree


def _add_instance(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=channels.MODELS, default="ted")
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", choices=tuple(harness.FAMILIES), default="random")
    p.add_argument("--delta", type=float, default=0.05)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def make_instance(args, planned_traces: int):
    """Instance of trial (seed, 0, 0) and its generator, where its traces start.

    An experiment with the same flags builds this instance for its first
    trial, so `gen`, `trace` and `recon` agree with each other and with it.
    """
    entry = harness.validate(args.family, args.model, args.n, args.q, args.delta,
                             (planned_traces,))
    rng = next(harness.trial_rngs(args.seed, 0, 1))
    return entry.build(args.n, args.q, args.delta, planned_traces, args.model, rng), rng


def _render(value) -> str:
    if isinstance(value, Tree):
        return trees.format_tree(value)
    if isinstance(value, bool):
        return "forked" if value else "path"
    return value  # a bit string


def _cmd_gen(args) -> int:
    inst, _ = make_instance(args, int(args.traces))
    _emit(_render(inst.source) + "\n", args.out)
    return 0


def _cmd_trace(args) -> int:
    count = int(args.traces)
    inst, rng = make_instance(args, count)
    traces = harness.SAMPLERS[args.model](inst.source, args.q, count, rng)
    _emit("".join(_render(tr) + "\n" for tr in traces), args.out)
    return 0


def _cmd_recon(args) -> int:
    if args.family == "encoded":
        raise ValueError("the encoded decoder reads node ids, which tree text does not carry")
    # One trace per line; an empty line is the empty string trace.
    traces = Path(args.tracefile).read_text().splitlines()
    inst, _ = make_instance(args, max(len(traces), 1))
    if args.model != "string":
        traces = [trees.parse_tree(ln) for ln in traces]
    got = harness.FAMILIES[args.family].decode(inst.public, traces, args.n, args.q)
    _emit(_render(got) + "\n", args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.model == "string":
        raise ValueError("enumerate expects --model lp or ted")
    # --traces is k under LP, whose families read no planned trace count.
    inst, _ = make_instance(args, 1 if args.model == "lp" else int(args.traces))
    if args.model == "lp":
        out = sorted(t.canonical() for t in channels.lp_trace_set(inst.source, int(args.traces)))
    else:
        law = channels.trace_law(inst.source, args.q, "ted")
        rows = sorted((-prob, trace.canonical()) for trace, prob in law.items())
        out = [f"{-neg!r}\t{text}" for neg, text in rows]
    _emit("\n".join(out) + "\n", args.out)
    return 0


def load_spec_file(path: str) -> dict[str, str]:
    """Flat key=value text, one key per line; blank lines ignored."""
    out: dict[str, str] = {}
    for i, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{i}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _cmd_experiment(args) -> int:
    grid = tuple(int(x) for x in str(args.traces).split(","))
    spec = harness.ExperimentSpec(
        family=args.family, n=args.n, q=args.q, model=args.model,
        trace_grid=grid, trials=args.trials, delta=args.delta,
        master_seed=args.seed, out=args.out,
    )
    rows = harness.run_experiment(spec, timing=args.timing)
    if not args.out:
        sys.stdout.write(harness.rows_to_csv(rows))
    return 0


def _cmd_search(args) -> int:
    target = 1.0 - args.delta
    try:
        found = harness.doubling_search(
            family=args.family, n=args.n, q=args.q, model=args.model,
            target_rate=target, trials=args.trials, delta=args.delta,
            master_seed=args.seed,
        )
    except harness.BudgetExceededError as exc:
        print(f"budget-exceeded: {exc}", file=sys.stderr)
        return 3
    _emit(f"{found}\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    results = []
    start = time.perf_counter()
    for name, passed, detail in verify.run_checks(args.level):
        print(f"{name}  {(time.perf_counter() - start) * 1e3:.0f} ms", file=sys.stderr)
        results.append((name, passed, detail))
        start = time.perf_counter()
    ok = all(passed for _, passed, _ in results)
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        lines.append(f"{name:<{width}}  {status}  {detail}")
    lines.append(f"{'overall':<{width}}  {'PASS' if ok else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetrace",
        description="Tree trace reconstruction experiments under node-deletion channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gen": (_cmd_gen, "emit an instance as tree text"),
        "trace": (_cmd_trace, "sample traces to a file, one per line"),
        "recon": (_cmd_recon, "run a reconstruction pipeline on a trace file"),
        "enumerate": (_cmd_enumerate, "print lp_trace_set / the TED trace_law"),
        "experiment": (_cmd_experiment, "run an experiment sweep, emit CSV"),
        "search": (_cmd_search, "doubling search for the trace budget"),
        "verify": (_cmd_verify, "run the property-check battery"),
    }
    parsers = {}
    for name, (fn, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        if name != "verify":  # verify picks no instance, channel or trace count
            _add_instance(p)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
        parsers[name] = p
    parsers["verify"].add_argument("--level", choices=["quick", "full"], default="quick")
    for name in ("gen", "trace", "enumerate", "experiment"):  # recon counts its file's lines
        parsers[name].add_argument("--traces", default="64",
                                   help="trace count; a comma-separated grid for `experiment`; "
                                        "the deletion count k for `enumerate --model lp`")
    for name in ("experiment", "search"):
        parsers[name].add_argument("--trials", type=int, default=50)
    parsers["recon"].add_argument("tracefile", help="file of traces, one per line")
    parsers["experiment"].add_argument("specfile", nargs="?", default=None,
                                       help="flat key=value spec file")
    parsers["experiment"].add_argument("--timing", action="store_true",
                                       help="record wall times (breaks byte reproducibility)")
    parsers["search"].add_argument("specfile", nargs="?", default=None,
                                   help="flat key=value spec file")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; an invalid spec or input exits 2 with one line.

    A file that cannot be read or written counts as invalid input.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "specfile", None):
            # Each key=value becomes its flag, ahead of the user's own flags,
            # so argparse checks it and an explicit flag wins.
            flags = [f"--{k}={v}" for k, v in load_spec_file(args.specfile).items()]
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"treetrace {argv[0]}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
