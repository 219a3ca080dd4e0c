"""Experiment runner: the family table, trials, sweeps, doubling search, verification.

Seed discipline: every trial draws from its own generator, seeded by the
64-bit FNV-1a hash of the text "master:grid:trial" (decimal renderings).
The generator is numpy's PCG64, so any run of the same spec reproduces the
same streams regardless of execution order or parallelism.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import channels, instances, string_recon, tree_recon
from .trees import SymbolString, Tree

CSV_HEADER = "experiment,family,n,q,model,traces,trials,successes,rate,wall_time_ms,seed"
SEARCH_BUDGET_CAP = 2**20


class UnknownFamilyError(ValueError):
    """No experiment is defined for this family/model combination."""


class BudgetExceededError(RuntimeError):
    """The doubling search passed the trace budget cap without hitting the target."""


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a over the ASCII bytes of text."""
    h = 0xCBF29CE484222325
    for b in text.encode("ascii"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def trial_seed(master_seed: int, grid_index: int, trial_index: int) -> int:
    return fnv1a64(f"{master_seed}:{grid_index}:{trial_index}")


def trial_rng(master_seed: int, grid_index: int, trial_index: int):
    return np.random.Generator(np.random.PCG64(trial_seed(master_seed, grid_index, trial_index)))


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a family, a channel, a trace-count grid, trials per point."""

    family: str
    n: int
    q: float
    model: str
    trace_grid: tuple[int, ...]
    trials: int
    delta: float = 0.05
    master_seed: int = 0
    out: str | None = None

    def __post_init__(self):
        grid = tuple(self.trace_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("trace_grid must be nonempty and strictly ascending")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        validate(self.family, self.model, self.n, self.q, self.delta, grid)
        object.__setattr__(self, "trace_grid", grid)

    @property
    def experiment_id(self) -> str:
        return f"{self.family}-{self.model}-n{self.n}-q{self.q!r}"


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    family: str
    n: int
    q: float
    model: str
    traces: int
    trials: int
    successes: int
    rate: float
    wall_time_ms: int
    seed: int

    def __post_init__(self):
        if self.successes > self.trials:
            raise ValueError("successes cannot exceed trials")
        if self.rate != self.successes / self.trials:
            raise ValueError("rate must equal successes / trials")

    def as_csv(self) -> str:
        # Fields follow CSV_HEADER; str of a float is its repr.
        return ",".join(map(str, astuple(self)))


class Instance(NamedTuple):
    """What the decoder may use, what it must return, what the channel sees."""

    public: dict
    truth: object
    source: object


def _random_bits(n: int, rng) -> SymbolString:
    return SymbolString("".join(str(int(b)) for b in rng.integers(0, 2, size=n)), "01")


def _labelled(topology: Tree, rng) -> Instance:
    truth = instances.random_labels(topology, rng)
    return Instance({"topology": topology}, truth, truth)


def _build_random(n, q, delta, planned_traces, model, rng) -> Instance:
    if model == "string":
        s = _random_bits(n, rng)
        return Instance({}, s, s)
    return _labelled(instances.random_tree(n, rng), rng)


def _build_path(n, q, delta, planned_traces, model, rng) -> Instance:
    return _labelled(instances.path_tree(n), rng)


def _build_forked(n, q, delta, planned_traces, model, rng) -> Instance:
    # The truth is a fair coin: B_n (True) or A_n (False).
    is_fork = bool(rng.random() < 0.5)
    tree = instances.forked_tree(n) if is_fork else instances.path_tree(n)
    return Instance({}, is_fork, tree)


def _build_fuzzy(n, q, delta, planned_traces, model, rng) -> Instance:
    m = instances.fuzzy_degree(n, planned_traces, delta, q)
    truth = instances.random_fuzzy_tree(n, m, rng)
    return Instance({"m": m}, truth, truth)


def _build_encoded(n, q, delta, planned_traces, model, rng) -> Instance:
    s = _random_bits(n, rng)
    ell = instances.buffer_length(delta, planned_traces, q)
    return Instance({"ell": ell}, s, instances.encode_string_as_tree(s, ell).tree)


def _decode_labels(public, traces, n, q):
    """Known-topology label recovery; without a topology, plain strings."""
    topology = public.get("topology")
    if topology is None:
        return string_recon.ml_reconstruct(traces, n, q)
    return tree_recon.reconstruct_labels_known_topology(topology, traces, q)


def _decode_forked(public, traces, n, q) -> bool:
    # Only a branching trace reveals the fork.
    return any(len(tr.children_of(v)) >= 2 for tr in traces for v in tr.nodes)


def _decode_fuzzy(public, traces, n, q):
    return tree_recon.reconstruct_fuzzy(traces, n, public["m"], q)


def _decode_encoded(public, traces, n, q):
    return tree_recon.reconstruct_encoded(traces, n, public["ell"], q)


def _check_fuzzy(n, q, delta, planned_traces) -> None:
    m = instances.fuzzy_degree(n, planned_traces, delta, q)
    instances.check_fuzzy_size(n, m)
    # Dual strings of the widest candidates: n - 1 edges plus m leaves per skeleton leaf.
    width = (n - 1) + m * max(instances._feasible_leaf_counts(n, m))
    if width > string_recon._EMBED_LEN_CAP:
        raise ValueError(f"fuzzy n={n}, m={m}: candidate width {width} exceeds the "
                         f"exact-count cap of {string_recon._EMBED_LEN_CAP}")


@dataclass(frozen=True)
class Family:
    """A family's models, builder, decoder, and the sizes they handle.

    build(n, q, delta, planned_traces, model, rng) draws the instance from the
    trial's generator and decode(public, traces, n, q) returns the guess; both
    look layer functions up in their modules at call time.  n runs from min_n
    to max_n; check(n, q, delta, planned_traces) rejects unbuildable points.
    """

    models: tuple[str, ...]
    build: Callable[..., Instance]
    decode: Callable[..., object]
    min_n: int = 1
    max_n: int | None = None
    check: Callable[[int, float, float, int], None] | None = None


# Exhaustive ML labels every node: n nodes for random, n + 1 for A_n.
FAMILIES = {
    "random": Family(("string", "ted", "lp"), _build_random, _decode_labels,
                     max_n=string_recon.FULL_SWEEP_CAP),
    "path": Family(("ted", "lp"), _build_path, _decode_labels,
                   max_n=string_recon.FULL_SWEEP_CAP - 1),
    "forked": Family(("ted", "lp"), _build_forked, _decode_forked, min_n=2),
    "fuzzy": Family(("ted",), _build_fuzzy, _decode_fuzzy, min_n=3, check=_check_fuzzy),
    "encoded": Family(("ted",), _build_encoded, _decode_encoded),
}

SAMPLERS = {"string": channels.string_trace, "ted": channels.ted_trace, "lp": channels.lp_trace}


def _entry(family: str, model: str) -> Family:
    entry = FAMILIES.get(family)
    if entry is None or model not in entry.models:
        raise UnknownFamilyError(f"no experiment for family={family!r}, model={model!r}")
    return entry


def validate(family: str, model: str, n: int, q: float, delta: float,
             trace_counts: Sequence[int] = ()) -> Family:
    """Raise ValueError unless the family builds and decodes every grid point.

    Draws no random numbers, so a bad spec fails before its first trial; with
    no trace counts, only the checks that hold for every count run.
    """
    entry = _entry(family, model)
    channels.ChannelSpec(model, q)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n < entry.min_n:
        raise ValueError(f"family {family} needs n >= {entry.min_n}, got n={n}")
    if entry.max_n is not None and n > entry.max_n:
        raise ValueError(f"n={n} exceeds the {family} decoder's cap of {entry.max_n}")
    for count in trace_counts:
        if count < 1:
            raise ValueError(f"trace counts must be >= 1, got {count}")
        if entry.check is not None:
            entry.check(n, q, delta, count)
    return entry


_RECON_FAILURES = (
    string_recon.InconsistentTracesError,
    tree_recon.ReconstructionFailedError,
    tree_recon.MergeError,
    tree_recon.UndecidedPositionsError,
)


def run_trial(family: str, model: str, n: int, q: float, delta: float,
              n_traces: int, rng) -> bool:
    """One independent trial: build, sample, decode; success is guess == truth."""
    entry = _entry(family, model)
    inst = entry.build(n, q, delta, n_traces, model, rng)
    sample = SAMPLERS[model]
    traces = [sample(inst.source, q, rng) for _ in range(n_traces)]
    try:
        guess = entry.decode(inst.public, traces, n, q)
    except _RECON_FAILURES:
        return False
    return guess == inst.truth


def _successes(family, model, n, q, delta, n_traces, trials, master_seed, grid_index) -> int:
    """Successful trials at one grid point; trial i draws from its own generator."""
    rngs = (trial_rng(master_seed, grid_index, i) for i in range(trials))
    return sum(bool(run_trial(family, model, n, q, delta, n_traces, rng)) for rng in rngs)


def run_experiment(spec: ExperimentSpec, timing: bool = False) -> list[ResultRow]:
    """Run the sweep; writes CSV to spec.out when set.

    wall_time_ms is 0 unless timing is requested: measured times would break
    the byte-identical reproducibility contract, so they are opt-in.
    """
    rows = []
    for gi, n_traces in enumerate(spec.trace_grid):
        start = time.perf_counter()
        successes = _successes(spec.family, spec.model, spec.n, spec.q, spec.delta,
                               n_traces, spec.trials, spec.master_seed, gi)
        elapsed_ms = int((time.perf_counter() - start) * 1000) if timing else 0
        rows.append(ResultRow(
            experiment=spec.experiment_id, family=spec.family, n=spec.n, q=spec.q,
            model=spec.model, traces=n_traces, trials=spec.trials, successes=successes,
            rate=successes / spec.trials, wall_time_ms=elapsed_ms, seed=spec.master_seed))
    if spec.out:
        Path(spec.out).write_text(rows_to_csv(rows))
    return rows


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.as_csv() for r in rows]) + "\n"


def doubling_search(
    family: str,
    n: int,
    q: float,
    model: str,
    target_rate: float,
    trials: int = 50,
    delta: float = 0.05,
    master_seed: int = 0,
    budget_cap: int = SEARCH_BUDGET_CAP,
) -> int:
    """Double the trace count from 1 until the empirical rate reaches the target.

    Grid index k seeds the trials of the 2^k point, so the result is a pure
    function of the arguments.  Raises BudgetExceededError past the cap.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError("target rate must lie in (0, 1)")
    validate(family, model, n, q, delta)
    k = 0
    while (n_traces := 2**k) <= budget_cap:
        successes = _successes(family, model, n, q, delta, n_traces, trials, master_seed, k)
        if successes / trials >= target_rate:
            return n_traces
        k += 1
    raise BudgetExceededError(
        f"no trace count up to {budget_cap} reached rate {target_rate} "
        f"for {family}/{model} at n={n}, q={q}"
    )


def verify_suite(level: str = "quick"):
    """Run every registered property check; returns (all_passed, results)."""
    from . import verify

    results = list(verify.run_checks(level))
    return all(ok for _, ok, _ in results), results
