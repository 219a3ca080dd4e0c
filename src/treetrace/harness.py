"""Experiment runner: the family table, trials, sweeps, doubling search.

Seed discipline: every trial draws from its own generator, seeded by the
64-bit FNV-1a hash of the text "master:grid:trial" (decimal renderings).
The generator is numpy's PCG64, so any run of the same spec reproduces the
same streams regardless of execution order or parallelism.  A grid point
hashes its "master:grid:" prefix once (FNV-1a is a left fold), and its
generators are seeded in one pass: _seed_words runs numpy's
SeedSequence hash over all their seeds at once, and each generator starts
bitwise in the state of PCG64(seed).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import channels, instances, string_recon, tree_recon
from .channels import _check_ints
from .trees import Tree

CSV_HEADER = "experiment,family,n,q,model,traces,trials,successes,rate,wall_time_ms,seed"
SEARCH_BUDGET_CAP = 2**20


class UnknownFamilyError(ValueError):
    """No experiment is defined for this family/model combination."""


class BudgetExceededError(RuntimeError):
    """The doubling search passed the trace budget cap without hitting the target."""


def fnv1a64(text: str, h: int = 0xCBF29CE484222325) -> int:
    """64-bit FNV-1a over the ASCII bytes of text.

    FNV-1a is a left fold, so fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b).
    """
    for b in text.encode("ascii"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def trial_seed(master_seed: int, grid_index: int, trial_index: int) -> int:
    return fnv1a64(f"{master_seed}:{grid_index}:{trial_index}")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The count + 1 values a SeedSequence hash constant runs through, as a column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


def _hashed(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    # One hashmix step (generate_state's output words hash the same way), given
    # the hash constant before and after its update.
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """Row i is SeedSequence(seeds[i]).generate_state(4, np.uint64), for all seeds at once.

    A seed's entropy is its 32-bit words, low first; a seed below 2^32 has one
    word, which hashes as [lo, 0] does, since the pool slots past the entropy
    hash 0.  The hash constants run through the same values for every seed,
    and the three mixes out of one pool slot, like the eight output words, do
    not depend on each other, so each runs as one uint32 array operation.
    """
    if not all(0 <= s < 2**64 for s in seeds):
        raise ValueError("seeds must lie in [0, 2**64)")
    seed = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seed)), np.uint32)
    pool[0] = seed & np.uint64(_MASK32)
    pool[1] = seed >> np.uint64(32)
    a = _hash_consts(_INIT_A, _MULT_A, 16)
    pool = _hashed(pool, a[:4], a[1:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                 - np.uint32(_MIX_MULT_R) * _hashed(pool[src], a[k:k + 3], a[k + 1:k + 4]))
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    state = _hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], b[:8], b[1:])
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _words_seed_class():
    """A seed sequence that hands PCG64 one row of _seed_words.

    Built on first use, so that importing treetrace leaves numpy.random unloaded.
    """

    class WordsSeed(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks once, for its 4 uint64 words.
            return self.words

    return WordsSeed


def _generators(seeds: Sequence[int]):
    """A new, independent PCG64 generator per seed, each bitwise PCG64(seed)."""
    words_seed = _words_seed_class()
    return (np.random.Generator(np.random.PCG64(words_seed(row))) for row in _seed_words(seeds))


def trial_rngs(master_seed: int, grid_index: int, trials: int):
    """The generators of trials 0, 1, ..., trials - 1 at one grid point, in order.

    The seeds are trial_seed's: the shared "master:grid:" prefix is hashed once.
    """
    prefix = fnv1a64(f"{master_seed}:{grid_index}:")
    return _generators([fnv1a64(str(i), prefix) for i in range(trials)])


def trial_rng(master_seed: int, grid_index: int, trial_index: int):
    # One seed: numpy's own seeding is faster than _seed_words' fixed cost.
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
        try:
            grid = tuple(self.trace_grid)
        except TypeError:
            raise ValueError(
                f"trace_grid must be an iterable of ints, got {self.trace_grid!r}") from None
        _check_ints(trials=self.trials, master_seed=self.master_seed)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # validate refuses a count that is not an int, so the order test can compare them.
        validate(self.family, self.model, self.n, self.q, self.delta, grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("trace_grid must be nonempty and strictly ascending")
        # Stored as float, so that the id and the CSV read the same for any real type.
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "delta", float(self.delta))
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


def _random_bits(n: int, rng) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=n))


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


@functools.cache
def _forked_source(n: int, is_fork: bool) -> Tree:
    """B_n or A_n, built once, so every trial samples the same tree and its kept rows."""
    return instances.forked_tree(n) if is_fork else instances.path_tree(n)


def _build_forked(n, q, delta, planned_traces, model, rng) -> Instance:
    # The truth is a fair coin: B_n (True) or A_n (False).
    is_fork = bool(rng.random() < 0.5)
    return Instance({}, is_fork, _forked_source(n, is_fork))


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
    # Only a branching trace reveals the fork: a 0 followed by a 1 in its
    # word leaves one child and enters a sibling.
    return any("01" in tr.word for tr in traces)


def _decode_fuzzy(public, traces, n, q):
    return tree_recon.reconstruct_fuzzy(traces, n, public["m"], q)


def _decode_encoded(public, traces, n, q):
    return tree_recon.reconstruct_encoded(traces, n, public["ell"], q)


def _check_fuzzy(n, q, delta, planned_traces) -> None:
    tree_recon.check_fuzzy_decodable(n, instances.fuzzy_degree(n, planned_traces, delta, q))


def _channel_traces(model, source, q, count, rng) -> list:
    """The model's channel on the source: whole traces, for decoders that read them."""
    return SAMPLERS[model](source, q, count, rng)


def _label_traces(model, source, q, count, rng) -> list[str]:
    """The traces' preorder label strings alone, by the paper's reduction.

    Under TED and LP a trace keeps the root's label and each other label
    with probability 1 - q (the node not deleted, or not marked), so its
    label string is the root's label followed by a string-channel trace of
    the other labels.  string_traces draws the same rng.random((count,
    n - 1)) as ted_traces and lp_traces, so the strings are theirs bitwise
    and the generator ends in the same state.
    """
    if isinstance(source, str):  # the random family's plain strings
        return channels.string_traces(source, q, count, rng)
    root, rest = source.labels[0], source.labels[1:]
    return [root + s for s in channels.string_traces(rest, q, count, rng)]


@dataclass(frozen=True)
class Family:
    """A family's models, builder, decoder, and the sizes they handle.

    build(n, q, delta, planned_traces, model, rng) draws the instance from the
    trial's generator.  sample(model, source, q, count, rng) then draws what
    decode reads from the instance's source: by default the model's channel
    (SAMPLERS), so plain str traces (model string) or trees.Tree traces.
    decode(public, traces, n, q) returns the guess.  All three look layer
    functions up in their modules at call time.  A truth and its guess are
    compared with ==: a plain str of bits, a Tree, or a bool.  n runs from
    min_n to max_n; check(n, q, delta, planned_traces) rejects unbuildable
    points.
    """

    models: tuple[str, ...]
    build: Callable[..., Instance]
    decode: Callable[..., object]
    min_n: int = 1
    max_n: int | None = None
    check: Callable[[int, float, float, int], None] | None = None
    sample: Callable[..., list] = _channel_traces


# Exhaustive ML labels every node: n nodes for random, n + 1 for A_n.  The
# known-topology decoder reads only label strings, so those trials draw no
# tree traces.
FAMILIES = {
    "random": Family(("string", "ted", "lp"), _build_random, _decode_labels,
                     max_n=string_recon.FULL_SWEEP_CAP, sample=_label_traces),
    "path": Family(("ted", "lp"), _build_path, _decode_labels,
                   max_n=string_recon.FULL_SWEEP_CAP - 1, sample=_label_traces),
    "forked": Family(("ted", "lp"), _build_forked, _decode_forked, min_n=2),
    "fuzzy": Family(("ted",), _build_fuzzy, _decode_fuzzy, min_n=3, check=_check_fuzzy),
    "encoded": Family(("ted",), _build_encoded, _decode_encoded),
}

# sampler(source, q, count, rng) draws all of a trial's traces in one call.
SAMPLERS = {"string": channels.string_traces, "ted": channels.ted_traces, "lp": channels.lp_traces}


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
    channels._check_q(q)
    instances._check_delta(delta)
    _check_ints(n=n)
    if n < entry.min_n:
        raise ValueError(f"family {family} needs n >= {entry.min_n}, got n={n}")
    if entry.max_n is not None and n > entry.max_n:
        raise ValueError(f"n={n} exceeds the {family} decoder's cap of {entry.max_n}")
    for count in trace_counts:
        _check_ints(trace_count=count)
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
    """One independent trial: build, sample, decode; success is guess == truth.

    The family's sample draws the traces from the instance's source, in the
    form its decoder reads: label strings for random and path, tree traces
    otherwise.
    """
    entry = _entry(family, model)
    inst = entry.build(n, q, delta, n_traces, model, rng)
    traces = entry.sample(model, inst.source, q, n_traces, rng)
    try:
        guess = entry.decode(inst.public, traces, n, q)
    except _RECON_FAILURES:
        return False
    return guess == inst.truth


def _successes(family, model, n, q, delta, n_traces, trials, master_seed, grid_index) -> int:
    """Successful trials at one grid point; trial i draws from its own generator."""
    rngs = trial_rngs(master_seed, grid_index, trials)
    return sum(bool(run_trial(family, model, n, q, delta, n_traces, rng)) for rng in rngs)


def run_experiment(spec: ExperimentSpec, timing: bool = False) -> list[ResultRow]:
    """Run the sweep; writes CSV to spec.out when set.

    wall_time_ms is 0 unless timing is requested: measured times would break
    the byte-identical reproducibility contract, so they are opt-in.
    """
    rows = []
    # The output opens first, so that a path it cannot write fails before any trial.
    with open(spec.out, "w") if spec.out else contextlib.nullcontext() as sink:
        for gi, n_traces in enumerate(spec.trace_grid):
            start = time.perf_counter()
            successes = _successes(spec.family, spec.model, spec.n, spec.q, spec.delta,
                                   n_traces, spec.trials, spec.master_seed, gi)
            elapsed_ms = int((time.perf_counter() - start) * 1000) if timing else 0
            rows.append(ResultRow(
                experiment=spec.experiment_id, family=spec.family, n=spec.n, q=spec.q,
                model=spec.model, traces=n_traces, trials=spec.trials, successes=successes,
                rate=successes / spec.trials, wall_time_ms=elapsed_ms, seed=spec.master_seed))
        if sink:
            sink.write(rows_to_csv(rows))
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
    if not isinstance(target_rate, float):
        channels._check_real("target_rate", target_rate)
    if not 0.0 < target_rate < 1.0:
        raise ValueError("target rate must lie in (0, 1)")
    _check_ints(trials=trials, master_seed=master_seed, budget_cap=budget_cap)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if budget_cap < 1:
        raise ValueError("budget cap must be >= 1")
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
