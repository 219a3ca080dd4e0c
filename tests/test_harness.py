import inspect
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import treetrace
from treetrace import harness, verify
from treetrace.cli import main
from treetrace.harness import (
    CSV_HEADER,
    FAMILIES,
    BudgetExceededError,
    ExperimentSpec,
    ResultRow,
    UnknownFamilyError,
    doubling_search,
    fnv1a64,
    rows_to_csv,
    run_experiment,
    _seed_words,
    _words_seed_class,
    run_trial,
    trial_rngs,
    trial_seed,
    validate,
)
from conftest import make_rng
from oracles import trial_rng
import oracles


def test_fnv1a64_reference_values():
    # Standard FNV-1a 64 test vectors.
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_trial_seed_is_stable():
    assert trial_seed(0, 0, 0) == fnv1a64("0:0:0")
    assert trial_seed(42, 3, 17) == fnv1a64("42:3:17")
    a = trial_rng(1, 2, 3).random(4)
    b = trial_rng(1, 2, 3).random(4)
    assert (a == b).all()


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
GRID_SEEDS = [trial_seed(m, g, i) for m in range(3) for g in range(10) for i in range(200)]


def test_seed_words_match_numpy_seed_sequence():
    seeds = EDGE_SEEDS + GRID_SEEDS
    expected = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    words = _seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    assert (words == expected).all()
    for s, row in zip(seeds, words):
        gen = np.random.Generator(np.random.PCG64(_words_seed_class()(row)))
        assert gen.bit_generator.state == np.random.PCG64(s).state


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_words_reject_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError):
        _seed_words([3, seed])


def test_trial_generators_are_independent():
    gens = list(trial_rngs(4, 2, 5))
    gens[0].random(1000)
    assert (gens[1].random(8) == trial_rng(4, 2, 1).random(8)).all()
    assert len({id(g.bit_generator) for g in gens}) == len(gens)


@pytest.mark.parametrize("master", [3, 2**64 + 17])
def test_trial_generators_are_seeded_by_trial_seed(master):
    # trial_rngs hashes the "master:grid:" prefix once; 1,001 trials cross
    # the 9 -> 10, 99 -> 100 and 999 -> 1000 digit boundaries.
    for grid in (0, 11):
        gens = trial_rngs(master, grid, 1001)
        for i, gen in enumerate(gens):
            want = np.random.PCG64(trial_seed(master, grid, i)).state
            assert gen.bit_generator.state == want, (master, grid, i)
        assert i == 1000


@pytest.mark.parametrize("master, grid", [(3, 0), (2**64 + 17, 11)])
def test_trial_generators_are_seeded_a_block_at_a_time(master, grid):
    # Blocks of 3 seeds: trials 0-9 hash in four blocks, the last one short,
    # each when its first trial is reached.
    calls = []

    def seed_words(seeds):
        calls.append(len(seeds))
        return _seed_words(seeds)

    with mock.patch.object(harness, "_SEED_BLOCK", 3), \
            mock.patch.object(harness, "_seed_words", seed_words):
        gens = trial_rngs(master, grid, 10)
        for i, gen in enumerate(gens):
            assert len(calls) == i // 3 + 1
            assert gen.bit_generator.state == np.random.PCG64(trial_seed(master, grid, i)).state
    assert calls == [3, 3, 3, 1]


def test_a_huge_point_seeds_only_the_block_it_reaches():
    with mock.patch.object(harness, "_seed_words", wraps=_seed_words) as seed_words:
        gen = next(trial_rngs(0, 0, 2**40))
    (seeds,), _ = seed_words.call_args
    assert seed_words.call_count == 1 and len(seeds) == 4096
    assert gen.bit_generator.state == np.random.PCG64(trial_seed(0, 0, 0)).state


def test_import_leaves_numpy_random_unloaded():
    # numpy 2.x loads numpy.random on first use, and so must treetrace;
    # numpy 1.x loads it with numpy itself.
    env = {**os.environ, "PYTHONPATH": str(Path(treetrace.__file__).resolve().parents[1])}

    def loads_numpy_random(module: str) -> bool:
        probe = f"import sys, {module}; print('numpy.random' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        return run.stdout.strip() == "True"

    if loads_numpy_random("numpy"):
        pytest.skip("importing numpy loads numpy.random")
    assert not loads_numpy_random("treetrace")


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("random", 6, 0.1, "ted", (4, 2), 5)
    with pytest.raises(UnknownFamilyError):
        ExperimentSpec("bogus", 6, 0.1, "ted", (1,), 5)
    # Not in REJECTED below: the CLI's --model choices stop "bogus" before a spec is built.
    with pytest.raises(UnknownFamilyError):
        ExperimentSpec("random", 6, 0.1, "bogus", (1,), 5)
    with pytest.raises(ValueError):
        ExperimentSpec("random", 6, 0.1, "ted", (1,), 0)


# Specs that used to be accepted and then crash partway through a sweep.
REJECTED = {
    "n=0": dict(family="random", n=0, q=0.1, model="ted", trace_grid=(4,)),
    "q=1": dict(family="random", n=6, q=1.0, model="ted", trace_grid=(4,)),
    "q=1.5": dict(family="random", n=6, q=1.5, model="ted", trace_grid=(4,)),
    "fuzzy+string": dict(family="fuzzy", n=12, q=0.1, model="string", trace_grid=(4,)),
    "trace count 0": dict(family="random", n=6, q=0.1, model="ted", trace_grid=(0, 4)),
    "fuzzy m=14": dict(family="fuzzy", n=8, q=0.5, model="ted", trace_grid=(64,)),
    "random n=21": dict(family="random", n=21, q=0.1, model="ted", trace_grid=(4,)),
    "path n=20": dict(family="path", n=20, q=0.1, model="ted", trace_grid=(4,)),
    # m = 7 and up to 4 skeleton leaves: candidates 39 + 28 = 67 wide, past the ML cap.
    "fuzzy n=40 width 67": dict(family="fuzzy", n=40, q=0.2, model="ted", trace_grid=(64,)),
    "delta=0": dict(family="random", n=6, q=0.1, model="ted", trace_grid=(4,), delta=0.0),
    "delta=1": dict(family="random", n=6, q=0.1, model="ted", trace_grid=(4,), delta=1.0),
}


@pytest.mark.parametrize("kw", REJECTED.values(), ids=REJECTED.keys())
def test_invalid_spec_rejected_when_built(kw, capsys, no_trials):
    with pytest.raises(ValueError):
        ExperimentSpec(trials=2, **kw)
    argv = ["experiment", "--family", kw["family"], "--model", kw["model"],
            "--n", str(kw["n"]), "--q", str(kw["q"]), "--trials", "2",
            "--traces", ",".join(map(str, kw["trace_grid"]))]
    if "delta" in kw:
        argv += ["--delta", str(kw["delta"])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_fuzzy_spec_accepted_where_a_tree_exists():
    # At 4 traces and q = 0.5, m = 10 for n = 10 and n = 11: a fuzzy tree
    # needs n >= m + 1.
    ExperimentSpec("fuzzy", 11, 0.5, "ted", (4,), 1)
    with pytest.raises(ValueError):
        ExperimentSpec("fuzzy", 10, 0.5, "ted", (4,), 1)


@pytest.mark.parametrize("family,n,model,kw", [
    pytest.param("random", 21, "ted", {}, id="random-21-ted"),
    pytest.param("path", 20, "lp", {}, id="path-20-lp"),
    pytest.param("forked", 1, "lp", {}, id="forked-1-lp"),
    pytest.param("fuzzy", 6, "lp", {}, id="fuzzy-6-lp"),
    pytest.param("fuzzy", 40, "ted", {}, id="fuzzy-40-ted"),
    pytest.param("random", 6, "ted", {"trials": 0}, id="trials-0"),
    pytest.param("random", 6, "ted", {"trials": -2}, id="trials-neg"),
    pytest.param("random", 6, "ted", {"budget_cap": 0}, id="budget-cap-0"),
])
def test_doubling_search_rejects_before_first_trial(family, n, model, kw, no_trials):
    with pytest.raises(ValueError, match=">= 1" if kw else None):
        doubling_search(family, n, 0.1, model, target_rate=0.9, **kw)


def test_doubling_search_checks_each_point_before_its_trials():
    # Fuzzy's degree m grows with the trace count: at n = 9 and q = 0.5 the
    # 1-trace point has a tree, and the 2-trace point has none.
    counts = []

    def failed(family, model, n, q, delta, n_traces, rng):
        counts.append(n_traces)
        return False

    with mock.patch.object(harness, "run_trial", failed):
        with pytest.raises(ValueError, match=r"^no fuzzy tree with n=9, m=9: needs n >= m \+ 1$"):
            doubling_search("fuzzy", 9, 0.5, "ted", 0.9, trials=2)
    assert counts == [1, 1]


SPEC = dict(family="random", n=6, q=0.1, model="ted", trace_grid=(2, 4), trials=2)


@pytest.mark.parametrize("field,value,message", [
    ("trace_grid", (2.0, 4.0), "trace_count must be an int, got 2.0"),
    ("trace_grid", (True, 4), "trace_count must be an int, got True"),
    ("trials", 2.5, "trials must be an int, got 2.5"),
    ("trials", True, "trials must be an int, got True"),
    ("n", 6.0, "n must be an int, got 6.0"),
    ("master_seed", 1.5, "master_seed must be an int, got 1.5"),
    # A numpy integer is refused too: its arithmetic wraps at 64 bits.
    ("n", np.int64(6), f"n must be an int, got {np.int64(6)!r}"),
    ("trials", np.int64(2), f"trials must be an int, got {np.int64(2)!r}"),
    ("master_seed", np.uint32(0), f"master_seed must be an int, got {np.uint32(0)!r}"),
    ("trace_grid", (np.int64(2), 4), f"trace_count must be an int, got {np.int64(2)!r}"),
], ids=["grid-float", "grid-bool", "trials-float", "trials-bool", "n-float", "seed-float",
        "n-np.int64", "trials-np.int64", "seed-np.uint32", "grid-np.int64"])
def test_spec_rejects_a_non_int_before_any_trial(field, value, message, no_trials):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(ExperimentSpec(**{**SPEC, field: value}))


@pytest.mark.parametrize("field,value", [
    ("n", 6.0), ("trials", 2.5), ("master_seed", 1.5), ("budget_cap", 2.5), ("budget_cap", False),
], ids=["n-float", "trials-float", "seed-float", "cap-float", "cap-bool"])
def test_doubling_search_rejects_a_non_int_before_any_trial(field, value, no_trials):
    kw = dict(family="random", n=6, q=0.1, model="ted", target_rate=0.9, trials=2)
    with pytest.raises(ValueError, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
        doubling_search(**{**kw, field: value})


@pytest.mark.parametrize("field,value,message", [
    ("q", "0.3", "q must be a real number, got '0.3'"),
    ("q", True, "q must be a real number, got True"),
    ("delta", "0.05", "delta must be a real number, got '0.05'"),
    ("trace_grid", 0, "trace_grid must be an iterable of ints, got 0"),
    ("trace_grid", (2, None), "trace_count must be an int, got None"),
], ids=["q-str", "q-bool", "delta-str", "grid-int", "grid-none"])
def test_spec_rejects_a_non_number_in_one_line(field, value, message, no_trials):
    # Each of these raised a TypeError from a comparison before it was checked.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentSpec(**{**SPEC, field: value})


@pytest.mark.parametrize("value", ["0.5", None, True], ids=["str", "none", "bool"])
def test_doubling_search_rejects_a_non_real_target_rate_in_one_line(value, no_trials):
    with pytest.raises(ValueError,
                       match=f"^target_rate must be a real number, got {re.escape(repr(value))}$"):
        doubling_search("random", 6, 0.1, "ted", target_rate=value, trials=2)


@pytest.mark.parametrize("q", [np.float64(0.1), Fraction(1, 10), np.int64(0), 0],
                         ids=["np.float64", "Fraction", "np.int64", "int"])
def test_spec_stores_q_and_delta_as_float(q):
    # At numpy 2, experiment_id wrote np.float64(0.1) as "qnp.float64(0.1)".
    spec = ExperimentSpec(**{**SPEC, "q": q, "delta": np.float64(0.05), "trials": 1})
    assert type(spec.q) is float and type(spec.delta) is float
    assert spec.experiment_id == f"random-ted-n6-q{float(q)!r}"
    plain = ExperimentSpec(**{**SPEC, "q": float(q), "delta": 0.05, "trials": 1})
    assert rows_to_csv(run_experiment(spec)) == rows_to_csv(run_experiment(plain))


# What a caller might pass for any field: ints of any size, bools, floats
# with nan and inf, numpy scalars, fractions, strings, None, lists, tuples.
_SMALL = st.integers(-2, 40)
_ANYTHING = st.one_of(
    st.integers(), st.booleans(), st.floats(),
    _SMALL.map(np.int64), st.floats(0, 1).map(np.float64), st.floats(0, 1, width=32).map(np.float32),
    st.fractions(-2, 2, max_denominator=100), st.text(max_size=3), st.none(),
    st.lists(_SMALL, max_size=3), st.tuples(_SMALL),
)
# An example starts from plausible values, so that the later checks run, and
# replaces a drawn set of its fields with anything.  A field drawn as
# `plausible | _ANYTHING` would not do: hypothesis flattens that into twelve
# equal branches, and then not one example in 400 builds a spec.
_PLAUSIBLE = st.fixed_dictionaries({
    "family": st.sampled_from(sorted(FAMILIES)),
    "model": st.sampled_from(["string", "ted", "lp"]),
    "n": _SMALL,
    "q": st.floats(0, 1),
    "delta": st.floats(0, 1),
    "trace_grid": st.lists(st.integers(-1, 64), max_size=4),
    "trials": st.integers(0, 4) | st.integers(min_value=0),
    "master_seed": st.integers(0, 9),
    "target_rate": st.floats(0, 1),
    "budget_cap": st.integers(0, 8),
})


@st.composite
def _fields(draw):
    fields = draw(_PLAUSIBLE)
    for key in draw(st.sets(st.sampled_from(sorted(fields)))):
        fields[key] = draw(_ANYTHING)
    return fields


class _FirstTrial(Exception):
    pass


def _builds_or_refuses(call) -> None:
    try:
        call()
    except _FirstTrial:
        pass
    except ValueError as err:
        assert "\n" not in str(err)


@given(_fields())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_input_builds_or_raises_one_value_error(f):
    # The search stops at its first trial, after its first point has seeded
    # the block that trial is in, whatever the number of trials drawn.
    with mock.patch.object(harness, "run_trial", side_effect=_FirstTrial):
        _builds_or_refuses(lambda: ExperimentSpec(
            f["family"], f["n"], f["q"], f["model"], f["trace_grid"], f["trials"],
            f["delta"], f["master_seed"]))
        _builds_or_refuses(lambda: validate(
            f["family"], f["model"], f["n"], f["q"], f["delta"], f["trace_grid"]))
        _builds_or_refuses(lambda: doubling_search(
            f["family"], f["n"], f["q"], f["model"], f["target_rate"], f["trials"], f["delta"],
            f["master_seed"], f["budget_cap"]))


@pytest.mark.parametrize("call, message", [
    (lambda: ExperimentSpec(**{**SPEC, "family": ["random"]}),
     r"no experiment for family=\['random'\], model='ted'"),
    (lambda: doubling_search(["forked"], 6, 0.1, "lp", 0.9),
     r"no experiment for family=\['forked'\], model='lp'"),
    (lambda: validate("random", "ted", 6, 0.1, 0.05, trace_counts=5),
     r"trace_grid must be an iterable of ints, got 5"),
    (lambda: validate("fuzzy", "ted", 30, 1 - 2**-53, 0.05, (4,)),
     r"no fuzzy tree with n=30, m=\d+: needs n >= m \+ 1"),
    (lambda: validate("fuzzy", "ted", 30, 0.1, 5e-324, (4,)),
     r"no fuzzy tree with n=30, m=324: needs n >= m \+ 1"),
    (lambda: validate("fuzzy", "ted", 2**40, 0.1, 0.05, (4,)),
     r"fuzzy n=1099511627776, m=14: candidate width \d+ exceeds the exact-count cap of 62"),
], ids=["spec-family-list", "search-family-list", "validate-counts-int", "fuzzy-q-near-1",
        "fuzzy-delta-subnormal", "fuzzy-n-2**40"])
def test_inputs_that_raised_other_errors_raise_one_value_error(call, message, no_trials):
    # In order: TypeError (unhashable list) twice, TypeError (int not
    # iterable), a loop of about 3.5e16 steps, OverflowError, MemoryError.
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_result_row_validation():
    with pytest.raises(ValueError):
        ResultRow("e", "random", 6, 0.1, "ted", 1, 5, 6, 1.2, 0, 0)
    row = ResultRow("e", "random", 6, 0.1, "ted", 1, 5, 4, 0.8, 0, 0)
    assert row.as_csv().startswith("e,random,6,0.1,ted,1,5,4,0.8,")


def test_run_experiment_q0_rate_one():
    spec = ExperimentSpec("random", 6, 0.0, "ted", (1,), 4, master_seed=5)
    rows = run_experiment(spec)
    assert rows[0].rate == 1.0


def test_run_experiment_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        spec = ExperimentSpec("random", 7, 0.15, "ted", (1, 2, 4), 6,
                              master_seed=11, out=str(out))
        run_experiment(spec)
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == CSV_HEADER
    assert CSV_HEADER == (
        "experiment,family,n,q,model,traces,trials,successes,rate,wall_time_ms,seed"
    )


def test_run_experiment_timing_opt_in():
    spec = ExperimentSpec("random", 6, 0.1, "ted", (4,), 3, master_seed=1)
    rows = run_experiment(spec)
    assert rows[0].wall_time_ms == 0
    timed = run_experiment(spec, timing=True)
    assert timed[0].wall_time_ms >= 0


def test_success_rate_non_decreasing_in_traces():
    spec = ExperimentSpec("random", 10, 0.1, "ted", (1, 4, 16, 64), 40,
                          master_seed=3)
    rows = run_experiment(spec)
    rates = [r.rate for r in rows]
    sigma = math.sqrt(0.25 / spec.trials)
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 2 * sigma
    assert rates[-1] >= 0.9


def test_trial_families_cover_spec_matrix():
    rng = make_rng("families")
    for family, model in [
        ("random", "string"), ("random", "ted"), ("random", "lp"),
        ("path", "ted"), ("path", "lp"),
        ("forked", "ted"), ("forked", "lp"),
        ("fuzzy", "ted"), ("encoded", "ted"),
    ]:
        n = 12 if family == "fuzzy" else 6
        assert run_trial(family, model, n, 0.0, 0.05, 2, rng) in (True, False)
    with pytest.raises(UnknownFamilyError):
        run_trial("fuzzy", "lp", 12, 0.1, 0.05, 2, rng)


def test_doubling_search_q0_returns_one():
    assert doubling_search("random", 6, 0.0, "ted", target_rate=0.95,
                           trials=5, master_seed=2) == 1


def test_doubling_search_budget_exceeded():
    # A tiny cap forces the error path deterministically.
    with pytest.raises(BudgetExceededError):
        doubling_search("forked", 12, 0.5, "lp", target_rate=0.95,
                        trials=10, master_seed=2, budget_cap=4)


def test_doubling_search_reproducible():
    kwargs = dict(family="random", n=8, q=0.2, model="ted",
                  target_rate=0.9, trials=20, master_seed=9)
    assert doubling_search(**kwargs) == doubling_search(**kwargs)


@st.composite
def _q0_points(draw):
    """A family, a model and an n: up to 20 for fuzzy, 12 for the exhaustive ML decoders."""
    family, model = draw(st.sampled_from(
        [(f, m) for f in sorted(FAMILIES) for m in FAMILIES[f].models]))
    return family, model, draw(st.integers(0, 20 if family == "fuzzy" else 12))


@given(point=_q0_points(), count=st.integers(1, 3), seed=st.integers(0, 2**32))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_family_decodes_the_truth_at_q0(point, count, seed):
    family, model, n = point
    try:
        validate(family, model, n, 0.0, 0.05, (count,))
    except ValueError:
        reject()
    assert run_trial(family, model, n, 0.0, 0.05, count, make_rng(f"q0:{seed}"))


# One n per family and model that every trace count of the grid builds at q = 0.5.
_TYPED_SIZES = {("random", "ted"): 8, ("random", "string"): 8, ("forked", "lp"): 7,
                ("fuzzy", "ted"): 12, ("encoded", "ted"): 6}


@given(pair=st.sampled_from(sorted(_TYPED_SIZES)),
       q=st.sampled_from([0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2)]),
       delta=st.sampled_from([0.05, np.float64(0.05), Fraction(1, 20)]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_csv_bytes_depend_on_the_values_of_q_and_delta_not_their_types(pair, q, delta):
    family, model = pair

    def csv(q, delta):
        spec = ExperimentSpec(family, _TYPED_SIZES[pair], q, model, (1, 4), 6, delta, 3)
        return rows_to_csv(run_experiment(spec))

    assert csv(q, delta) == csv(0.5, 0.05)


def test_forked_distinguisher_needs_branch_evidence():
    # Under LP only the deletion-free trace of B_n branches, so at one trace
    # and large q the success rate sits near 1/2 + small.
    rng = make_rng("fork-lp")
    hits = sum(run_trial("forked", "lp", 10, 0.5, 0.05, 1, rng) for _ in range(400))
    assert 0.4 < hits / 400 < 0.65


def test_verify_suite_quick_passes():
    failing = [name for name, passed, _ in verify.run_checks("quick") if not passed]
    assert not failing, f"failing properties: {failing}"


def test_verify_checks_take_only_the_sizes_a_level_or_a_test_sets():
    # A check's parameters are the sizes the quick level shrinks, plus the
    # test seams; every other value is a constant inside the check.
    seams = {"ted-order-invariance": {"ted_apply_fn"}, "traversal-preservation": {"ted_apply_fn"},
             "ted-expectation-inequality": {"q"}}
    for name, (fn, quick) in verify.CHECKS.items():
        assert set(inspect.signature(fn).parameters) == set(quick) | seams.get(name, set()), name


def test_verify_detects_mutated_splice_order():
    # A broken TED that splices children in reverse order must be caught by
    # the traversal-preservation property.
    from treetrace.verify import check_traversal_preservation

    def mutated(t, deleted):
        dels = set(deleted)
        if not dels:
            return t
        table = oracles.table_of(t)
        expand = {}
        for v in reversed(t.ids):
            if v in dels:
                block = []
                for c in reversed(table[v][1]):  # wrong order
                    block.extend(expand[c])
                expand[v] = block
            else:
                expand[v] = [v]
        nodes = {v: (label, tuple(c for k in kids for c in expand[k]))
                 for v, (label, kids) in table.items() if v not in dels}
        return oracles.tree_of_table(nodes, t.root)

    ok, detail = check_traversal_preservation(max_n=5, ted_apply_fn=mutated)
    assert not ok


def test_order_check_catches_a_wrong_splice_on_pairs():
    # Right on every single deletion, so only a subset of two can show it:
    # on pairs, each parent that takes spliced children lists them backwards.
    from treetrace import channels

    def backwards_on_pairs(t, deleted):
        dels = set(deleted)
        out = channels.ted_apply(t, dels)
        if len(dels) != 2:
            return out
        before = oracles.table_of(t)
        nodes = {
            v: (label, kids if kids == before[v][1] else kids[::-1])
            for v, (label, kids) in oracles.table_of(out).items()
        }
        return oracles.tree_of_table(nodes, out.root)

    # Below six nodes, two deletions leave at most two leaves under the root,
    # which read the same either way round.
    ok, detail = verify.check_ted_order_invariance(max_n=6, ted_apply_fn=backwards_on_pairs)
    assert not ok
    assert detail.startswith("flatten != sequential contraction on ")
    assert re.search(r"deleting \[\d+, \d+\]$", detail)


def test_order_check_catches_order_dependent_single_deletions(monkeypatch):
    # A single deletion that appends the children at the end of the parent's
    # list: deleting v then w and w then v give different id orders.
    from treetrace import channels

    def append_children(t, deleted):
        nodes = oracles.table_of(t)
        for v in deleted:
            kids = nodes.pop(v)[1]
            u = next(u for u, (_, cs) in nodes.items() if v in cs)
            label, cs = nodes[u]
            nodes[u] = (label, tuple(c for c in cs if c != v) + kids)
        return oracles.tree_of_table(nodes, t.root)

    monkeypatch.setattr(channels, "ted_apply", append_children)
    ok, detail = verify.check_ted_order_invariance(max_n=5)
    assert not ok
    assert detail.startswith("sequential contraction depends on the order on ")


@pytest.mark.parametrize("every", [1, 10])
def test_uniform_tree_check_catches_a_biased_sampler(monkeypatch, every):
    # One shape's words rewritten as another's: all of them (a shape goes
    # missing) or every tenth (all five shapes seen, one too often).
    from treetrace import instances

    sampler = instances.random_dyck_words

    def biased(n, count, rng):
        words = sampler(n, count, rng)
        hits = [i for i, w in enumerate(words) if w == "101010"]
        for i in hits[::every]:
            words[i] = "111000"
        return words

    monkeypatch.setattr(instances, "random_dyck_words", biased)
    ok, detail = verify.check_uniform_random_tree(n_samples=20_000)
    assert not ok
    assert ("saw 4 shapes, expected 5" if every == 1 else "outside 3 sigma of 0.2") in detail
