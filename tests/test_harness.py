import math

import pytest

from treetrace import harness
from treetrace.cli import main
from treetrace.harness import (
    CSV_HEADER,
    BudgetExceededError,
    ExperimentSpec,
    ResultRow,
    UnknownFamilyError,
    doubling_search,
    fnv1a64,
    run_experiment,
    run_trial,
    trial_rng,
    trial_seed,
    verify_suite,
)
from conftest import make_rng


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


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("random", 6, 0.1, "ted", (4, 2), 5)
    with pytest.raises(UnknownFamilyError):
        ExperimentSpec("bogus", 6, 0.1, "ted", (1,), 5)
    with pytest.raises(ValueError):
        ExperimentSpec("random", 6, 0.1, "ted", (1,), 0)


# Specs that used to be accepted and then crash partway through a sweep.
REJECTED = {
    "n=0": dict(family="random", n=0, q=0.1, model="ted", trace_grid=(4,)),
    "q=1.5": dict(family="random", n=6, q=1.5, model="ted", trace_grid=(4,)),
    "fuzzy+string": dict(family="fuzzy", n=12, q=0.1, model="string", trace_grid=(4,)),
    "trace count 0": dict(family="random", n=6, q=0.1, model="ted", trace_grid=(0, 4)),
    "fuzzy m=14": dict(family="fuzzy", n=8, q=0.5, model="ted", trace_grid=(64,)),
    "random n=21": dict(family="random", n=21, q=0.1, model="ted", trace_grid=(4,)),
    "path n=20": dict(family="path", n=20, q=0.1, model="ted", trace_grid=(4,)),
    # m = 7 and up to 4 skeleton leaves: candidates 39 + 28 = 67 wide, past the ML cap.
    "fuzzy n=40 width 67": dict(family="fuzzy", n=40, q=0.2, model="ted", trace_grid=(64,)),
}


@pytest.fixture
def no_trials(monkeypatch):
    def trial(*args):
        raise AssertionError("a trial ran for a spec that should have been rejected")

    monkeypatch.setattr(harness, "run_trial", trial)


@pytest.mark.parametrize("kw", REJECTED.values(), ids=REJECTED.keys())
def test_invalid_spec_rejected_when_built(kw, capsys, no_trials):
    with pytest.raises(ValueError):
        ExperimentSpec(trials=2, **kw)
    argv = ["experiment", "--family", kw["family"], "--model", kw["model"],
            "--n", str(kw["n"]), "--q", str(kw["q"]), "--trials", "2",
            "--traces", ",".join(map(str, kw["trace_grid"]))]
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


@pytest.mark.parametrize("family,n,model", [
    ("random", 21, "ted"), ("path", 20, "lp"), ("forked", 1, "lp"), ("fuzzy", 6, "lp"),
])
def test_doubling_search_rejects_before_first_trial(family, n, model, no_trials):
    with pytest.raises(ValueError):
        doubling_search(family, n, 0.1, model, target_rate=0.9)


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


def test_forked_distinguisher_needs_branch_evidence():
    # Under LP only the deletion-free trace of B_n branches, so at one trace
    # and large q the success rate sits near 1/2 + small.
    rng = make_rng("fork-lp")
    hits = sum(run_trial("forked", "lp", 10, 0.5, 0.05, 1, rng) for _ in range(400))
    assert 0.4 < hits / 400 < 0.65


def test_verify_suite_quick_passes():
    ok, results = verify_suite("quick")
    failing = [name for name, passed, _ in results if not passed]
    assert ok, f"failing properties: {failing}"


def test_verify_detects_mutated_splice_order():
    # A broken TED that splices children in reverse order must be caught by
    # the traversal-preservation property.
    from treetrace.verify import check_traversal_preservation
    from treetrace.trees import Node, Tree, preorder

    def mutated(t, deleted):
        dels = set(deleted)
        if not dels:
            return t
        expand = {}
        for v in reversed(preorder(t)):
            if v in dels:
                block = []
                for c in reversed(t.nodes[v].children):  # wrong order
                    block.extend(expand[c])
                expand[v] = block
            else:
                expand[v] = [v]
        nodes = {}
        stack = [(t.root, None)]
        while stack:
            v, par = stack.pop()
            kids = []
            for c in t.nodes[v].children:
                kids.extend(expand[c])
            nodes[v] = Node(t.nodes[v].label, tuple(kids), par)
            stack.extend((c, v) for c in kids)
        return Tree(nodes, t.root, validate=False)

    ok, detail = check_traversal_preservation(max_n=5, ted_apply_fn=mutated)
    assert not ok
