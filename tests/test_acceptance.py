"""Acceptance suite: one pass/fail line per criterion, stated tolerances pinned.

Statistical checks run on fixed seeds derived from a single master constant,
so every run reproduces the same measurements.  Shared exhaustive sweeps are
session-scoped fixtures.
"""

import itertools
import math

import numpy as np
import pytest

from treetrace import channels, instances, string_recon, tree_recon, verify
from treetrace.harness import (
    SEARCH_BUDGET_CAP,
    BudgetExceededError,
    ExperimentSpec,
    doubling_search,
    rows_to_csv,
    run_experiment,
    run_trial,
    trial_rng,
)
import oracles

MASTER = 20260810


def report(criterion: str, passed: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- analytic laws for the criterion 9 and 10 curves -------------------------


def binom_pmf(k: int, trials: int, rate: float) -> float:
    return math.comb(trials, k) * rate**k * (1 - rate) ** (trials - k)


def binom_tail(k_min: int, trials: int, rate: float) -> float:
    """P(X >= k_min) for X ~ Binomial(trials, rate), summed exactly."""
    return math.fsum(binom_pmf(k, trials, rate) for k in range(k_min, trials + 1))


def lp_forked_rate(n: int, q: float, n_traces: int) -> float:
    """r(N): exact success rate of run_trial's forked/lp distinguisher.

    By criterion 1 every LP trace of B_n with a deletion is the path A_(n-m),
    which A_n emits too; only the deletion-free trace, of probability
    p = (1-q)^n, branches.  The truth is a fair coin, a path truth is always
    guessed right, and a fork truth is guessed right iff one of the N traces is
    deletion-free: r(N) = 1 - (1-p)^N / 2.
    """
    return 1.0 - 0.5 * (1.0 - (1.0 - q) ** n) ** n_traces


def encoded_rate(s_len: int, q: float, n_traces: int) -> float:
    """enc(N): upper bound on reconstruct_encoded's exact-recovery rate.

    The decoder reads position i, and reads it right, only from traces in
    which leaf i and its backbone parent both survive.  That happens with
    probability (1-q)^2, independently over positions and traces, because the
    (leaf, parent) pairs are disjoint node sets.  Decoding needs a reading at
    every position: enc(N) = (1 - (1 - (1-q)^2)^N)^|S|.
    """
    return (1.0 - (1.0 - (1.0 - q) ** 2) ** n_traces) ** s_len


def encoded_rate_floor(s_len: int, q: float, n_traces: int, ell: int) -> float:
    """Lower bound on the same rate, charging for the lost path continuation.

    A reading also needs the continuation below the parent, and any surviving
    node of the bottom buffer (the last ell backbone nodes) supplies it.  A
    trace whose whole bottom buffer is deleted (probability q^ell, independent
    of the leaf/parent pairs) is counted as blind, so the rate is at least
    E[enc(N - W)] with W ~ Binomial(N, q^ell).
    """
    return math.fsum(binom_pmf(w, n_traces, q**ell) * encoded_rate(s_len, q, n_traces - w)
                     for w in range(n_traces + 1))


def raw_ml_rate(n: int, q: float, n_traces: int) -> float:
    """raw(N): lower bound on ml_reconstruct's exact-recovery rate on raw strings.

    A full-length trace is the string itself, and no other length-n candidate
    can emit it, so every other candidate has likelihood 0 and ML returns the
    truth: raw(N) = 1 - (1 - (1-q)^n)^N.
    """
    return 1.0 - (1.0 - (1.0 - q) ** n) ** n_traces


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_lp_indistinguishability():
    """LP trace sets of A_n and B_n coincide and equal {A_(n-m)} exactly."""
    checked = 0
    for n in range(4, 11):
        a_n, b_n = instances.path_tree(n), instances.forked_tree(n)
        for m in range(1, n):
            expect = {instances.path_tree(n - m)}
            if channels.lp_trace_set(a_n, m) != expect:
                report("1 (LP indistinguishability)", False,
                       f"LP_{m}(A_{n}) != {{A_{n-m}}}")
            if channels.lp_trace_set(b_n, m) != expect:
                report("1 (LP indistinguishability)", False,
                       f"LP_{m}(B_{n}) != {{A_{n-m}}}")
            checked += 1
    report("1 (LP indistinguishability)", True,
           f"{checked} (n, m) pairs with 4 <= n <= 10 match exactly")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_ted_order_invariance_and_traversal():
    """Exhaustive n<=7: flatten == sequential contraction; preorder preserved."""
    ok1, d1 = verify.check_ted_order_invariance(max_n=7)
    ok2, d2 = verify.check_traversal_preservation(max_n=7)
    report("2 (order invariance + traversal)", ok1 and ok2, f"{d1}; {d2}")


# -- criteria 3 and 4 share the exhaustive subsequence sweep -----------------


@pytest.fixture(scope="session")
def subsequence_sweep():
    """For every s with |s| <= 10: {trace: embedding count} (q-independent)."""
    sweep = {}
    for L in range(1, 11):
        for bits in itertools.product("01", repeat=L):
            s = "".join(bits)
            sweep[s] = {
                t: channels.count_embeddings(s, t)
                for t in channels.distinct_subsequences(s)
            }
    return sweep


def _probs(s: str, counts: dict[str, int], q: float) -> dict[str, float]:
    p = 1.0 - q
    L = len(s)
    return {t: c * p ** len(t) * q ** (L - len(t)) for t, c in counts.items()}


def test_criterion_3_channel_oracles(subsequence_sweep):
    q = 0.4
    worst = 0.0
    for s, counts in subsequence_sweep.items():
        total = sum(_probs(s, counts, q).values())
        worst = max(worst, abs(total - 1.0))
        if abs(total - 1.0) > 1e-9:
            report("3 (channel oracles)", False, f"sum {total} for s={s}")
    ok_t, d_t = verify.check_ted_distribution_normalization(max_n=6)
    if not ok_t:
        report("3 (channel oracles)", False, d_t)
    ok_s, d_s = verify.check_string_trace_mc(n_samples=100_000)
    if not ok_s:
        report("3 (channel oracles)", False, d_s)
    ok_m, d_m = verify.check_ted_trace_mc(n_samples=100_000)
    if not ok_m:
        report("3 (channel oracles)", False, d_m)
    report("3 (channel oracles)", True,
           f"all |s|<=10 sums within {worst:.2e} of 1; {d_t}; {d_s}; {d_m}")


def test_criterion_4_mean_formula(subsequence_sweep):
    worst = 0.0
    for q in (0.1, 0.5):
        for s, counts in subsequence_sweep.items():
            acc = np.zeros(len(s))
            for t, prob in _probs(s, counts, q).items():
                if t:
                    acc[: len(t)] += prob * (np.frombuffer(t.encode(), np.uint8) - ord("0"))
            exact = string_recon.exact_mean_vector(s, q)
            gap = float(np.max(np.abs(acc - exact)))
            worst = max(worst, gap)
            if gap > 1e-12:
                report("4 (mean formula)", False, f"gap {gap} for s={s}, q={q}")
    ok_e, d_e = verify.check_mean_empirical(n_strings=20, n_samples=100_000)
    if not ok_e:
        report("4 (mean formula)", False, d_e)
    report("4 (mean formula)", True,
           f"enumeration matches within {worst:.2e} over all |s|<=10, q in (0.1, 0.5); {d_e}")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_ted_expectation_inequality():
    details = []
    for q in (0.2, 0.5):
        ok, d = verify.check_ted_expectation_inequality(max_n=6, q=q)
        if not ok:
            report("5 (TED expectation inequality)", False, f"q={q}: {d}")
        details.append(f"q={q}: {d}")
    report("5 (TED expectation inequality)", True, "; ".join(details))


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_separation_and_arc_maxima():
    ok_s, d_s = verify.check_separation_existence(max_n=8)
    if not ok_s:
        report("6 (separation)", False, d_s)
    ok_a, d_a = verify.check_arc_maxima(max_n=10)
    if not ok_a:
        report("6 (separation)", False, d_a)
    report("6 (separation)", True, f"{d_s}; arc maxima: {d_a}")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_known_topology_pipeline():
    trials, n_traces = 200, 64
    ok = 0
    for ti in range(trials):
        rng = trial_rng(MASTER, 7, ti)
        ok += run_trial("random", "ted", 10, 0.1, 0.05, n_traces, rng)
    rate = ok / trials
    report("7 (known-topology pipeline)", rate >= 0.95,
           f"exact label recovery in {ok}/{trials} trials (rate {rate:.3f}, need >= 0.95)")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_fuzzy_pipeline():
    ok_p, d_p = verify.check_fuzzy_positional(max_n=8)
    if not ok_p:
        report("8 (fuzzy pipeline)", False, d_p)
    n, q, n_traces, trials = 30, 0.2, 64, 50
    m = instances.fuzzy_degree(n, n_traces, 0.01, q)
    ok = 0
    for ti in range(trials):
        rng = trial_rng(MASTER, 8, ti)
        truth = instances.random_fuzzy_tree(n, m, rng)
        traces = channels.ted_traces(truth, q, n_traces, rng)
        try:
            got = tree_recon.reconstruct_fuzzy(traces, n, m, q)
        except (tree_recon.ReconstructionFailedError,
                string_recon.InconsistentTracesError):
            continue
        ok += got == truth
    rate = ok / trials
    report("8 (fuzzy pipeline)", rate >= 0.90,
           f"{d_p}; end-to-end n={n}, m={m}: {ok}/{trials} exact (rate {rate:.2f}, need >= 0.90)")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_removal_rate_and_recovery():
    q, s_len = 0.3, 8
    n_traces = 100_000
    rng = trial_rng(MASTER, 90, 0)
    s = "".join(str(int(b)) for b in rng.integers(0, 2, size=s_len))
    ell = instances.buffer_length(0.01, n_traces, q)
    inst = instances.encode_string_as_tree(s, ell)
    traces = channels.ted_traces(inst.tree, q, n_traces, rng)
    stats = oracles.encoded_removal_stats(traces, s_len, ell)
    expect = q * q
    sigma = math.sqrt(expect * (1 - expect) / stats["trials"])
    gap = abs(stats["complete_removal_rate"] - expect)
    if gap > 3 * sigma:
        report("9 (removal rate + recovery)", False,
               f"complete-removal rate {stats['complete_removal_rate']:.5f} "
               f"vs q^2={expect}: off by {gap / sigma:.1f} sigma")
    budget = doubling_search("encoded", s_len, q, "ted", target_rate=0.95,
                             trials=200, delta=0.05, master_seed=MASTER)
    ok = 0
    for ti in range(200):
        rng = trial_rng(MASTER, 91, ti)
        ok += run_trial("encoded", "ted", s_len, q, 0.05, budget, rng)
    rate = ok / 200
    report("9 (removal rate + recovery)", rate >= 0.95,
           f"removal rate {stats['complete_removal_rate']:.5f} = q^2 +/- "
           f"{gap / sigma:.1f} sigma over {n_traces} traces; >=95% recovery at "
           f"doubling budget {budget} (rate {rate:.3f})")


def test_criterion_9_encoded_vs_raw_curves(tmp_path):
    """Emit both curves at matched n and hold each to its decoder's law.

    (a) Every encoded success count lies inside the two-sided exact binomial
    band, at level 1e-4, between encoded_rate_floor and encoded_rate.
    (b) Wherever raw_ml_rate exceeds encoded_rate (N = 1 and 2 here), the
    raw-string curve is the higher one: the part of "encoded needs more
    traces" that the two laws prove.  Each curve's CSV holds exactly its rows.
    """
    q, n, delta, trials, alpha = 0.3, 8, 0.05, 200, 1e-4
    grid = (1, 2, 4, 8, 16, 32)
    curves = {}
    for family, model in (("encoded", "ted"), ("random", "string")):
        out = tmp_path / f"curve_{family}.csv"
        spec = ExperimentSpec(family=family, n=n, q=q, model=model,
                              trace_grid=grid, trials=trials, delta=delta,
                              master_seed=MASTER, out=str(out))
        curves[family] = run_experiment(spec)
        if out.read_text() != rows_to_csv(curves[family]):
            report("9 (encoded vs raw curves)", False,
                   f"{out.name} does not hold the emitted rows")
    for family, rows in curves.items():
        pts = ", ".join(f"{r.traces}:{r.rate:.3f}" for r in rows)
        print(f"curve {family}: {pts}")
    zs = []
    for enc, raw in zip(curves["encoded"], curves["random"]):
        N, k = enc.traces, enc.successes
        hi = encoded_rate(n, q, N)
        lo = encoded_rate_floor(n, q, N, instances.buffer_length(delta, N, q))
        if binom_tail(k, trials, hi) < alpha / 2 or 1 - binom_tail(k + 1, trials, lo) < alpha / 2:
            report("9 (encoded vs raw curves)", False,
                   f"encoded {k}/{trials} at N={N} lies outside the level-{alpha} "
                   f"binomial band of rates [{lo:.4f}, {hi:.4f}]")
        if raw_ml_rate(n, q, N) > hi and raw.successes <= k:
            report("9 (encoded vs raw curves)", False,
                   f"at N={N} raw ML {raw.successes}/{trials} is not above encoded "
                   f"{k}/{trials}, though raw(N)={raw_ml_rate(n, q, N):.4f} > enc(N)={hi:.4f}")
        zs.append(f"{N}:{(k - trials * hi) / math.sqrt(trials * hi * (1 - hi)):+.1f}")
    report("9 (encoded vs raw curves)", True,
           f"encoded counts inside the enc(N) band (z by N: {', '.join(zs)}); raw ML "
           f"ahead wherever raw(N) > enc(N); both CSVs hold their rows")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_lp_budget_exceeded():
    """The A_12/B_12 LP search exhausts the trace budget that r(N) allows.

    The cap is the largest power of two up to which the search (50 trials,
    target 0.95) succeeds at some doubling step with probability below 1e-4,
    by the exact binomial tails of lp_forked_rate summed over the steps.  At
    n=12, q=0.5 that is 2048 = (1-q)^-n / 2 traces: exponential in n, as the
    paper says.  A search that succeeds within it has seen a fork in a trace
    with deletions.
    """
    n, q, target, trials, alpha = 12, 0.5, 0.95, 50, 1e-4
    need = next(k for k in range(trials + 1) if k / trials >= target)
    caps = [2**k for k in range(SEARCH_BUDGET_CAP.bit_length())]
    risks = list(itertools.accumulate(
        binom_tail(need, trials, lp_forked_rate(n, q, c)) for c in caps))
    cap, risk = max((c, r) for c, r in zip(caps, risks) if r < alpha)
    if cap < (1 - q) ** -n / 2:
        report("10 (LP budget exceeded)", False,
               f"cap {cap} from r(N) is below (1-q)^-n / 2 = {(1 - q) ** -n / 2:.0f}")
    try:
        found = doubling_search("forked", n, q, "lp", target_rate=target,
                                trials=trials, master_seed=MASTER, budget_cap=cap)
    except BudgetExceededError:
        report("10 (LP budget exceeded)", True,
               f"search exceeded the {cap}-trace cap, within which r(N) lets it "
               f"succeed with probability {risk:.1e} (r({cap}) = "
               f"{lp_forked_rate(n, q, cap):.3f}; r(N) = {target} at N = "
               f"{math.log(2 * (1 - target)) / math.log(1 - (1 - q) ** n):.0f})")
        return
    report("10 (LP budget exceeded)", False,
           f"search succeeded at {found} traces within the {cap}-trace cap, which "
           f"r(N) allows with probability {risk:.1e}; only deletion-free traces "
           f"may reveal the fork")


def test_criterion_10_clean_trace_fraction():
    q, n = 0.5, 12
    n_samples = 100_000
    rng = trial_rng(MASTER, 10, 0)
    b_n = instances.forked_tree(n)
    # One batched call reads the same stream as n_samples lp_trace calls.
    clean = sum(tr == b_n for tr in channels.lp_traces(b_n, q, n_samples, rng))
    expect = (1 - q) ** n
    sigma = math.sqrt(expect * (1 - expect) / n_samples)
    frac = clean / n_samples
    report("10 (deletion-free fraction)", abs(frac - expect) <= 3 * sigma,
           f"deletion-free fraction {frac:.6f} vs (1-q)^n = {expect:.6f} "
           f"({abs(frac - expect) / sigma:.1f} sigma over {n_samples} traces)")
