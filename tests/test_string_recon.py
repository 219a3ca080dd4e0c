import itertools
import math

import numpy as np
import pytest

from treetrace import channels
from treetrace.string_recon import (
    FULL_SWEEP_CAP,
    DegeneratePairError,
    InconsistentTracesError,
    default_arc_parameter,
    distinguish_pair,
    embedding_counts,
    empirical_mean_vector,
    exact_mean_vector,
    find_separation,
    mean_reconstruct,
    ml_reconstruct,
)
from treetrace.trees import SymbolString, dyck_string, enumerate_trees
from treetrace.verify import enumeration_mean_vector, sample_empirical_mean
from conftest import make_rng


def test_exact_mean_examples():
    assert exact_mean_vector("1", 0.5) == pytest.approx((0.5,))
    assert exact_mean_vector("11", 0.5) == pytest.approx((0.75, 0.25))


def test_exact_mean_matches_enumeration():
    rng = make_rng("mean-enum")
    for L in range(1, 9):
        for _ in range(12):
            s = "".join(rng.choice(["0", "1"], size=L))
            for q in (0.1, 0.5):
                exact = exact_mean_vector(s, q)
                oracle = enumeration_mean_vector(s, q)
                assert np.max(np.abs(exact - oracle)) <= 1e-12


def test_empirical_mean_examples():
    got = empirical_mean_vector(["1", "", "11"], 2)
    assert got == pytest.approx((2 / 3, 1 / 3))
    assert empirical_mean_vector(["101"] * 7, 3) == pytest.approx((1, 0, 1))
    with pytest.raises(ValueError):
        empirical_mean_vector([], 3)
    with pytest.raises(ValueError):
        empirical_mean_vector(["1111"], 3)


def test_empirical_mean_concentrates():
    rng = make_rng("emp-mean")
    s = "1011010010"
    n_samples = 100_000
    emp = sample_empirical_mean(s, 0.3, n_samples, rng)
    exact = exact_mean_vector(s, 0.3)
    assert np.max(np.abs(emp - exact)) <= 5 / math.sqrt(n_samples)


def test_find_separation_examples():
    wit = find_separation("10", "01", 0.5)
    assert wit.j == 0
    assert wit.magnitude == pytest.approx(0.25)
    wit = find_separation("110", "111", 0.0)
    assert wit.j == 2
    assert wit.magnitude == pytest.approx(1.0)
    with pytest.raises(DegeneratePairError):
        find_separation("10", "10", 0.5)
    with pytest.raises(ValueError):
        find_separation("1", "10", 0.5)


def test_find_separation_all_pairs_small():
    for n in range(1, 6):
        strings = ["".join(b) for b in itertools.product("01", repeat=n)]
        for x, y in itertools.combinations(strings, 2):
            wit = find_separation(x, y, 0.5)
            assert wit.magnitude > 1e-12
            assert wit.poly_value > 1e-12
            assert abs(abs(wit.z) - 1.0) < 1e-12
            assert abs(np.angle(wit.z)) <= math.pi / wit.L + 1e-12


def test_default_arc_parameter():
    assert default_arc_parameter(1) == 1
    assert default_arc_parameter(8) == 2
    assert default_arc_parameter(27) == 3


def test_distinguish_pair_examples():
    rng = make_rng("distinguish")
    x, y = "10", "01"
    traces = [str(channels.string_trace(SymbolString(x), 0.0, rng)) for _ in range(5)]
    assert str(distinguish_pair(x, y, traces, 0.0)) == x
    # Empirical mean [0.51, 0.01]: 50 "1", 1 "11", 49 empty traces.
    traces = ["1"] * 50 + ["11"] + [""] * 49
    assert str(distinguish_pair(x, y, traces, 0.5)) == x


def test_distinguish_pair_error_rate_hoeffding():
    # At magnitude 0.25 and N=1000 the Hoeffding bound is ~6e-14: no errors.
    rng = make_rng("hoeffding")
    x, y = SymbolString("10"), SymbolString("01")
    errors = 0
    for _ in range(300):
        traces = [channels.string_trace(x, 0.5, rng) for _ in range(1000)]
        errors += str(distinguish_pair(x, y, traces, 0.5)) != str(x)
    assert errors == 0


def test_embedding_counts_vectorised_matches_scalar():
    rng = make_rng("embed")
    for _ in range(200):
        L = int(rng.integers(1, 10))
        ell = int(rng.integers(0, L + 1))
        cands = ["".join(rng.choice(["0", "1"], size=L)) for _ in range(8)]
        trace = "".join(rng.choice(["0", "1"], size=ell))
        mat = (np.frombuffer("".join(cands).encode(), np.uint8) - ord("0")).reshape(8, L)
        tr = np.frombuffer(trace.encode(), np.uint8) - ord("0")
        got = embedding_counts(mat, tr)
        want = [channels.count_embeddings(c, trace) for c in cands]
        assert got.tolist() == want


def test_ml_examples():
    assert str(ml_reconstruct(["101"], 3, 0.0)) == "101"
    assert str(ml_reconstruct(["1", "1", "11"], 2, 0.5)) == "11"
    with pytest.raises(InconsistentTracesError):
        ml_reconstruct(["11"], 2, 0.5, candidates=["10", "01"])
    with pytest.raises(ValueError):
        ml_reconstruct([], 3, 0.5)


def test_ml_recovery_improves_with_traces():
    rng = make_rng("ml-mono")
    n, q = 10, 0.1
    rates = {}
    for n_traces in (1, 64):
        ok = 0
        for _ in range(20):
            s = SymbolString("".join(rng.choice(["0", "1"], size=n)))
            traces = [channels.string_trace(s, q, rng) for _ in range(n_traces)]
            ok += str(ml_reconstruct(traces, n, q)) == str(s)
        rates[n_traces] = ok / 20
    assert rates[64] >= rates[1]
    assert rates[64] >= 0.9


def _random_strings_and_traces(tag: str, n: int):
    """(q, traces) pairs: 1, 3 and 16 string traces of random length-n strings."""
    rng = make_rng(tag)
    for q in (0.1, 0.4, 0.8):
        for n_traces in (1, 3, 16):
            s = SymbolString("".join(rng.choice(["0", "1"], size=n)))
            yield q, [str(channels.string_trace(s, q, rng)) for _ in range(n_traces)]


@pytest.mark.parametrize("n", range(9))
def test_full_sweep_matches_explicit_list_of_all_strings(n):
    every = ["".join(b) for b in itertools.product("01", repeat=n)]
    backwards = every[::-1]
    for q, traces in _random_strings_and_traces(f"sweep-{n}", n):
        want = str(ml_reconstruct(traces, n, q, candidates=every))
        assert str(ml_reconstruct(traces, n, q)) == want
        assert str(ml_reconstruct(traces, n, q, candidates=backwards)) == want
    assert str(ml_reconstruct([""], n, 0.5)) == "0" * n


@pytest.mark.parametrize("n", range(1, 11))
def test_mean_reconstruct_is_the_per_candidate_argmin(n):
    every = ["".join(b) for b in itertools.product("01", repeat=n)]
    few = every[1::3]
    for q, traces in _random_strings_and_traces(f"mean-argmin-{n}", n):
        emp = empirical_mean_vector(traces, n)
        gap = {c: np.max(np.abs(emp - exact_mean_vector(c, q))) for c in every}
        for cands, pool in ((None, every), (few, few)):
            want = min(pool, key=lambda c: (gap[c], c))
            assert str(mean_reconstruct(traces, n, q, candidates=cands)) == want


@pytest.mark.parametrize("reconstruct", [ml_reconstruct, mean_reconstruct])
def test_candidates_are_checked(reconstruct):
    # "10" would win each list, so only the check itself can reject "12" or "1x".
    for bad in (["101"], ["10", "1"], ["10", "12"], ["10", "1x"], []):
        with pytest.raises(ValueError):
            reconstruct(["1"], 2, 0.3, candidates=bad)
    with pytest.raises(ValueError):
        reconstruct(["1"], FULL_SWEEP_CAP + 1, 0.3)
    assert str(reconstruct([""], 0, 0.3)) == ""
    assert str(reconstruct([""], 0, 0.3, candidates=[""])) == ""


def test_mean_reconstruct_examples():
    assert str(mean_reconstruct(["101"] * 10, 3, 0.0)) == "101"
    rng = make_rng("mean-pair")
    x, y = "1001", "0110"
    traces = [str(channels.string_trace(SymbolString(x), 0.3, rng)) for _ in range(10_000)]
    by_mean = str(mean_reconstruct(traces, 4, 0.3, candidates=[x, y]))
    by_pair = str(distinguish_pair(x, y, traces, 0.3))
    assert by_mean == by_pair == x


def test_mean_reconstruct_dyck_candidates_under_ted():
    # Canonical strings of 6-node trees recovered from TED pair-deletion
    # traces; the iid mean model is only a lower bound for this channel, so
    # the check runs at a mild deletion rate.
    rng = make_rng("mean-dyck")
    n = 6
    by_word = {str(dyck_string(t)): t for t in enumerate_trees(n)}
    cands = sorted(by_word)
    ok = 0
    trials = 20
    for _ in range(trials):
        word = cands[int(rng.integers(len(cands)))]
        truth = by_word[word]
        traces = [
            str(dyck_string(channels.ted_trace(truth, 0.1, rng))) for _ in range(500)
        ]
        ok += str(mean_reconstruct(traces, len(word), 0.1, candidates=cands)) == word
    assert ok / trials >= 0.8


def test_binomial_identity():
    rng = make_rng("binomial")
    for k in range(31):
        q = float(rng.uniform(0.05, 0.95))
        p = 1 - q
        w = float(rng.uniform(-2, 2))
        lhs = sum(math.comb(k, j) * p**j * q ** (k - j) * w**j for j in range(k + 1))
        assert lhs == pytest.approx((p * w + q) ** k, rel=1e-9, abs=1e-9)


def test_ties_break_lexicographically():
    # One empty trace cannot distinguish candidates of equal length.
    assert str(ml_reconstruct([""], 2, 0.5)) == "00"
    assert str(mean_reconstruct(["0"], 1, 0.5, candidates=["1", "0"])) == "0"
