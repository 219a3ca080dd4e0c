import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treetrace import channels, harness, verify
from treetrace.channels import (
    InvalidDeletionError,
    SizeCapError,
    count_embeddings,
    distinct_subsequences,
    lp_trace_set,
    lp_traces,
    string_trace_prob,
    string_traces,
    ted_apply,
    ted_traces,
    trace_law,
)
from treetrace.instances import forked_tree, path_tree, random_labels, random_tree
from treetrace.trees import Tree, enumerate_trees, parse_tree, tree_from_dyck
from conftest import make_rng
from oracles import StaleTargetError, form, lp_apply, lp_trace, string_trace, ted_trace
import oracles


def test_string_trace_q0_identity():
    rng = make_rng("string-q0")
    s = "10110"
    assert string_trace(s, 0.0, rng) == "10110"


def test_string_trace_single_bit_distribution():
    rng = make_rng("string-single")
    hits = sum(string_trace("1", 0.4, rng) == "1" for _ in range(20000))
    assert abs(hits / 20000 - 0.6) < 0.015


def test_string_trace_half_on_double_one():
    # Enumerating the 4 deletion patterns of "11" at q=0.5: P(output "1") = 0.5.
    rng = make_rng("string-double")
    hits = sum(string_trace("11", 0.5, rng) == "1" for _ in range(20000))
    assert abs(hits / 20000 - 0.5) < 0.015


def test_ted_apply_empty_and_root():
    t = parse_tree("0(1,0)")
    assert ted_apply(t, set()) is t
    with pytest.raises(InvalidDeletionError):
        ted_apply(t, {t.root})
    with pytest.raises(InvalidDeletionError):
        ted_apply(t, {99})


def test_ted_apply_splice_example():
    t = parse_tree("0(1(1,0),1)")
    internal = t.children()[t.root][0]
    assert ted_apply(t, {internal}).canonical() == "0(1,0,1)"


def test_ted_apply_multi_deletion_matches_sequential():
    # Deleting a node and its parent together: grandchildren splice into the
    # grandparent at the parent's position, same as one-at-a-time contraction.
    for n in range(2, 8):
        for t in enumerate_trees(n):
            others = t.ids[1:]
            for r in range(1, len(others) + 1):
                for subset in itertools.combinations(others, r):
                    step = t
                    for v in subset:
                        step = ted_apply(step, {v})
                    assert form(step) == form(ted_apply(t, set(subset)))


def _reversed_ids(t):
    """The same tree with id v renamed n - 1 - v: each parent id exceeds its children's."""
    return Tree(t.word, t.labels, [t.n - 1 - v for v in t.ids])


def _assert_splices(t, dels):
    # The word, the labels and the ids, in preorder.
    assert form(ted_apply(t, dels)) == form(oracles.ted_splice(t, dels))


def test_ted_apply_matches_reference_exhaustive():
    # Every subset of every tree with n <= 7, with random labels and with
    # ids drawn without replacement from 0..3n-1 in random order.
    rng = make_rng("ted-apply-splice")
    cases = 0
    for n in range(1, 8):
        for shape in enumerate_trees(n):
            labels = "".join(map(str, rng.integers(0, 2, size=n).tolist()))
            t = Tree(shape.word, labels, rng.permutation(3 * n)[:n].tolist())
            others = t.ids[1:]
            for r in range(len(others) + 1):
                for subset in itertools.combinations(others, r):
                    _assert_splices(t, subset)
                    cases += 1
    assert cases == 10_067  # Catalan(n - 1) * 2^(n - 1) summed over n <= 7


def test_ted_apply_matches_reference_random_and_deep():
    rng = make_rng("ted-apply-reference")
    for _ in range(300):
        t = random_labels(random_tree(int(rng.integers(1, 201)), rng), rng)
        others = t.ids[1:]
        keep = rng.random(len(others)) >= rng.random()
        _assert_splices(t, [v for v, k in zip(others, keep) if not k])
    deep = _reversed_ids(random_labels(path_tree(3000), rng))
    _assert_splices(deep, deep.ids[1::2])
    assert ted_apply(deep, deep.ids[1::2]).n == 1501
    _assert_splices(deep, {deep.ids[1700]})
    _assert_splices(deep, {deep.ids[-1]})
    fan = _reversed_ids(random_labels(tree_from_dyck("10" * 1500 + "1" + "10" * 1500 + "0"), rng))
    _assert_splices(fan, {fan.ids[1501]})  # the middle child's 1,500 children splice in
    assert ted_apply(fan, {fan.ids[1501]}).word == "10" * 3000


def test_ted_trace_q0_and_path_probability():
    rng = make_rng("ted-path")
    t = path_tree(2)
    assert ted_trace(t, 0.0, rng) == t
    q = 0.3
    hits = sum(ted_trace(t, q, rng).n == 3 for _ in range(20000))
    assert abs(hits / 20000 - (1 - q) ** 2) < 0.015


def test_ted_distribution_examples():
    t = parse_tree("0(0)")
    law = trace_law(t, 0.5, "ted")
    assert law[parse_tree("0(0)")] == pytest.approx(0.5)
    assert law[parse_tree("0")] == pytest.approx(0.5)
    law0 = trace_law(parse_tree("0(1,0)"), 0.0, "ted")
    assert len(law0) == 1 and law0[parse_tree("0(1,0)")] == pytest.approx(1.0)


def _assert_normalizes_random_trees(model):
    rng = make_rng("ted-dist" if model == "ted" else f"{model}-law")
    for _ in range(100):
        t = random_tree(int(rng.integers(1, 7)), rng)
        law = trace_law(t, 0.35, model)
        assert type(law) is dict and all(type(tr) is Tree for tr in law)
        assert all(0.0 < p <= 1.0 for p in law.values())
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)


def test_ted_distribution_normalizes_random_trees():
    _assert_normalizes_random_trees("ted")


def test_lp_law_normalizes_random_trees():
    _assert_normalizes_random_trees("lp")


@pytest.mark.parametrize("q", [1.5, -0.2])
def test_ted_distribution_rejects_q_out_of_range(q):
    # Both still sum to 1, with negative terms: only the range check catches them.
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1\)"):
        trace_law(parse_tree("0(0,0)"), q, "ted")


def test_ted_distribution_cap():
    with pytest.raises(SizeCapError):
        trace_law(path_tree(20), 0.5, "ted")


def test_trace_law_rejects_bad_input():
    t = parse_tree("0(0,0)")
    for model in ("ted", "lp"):
        for q in (1.0, -0.1):
            with pytest.raises(ValueError, match=r"q must lie in \[0, 1\)"):
                trace_law(t, q, model)
        # path_tree(k) has k + 1 nodes: the cap is in reach, one node past it is not.
        assert len(trace_law(path_tree(channels.TED_ENUM_CAP - 1), 0.5, model)) == 14
        with pytest.raises(SizeCapError, match="exceeds enumeration cap 14"):
            trace_law(path_tree(channels.TED_ENUM_CAP), 0.5, model)
    for model in ("string", "TED", None):
        with pytest.raises(ValueError, match="model must be 'ted' or 'lp'"):
            trace_law(t, 0.3, model)


def _mask_law(t, q, apply):
    """The law by applying each mask's deletion set, by id, in trace_law's row order."""
    others = t.ids[1:]
    k, p = len(others), 1.0 - q
    law = {}
    for r in range(1 << k):
        chosen = [v for i, v in enumerate(others) if r >> i & 1]
        prob = (q ** len(chosen)) * (p ** (k - len(chosen)))
        if prob:
            trace = apply(t, chosen)
            law[trace] = law.get(trace, 0.0) + prob
    return law


def _assert_same_law(got, want):
    # Bitwise: the same trees with the same ids, in the same order, and equal floats.
    assert [(form(tr), prob) for tr, prob in got.items()] == \
        [(form(tr), prob) for tr, prob in want.items()]


def test_trace_law_matches_the_oracles_bitwise():
    # Every shape with n <= 7, random labels, q in {0, 0.3, 0.5}.  TED
    # against the ted_apply subset loop and the node-table splice, LP
    # against the dict-based mark loop; ids and insertion order included.
    rng = make_rng("trace-law-oracles")
    cases = 0
    for n in range(1, 8):
        for shape in enumerate_trees(n):
            t = random_labels(shape, rng)
            for q in (0.0, 0.3, 0.5):
                ted = trace_law(t, q, "ted")
                _assert_same_law(ted, verify.ted_subset_law(t, q))
                _assert_same_law(ted, _mask_law(t, q, oracles.ted_splice))
                _assert_same_law(trace_law(t, q, "lp"), _mask_law(t, q, oracles.lp_marked))
                cases += 2
    assert cases == 1_182


@pytest.mark.parametrize("model", ["ted", "lp"])
def test_trace_law_reduces_to_the_string_channel(model):
    # The paper's first result as an identity: every trace keeps the root's
    # label, and the law of the other labels is the string channel's law of
    # labels[1:], on every shape with n <= 7 at q in {0.2, 0.5}.
    rng = make_rng(f"reduction-{model}")
    cases = 0
    for n in range(1, 8):
        for shape in enumerate_trees(n):
            t = random_labels(shape, rng)
            rest = t.labels[1:]
            for q in (0.2, 0.5):
                tail = {}
                for trace, prob in trace_law(t, q, model).items():
                    assert trace.labels[0] == t.labels[0]
                    tail[trace.labels[1:]] = tail.get(trace.labels[1:], 0.0) + prob
                subs = distinct_subsequences(rest)
                assert set(tail) <= subs
                for sub in subs:
                    assert abs(tail.get(sub, 0.0) - string_trace_prob(rest, sub, q)) <= 1e-12
                cases += 1
    assert cases == 394


def test_ted_trace_matches_distribution():
    rng = make_rng("ted-freq")
    t = random_tree(6, rng)
    law = trace_law(t, 0.3, "ted")
    n_samples = 20000
    freq = Counter(ted_trace(t, 0.3, rng) for _ in range(n_samples))
    bound = 5 / math.sqrt(n_samples)
    for key, prob in law.items():
        assert abs(freq.get(key, 0) / n_samples - prob) <= bound


def test_lp_traces_match_lp_law():
    rng = make_rng("lp-freq")
    t = random_labels(random_tree(7, rng), rng)
    law = trace_law(t, 0.3, "lp")
    n_samples = 20000
    freq = Counter(lp_traces(t, 0.3, n_samples, rng))
    assert set(freq) <= set(law)
    bound = 5 / math.sqrt(n_samples)
    for key, prob in law.items():
        assert abs(freq.get(key, 0) / n_samples - prob) <= bound


def test_lp_apply_examples():
    a6 = path_tree(6)
    for v in a6.ids[1:]:
        assert lp_apply(a6, [v]) == path_tree(5)
    b6 = forked_tree(6)
    for v in b6.ids[1:]:
        assert lp_apply(b6, [v]) == path_tree(5)
    assert lp_apply(a6, []) == a6


def test_lp_apply_shifts_labels():
    # Deleting the top of a labeled path shifts every label one step up.
    t = parse_tree("0(1(0(1)))")  # labels 0,1,0,1 down the path
    got = lp_apply(t, [t.ids[1]])
    assert got.labels == "001"


def test_lp_apply_stale_target():
    t = path_tree(3)
    last = t.ids[-1]
    first = t.ids[1]
    with pytest.raises(StaleTargetError):
        lp_apply(t, [first, last])  # deleting first removes the path bottom


def test_lp_trace_path_always_shrinks_to_a_path():
    rng = make_rng("lp-path")
    for _ in range(300):
        trace = lp_trace(path_tree(8), 0.5, rng)
        if trace.n == 1:
            continue  # every node marked: only the root remains
        assert trace == path_tree(trace.n - 1)


def test_lp_trace_q0_identity_and_survival():
    rng = make_rng("lp-q0")
    t = forked_tree(5)
    assert lp_trace(t, 0.0, rng) == t
    q = 0.3
    hits = sum(lp_trace(t, q, rng) == t for _ in range(20000))
    assert abs(hits / 20000 - (1 - q) ** 5) < 0.015


def test_lp_trace_marked_count_matches_size():
    # With every node marked, the whole non-root part disappears.
    rng = make_rng("lp-all")
    t = forked_tree(6)
    got = lp_trace(t, 0.999999, rng)
    assert got.n == 1


def test_lp_trace_set_examples():
    assert lp_trace_set(path_tree(6), 0) == {path_tree(6)}
    assert lp_trace_set(path_tree(6), 2) == {path_tree(4)}
    assert lp_trace_set(forked_tree(6), 3) == lp_trace_set(path_tree(6), 3)
    for k in (4, -1):
        with pytest.raises(ValueError, match=rf"k={k} must lie in \[0, 3\]"):
            lp_trace_set(path_tree(3), k)
    with pytest.raises(SizeCapError):
        lp_trace_set(path_tree(30), 1)
    for k in (2.5, True, np.int64(2)):  # 2.5 gave an empty set and True read as 1
        with pytest.raises(ValueError, match=f"^{re.escape(f'k must be an int, got {k!r}')}$"):
            lp_trace_set(path_tree(6), k)


def test_lp_trace_set_matches_lp_apply_closure():
    # lp_trace_set deletes each mark set in ascending preorder, as the sampler
    # does; lp_apply reaches the same trees by every order of k distinct
    # targets that an earlier shift leaves in place.  So the order of the
    # marks does not change the set, for every k.
    rng = make_rng("lp-set-closure")
    cases = [random_labels(shape, rng) for n in range(1, 7) for shape in enumerate_trees(n)]
    cases += [random_labels(random_tree(8, rng), rng) for _ in range(5)]
    for t in cases:
        others = t.ids[1:]
        for k in range(t.n):
            want = set()
            for seq in itertools.permutations(others, k):
                try:
                    want.add(lp_apply(t, seq))
                except StaleTargetError:
                    continue
            assert lp_trace_set(t, k) == want


def test_lp_trace_set_is_the_lp_law_slice_from_its_own_rows(monkeypatch):
    # The slice of the LP law with n - k nodes was lp_trace_set's definition;
    # now the LP rule runs on just the C(n-1, k) rows with k marks.
    rng = make_rng("lp-set-slice")
    build = channels._lp_traces
    rows = []

    def counted(lay, keep):
        rows.append(len(keep))
        return build(lay, keep)

    for n in range(1, 8):
        for shape in enumerate_trees(n):
            t = random_labels(shape, rng)
            law = trace_law(t, 0.5, "lp")
            for k in range(n):
                rows.clear()
                monkeypatch.setattr(channels, "_lp_traces", counted)
                got = lp_trace_set(t, k)
                monkeypatch.undo()
                assert got == {trace for trace in law if trace.n == n - k}
                assert rows == [math.comb(n - 1, k)]


def test_lp_trace_set_is_the_support_of_lp_traces():
    # Every mark set of a small tree is drawn many times over at q = 0.5, and
    # a trace with k marks has k fewer nodes.
    rng = make_rng("lp-set-support")
    for n in range(1, 6):
        for shape in enumerate_trees(n):
            t = random_labels(shape, rng)
            seen = {k: set() for k in range(n)}
            for tr in lp_traces(t, 0.5, 2000, rng):
                seen[n - len(tr.labels)].add(tr)
            for k, traces in seen.items():
                assert lp_trace_set(t, k) == traces


def test_lp_trace_lands_in_trace_set():
    # The drawn marks, deleted in ascending preorder by lp_apply, give a tree
    # in the trace set of that many marks; so does a sampled trace with k
    # nodes fewer.  lp_apply refuses a mark that an earlier shift removed.
    rng = make_rng("lp-set-member")
    applied = 0
    for _ in range(50):
        t = random_tree(6, rng)
        marks = [v for v in t.ids[1:] if rng.random() < 0.4]
        try:
            chosen = lp_apply(t, marks)
        except StaleTargetError:
            pass
        else:
            applied += 1
            assert chosen in lp_trace_set(t, len(marks))
        trace = lp_trace(t, 0.4, rng)
        k = t.n - trace.n
        assert trace in lp_trace_set(t, k)
    assert applied >= 25


def test_count_embeddings_and_prob_examples():
    assert count_embeddings("11", "1") == 2
    assert string_trace_prob("11", "1", 0.5) == pytest.approx(0.5)
    assert string_trace_prob("101", "101", 0.0) == pytest.approx(1.0)
    assert string_trace_prob("00", "1", 0.5) == 0.0


def test_count_embeddings_matches_the_full_dp():
    # Every distinct subsequence of every s with |s| <= 10, every short
    # binary t of up to |s| + 1 symbols (zero counts included), and symbols
    # outside {0, 1}.
    for L in range(11):
        for bits in itertools.product("01", repeat=L):
            s = "".join(bits)
            ts = channels.distinct_subsequences(s)
            if L <= 4:
                ts |= {"".join(t) for k in range(L + 2) for t in itertools.product("01", repeat=k)}
            for t in ts:
                assert count_embeddings(s, t) == oracles.count_embeddings(s, t), (s, t)
    for s, t in [("abcab", "ab"), ("abcab", "ba"), ("aab", "ab"), ("abc", "d"), ("", "")]:
        assert count_embeddings(s, t) == oracles.count_embeddings(s, t)


def test_string_trace_prob_long_strings_in_log_space():
    # C(1100, 550) and 0.5^1100 each overflow a float; their product is ~0.024.
    got = string_trace_prob("0" * 1100, "0" * 550, 0.5)
    assert got == pytest.approx(math.comb(1100, 550) / 2**1100, rel=1e-9)
    assert 0.02 < got < 0.03


def test_string_trace_prob_edge_rates():
    s = "0110"
    assert string_trace_prob(s, "011", 0.0) == 0.0
    assert string_trace_prob(s, "", 0.0) == 0.0
    assert string_trace_prob(s, "", 0.3) == pytest.approx(0.3**4)
    assert string_trace_prob(s, "", 1.0) == 1.0
    assert string_trace_prob(s, "0", 1.0) == 0.0
    for q in (1.5, -0.5):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            string_trace_prob("01", "0", q)
    # A str q raised a TypeError from the range test, and True read as 1.0.
    for q in ("0.3", True):
        with pytest.raises(ValueError, match=f"^{re.escape(f'q must be a real number, got {q!r}')}$"):
            string_trace_prob("01", "0", q)


def test_string_trace_prob_alphabet_check():
    with pytest.raises(ValueError, match="^traces must be binary strings$"):
        string_trace_prob("00", "2", 0.5)
    with pytest.raises(ValueError, match="^s must be a binary string$"):
        string_trace_prob("0a", "0", 0.5)


@given(st.integers(0, 255), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_subsequence_probabilities_sum_to_one(bits, length):
    s = format(bits % (1 << length), f"0{length}b")
    q = 0.35
    total = sum(
        string_trace_prob(s, t, q)
        for t in distinct_subsequences(s)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_distinct_subsequences_small():
    assert distinct_subsequences("11") == {"", "1", "11"}
    assert distinct_subsequences("10") == {"", "1", "0", "10"}


def test_distinct_subsequences_match_index_subsets():
    def brute(s):
        return {"".join(s[i] for i in idx)
                for k in range(len(s) + 1) for idx in itertools.combinations(range(len(s)), k)}

    strings = ["".join(bits) for L in range(10) for bits in itertools.product("01", repeat=L)]
    strings += ["abcab", "banana", "0120210", "aaaa", "xyzzyx"]
    strings.append("0110100110010110")  # at the cap, |s| = 16
    for s in strings:
        assert distinct_subsequences(s) == brute(s)
    with pytest.raises(SizeCapError, match=r"\|s\|=17 exceeds enumeration cap 16"):
        distinct_subsequences("0" * (channels.SUBSEQ_ENUM_CAP + 1))


BATCH_QS = [0.0, 0.1, 0.3, 0.5, 0.8]


def _matches_tree_oracle(batched, oracle, q, tag, large=()):
    """Batched draws equal the dict sampler's draws from a generator seeded alike.

    Sixty small random trees with 0 to 8 draws each, then the large trees given,
    with four.
    """
    rng = make_rng(tag)
    cases = []
    for i in range(60):
        n = 1 if i == 0 else int(rng.integers(1, 16))
        cases.append((random_labels(random_tree(n, rng), rng), int(rng.integers(0, 9))))
    cases += [(t, 4) for t in large]
    for i, (t, count) in enumerate(cases):
        rng_a, rng_b = make_rng(f"{tag}:{i}"), make_rng(f"{tag}:{i}")
        got = batched(t, q, count, rng_a)
        want = [oracle(t, q, rng_b) for _ in range(count)]
        assert [form(g) for g in got] == [form(w) for w in want]
        assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("q", BATCH_QS)
def test_ted_traces_match_ted_trace(q):
    _matches_tree_oracle(ted_traces, ted_trace, q, f"batched-ted-{q}")


@pytest.mark.parametrize("q", BATCH_QS)
def test_lp_traces_match_lp_trace(q):
    # Large trees too, with ids that are not preorder indices: each parent's
    # id exceeds its children's.
    rng = make_rng(f"batched-lp-large-{q}")
    large = [_reversed_ids(random_labels(t, rng)) for t in
             (path_tree(300), random_tree(400, rng), random_tree(1000, rng))]
    _matches_tree_oracle(lp_traces, lp_trace, q, f"batched-lp-{q}", large)


@given(st.integers(0, 2**32 - 1), st.integers(1, 30),
       st.floats(0.0, 0.95, exclude_max=True), st.integers(0, 8))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tree_samplers_match_the_dict_oracles(seed, n, q, count):
    # Shapes, rates and counts that the fixed cases above do not pin.
    t = random_labels(random_tree(n, np.random.default_rng(seed)), np.random.default_rng(seed + 1))
    for batched, oracle in ((lp_traces, lp_trace), (ted_traces, ted_trace)):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = batched(t, q, count, rng_a)
        assert [form(g) for g in got] == [form(oracle(t, q, rng_b)) for _ in range(count)]
        assert rng_a.random() == rng_b.random()


@given(st.integers(0, 2**32 - 1), st.integers(1, 30),
       st.floats(0.0, 0.95, exclude_max=True), st.integers(0, 8))
@settings(max_examples=150, deadline=None, derandomize=True)
@example(0, 1, 0.5, 3)  # a lone root: an empty string of the other labels
def test_label_route_draws_the_tree_traces_label_strings(seed, n, q, count):
    # The reduction: a TED or LP trace's label string is the root's label and
    # a string trace of the rest, drawn from the same generator stream.
    t = random_labels(random_tree(n, np.random.default_rng(seed)), np.random.default_rng(seed + 1))
    for model, batched in (("ted", ted_traces), ("lp", lp_traces)):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = harness._label_traces(model, t, q, count, rng_a)
        assert got == [tr.labels for tr in batched(t, q, count, rng_b)]
        assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("q", BATCH_QS)
def test_string_traces_match_string_trace(q):
    rng = make_rng(f"batched-string-{q}")
    for i in range(60):
        s = "".join(rng.choice(["0", "1"], size=int(rng.integers(0, 16))))
        count = int(rng.integers(0, 9))
        rng_a, rng_b = make_rng(f"batched-string-{q}:{i}"), make_rng(f"batched-string-{q}:{i}")
        got = string_traces(s, q, count, rng_a)
        assert got == [string_trace(s, q, rng_b) for _ in range(count)]
        assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
def test_batched_samplers_repeat_rows(q):
    """Small trees repeat mark rows at large counts; equal rows share one trace."""
    rng = make_rng(f"batched-repeat-{q}")
    trees = [random_labels(t, rng) for n in range(1, 5) for t in enumerate_trees(n)]
    for batched, oracle in ((ted_traces, ted_trace), (lp_traces, lp_trace)):
        for i, t in enumerate(trees):
            for count in (0, 1, 300, 512):
                tag = f"batched-repeat-{q}:{batched.__name__}:{i}:{count}"
                rng_a, rng_b = make_rng(tag), make_rng(tag)
                got = batched(t, q, count, rng_a)
                assert [form(g) for g in got] == [form(oracle(t, q, rng_b)) for _ in range(count)]
                assert rng_a.random() == rng_b.random()
                # One trace per distinct mark row; under TED, distinct rows differ.
                shared = len({id(tr) for tr in got})
                assert shared <= 2 ** (t.n - 1)
                if batched is ted_traces:
                    assert shared == len({form(tr) for tr in got})
                if q == 0.0:
                    assert [form(g) for g in got] == [form(t)] * count


@pytest.mark.parametrize("shape", ["path-3000", "fan-2000"])
def test_batched_samplers_on_deep_and_wide_trees(shape):
    t = path_tree(3000) if shape == "path-3000" else tree_from_dyck("10" * 2000)
    for sample in (ted_traces, lp_traces):
        for tr in sample(t, 0.5, 2, make_rng(f"batched-{shape}")):
            Tree(tr.word, tr.labels, tr.ids)  # raises unless the three agree


def test_batched_samplers_check_q():
    for sample in (ted_traces, lp_traces):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\)"):
            sample(path_tree(3), 1.0, 4, make_rng("batched-q"))
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1\)"):
        string_traces("101", -0.1, 4, make_rng("batched-q"))


@pytest.mark.parametrize("sample", [ted_traces, lp_traces, string_traces],
                         ids=["ted", "lp", "string"])
def test_batched_samplers_reject_a_negative_count(sample):
    source = "101" if sample is string_traces else path_tree(3)
    with pytest.raises(ValueError, match=r"^count must be at least 0, got -1$"):
        sample(source, 0.5, -1, make_rng("batched-count"))


@pytest.mark.parametrize("sample", [ted_traces, lp_traces, string_traces],
                         ids=["ted", "lp", "string"])
@pytest.mark.parametrize("count", [2.5, True, np.int64(2)], ids=["float", "bool", "np.int64"])
def test_batched_samplers_take_only_an_int_count(sample, count):
    source = "101" if sample is string_traces else path_tree(3)
    with pytest.raises(ValueError, match=f"^count must be an int, got {re.escape(repr(count))}$"):
        sample(source, 0.5, count, make_rng("batched-count"))


@pytest.fixture
def built_rows(monkeypatch):
    """No forked source built yet, and the list of row counts passed to _traces."""
    counts = []
    traces = channels._traces

    def counted(lay, nodes, labels):
        counts.append(len(nodes))
        return traces(lay, nodes, labels)

    harness._forked_source.cache_clear()
    monkeypatch.setattr(channels, "_traces", counted)
    yield counts
    harness._forked_source.cache_clear()


def kept_rows(t):
    """The rows a sampled tree keeps, by builder; None past the bound."""
    return t._sampled[1]


def test_memo_second_call_on_the_same_tree_builds_no_rows(built_rows):
    for sample in (ted_traces, lp_traces):
        t = random_labels(forked_tree(7), make_rng("memo-source"))
        first = sample(t, 0.5, 256, make_rng("memo-draws"))
        assert 0 < sum(built_rows) <= 2**7
        built_rows.clear()
        again = sample(t, 0.5, 256, make_rng("memo-draws"))
        assert built_rows == []
        assert all(a is b for a, b in zip(again, first)) and len(again) == 256


def test_memo_equal_tree_builds_its_own_rows(built_rows):
    for sample in (ted_traces, lp_traces):
        t = random_labels(forked_tree(7), make_rng("memo-source"))
        first = sample(t, 0.5, 256, make_rng("memo-draws"))
        rows = sum(built_rows)
        built_rows.clear()
        # Same shape, labels and ids, but another object: nothing is shared.
        twin = Tree(t.word, t.labels, t.ids)
        assert twin == t and twin is not t
        again = sample(twin, 0.5, 256, make_rng("memo-draws"))
        assert sum(built_rows) == rows
        built_rows.clear()
        assert again == first
        assert not any(a is b for a, b in zip(again, first))


def test_memo_keeps_each_trees_own_ids(built_rows):
    shape = random_labels(tree_from_dyck("110100"), make_rng("memo-ids"))
    ids_sets = [(0, 1, 2, 3), (7, 2**64, 2**64 + 1, -3), (0, 2**63 + 1, 2**63 + 2, 5)]
    trees = [Tree(shape.word, shape.labels, ids) for ids in ids_sets]
    # Equal trees with other ids, sampled in turn: the second pass reads kept rows.
    for _ in range(2):
        built_rows.clear()
        for sample, oracle in ((ted_traces, ted_trace), (lp_traces, lp_trace)):
            for t, ids in zip(trees, ids_sets):
                got = sample(t, 0.5, 64, make_rng("memo-ids-draws"))
                oracle_rng = make_rng("memo-ids-draws")
                assert [form(g) for g in got] == [form(oracle(t, 0.5, oracle_rng))
                                                  for _ in range(64)]
                assert all(type(v) is int and v in ids for tr in got for v in tr.ids)
    assert built_rows == []
    assert all(len(kept_rows(t)) == 2 for t in trees)


def test_memo_keeps_ted_and_lp_apart(built_rows):
    t = random_labels(forked_tree(5), make_rng("memo-models"))
    for _ in range(2):
        for sample, oracle in ((ted_traces, ted_trace), (lp_traces, lp_trace)):
            rng_a, rng_b = make_rng("memo-models-draws"), make_rng("memo-models-draws")
            got = sample(t, 0.5, 128, rng_a)
            assert [form(g) for g in got] == [form(oracle(t, 0.5, rng_b)) for _ in range(128)]
    kept = kept_rows(t)
    ted_rows, lp_rows = kept[channels._ted_traces], kept[channels._lp_traces]
    assert ted_rows.keys() == lp_rows.keys()  # same draws, so the same keep rows
    assert ted_rows != lp_rows


def test_memo_skips_trees_past_its_bound(built_rows):
    big = path_tree(channels._MEMO_MARKS + 1)
    for sample in (ted_traces, lp_traces):
        for _ in range(2):  # nothing kept, so the second call builds its rows again
            got = sample(big, 0.9, 256, make_rng("memo-big"))
            # Rows still dedup within the call: one build and one trace per distinct row.
            assert sum(built_rows) == len({id(tr) for tr in got}) < 256
            built_rows.clear()
        assert kept_rows(big) is None
    small = path_tree(channels._MEMO_MARKS)
    lp_traces(small, 0.5, 4, make_rng("memo-big"))
    assert list(kept_rows(small)) == [channels._lp_traces]


@pytest.mark.parametrize("sample, oracle, build", [
    (ted_traces, ted_trace, channels._ted_traces),
    (lp_traces, lp_trace, channels._lp_traces),
], ids=["ted", "lp"])
def test_memo_keys_every_row_apart_at_its_bound(sample, oracle, build):
    """The largest kept tree keeps one trace per distinct mark row; one node more keeps none."""
    tag = f"memo-bound-{build.__name__}"
    rng = make_rng(tag)
    t, past = (random_labels(random_tree(channels._MEMO_MARKS + extra, rng), rng)
               for extra in (1, 2))
    for source in (t, past):
        rng_a, rng_b = make_rng(tag), make_rng(tag)
        got = sample(source, 0.5, 4096, rng_a)
        assert [form(g) for g in got] == [form(oracle(source, 0.5, rng_b)) for _ in range(4096)]
        assert rng_a.random() == rng_b.random()
    # Replay the draws: one kept trace per distinct row, and a row's trace is its own.
    marks = make_rng(tag).random((4096, channels._MEMO_MARKS)) >= 0.5
    rows = {row.tobytes() for row in marks}
    assert 2000 < len(rows) < 4096
    assert len(kept_rows(t)[build]) == len({id(tr) for tr in sample(t, 0.5, 4096, make_rng(tag))})
    assert len(kept_rows(t)[build]) == len(rows)
    assert kept_rows(past) is None


def test_forked_trials_share_one_tree_per_side(built_rows):
    sides = {True: [], False: []}
    for i in range(64):
        inst = harness._build_forked(7, 0.5, 0.05, 16, "lp", harness.trial_rng(0, 0, i))
        sides[inst.truth].append(inst.source)
    assert sides[True][0] == forked_tree(7) and sides[False][0] == path_tree(7)
    assert all(t is trees[0] for trees in sides.values() for t in trees)
    spec = harness.ExperimentSpec("forked", 7, 0.5, "lp", (4, 16, 64), 24)
    first = harness.run_experiment(spec)
    assert sum(built_rows) > 0
    built_rows.clear()
    # A second sweep in the same process reads every trace from the kept rows.
    assert harness.run_experiment(spec) == first
    assert built_rows == []


def test_memo_rows_built_per_benchmark_run(built_rows):
    """The lp-search and ml-sweep benchmark shapes: rows built at seed 0."""
    # forked/lp samples the same two trees (A_7 and B_7) in every trial.
    assert harness.doubling_search("forked", 7, 0.5, "lp", target_rate=0.88,
                                   trials=200, master_seed=0) == 256
    assert sum(built_rows) <= 2 * 2**7
    built_rows.clear()
    # random/ted decodes label strings alone, and its trials draw only
    # those (harness._label_traces): no tree trace is built.
    harness.run_experiment(harness.ExperimentSpec(
        "random", 12, 0.3, "ted", (4, 16, 64), 24, master_seed=0))
    assert built_rows == []
