import itertools
import math
from collections import Counter

import numpy as np
import pytest

from treetrace.instances import (
    _feasible_leaf_counts,
    _fuzzy_word,
    buffer_length,
    encode_string_as_tree,
    encoded_leaf_id,
    encoded_parent_id,
    forked_tree,
    fuzzy_degree,
    path_tree,
    random_dyck_words,
    random_fuzzy_tree,
    random_labels,
    random_tree,
    read_encoded_string,
)
from treetrace.trees import Tree, format_tree, is_fuzzy, tree_from_dyck
from conftest import make_rng
from oracles import form, fuzzy_words, tree_of_table


def test_buffer_length_examples():
    # ceil((ln 100 + ln 1000) / ln 2) = ceil(16.61) = 17
    assert buffer_length(0.01, 1000, 0.5) == 17
    assert buffer_length(1 / math.e, 1, 1 / math.e) == 1
    assert buffer_length(0.1, 10, 0.0) == 1


def test_buffer_length_monotone():
    base = buffer_length(0.05, 100, 0.5)
    assert buffer_length(0.05, 200, 0.5) >= base
    assert buffer_length(0.05, 100, 0.3) <= base


def test_encode_single_zero_bit():
    # Path of 3 (root, carrier, tail buffer) with a left leaf at position 2.
    inst = encode_string_as_tree("0", 1)
    assert format_tree(inst.tree) == "0(0(0,0))"
    assert inst.tree.n == 4


def test_encode_two_bits():
    # Path of 4; left leaf at position 2, right leaf at position 3.
    inst = encode_string_as_tree("01", 1)
    assert format_tree(inst.tree) == "0(0(0,0(0,0)))"
    assert inst.tree.n == 6


def test_encode_rejects_nonbinary_string():
    with pytest.raises(ValueError, match="^source must be a binary string$"):
        encode_string_as_tree("012", 1)


def test_encode_readback_exhaustive_short():
    for L in range(1, 9):
        for bits in itertools.product("01", repeat=L):
            s = "".join(bits)
            inst = encode_string_as_tree(s, 2)
            assert read_encoded_string(inst) == s


def test_encoded_id_layout():
    inst = encode_string_as_tree("10", 2)
    s_len, ell = 2, 2
    kids = inst.tree.children()
    for i in (1, 2):
        leaf = encoded_leaf_id(s_len, ell, i)
        parent = encoded_parent_id(ell, i)
        assert leaf in kids[parent]
        assert kids[leaf] == ()
    # The whole table: backbone ids 0..5 down the path, leaf ids 6 and 7.
    table = {0: (0, (1,)), 1: (0, (2,)), 2: (0, (3, 6)), 3: (0, (7, 4)), 4: (0, (5,)),
             5: (0, ()), 6: (0, ()), 7: (0, ())}
    assert form(inst.tree) == form(tree_of_table(table, 0))
    assert inst.tree.ids == (0, 1, 2, 3, 7, 4, 5, 6)


def test_path_and_fork_shapes():
    assert format_tree(path_tree(1)) == "0(0)"
    assert format_tree(forked_tree(3)) == "0(0(0,0))"
    for n in range(2, 12):
        assert path_tree(n).n == n + 1
        assert forked_tree(n).n == n + 1


def test_path_fork_agree_until_fork():
    # Identical structure until node n-2: both are chains above the fork point.
    n = 8
    b = forked_tree(n)
    chain = [v for v, kids in b.children().items() if len(kids) == 1]
    assert len(chain) == n - 2


def test_fuzzy_degree_examples():
    assert fuzzy_degree(30, 100, 0.01, 0.2) == 8
    assert fuzzy_degree(30, 100, 0.01, 0.0) == 2
    base = fuzzy_degree(30, 100, 0.01, 0.2)
    doubled = fuzzy_degree(30, 200, 0.01, 0.2)
    assert base <= doubled <= base + math.ceil(math.log(2) / math.log(5))


@pytest.mark.parametrize(
    "call",
    [lambda count: fuzzy_degree(30, count, 0.05, 0.2),
     lambda count: buffer_length(0.05, count, 0.2)],
    ids=["fuzzy_degree", "buffer_length"],
)
def test_planned_trace_counts_are_ints_of_at_least_one(call):
    # fuzzy_degree(30, 0, ...) raised "math domain error"; a float count passed.
    for count in (0, -3):
        with pytest.raises(ValueError, match=r"^planned trace count must be >= 1$"):
            call(count)
    for count in (2.5, 4.0, True, np.int64(4)):
        with pytest.raises(ValueError, match="^planned_traces must be an int, got "):
            call(count)


def test_minimal_fuzzy_tree():
    rng = make_rng("fuzzy-min")
    t = random_fuzzy_tree(3, 2, rng)
    assert format_tree(t) == "0(0,0)"


def test_random_fuzzy_tree_invariant_audit():
    rng = make_rng("fuzzy-audit")
    for _ in range(200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 40))
        try:
            t = random_fuzzy_tree(n, m, rng)
        except ValueError:
            continue
        assert t.n == n
        assert is_fuzzy(t, m)
        # Stronger generator postcondition: every leaf block has size m.
        children = t.children()
        for kids in children.values():
            if kids and not any(children[c] for c in kids):
                assert len(kids) == m


def test_random_fuzzy_tree_incompatible():
    rng = make_rng("fuzzy-bad")
    with pytest.raises(ValueError):
        random_fuzzy_tree(2, 2, rng)
    with pytest.raises(ValueError):
        random_fuzzy_tree(5, 1, rng)


# random_fuzzy_tree(n, m, default_rng(seed)).canonical() and the generator's
# next random(), recorded from the dict-based builder that the Dyck-word
# construction replaced: the two draw alike.
FUZZY_PINS = {
    (12, 2, 0): ("0(0(0,0),0(0(0,0)),0(0(0,0)))", 0.9127555772777217),
    (12, 2, 1): ("0(0(0(0(0(0(0,0),0(0(0,0)))))))", 0.42332644897257565),
    (12, 2, 2): ("0(0(0,0),0(0(0(0,0))),0(0,0))", 0.7285605268117946),
    (30, 5, 0): ("0(0(0(0(0(0,0,0,0,0)),0(0(0,0,0,0,0),0(0,0,0,0,0)))),0(0(0,0,0,0,0)))",
                 0.5436249914654229),
    (30, 5, 1): ("0(0(0(0(0(0(0(0(0(0(0(0(0(0(0(0(0(0,0,0,0,0)))),0(0(0(0,0,0,0,0))))))))))))))))",
                 0.7884287034284043),
    (30, 5, 2): ("0(0(0(0(0,0,0,0,0)),0(0(0,0,0,0,0)),0(0(0,0,0,0,0))),0(0(0,0,0,0,0)))",
                 0.43263079080478717),
    (40, 3, 0): ("0(0(0(0(0(0,0,0),0(0,0,0),0(0(0(0(0,0,0)),0(0(0,0,0),0(0,0,0))),0(0,0,0))),"
                 "0(0,0,0),0(0,0,0))))", 0.028319671145462966),
    (40, 3, 1): ("0(0(0(0(0,0,0))),0(0(0(0(0(0(0(0(0(0,0,0))))))),0(0(0(0(0(0(0(0,0,0))))))),"
                 "0(0(0(0(0,0,0))))),0(0,0,0)))", 0.5412268555474342),
    (40, 3, 2): ("0(0(0,0,0),0(0(0(0,0,0)),0(0,0,0)),0(0(0(0(0,0,0)),0(0(0,0,0)),0(0,0,0)),"
                 "0(0(0,0,0))),0(0,0,0))", 0.3459606655717331),
}


@pytest.mark.parametrize("n, m, seed", sorted(FUZZY_PINS))
def test_random_fuzzy_tree_pinned(n, m, seed):
    rng = np.random.default_rng(seed)
    shape = random_fuzzy_tree(n, m, rng).canonical()
    assert (shape, rng.random()) == FUZZY_PINS[n, m, seed]


def fuzzy_class(n: int, m: int) -> set[str]:
    return {w for lam in _feasible_leaf_counts(n, m) for w in fuzzy_words(n, m, lam)}


def in_fuzzy_class(word: str, n: int, m: int) -> bool:
    """Whether a Dyck word is in fuzzy_words(n, m, lam) for a feasible lam, without listing it.

    fuzzy_words(n, m, lam) is _fuzzy_word on each skeleton word with
    k - 1 = n - m*lam - 1 pairs and lam peaks.  Each block 1(10)^m 0 of the
    wrapped word is one node with exactly m leaf children, so putting back a
    peak for each block gives the only skeleton that could have built it; it
    is a Dyck word because the word is.
    """
    block = "1" + "10" * m + "0"
    wrapped = "1" + word + "0"
    lam = wrapped.count(block)
    skeleton = wrapped.replace(block, "10")[1:-1]
    k = n - m * lam
    return (
        lam in _feasible_leaf_counts(n, m)
        and len(skeleton) == 2 * (k - 1)
        and skeleton.count("10") == (lam if k > 1 else 0)
        and _fuzzy_word(skeleton, m) == word
    )


def test_fuzzy_words_counts():
    # n=30, m=8 decomposes into skeletons (22,1), (14,2), (6,3):
    # 1 path + Narayana(13,2)=78 + Narayana(5,3)=20 shapes.  m = 5, 6, 7 are
    # the classes the fuzzy-sweep benchmark searches.
    for m, count in ((8, 99), (7, 302), (6, 972), (5, 3714)):
        words = [w for lam in _feasible_leaf_counts(30, m) for w in fuzzy_words(30, m, lam)]
        assert len(words) == len(set(words)) == count
        assert all(t.n == 30 and is_fuzzy(t, m) for t in map(tree_from_dyck, words))


def test_fuzzy_words_small_complete():
    # For n<=11, the class is every tree whose leaves are all terminal, in
    # blocks of m; in_fuzzy_class tells its members from every other tree.
    from treetrace.trees import enumerate_trees

    for m in (2, 3, 4):
        for n in range(m + 1, 12):
            family = fuzzy_class(n, m)
            expected = set()
            for t in enumerate_trees(n):
                word = t.word
                assert in_fuzzy_class(word, n, m) == (word in family)
                if not is_fuzzy(t, m):
                    continue
                kids = t.children()
                leaves = [v for v in t.ids if not kids[v]]
                parent = {c: u for u in t.ids for c in kids[u]}
                terminal = [
                    v for v in leaves
                    if not any(kids[c] for c in kids[parent[v]])
                ]
                if len(terminal) == len(leaves):
                    expected.add(word)
            assert family == expected


def test_random_fuzzy_tree_draws_from_fuzzy_words():
    # The sampler's trees are the decoder's candidates, at sizes past the
    # exhaustive test above; up to n = 16 the class is listed outright.
    rng = make_rng("fuzzy-class")
    for _ in range(300):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 41))
        word = random_fuzzy_tree(n, m, rng).word
        assert in_fuzzy_class(word, n, m)
        if n <= 16:
            assert word in fuzzy_class(n, m)


def test_random_tree_uniform_n4():
    rng = make_rng("uniform4")
    n_samples = 100_000
    # Words and shapes are one to one, so the words' counts are the shapes'.
    counts = Counter(random_dyck_words(4, n_samples, rng))
    assert len(counts) == 5  # Catalan(3)
    sigma = math.sqrt(0.2 * 0.8 / n_samples)
    for c in counts.values():
        assert abs(c / n_samples - 0.2) <= 3 * sigma


def _reference_random_tree(n, rng):
    """random_tree by shuffling the +1/-1 steps themselves."""
    if n == 1:
        return Tree("", "0")
    m = n - 1
    steps = rng.permutation([1] * (m + 1) + [-1] * m)
    prefix = steps.cumsum()
    last_min = 2 * m - int(prefix[::-1].argmin())
    start = (last_min + 1) % (2 * m + 1)
    rotated = list(steps[start:]) + list(steps[:start])
    return tree_from_dyck("".join("1" if x > 0 else "0" for x in rotated[1:]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 30, 200])
def test_random_tree_matches_reference(n):
    # Same trees, and the generator left where the reference leaves it.
    for seed in range(300):
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got, want = random_tree(n, got_rng), _reference_random_tree(n, want_rng)
        got._validate()  # random_tree builds its tree unchecked
        assert form(got) == form(want)
        assert got_rng.random() == want_rng.random()


def _assert_words_match_random_tree_calls(n, count, seed):
    # The same words, and the generator left where the calls leave it.
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    got = random_dyck_words(n, count, got_rng)
    assert got == [random_tree(n, want_rng).word for _ in range(count)]
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 30, 200])
def test_random_dyck_words_match_random_tree_calls(n):
    # Pins numpy's row-by-row permuted to sequential permutation draws.
    # n = 200 needs 50-byte pattern codes.
    for count in (0, 1, 50):
        for seed in range(5):
            _assert_words_match_random_tree_calls(n, count, seed)


@pytest.mark.parametrize("seed", range(3))
def test_random_dyck_words_match_across_draw_blocks(seed):
    _assert_words_match_random_tree_calls(7, 5000, seed)  # 4096 rows, then 904


@pytest.mark.parametrize("n, count", [(0, 5), (-1, 0), (3, -1)])
def test_random_dyck_words_rejects_bad_sizes(n, count):
    with pytest.raises(ValueError):
        random_dyck_words(n, count, np.random.default_rng(0))


def test_random_labels_are_fair_bits():
    rng = make_rng("labels")
    t = path_tree(9)
    ones = 0
    for _ in range(2000):
        lt = random_labels(t, rng)
        ones += lt.labels.count("1")
    freq = ones / (2000 * 10)
    assert abs(freq - 0.5) < 0.02
