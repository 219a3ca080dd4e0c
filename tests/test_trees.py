import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetrace.trees import (
    DyckStringError,
    Tree,
    TreeTextError,
    dyck_words,
    enumerate_trees,
    format_tree,
    is_fuzzy,
    parse_tree,
    tree_from_dyck,
)
from conftest import make_rng
import oracles


def test_preorder_single_node():
    t = parse_tree("1")
    assert t.ids == (t.root,)


def test_preorder_root_with_children():
    t = parse_tree("0(1,0)")
    assert t.ids[0] == t.root
    assert len(t.ids) == t.n == 3


def test_preorder_hand_simulated():
    # root(a(c), b): visit root, a, c, then b.
    t = parse_tree("0(0(0),0)")
    assert t.ids == (0, 1, 2, 3)
    assert t.children() == {0: (1, 3), 1: (2,), 2: (), 3: ()}


def test_label_string_examples():
    assert parse_tree("1").labels == "1"
    assert parse_tree("0(1,0)").labels == "010"
    t = parse_tree("1(0(1),1)")
    assert t.labels == "1011"


def test_dyck_examples():
    assert parse_tree("0").word == ""
    assert parse_tree("0(0)").word == "10"
    assert parse_tree("0(0(0))").word == "1100"
    assert parse_tree("0(0,0)").word == "1010"


def test_tree_from_dyck_examples():
    assert tree_from_dyck("").n == 1
    assert format_tree(tree_from_dyck("10")) == "0(0)"
    assert format_tree(tree_from_dyck("1010")) == "0(0,0)"


@pytest.mark.parametrize("bad, message", [
    pytest.param(bad, message, id=bad) for bad, message in [
        ("01", "unmatched 0 at position 0"),
        ("1", "unmatched 1s remain at end of input"),
        ("110", "unmatched 1s remain at end of input"),
        ("100", "unmatched 0 at position 2"),
        ("2", "non-binary symbol in '2'"),
        ("0", "unmatched 0 at position 0"),
        ("0011", "unmatched 0 at position 0"),
        ("12", "non-binary symbol in '12'"),
    ]
])
def test_tree_from_dyck_rejects_malformed(bad, message):
    with pytest.raises(DyckStringError) as info:
        tree_from_dyck(bad)
    assert str(info.value) == message


def test_dyck_roundtrip_exhaustive():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert len(t.word) == 2 * (n - 1)
            assert tree_from_dyck(t.word) == t


def test_enumerate_trees_catalan_counts():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    for n, c in enumerate(catalan, start=1):
        assert sum(1 for _ in enumerate_trees(n)) == c
    # The words with a given peak count are the count("10") filter of all
    # words, in the same order; there are Narayana(pairs, peaks) of them.
    def narayana(pairs, peaks):
        if pairs == 0:
            return int(peaks == 0)
        if not 1 <= peaks <= pairs:
            return 0
        return math.comb(pairs, peaks) * math.comb(pairs, peaks - 1) // pairs

    for pairs in range(10):
        every = list(dyck_words(pairs))
        for peaks in range(pairs + 2):
            got = list(oracles.peaked_dyck_words(pairs, peaks))
            assert got == [w for w in every if w.count("10") == peaks]
            assert len(got) == narayana(pairs, peaks)


def test_dyck_words_keep_the_recursive_order():
    # One explicit stack against one generator per symbol: the same words in
    # the same order, 1 before 0 at every position.
    for pairs in range(12):
        assert list(dyck_words(pairs)) == list(oracles.dyck_words(pairs))
    words = dyck_words(-1)  # a generator: the count is checked on the first next
    with pytest.raises(ValueError, match=r"need pairs >= 0"):
        next(words)


def test_trees_equal_spec_examples():
    t = parse_tree("0(1,0)")
    assert t == t
    assert parse_tree("0(0,1)") != parse_tree("0(1,0)")
    assert parse_tree("0(1,1)") != parse_tree("0(1,0)")
    assert parse_tree("0(0(0))") != parse_tree("0(0,0)")


def test_equality_ignores_node_ids():
    a = parse_tree("1(0,1)")
    b = parse_tree(format_tree(a))
    assert a == b and hash(a) == hash(b)
    for ids in [(5, 9, 2), (-1, 2**64, 0)]:
        other = Tree(a.word, a.labels, ids)
        assert other.ids == ids and other == a and hash(other) == hash(a)
        assert {a, other} == {a}


def test_parse_examples():
    assert parse_tree("1").n == 1
    t = parse_tree("0(1,0(1),1)")
    assert format_tree(t) == "0(1,0(1),1)"
    kids = t.children()[t.root]
    assert [t.labels[t.ids.index(v)] for v in kids] == ["1", "0", "1"]


def test_parse_ignores_whitespace_format_emits_none():
    t = parse_tree(" 0 ( 1 , 0 ( 1 ) , 1 ) ")
    assert format_tree(t) == "0(1,0(1),1)"


@pytest.mark.parametrize("bad", ["", "2", "0(", "0(1,", "0(1))", "0()", "0(1)x"])
def test_parse_errors_carry_position(bad):
    with pytest.raises(TreeTextError) as err:
        parse_tree(bad)
    assert "position" in str(err.value)


def test_parse_format_roundtrip_random():
    rng = make_rng("trees-roundtrip")
    from treetrace.instances import random_labels, random_tree

    for _ in range(500):
        n = int(rng.integers(1, 51))
        t = random_labels(random_tree(n, rng), rng)
        assert parse_tree(format_tree(t)) == t


def test_parse_deep_path_roundtrip():
    text = "0(" * 3000 + "1" + ")" * 3000
    t = parse_tree(text)
    assert t.n == 3001
    assert format_tree(t) == text


def test_parse_wide_fan_roundtrip():
    text = "1(" + ",".join(str(i % 3 % 2) for i in range(3000)) + ")"
    t = parse_tree(text)
    assert t.n == 3001 and t.word == "10" * 3000
    assert format_tree(t) == text


def test_parse_tree_deep_chain_and_wide_fan():
    chain = parse_tree("0(" * 2999 + "1" + ")" * 2999)
    assert chain.n == 3000
    assert chain.ids == tuple(range(3000))
    assert chain.labels == "0" * 2999 + "1"
    assert chain.children()[2998] == (2999,)
    fan = parse_tree("1(" + ",".join("0(1)" if i == 7 else str(i % 2) for i in range(2000)) + ")")
    assert fan.n == 2002
    assert fan.ids == tuple(range(2002))
    kids = fan.children()
    assert kids[0] == tuple(range(1, 9)) + tuple(range(10, 2002))
    assert kids[8] == (9,)
    assert format_tree(fan).startswith("1(0,1,0,1,0,1,0,0(1),0,1")


def test_format_tree_matches_the_stack_walk():
    # Every shape with n <= 8, with random labels and with ids that are not
    # preorder indices.
    rng = make_rng("format-stack-walk")
    count = 0
    for n in range(1, 9):
        for shape in enumerate_trees(n):
            labels = "".join(map(str, rng.integers(0, 2, size=n).tolist()))
            t = Tree(shape.word, labels, rng.permutation(3 * n)[:n].tolist())
            text = format_tree(t)
            assert text == oracles.format_tree(t)
            assert parse_tree(text) == t
            count += 1
    assert count == 626  # Catalan(n - 1) summed over n <= 8


@pytest.mark.parametrize("word, labels, ids, error, message", [
    ("01", "00", None, DyckStringError, "unmatched 0 at position 0"),
    ("110", "00", None, DyckStringError, "unmatched 1s remain at end of input"),
    ("1020", "000", None, DyckStringError, "non-binary symbol in '1020'"),
    ("10", "0", None, ValueError, "need 2 label bits, got '0'"),
    ("10", "011", None, ValueError, "need 2 label bits, got '011'"),
    ("10", "02", None, ValueError, "need 2 label bits, got '02'"),
    ("1010", "000", (4, 7, 4), ValueError, r"need 3 distinct node ids, got \(4, 7, 4\)"),
    ("1010", "000", (4, 7), ValueError, r"need 3 distinct node ids, got \(4, 7\)"),
    ("", "0", (), ValueError, r"need 1 distinct node ids, got \(\)"),
])
def test_tree_rejects_malformed_forms(word, labels, ids, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        Tree(word, labels, ids)
    Tree(word, labels, ids, validate=False)  # unchecked: the caller vouches for it


@pytest.mark.parametrize("labels", ["", "01", "0110", "0120", "01 1"])
def test_with_labels_checks_only_the_new_labels(labels):
    t = Tree("1100", "000", (5, 3, 9))
    with pytest.raises(ValueError) as built:
        Tree(t.word, labels, t.ids)
    with pytest.raises(ValueError) as relabelled:
        t.with_labels(labels)
    assert str(relabelled.value) == str(built.value)
    u = t.with_labels("101")
    assert (u.word, u.labels, u.ids) == ("1100", "101", (5, 3, 9))


@st.composite
def deep_and_wide_trees(draw):
    """A path up to 3000 deep with a fan of up to 2000 leaves at one node."""
    depth = draw(st.integers(0, 3000))
    width = draw(st.integers(0, 2000))
    at = draw(st.integers(0, depth))
    fan_first = draw(st.booleans())
    rnd = draw(st.randoms(use_true_random=False))
    path_kids = {v: [v + 1] if v < depth else [] for v in range(depth + 1)}
    fan = list(range(depth + 1, depth + 1 + width))
    path_kids[at] = fan + path_kids[at] if fan_first else path_kids[at] + fan
    nodes = {v: (rnd.randint(0, 1), tuple(kids)) for v, kids in path_kids.items()}
    nodes.update({v: (rnd.randint(0, 1), ()) for v in fan})
    return oracles.tree_of_table(nodes, 0)


@given(deep_and_wide_trees())
@settings(max_examples=40, deadline=None)
def test_deep_and_wide_trees_survive_format_parse(t):
    back = parse_tree(format_tree(t))
    assert back.n == t.n
    assert back == t
    assert back.word == t.word
    assert format_tree(t) == oracles.format_tree(t)


@st.composite
def random_dyck_words(draw, max_pairs=25):
    m = draw(st.integers(0, max_pairs))
    word = []
    opens = 0
    for _ in range(2 * m):
        must_open = opens == 0
        must_close = (2 * m - len(word)) == opens
        if must_open or (not must_close and draw(st.booleans())):
            word.append("1")
            opens += 1
        else:
            word.append("0")
            opens -= 1
    return "".join(word)


@given(random_dyck_words())
@settings(max_examples=200, deadline=None)
def test_dyck_roundtrip_property(word):
    assert tree_from_dyck(word).word == word


def test_is_fuzzy():
    assert is_fuzzy(parse_tree("0(0,0)"), 2)
    assert not is_fuzzy(parse_tree("0(0,0)"), 3)
    assert is_fuzzy(parse_tree("0(0,0,0)"), 3)
    # Non-terminal leaf next to an internal sibling is unconstrained.
    assert is_fuzzy(parse_tree("0(0,0(0,0))"), 2)
