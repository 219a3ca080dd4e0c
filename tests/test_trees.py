import math
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetrace.trees import (
    DyckStringError,
    Node,
    Tree,
    TreeTextError,
    dyck_string,
    dyck_words,
    enumerate_trees,
    format_tree,
    is_fuzzy,
    parse_tree,
    preorder,
    preorder_label_string,
    tree_from_dyck,
    trees_equal,
)
from conftest import make_rng
import oracles


def test_preorder_single_node():
    t = parse_tree("1")
    assert preorder(t) == [t.root]


def test_preorder_root_with_children():
    t = parse_tree("0(1,0)")
    order = preorder(t)
    assert order[0] == t.root
    assert len(order) == 3


def test_preorder_hand_simulated():
    # root(a(c), b): visit root, a, c, then b.
    t = parse_tree("0(0(0),0)")
    assert preorder(t) == [0, 1, 2, 3]


def test_label_string_examples():
    assert preorder_label_string(parse_tree("1")) == "1"
    assert preorder_label_string(parse_tree("0(1,0)")) == "010"
    t = parse_tree("1(0(1),1)")
    assert preorder_label_string(t) == "1011"


def test_dyck_examples():
    assert dyck_string(parse_tree("0")) == ""
    assert dyck_string(parse_tree("0(0)")) == "10"
    assert dyck_string(parse_tree("0(0(0))")) == "1100"
    assert dyck_string(parse_tree("0(0,0)")) == "1010"


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
            word = dyck_string(t)
            assert len(word) == 2 * (n - 1)
            assert trees_equal(tree_from_dyck(word), t)


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


def test_trees_equal_spec_examples():
    t = parse_tree("0(1,0)")
    assert trees_equal(t, t)
    assert not trees_equal(parse_tree("0(0,1)"), parse_tree("0(1,0)"))
    assert not trees_equal(parse_tree("0(1,1)"), parse_tree("0(1,0)"))


def test_equality_ignores_node_ids():
    a = parse_tree("1(0,1)")
    b = parse_tree(format_tree(a))
    assert a == b and hash(a) == hash(b)


def test_parse_examples():
    assert parse_tree("1").n == 1
    t = parse_tree("0(1,0(1),1)")
    assert format_tree(t) == "0(1,0(1),1)"
    kids = t.children_of(t.root)
    assert [t.nodes[v].label for v in kids] == [1, 0, 1]


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
        assert trees_equal(parse_tree(format_tree(t)), t)


def test_parse_deep_path_roundtrip():
    text = "0(" * 3000 + "1" + ")" * 3000
    t = parse_tree(text)
    assert t.n == 3001
    assert format_tree(t) == text


def test_parse_tree_deep_chain_and_wide_fan():
    chain = parse_tree("0(" * 2999 + "1" + ")" * 2999)
    assert chain.n == 3000
    assert preorder(chain) == list(range(3000))
    assert preorder_label_string(chain) == "0" * 2999 + "1"
    assert chain.children_of(2998) == (2999,)
    fan = parse_tree("1(" + ",".join("0(1)" if i == 7 else str(i % 2) for i in range(2000)) + ")")
    assert fan.n == 2002
    assert preorder(fan) == list(range(2002))
    assert fan.children_of(0) == tuple(range(1, 9)) + tuple(range(10, 2002))
    assert fan.children_of(8) == (9,)
    assert format_tree(fan).startswith("1(0,1,0,1,0,1,0,0(1),0,1")


def test_tree_copies_its_node_table():
    table = {0: Node(0, (1,)), 1: Node(1)}
    t = Tree(table, 0)
    table[0] = Node(0, ())
    del table[1]
    assert t.n == 2 and format_tree(t) == "0(1)"
    proxied = Tree(types.MappingProxyType({0: Node(1, (1,)), 1: Node(0)}), 0)
    assert type(proxied.nodes) is dict
    assert format_tree(proxied) == "1(0)"


@pytest.mark.parametrize("table, root, message", [
    ({1: Node(0)}, 0, "root identifier missing from node table"),
    ({0: Node(0, (1,)), 1: Node(0, (0,))}, 0, r"node 0 reached twice \(cycle"),
    ({0: Node(0, (1, 2)), 1: Node(0, (3,)), 2: Node(0, (3,)), 3: Node(0)}, 0,
     "node 3 reached twice"),
    ({0: Node(0, (1, 5)), 1: Node(0)}, 0, "child 5 of node 0 missing from node table"),
    ({0: Node(0, (1,)), 1: Node(2)}, 0, "label of node 1 must be a bit, got 2"),
    ({0: Node(0, (1,)), 1: Node(0), 2: Node(1, (1,))}, 0, "unreachable nodes present"),
])
def test_tree_rejects_malformed_tables(table, root, message):
    with pytest.raises(ValueError, match=message):
        Tree(table, root)


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
    nodes = {v: Node(rnd.randint(0, 1), tuple(kids)) for v, kids in path_kids.items()}
    nodes.update({v: Node(rnd.randint(0, 1)) for v in fan})
    return Tree(nodes, 0)


@given(deep_and_wide_trees())
@settings(max_examples=40, deadline=None)
def test_deep_and_wide_trees_survive_format_parse(t):
    back = parse_tree(format_tree(t))
    assert back.n == t.n
    assert back == t
    assert dyck_string(back) == dyck_string(t)


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
    assert dyck_string(tree_from_dyck(word)) == word


def test_is_fuzzy():
    assert is_fuzzy(parse_tree("0(0,0)"), 2)
    assert not is_fuzzy(parse_tree("0(0,0)"), 3)
    assert is_fuzzy(parse_tree("0(0,0,0)"), 3)
    # Non-terminal leaf next to an internal sibling is unconstrained.
    assert is_fuzzy(parse_tree("0(0,0(0,0))"), 2)
