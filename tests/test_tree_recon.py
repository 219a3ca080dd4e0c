import math

import pytest

from treetrace import channels, instances
from treetrace.tree_recon import (
    MergeError,
    ReconstructionFailedError,
    UndecidedPositionsError,
    dual_strings,
    dual_strings_with_owners,
    encoded_removal_stats,
    merge_dual_strings,
    reconstruct_encoded,
    reconstruct_fuzzy,
    reconstruct_labels_known_topology,
)
from treetrace.trees import (
    SymbolString,
    build_tree,
    enumerate_trees,
    parse_tree,
    preorder,
    trees_equal,
)
from conftest import make_rng


def test_known_topology_q0_single_trace():
    rng = make_rng("kt-q0")
    for n in range(1, 7):
        for topo in enumerate_trees(n):
            truth = instances.random_labels(topo, rng)
            got = reconstruct_labels_known_topology(topo, [truth], 0.0)
            assert trees_equal(got, truth)


def test_known_topology_path_is_string_reconstruction():
    # On a path the pipeline is exactly string trace reconstruction.
    rng = make_rng("kt-path")
    topo = instances.path_tree(7)
    truth = instances.random_labels(topo, rng)
    traces = [channels.ted_trace(truth, 0.1, rng) for _ in range(64)]
    got = reconstruct_labels_known_topology(topo, traces, 0.1)
    assert trees_equal(got, truth)


def test_known_topology_under_lp_channel():
    rng = make_rng("kt-lp")
    ok = 0
    for _ in range(20):
        topo = instances.random_tree(8, rng)
        truth = instances.random_labels(topo, rng)
        traces = [channels.lp_trace(truth, 0.1, rng) for _ in range(64)]
        got = reconstruct_labels_known_topology(topo, traces, 0.1)
        ok += trees_equal(got, truth)
    assert ok >= 18


def test_dual_strings_examples():
    s0, s1 = dual_strings(parse_tree("0(0,0)"))
    assert (str(s0), str(s1)) == ("2020", "1212")
    s0, s1 = dual_strings(build_tree(0))
    assert (str(s0), str(s1)) == ("2", "2")


def test_dual_strings_lengths():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            s0, s1 = dual_strings(t)
            n_leaves = len(t.leaves())
            assert len(s0) == len(s1) == (t.n - 1) + n_leaves
            # The word-based strings agree with the owner-tracking walk.
            w0, _, w1, _ = dual_strings_with_owners(t)
            assert (s0, s1) == (w0, w1)


def test_single_deletion_removes_owned_symbols():
    # A node deletion with no fully-orphaned parent removes exactly the
    # deleted node's symbols from both strings.
    for t in enumerate_trees(6):
        s0, own0, s1, own1 = dual_strings_with_owners(t)
        original_leaves = set(t.leaves())
        for v in preorder(t)[1:]:
            trace = channels.ted_apply(t, {v})
            if any(u not in original_leaves for u in trace.leaves()):
                continue  # orphaned parent: not a pure symbol deletion
            got0, got1 = dual_strings(trace)
            assert str(got0) == "".join(c for c, u in zip(str(s0), own0) if u != v)
            assert str(got1) == "".join(c for c, u in zip(str(s1), own1) if u != v)


def test_merge_examples_and_roundtrip():
    assert trees_equal(merge_dual_strings("2020", "1212"), parse_tree("0(0,0)"))
    for n in range(1, 7):
        for t in enumerate_trees(n):
            s0, s1 = dual_strings(t)
            assert trees_equal(merge_dual_strings(s0, s1), t)


def test_merge_rejects_bad_pairs():
    with pytest.raises(MergeError):
        merge_dual_strings("20", "1212")  # mismatched leaf counts
    with pytest.raises(MergeError):
        merge_dual_strings("202", "122")  # S0 must start / S1 must end at a leaf
    with pytest.raises(MergeError):
        merge_dual_strings("2002", "1212")  # unbalanced interleaved walk
    with pytest.raises(MergeError):
        merge_dual_strings("0202", "1212")
    with pytest.raises(MergeError):
        merge_dual_strings("2020", "1112")  # balanced but not a dual encoding


def test_reconstruct_fuzzy_q0():
    rng = make_rng("fuzzy-q0")
    for _ in range(10):
        truth = instances.random_fuzzy_tree(17, 3, rng)
        got = reconstruct_fuzzy([truth], 17, 3, 0.0)
        assert trees_equal(got, truth)
    with pytest.raises(ValueError, match="no fuzzy tree with n=3, m=3"):
        reconstruct_fuzzy([instances.path_tree(2)], 3, 3, 0.1)


def test_reconstruct_fuzzy_monte_carlo():
    rng = make_rng("fuzzy-mc")
    n, q = 30, 0.2
    m = instances.fuzzy_degree(n, 64, 0.01, q)
    ok = 0
    for _ in range(10):
        truth = instances.random_fuzzy_tree(n, m, rng)
        traces = [channels.ted_trace(truth, q, rng) for _ in range(64)]
        try:
            got = reconstruct_fuzzy(traces, n, m, q)
        except ReconstructionFailedError:
            continue
        ok += trees_equal(got, truth)
    assert ok >= 8


def test_reconstruct_encoded_q0():
    s = SymbolString("10110010")
    inst = instances.encode_string_as_tree(s, 2)
    assert str(reconstruct_encoded([inst.tree], 8, 2, 0.0)) == str(s)


def test_reconstruct_encoded_undecided():
    s = SymbolString("101")
    inst = instances.encode_string_as_tree(s, 1)
    # Delete every encoded leaf: no position has an observation.
    dels = {instances.encoded_leaf_id(3, 1, i) for i in (1, 2, 3)}
    trace = channels.ted_apply(inst.tree, dels)
    with pytest.raises(UndecidedPositionsError) as err:
        reconstruct_encoded([trace], 3, 1, 0.3)
    assert err.value.positions == [1, 2, 3]


def test_reconstruct_encoded_monte_carlo():
    rng = make_rng("encoded-mc")
    q = 0.3
    ok = 0
    for _ in range(20):
        s = SymbolString("".join(str(int(b)) for b in rng.integers(0, 2, size=8)))
        ell = instances.buffer_length(0.05, 32, q)
        inst = instances.encode_string_as_tree(s, ell)
        traces = [channels.ted_trace(inst.tree, q, rng) for _ in range(32)]
        try:
            ok += str(reconstruct_encoded(traces, 8, ell, q)) == str(s)
        except UndecidedPositionsError:
            pass
    assert ok >= 18


def test_encoded_removal_stats_match_q_squared():
    rng = make_rng("encoded-stats")
    q = 0.3
    s = SymbolString("10110100")
    ell = 4
    inst = instances.encode_string_as_tree(s, ell)
    n_traces = 4000
    traces = [channels.ted_trace(inst.tree, q, rng) for _ in range(n_traces)]
    stats = encoded_removal_stats(traces, 8, ell)
    expect = q * q
    sigma = math.sqrt(expect * (1 - expect) / stats["trials"])
    assert abs(stats["complete_removal_rate"] - expect) <= 4 * sigma

