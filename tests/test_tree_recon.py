import math

import pytest

from treetrace import channels, instances
from treetrace.tree_recon import (
    MergeError,
    ReconstructionFailedError,
    UndecidedPositionsError,
    _dual_of_word,
    _dual_width,
    _fuzzy_candidates,
    _fuzzy_to_binary,
    check_fuzzy_decodable,
    dual_strings,
    dual_strings_with_owners,
    merge_dual_strings,
    reconstruct_encoded,
    reconstruct_fuzzy,
    reconstruct_labels_known_topology,
)
from treetrace.trees import enumerate_trees, parse_tree
from conftest import make_rng
import oracles


def test_known_topology_q0_single_trace():
    rng = make_rng("kt-q0")
    for n in range(1, 7):
        for topo in enumerate_trees(n):
            truth = instances.random_labels(topo, rng)
            got = reconstruct_labels_known_topology(topo, [truth], 0.0)
            assert got == truth


def test_known_topology_path_is_string_reconstruction():
    # On a path the pipeline is exactly string trace reconstruction.
    rng = make_rng("kt-path")
    topo = instances.path_tree(7)
    truth = instances.random_labels(topo, rng)
    traces = [oracles.ted_trace(truth, 0.1, rng) for _ in range(64)]
    got = reconstruct_labels_known_topology(topo, traces, 0.1)
    assert got == truth


def test_known_topology_reads_trees_or_their_label_strings():
    rng = make_rng("kt-strings")
    truth = instances.random_labels(instances.random_tree(9, rng), rng)
    traces = [oracles.ted_trace(truth, 0.3, rng) for _ in range(8)]
    got = reconstruct_labels_known_topology(truth, traces, 0.3)
    assert reconstruct_labels_known_topology(truth, [tr.labels for tr in traces], 0.3) == got


def test_known_topology_under_lp_channel():
    rng = make_rng("kt-lp")
    ok = 0
    for _ in range(20):
        topo = instances.random_tree(8, rng)
        truth = instances.random_labels(topo, rng)
        traces = [oracles.lp_trace(truth, 0.1, rng) for _ in range(64)]
        got = reconstruct_labels_known_topology(topo, traces, 0.1)
        ok += got == truth
    assert ok >= 18


def test_dual_strings_examples():
    s0, s1 = dual_strings(parse_tree("0(0,0)"))
    assert (s0, s1) == ("2020", "1212")
    s0, s1 = dual_strings(parse_tree("0"))
    assert (s0, s1) == ("2", "2")


def test_dual_strings_lengths():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            s0, s1 = dual_strings(t)
            n_leaves = sum(not kids for kids in t.children().values())
            assert len(s0) == len(s1) == (t.n - 1) + n_leaves
            # The word-based strings agree with the owner-tracking walk.
            w0, _, w1, _ = dual_strings_with_owners(t)
            assert (s0, s1) == (w0, w1)


def test_single_deletion_removes_owned_symbols():
    # A node deletion with no fully-orphaned parent removes exactly the
    # deleted node's symbols from both strings.
    for t in enumerate_trees(6):
        s0, own0, s1, own1 = dual_strings_with_owners(t)
        original_leaves = {u for u, kids in t.children().items() if not kids}
        for v in t.ids[1:]:
            trace = channels.ted_apply(t, {v})
            if any(not kids and u not in original_leaves for u, kids in trace.children().items()):
                continue  # orphaned parent: not a pure symbol deletion
            got0, got1 = dual_strings(trace)
            assert got0 == "".join(c for c, u in zip(s0, own0) if u != v)
            assert got1 == "".join(c for c, u in zip(s1, own1) if u != v)


def test_merge_examples_and_roundtrip():
    assert merge_dual_strings("2020", "1212") == parse_tree("0(0,0)")
    for n in range(1, 7):
        for t in enumerate_trees(n):
            s0, s1 = dual_strings(t)
            assert merge_dual_strings(s0, s1) == t


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
    # At n = 36, m = 3 and lam = 6 the class has Narayana(17, 6) = 4,504,864
    # members but only C(16, 5) = 4,368 candidates a side.
    rng = make_rng("fuzzy-q0")
    for n in (17, 36):
        for _ in range(10):
            truth = instances.random_fuzzy_tree(n, 3, rng)
            got = reconstruct_fuzzy([truth], n, 3, 0.0)
            assert got == truth
    with pytest.raises(ValueError, match="no fuzzy tree with n=3, m=3"):
        reconstruct_fuzzy([instances.path_tree(2)], 3, 3, 0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        # q = 1 raised ZeroDivisionError at the leaf estimate, and the others TypeError.
        (lambda traces: reconstruct_fuzzy(traces, 30, 5, 1.0), r"q must lie in \[0, 1\), got 1.0"),
        (lambda traces: reconstruct_fuzzy(traces, 30, 5, "0.2"),
         "q must be a real number, got '0.2'"),
        (lambda traces: reconstruct_fuzzy(traces, 30.0, 5, 0.2), "n must be an int, got 30.0"),
        (lambda traces: reconstruct_fuzzy(traces, 30, 5.0, 0.2), "m must be an int, got 5.0"),
        (lambda traces: instances.random_fuzzy_tree(30.0, 5, make_rng("fuzzy-bad")),
         "n must be an int, got 30.0"),
        (lambda traces: check_fuzzy_decodable(30, 5.0), "m must be an int, got 5.0"),
    ],
    ids=["q=1", "q=str", "float n", "float m", "random_fuzzy_tree", "check_fuzzy_decodable"],
)
def test_fuzzy_decoder_refuses_bad_input_in_one_line(call, message):
    rng = make_rng("fuzzy-bad-input")
    traces = channels.ted_traces(instances.random_fuzzy_tree(30, 5, rng), 0.2, 4, rng)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(traces)


def fuzzy_classes(sizes):
    """Every feasible (n, m, lam) with n in sizes and m in 2 .. n - 1."""
    return [(n, m, lam) for n in sizes for m in range(2, n)
            for lam in instances._feasible_leaf_counts(n, m)]


def test_fuzzy_candidates_are_the_class_dual_strings():
    # Run-length compositions give exactly the sorted binary dual strings of
    # the listed class: 349 classes up to n = 22, and the fuzzy-sweep sizes.
    classes = fuzzy_classes(range(3, 23))
    assert len(classes) == 349
    classes += [(30, m, lam) for m in range(5, 9) for lam in instances._feasible_leaf_counts(30, m)]
    for n, m, lam in classes:
        duals = [_dual_of_word(w) for w in oracles.fuzzy_words(n, m, lam)]
        want0 = sorted({_fuzzy_to_binary(a) for a, _ in duals})
        want1 = sorted({_fuzzy_to_binary(b) for _, b in duals})
        assert _fuzzy_candidates(n, m, lam) == (want0, want1), (n, m, lam)


def test_fuzzy_candidates_count_and_width():
    # C(k - 2, lam - 1) compositions of the skeleton's k - 1 pairs; one run when k = 1.
    for n, m, lam in fuzzy_classes([*range(3, 23), 30, 36]):
        k = n - m * lam
        count = math.comb(k - 2, lam - 1) if k > 1 else 1
        for side in _fuzzy_candidates(n, m, lam):
            assert len(side) == len(set(side)) == count
            assert {len(s) for s in side} == {_dual_width(n, m, lam)}


def test_reconstruct_fuzzy_monte_carlo():
    rng = make_rng("fuzzy-mc")
    n, q = 30, 0.2
    m = instances.fuzzy_degree(n, 64, 0.01, q)
    ok = 0
    for _ in range(10):
        truth = instances.random_fuzzy_tree(n, m, rng)
        traces = [oracles.ted_trace(truth, q, rng) for _ in range(64)]
        try:
            got = reconstruct_fuzzy(traces, n, m, q)
        except ReconstructionFailedError:
            continue
        ok += got == truth
    assert ok >= 8


def test_reconstruct_encoded_q0():
    s = "10110010"
    inst = instances.encode_string_as_tree(s, 2)
    assert reconstruct_encoded([inst.tree], 8, 2, 0.0) == s


def test_reconstruct_encoded_undecided():
    s = "101"
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
        s = "".join(str(int(b)) for b in rng.integers(0, 2, size=8))
        ell = instances.buffer_length(0.05, 32, q)
        inst = instances.encode_string_as_tree(s, ell)
        traces = [oracles.ted_trace(inst.tree, q, rng) for _ in range(32)]
        try:
            ok += reconstruct_encoded(traces, 8, ell, q) == s
        except UndecidedPositionsError:
            pass
    assert ok >= 18


def test_encoded_removal_stats_match_q_squared():
    rng = make_rng("encoded-stats")
    q = 0.3
    s = "10110100"
    ell = 4
    inst = instances.encode_string_as_tree(s, ell)
    n_traces = 4000
    traces = [oracles.ted_trace(inst.tree, q, rng) for _ in range(n_traces)]
    stats = oracles.encoded_removal_stats(traces, 8, ell)
    expect = q * q
    sigma = math.sqrt(expect * (1 - expect) / stats["trials"])
    assert abs(stats["complete_removal_rate"] - expect) <= 4 * sigma

