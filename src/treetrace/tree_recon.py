"""Reconstruction pipelines: known-topology labels, fuzzy topology, encoded strings.

Each pipeline turns tree traces into strings, hands them to the
max-likelihood string reconstructor (over all of {0,1}^n for labels, over the
fuzzy candidate class for topology), and maps the result back to a tree or
bit string; the encoded pipeline decodes by majority vote instead.
"""

from __future__ import annotations

from typing import Sequence

from .instances import (
    _feasible_leaf_counts,
    check_fuzzy_size,
    encoded_leaf_id,
    encoded_parent_id,
    fuzzy_words,
)
from .string_recon import ml_reconstruct
from .trees import (
    DyckStringError,
    SymbolString,
    Tree,
    _euler_walk,
    dyck_string,
    preorder,
    preorder_label_string,
    tree_from_dyck,
)


class MergeError(ValueError):
    """The dual strings do not assemble into a realizable tree."""


class ReconstructionFailedError(ValueError):
    """Recovered dual strings could not be merged; carries both strings."""

    def __init__(self, s0: SymbolString, s1: SymbolString):
        super().__init__(f"dual strings do not merge: S0={s0!s} S1={s1!s}")
        self.s0 = s0
        self.s1 = s1


class UndecidedPositionsError(ValueError):
    """Encoded positions with no usable observation in any trace."""

    def __init__(self, positions: list[int]):
        super().__init__(f"no surviving observation for positions {positions}")
        self.positions = positions


def reconstruct_labels_known_topology(topology: Tree, traces: Sequence[Tree], q: float) -> Tree:
    """Recover node labels of a known topology from tree traces.

    Traces serialise to their preorder label strings, max-likelihood over
    {0,1}^n recovers the full-length string, and bit i goes to the i-th
    preorder node.
    """
    if not traces:
        raise ValueError("empty trace list")
    strings = [preorder_label_string(tr) for tr in traces]
    s = str(ml_reconstruct(strings, topology.n, q))
    return topology.with_labels({v: int(s[i]) for i, v in enumerate(preorder(topology))})


def _dual_of_word(word: str) -> tuple[str, str]:
    """Dual strings of the tree with Dyck word `word`.

    Each peak 10 is a leaf and gains the marker 2 between its descent and its
    ascent; S0 keeps the ascents and markers, S1 the descents and markers.
    The outer 1...0 makes a lone root a peak; it is cut off again.
    """
    walk = ("1" + word + "0").replace("10", "120")
    return walk.replace("1", "")[:-1], walk.replace("0", "")[1:]


def dual_strings_with_owners(t: Tree):
    """Dual strings plus, per symbol, the node that owns it.

    A non-root node owns the 1 written when the walk descends into it and the
    0 written when the walk leaves it; a leaf additionally owns its 2 in both
    strings.  A lone root counts as a leaf so the leaf anchors stay total.
    """
    # The edge walk with a 2 after each leaf's descent, as in _dual_of_word.
    marked = [("2", t.root)] if t.n == 1 else []
    for sym, v in _euler_walk(t):
        marked.append((sym, v))
        if sym == "1" and t.is_leaf(v):
            marked.append(("2", v))
    s0 = [(c, v) for c, v in marked if c != "1"]
    s1 = [(c, v) for c, v in marked if c != "0"]
    return (
        SymbolString("".join(c for c, _ in s0), "02"), [v for _, v in s0],
        SymbolString("".join(c for c, _ in s1), "12"), [v for _, v in s1],
    )


def dual_strings(t: Tree) -> tuple[SymbolString, SymbolString]:
    """(S0 over {0,2}, S1 over {1,2}): ascents/descents with leaf markers."""
    s0, s1 = _dual_of_word(str(dyck_string(t)))
    return SymbolString(s0, "02"), SymbolString(s1, "12")


def merge_dual_strings(s0: SymbolString | str, s1: SymbolString | str) -> Tree:
    """Rebuild the tree whose dual strings are (s0, s1).

    The 2-markers anchor the leaves; descent runs from s1 and ascent runs
    from s0 interleave between consecutive leaves into the full edge walk.
    Raises MergeError when the pair is not realizable.
    """
    t0, t1 = str(s0), str(s1)
    if set(t0) - {"0", "2"} or set(t1) - {"1", "2"}:
        raise MergeError("dual strings must use alphabets {0,2} and {1,2}")
    downs = t1.split("2")
    ups = t0.split("2")
    if len(downs) != len(ups):
        raise MergeError(
            f"leaf marker counts differ: {len(downs) - 1} in S1, {len(ups) - 1} in S0"
        )
    if len(downs) < 2:
        raise MergeError("no leaf markers present")
    if downs[-1] != "":
        raise MergeError("S1 must end at a leaf")
    if ups[0] != "":
        raise MergeError("S0 must start at a leaf")
    walk = "".join(d + u for d, u in zip(downs[:-1], ups[1:]))
    try:
        tree = tree_from_dyck(walk)
    except DyckStringError as exc:
        raise MergeError(f"interleaved walk is not balanced: {exc}") from exc
    if _dual_of_word(walk) != (t0, t1):
        raise MergeError("pair is not the dual encoding of any tree")
    return tree


_TO_BINARY = str.maketrans({"2": "0", "1": "1", "0": "1"})


def _fuzzy_to_binary(s: SymbolString | str) -> str:
    """Map the non-2 symbol to 1 and the leaf marker 2 to 0."""
    return str(s).translate(_TO_BINARY)


def _binary_to_fuzzy(s: str, alphabet: str) -> SymbolString:
    other = alphabet.replace("2", "")
    return SymbolString(s.translate(str.maketrans({"1": other, "0": "2"})), alphabet)


def reconstruct_fuzzy(traces: Sequence[Tree], n: int, m: int, q: float) -> Tree:
    """Recover the topology of a degree-m fuzzy tree from TED traces.

    Builds both dual strings per trace, maps each family to binary, runs
    max-likelihood on the two families independently, maps back, and merges.
    The candidates are the fuzzy class's dual strings for the skeleton leaf
    count nearest the average surviving leaf count.
    """
    check_fuzzy_size(n, m)
    if not traces:
        raise ValueError("empty trace list")
    pairs = [dual_strings(tr) for tr in traces]
    tr0 = [str(a) for a, _ in pairs]
    tr1 = [str(b) for _, b in pairs]
    mean_leaves = sum(t.count("2") for t in tr1) / len(tr1)
    p = 1.0 - q
    lam_est = mean_leaves / p / m
    feasible = _feasible_leaf_counts(n, m)
    lam = min(feasible, key=lambda x: abs(x - lam_est))
    width = (n - 1) + m * lam
    bin0 = [_fuzzy_to_binary(t) for t in tr0]
    bin1 = [_fuzzy_to_binary(t) for t in tr1]
    duals = [_dual_of_word(w) for w in fuzzy_words(n, m, lam)]
    cands0 = sorted({_fuzzy_to_binary(a) for a, _ in duals})
    cands1 = sorted({_fuzzy_to_binary(b) for _, b in duals})
    got0 = ml_reconstruct(bin0, width, q, candidates=cands0)
    got1 = ml_reconstruct(bin1, width, q, candidates=cands1)
    s0 = _binary_to_fuzzy(str(got0), "02")
    s1 = _binary_to_fuzzy(str(got1), "12")
    try:
        return merge_dual_strings(s0, s1)
    except MergeError:
        raise ReconstructionFailedError(s0, s1) from None


def reconstruct_encoded(
    traces: Sequence[Tree], s_len: int, ell: int, q: float
) -> SymbolString:
    """Decode the bit string hidden in an encoding tree from TED traces.

    Family knowledge is the fixed identifier layout of the generator (the
    stand-in for an oracle that replaces partially deleted structure).  Each
    encoded position is decided by majority over traces in which the leaf and
    its backbone parent both survive and the path continuation below the
    parent is still visible; q plays no role in the vote itself.
    """
    if not traces:
        raise ValueError("empty trace list")
    bits: list[str] = []
    undecided: list[int] = []
    for i in range(1, s_len + 1):
        leaf = encoded_leaf_id(s_len, ell, i)
        par = encoded_parent_id(s_len, ell, i)
        zeros = ones = 0
        for tr in traces:
            if leaf not in tr.nodes or par not in tr.nodes:
                continue
            kids = tr.children_of(par)
            if len(kids) < 2:
                continue  # continuation gone; orientation unreadable
            if kids[0] == leaf:
                zeros += 1
            elif kids[-1] == leaf:
                ones += 1
        if zeros == 0 and ones == 0:
            undecided.append(i)
        else:
            bits.append("1" if ones > zeros else "0")
    if undecided:
        raise UndecidedPositionsError(undecided)
    return SymbolString("".join(bits), "01")


def encoded_removal_stats(traces: Sequence[Tree], s_len: int, ell: int) -> dict[str, float]:
    """Leaf survival statistics across traces for the encoding family.

    complete_removal counts (trace, position) pairs where the leaf and its
    parent are both gone, the event that erases all positional evidence.
    """
    complete = both_alive = leaf_only = parent_only = 0
    for tr in traces:
        present = tr.nodes
        for i in range(1, s_len + 1):
            leaf_in = encoded_leaf_id(s_len, ell, i) in present
            par_in = encoded_parent_id(s_len, ell, i) in present
            if leaf_in and par_in:
                both_alive += 1
            elif leaf_in:
                leaf_only += 1
            elif par_in:
                parent_only += 1
            else:
                complete += 1
    total = len(traces) * s_len
    return {
        "trials": float(total),
        "complete_removal": float(complete),
        "complete_removal_rate": complete / total if total else 0.0,
        "both_alive": float(both_alive),
        "leaf_only": float(leaf_only),
        "parent_only": float(parent_only),
    }
