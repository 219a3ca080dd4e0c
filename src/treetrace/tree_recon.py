"""Reconstruction pipelines: known-topology labels, fuzzy topology, encoded strings.

Each pipeline reads tree traces as trees.Tree values (Dyck word, preorder
labels, node ids), the known-topology one also their label strings alone;
turns them into strings, hands them to the max-likelihood string
reconstructor (over all of {0,1}^n for labels, over the
fuzzy candidate class for topology), and maps the result back to a tree or
bit string; the encoded pipeline decodes by majority vote instead.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .channels import _check_q
from .instances import (
    _feasible_leaf_counts,
    check_fuzzy_size,
    encoded_leaf_id,
    encoded_parent_id,
)
from .string_recon import _EMBED_LEN_CAP, ml_reconstruct
from .trees import DyckStringError, Tree, _dyck_links, tree_from_dyck


class MergeError(ValueError):
    """The dual strings do not assemble into a realizable tree."""


class ReconstructionFailedError(ValueError):
    """Recovered dual strings could not be merged; carries both strings."""

    def __init__(self, s0: str, s1: str):
        super().__init__(f"dual strings do not merge: S0={s0} S1={s1}")
        self.s0 = s0
        self.s1 = s1


class UndecidedPositionsError(ValueError):
    """Encoded positions with no usable observation in any trace."""

    def __init__(self, positions: list[int]):
        super().__init__(f"no surviving observation for positions {positions}")
        self.positions = positions


def reconstruct_labels_known_topology(topology: Tree, traces: Sequence[Tree | str],
                                      q: float) -> Tree:
    """Recover node labels of a known topology from tree traces or their label strings.

    Max-likelihood over {0,1}^n recovers the full-length string from the
    traces' preorder label strings, and bit i labels the i-th preorder node.
    A trace may be given as that string alone, since nothing else is read:
    experiment trials pass strings, and recon passes the trees it parsed.
    """
    if not traces:
        raise ValueError("empty trace list")
    labels = [tr if type(tr) is str else tr.labels for tr in traces]
    s = ml_reconstruct(labels, topology.n, q)
    return topology.with_labels(s)


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
    ids = t.ids
    kids, walk = _dyck_links(t.word)
    marked = [("2", t.root)] if t.n == 1 else []
    for sym, i in zip(t.word, walk):
        marked.append((sym, ids[i]))
        if sym == "1" and not kids[i]:
            marked.append(("2", ids[i]))
    s0 = [(c, v) for c, v in marked if c != "1"]
    s1 = [(c, v) for c, v in marked if c != "0"]
    return (
        "".join(c for c, _ in s0), [v for _, v in s0],
        "".join(c for c, _ in s1), [v for _, v in s1],
    )


def dual_strings(t: Tree) -> tuple[str, str]:
    """(S0 over {0,2}, S1 over {1,2}): ascents/descents with leaf markers."""
    return _dual_of_word(t.word)


def merge_dual_strings(s0: str, s1: str) -> Tree:
    """Rebuild the tree whose dual strings are (s0, s1).

    The 2-markers anchor the leaves; descent runs from s1 and ascent runs
    from s0 interleave between consecutive leaves into the full edge walk.
    Raises MergeError when the pair is not realizable.
    """
    if set(s0) - {"0", "2"} or set(s1) - {"1", "2"}:
        raise MergeError("dual strings must use alphabets {0,2} and {1,2}")
    downs = s1.split("2")
    ups = s0.split("2")
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
    if _dual_of_word(walk) != (s0, s1):
        raise MergeError("pair is not the dual encoding of any tree")
    return tree


_TO_BINARY = str.maketrans({"2": "0", "1": "1", "0": "1"})


def _fuzzy_to_binary(s: str) -> str:
    """Map the non-2 symbol to 1 and the leaf marker 2 to 0."""
    return s.translate(_TO_BINARY)


def _binary_to_fuzzy(s: str, other: str) -> str:
    """Inverse of _fuzzy_to_binary for the dual string whose non-2 symbol is other."""
    return s.translate(str.maketrans({"1": other, "0": "2"}))


def _dual_width(n: int, m: int, lam: int) -> int:
    """Dual-string length of a class member: n - 1 edges plus m leaves per skeleton leaf."""
    return (n - 1) + m * lam


def _fuzzy_candidates(n: int, m: int, lam: int) -> tuple[list[str], list[str]]:
    """Sorted binary S0 and S1 strings of the fuzzy class (n, m, lam), from run lengths.

    A member's dual strings depend only on its skeleton word's runs: per
    skeleton leaf j, S1 has "1" * u_j + "10" * m and S0 has "01" * m + "1" * d_j,
    where u_j and d_j are the j-th up-run and down-run.  Either run sequence
    ranges over every composition of the skeleton's k - 1 pairs into lam
    parts (a one-node skeleton has the single run 0), so no member is listed.
    """
    k = n - m * lam
    runs = [[b - a for a, b in zip((0, *cuts), (*cuts, k - 1))]
            for cuts in combinations(range(1, k - 1), lam - 1)]
    cands0 = sorted("".join("01" * m + "1" * d for d in r) for r in runs)
    cands1 = sorted("".join("1" * u + "10" * m for u in r) for r in runs)
    return cands0, cands1


def check_fuzzy_decodable(n: int, m: int) -> None:
    """Raise ValueError unless reconstruct_fuzzy can take every class at (n, m).

    The class must exist, and the widest candidates' dual strings must fit
    the exact-count cap of ml_reconstruct.
    """
    check_fuzzy_size(n, m)
    width = _dual_width(n, m, max(_feasible_leaf_counts(n, m)))
    if width > _EMBED_LEN_CAP:
        raise ValueError(f"fuzzy n={n}, m={m}: candidate width {width} exceeds the "
                         f"exact-count cap of {_EMBED_LEN_CAP}")


def reconstruct_fuzzy(traces: Sequence[Tree], n: int, m: int, q: float) -> Tree:
    """Recover the topology of a degree-m fuzzy tree from TED traces.

    Builds both dual strings from each trace's word, maps each family to
    binary, runs max-likelihood on the two families independently, maps
    back, and merges.
    The candidates (_fuzzy_candidates) are the fuzzy class's dual strings for
    the skeleton leaf count nearest the average surviving leaf count.
    """
    check_fuzzy_size(n, m)
    _check_q(q)
    if not traces:
        raise ValueError("empty trace list")
    pairs = [_dual_of_word(tr.word) for tr in traces]
    bin0 = [_fuzzy_to_binary(a) for a, _ in pairs]
    bin1 = [_fuzzy_to_binary(b) for _, b in pairs]
    mean_leaves = sum(t.count("0") for t in bin1) / len(bin1)  # a 0 is a leaf marker
    p = 1.0 - q
    lam_est = mean_leaves / p / m
    feasible = _feasible_leaf_counts(n, m)
    lam = min(feasible, key=lambda x: abs(x - lam_est))
    width = _dual_width(n, m, lam)
    cands0, cands1 = _fuzzy_candidates(n, m, lam)
    got0 = ml_reconstruct(bin0, width, q, candidates=cands0)
    got1 = ml_reconstruct(bin1, width, q, candidates=cands1)
    s0 = _binary_to_fuzzy(got0, "0")
    s1 = _binary_to_fuzzy(got1, "1")
    try:
        return merge_dual_strings(s0, s1)
    except MergeError:
        raise ReconstructionFailedError(s0, s1) from None


def reconstruct_encoded(traces: Sequence[Tree], s_len: int, ell: int, q: float) -> str:
    """Decode the bit string hidden in an encoding tree from TED traces.

    Family knowledge is the fixed identifier layout of the generator (the
    stand-in for an oracle that replaces partially deleted structure).  Each
    encoded position is decided by majority over traces in which the leaf and
    its backbone parent both survive and the path continuation below the
    parent is still visible; q plays no role in the vote itself.
    """
    if not traces:
        raise ValueError("empty trace list")
    tables = [tr.children() for tr in traces]
    bits: list[str] = []
    undecided: list[int] = []
    for i in range(1, s_len + 1):
        leaf = encoded_leaf_id(s_len, ell, i)
        par = encoded_parent_id(ell, i)
        zeros = ones = 0
        for kids in tables:
            if leaf not in kids or par not in kids:
                continue
            sibs = kids[par]
            if len(sibs) < 2:
                continue  # continuation gone; orientation unreadable
            if sibs[0] == leaf:
                zeros += 1
            elif sibs[-1] == leaf:
                ones += 1
        if zeros == 0 and ones == 0:
            undecided.append(i)
        else:
            bits.append("1" if ones > zeros else "0")
    if undecided:
        raise UndecidedPositionsError(undecided)
    return "".join(bits)
