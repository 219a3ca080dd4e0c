"""Generators for the studied tree families.

Families: the string-encoding caterpillar (a long path with one oriented leaf
per encoded bit, padded by protective buffers), the path/forked pair that is
indistinguishable under left propagation, fuzzy trees whose terminal leaves
come in blocks of m, and uniform random ordered trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .channels import _binary, _check_ints, _check_q, _check_real
from .trees import Tree, _walk, tree_from_dyck


def _check_delta(delta: float) -> None:
    if not isinstance(delta, float):
        _check_real("delta", delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _check_planned(planned_traces: int) -> None:
    if type(planned_traces) is not int:
        _check_ints(planned_traces=planned_traces)
    if planned_traces < 1:
        raise ValueError("planned trace count must be >= 1")


def buffer_length(delta: float, planned_traces: int, q: float) -> int:
    """Buffer size that keeps both path ends alive in all planned trials.

    ceil((ln(1/delta) + ln N) / ln(1/q)), at least 1; q = 0 needs no buffer
    beyond the minimum.
    """
    _check_delta(delta)
    _check_planned(planned_traces)
    _check_q(q)
    if q == 0.0:
        return 1
    ell = math.ceil((math.log(1.0 / delta) + math.log(planned_traces)) / math.log(1.0 / q))
    return max(ell, 1)


@dataclass(frozen=True)
class EncodedInstance:
    """A bit string hidden in tree topology: backbone path plus oriented leaves."""

    source_string: str
    buffer_len: int
    tree: Tree


# Identifier layout of encode_string_as_tree: backbone position i (1-based,
# the root is position 1) has id i-1; the leaf for bit i has id P + i - 1
# where P is the backbone length.  Decoders rely on this layout as their
# family knowledge.


def encoded_parent_id(ell: int, bit_index: int) -> int:
    """Id of the backbone node carrying encoded bit `bit_index` (1-based)."""
    return ell + bit_index - 1


def encoded_leaf_id(s_len: int, ell: int, bit_index: int) -> int:
    """Id of the leaf encoding bit `bit_index` (1-based)."""
    return s_len + 2 * ell + bit_index - 1


def encode_string_as_tree(source: str, ell: int) -> EncodedInstance:
    """Hide a bit string in an unlabeled caterpillar tree.

    The backbone is a path of |S| + 2*ell nodes whose first node is the root.
    Bit i hangs a leaf off backbone position ell + i: on the left (before the
    path continuation) for 0, on the right for 1.
    """
    s = _binary(source, "source")
    if len(s) < 1:
        raise ValueError("source string must be nonempty")
    if ell < 1:
        raise ValueError("buffer length must be >= 1")
    s_len = len(s)
    P = s_len + 2 * ell
    kids: dict[int, list[int]] = {}
    for pos in range(1, P + 1):
        nxt = [pos] if pos < P else []
        if ell + 1 <= pos <= ell + s_len:
            i = pos - ell
            leaf = encoded_leaf_id(s_len, ell, i)
            kids[leaf] = []
            nxt = [leaf] + nxt if s[i - 1] == "0" else nxt + [leaf]
        kids[pos - 1] = nxt
    word, ids = _walk(kids, 0)
    return EncodedInstance(s, ell, Tree(word, "0" * len(ids), ids, validate=False))


def read_encoded_string(inst: EncodedInstance) -> str:
    """Recover the source string from leaf orientations (construction inverse)."""
    s_len = len(inst.source_string)
    ids = inst.tree.ids
    rank = {v: r for r, v in enumerate(ids)}
    bits = []
    for i in range(1, s_len + 1):
        parent = encoded_parent_id(inst.buffer_len, i)
        leaf = encoded_leaf_id(s_len, inst.buffer_len, i)
        bits.append("0" if ids[rank[parent] + 1] == leaf else "1")  # first child: next in preorder
    return "".join(bits)


def path_tree(n: int) -> Tree:
    """A_n: the root plus a chain of n nodes (n non-root nodes)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tree_from_dyck("1" * n + "0" * n)


def forked_tree(n: int) -> Tree:
    """B_n: A_{n-1} with a sibling added to its single leaf (n non-root nodes)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return tree_from_dyck("1" * (n - 1) + "01" + "0" * (n - 1))


def fuzzy_degree(n: int, planned_traces: int, delta: float, q: float) -> int:
    """Smallest sibling-block size m with n * N * q^m <= delta, at least 2."""
    _check_q(q)
    _check_delta(delta)
    _check_planned(planned_traces)
    if q == 0.0:
        return 2
    budget = n * planned_traces
    m = max(1, math.ceil(math.log(budget / delta) / math.log(1.0 / q)))
    while m > 1 and budget * q ** (m - 1) <= delta:
        m -= 1
    while budget * q ** m > delta:
        m += 1
    return max(m, 2)


def check_fuzzy_size(n: int, m: int) -> None:
    """Raise ValueError unless a degree-m fuzzy tree on n nodes exists (n >= m + 1)."""
    if type(n) is not int or type(m) is not int:
        _check_ints(n=n, m=m)
    if m < 2:
        raise ValueError("fuzzy degree m must be >= 2")
    if n < m + 1:
        raise ValueError(f"no fuzzy tree with n={n}, m={m}: needs n >= m + 1")


def _feasible_leaf_counts(n: int, m: int) -> list[int]:
    """Skeleton leaf counts lam with a valid skeleton of n - m*lam nodes."""
    return [1] if n == m + 1 else list(range(1, (n - 1) // (m + 1) + 1))


def _fuzzy_word(skeleton: str, m: int) -> str:
    """The skeleton's Dyck word with every leaf replaced by a node with m leaf children.

    The word is wrapped in an outer 1...0, so that a one-node skeleton is a
    peak too; every peak 10 then becomes the block 1(10)^m 0, and the wrap
    comes off again.
    """
    return ("1" + skeleton + "0").replace("10", "1" + "10" * m + "0")[1:-1]


def random_fuzzy_tree(n: int, m: int, rng) -> Tree:
    """Random tree on n nodes where every leaf sits in a block of m siblings.

    Grows a random skeleton with a chosen number of leaves, then builds the
    tree from the skeleton's word by _fuzzy_word (ids in preorder).  The
    output always satisfies the degree-m invariant exactly; the distribution
    over shapes is not uniform.
    """
    check_fuzzy_size(n, m)
    feasible = _feasible_leaf_counts(n, m)
    lam = int(feasible[rng.integers(len(feasible))])
    k = n - m * lam
    kids: list[list[int]] = [[]]  # skeleton child lists, ids in order of growth
    if k > 1:
        # An L move keeps the leaf count and an I move adds one; the first, onto the root, is L.
        body = ["L"] * (k - lam - 1) + ["I"] * (lam - 1)
        rng.shuffle(body)
        leaves, internal = [0], []
        for mv in ["L"] + body:
            if mv == "L":
                u = leaves.pop(int(rng.integers(len(leaves))))
                internal.append(u)
                slot = 0
            else:
                u = internal[int(rng.integers(len(internal)))]
                slot = int(rng.integers(len(kids[u]) + 1))
            kids[u].insert(slot, len(kids))
            leaves.append(len(kids))
            kids.append([])
    return tree_from_dyck(_fuzzy_word(_walk(kids, 0)[0], m))


def _cycle_lemma_word(ups: list[bool]) -> str:
    """Dyck word of n ups and n-1 downs rotated to start after the last prefix-sum minimum."""
    prefix = list(accumulate(1 if up else -1 for up in ups))
    last_min = len(ups) - 1 - prefix[::-1].index(min(prefix))
    start = (last_min + 1) % len(ups)
    rotated = ups[start:] + ups[:start]
    return "".join("1" if up else "0" for up in rotated[1:])  # less the leading up


def random_tree(n: int, rng) -> Tree:
    """Uniform ordered rooted tree on n nodes via the cycle lemma.

    A uniform arrangement of n ups and n-1 downs has exactly one rotation
    whose partial sums stay positive; dropping its leading up gives a uniform
    Dyck word, hence a uniform tree.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Tree("", "0")
    # Ids below n are the ups: shuffling 0..2n-2 places them as shuffling the steps would.
    # The cycle lemma makes a Dyck word, so the tree goes unchecked.
    word = _cycle_lemma_word([x < n for x in rng.permutation(2 * n - 1).tolist()])
    return Tree(word, "0" * n, validate=False)


_DRAW_ROWS = 4096  # permutations random_dyck_words draws at once: a memory bound


def random_dyck_words(n: int, count: int, rng) -> list[str]:
    """Dyck words of `count` random_tree(n, rng) calls: permuted draws each row as a call would.

    A word depends only on where its ups sit, so the cycle lemma runs once per pattern.
    """
    if n < 1 or count < 0:
        raise ValueError(f"need n >= 1 and count >= 0, got n={n}, count={count}")
    k = 2 * n - 1
    ids = np.arange(k, dtype=np.min_scalar_type(k))
    words: list[str] = []
    for done in range(0, count, _DRAW_ROWS):
        drawn = rng.permuted(np.broadcast_to(ids, (min(_DRAW_ROWS, count - done), k)), axis=1)
        ups = np.ascontiguousarray(drawn < n)  # permuted returns Fortran order
        codes = np.packbits(ups, axis=1).view(np.dtype((np.void, (k + 7) // 8))).ravel()
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        found = [_cycle_lemma_word(ups[i].tolist()) for i in first.tolist()]
        words += [found[j] for j in inverse.ravel().tolist()]
    return words


def random_labels(t: Tree, rng) -> Tree:
    """Copy of t with independent fair-bit labels."""
    return t.with_labels("".join(map(str, rng.integers(0, 2, size=t.n).tolist())))
