"""Deletion channels: the string channel, the TED tree channel, left propagation.

Sampling functions take an explicit numpy Generator.  The batched samplers
(`string_traces`, `ted_traces`, `lp_traces`) draw all of a trial's traces in
one call and return a tree trace as a `Trace`: its Dyck word, its preorder
labels and its node ids.  Equal draws share one immutable `Trace`, also
across calls on the same small source tree object (see `_sampled`).  The dict
samplers (`string_trace`, `ted_trace`, `lp_trace`) build one `Tree` per
trace from the same random stream and stay as their oracles.  Exact-analysis
functions (`ted_trace_distribution`, `lp_trace_set`, `string_trace_prob`) are
pure enumeration oracles with hard size caps.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .trees import Node, Tree, _dyck_links, _preorder_form, preorder

MODELS = ("string", "ted", "lp")

# Exact enumeration limits: 2^(n-1) deletion subsets / 2^|s| retention masks.
TED_ENUM_CAP = 14
SUBSEQ_ENUM_CAP = 16


class SizeCapError(ValueError):
    """Instance too large for exact enumeration."""


class InvalidDeletionError(ValueError):
    """Deletion set targets the root or an unknown node."""


class StaleTargetError(ValueError):
    """A deletion target was already removed by an earlier label shift."""


def _check_q(q: float) -> None:
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")


def _binary(text: str, name: str | None = None) -> str:
    """text, if it holds only 0 and 1; name is the argument when it is not a trace."""
    if text.strip("01"):  # what is left holds a symbol other than 0 and 1
        raise ValueError(
            "traces must be binary strings" if name is None else f"{name} must be a binary string"
        )
    return text


class Trace(NamedTuple):
    """A tree trace: Dyck word, preorder label string, node ids in preorder.

    The ids are those the dict samplers' tree would carry, so `tree_of`
    rebuilds exactly that tree.
    """

    word: str
    labels: str
    ids: tuple[int, ...]


def trace_of(t: Tree) -> Trace:
    """The Trace of a tree; the inverse of tree_of."""
    return Trace(*_preorder_form(t))


def tree_of(tr: Trace) -> Tree:
    """The Tree of a trace, with its labels and node ids."""
    kids, _ = _dyck_links(tr.word)  # by preorder index
    ids = tr.ids
    nodes = {ids[v]: Node(int(tr.labels[v]), tuple(ids[c] for c in cs))
             for v, cs in enumerate(kids)}
    return Tree(nodes, ids[0], validate=False)


def string_trace(s: str, q: float, rng) -> str:
    """Delete each symbol independently with probability q, keep the rest in order."""
    _check_q(q)
    if len(s) == 0:
        return s
    keep = rng.random(len(s)) >= q
    return "".join(ch for ch, k in zip(s, keep) if k)


def _check_deletions(t: Tree, deleted: Iterable[int]) -> set[int]:
    dels = set(deleted)
    if t.root in dels:
        raise InvalidDeletionError("the root is never deleted")
    unknown = [v for v in dels if v not in t.nodes]
    if unknown:
        raise InvalidDeletionError(f"unknown node ids {sorted(unknown)}")
    return dels


def ted_apply(t: Tree, deleted: Iterable[int]) -> Tree:
    """Remove a set of non-root nodes; children splice into the parent in place.

    Every deleted node's children take its position as a contiguous block in
    the parent's left-to-right order, applied recursively in a single pass.
    """
    dels = _check_deletions(t, deleted)
    if not dels:
        return t
    old = t.nodes
    nodes = dict(old)  # survivors share their records until one changes
    for v in dels:
        del nodes[v]
    # No parent is stored: the records to edit are those listing a deleted child.
    for u in [u for u, nd in nodes.items() if not dels.isdisjoint(nd.children)]:
        kids: list[int] = []
        stack = list(reversed(old[u].children))
        while stack:
            c = stack.pop()
            if c in dels:
                stack.extend(reversed(old[c].children))
            else:
                kids.append(c)
        nodes[u] = Node(old[u].label, tuple(kids))
    return Tree(nodes, t.root, validate=False)


def ted_trace(t: Tree, q: float, rng) -> Tree:
    """Mark each non-root node independently with probability q, then splice."""
    _check_q(q)
    order = preorder(t)[1:]
    if not order:
        return t
    marks = rng.random(len(order)) < q
    dels = {v for v, m in zip(order, marks) if m}
    return ted_apply(t, dels)


def ted_trace_distribution(t: Tree, q: float) -> dict[str, float]:
    """Exact distribution of ted_trace over all 2^(n-1) deletion subsets.

    Keys are the canonical texts of the traces; the probabilities sum to 1.
    """
    _check_q(q)
    if t.n > TED_ENUM_CAP:
        raise SizeCapError(f"n={t.n} exceeds enumeration cap {TED_ENUM_CAP}")
    others = preorder(t)[1:]
    k = len(others)
    p = 1.0 - q
    entries: dict[str, float] = {}
    for mask in range(1 << k):
        dels = {others[i] for i in range(k) if mask >> i & 1}
        prob = (q ** len(dels)) * (p ** (k - len(dels)))
        if prob == 0.0:
            continue
        key = ted_apply(t, dels).canonical()
        entries[key] = entries.get(key, 0.0) + prob
    return entries


def _lp_delete(labels: dict, children: dict, parent: dict, v: int) -> list[int]:
    """One left-propagation deletion at position v on a mutable tree.

    Labels shift one step up the left-only (first-child) path from v and the
    last node of that path is removed.  Returns the path for callers that
    track shifted contents.
    """
    path = [v]
    while children[path[-1]]:
        path.append(children[path[-1]][0])
    for a, b in zip(path, path[1:]):
        labels[a] = labels[b]
    last = path[-1]
    children[parent[last]].remove(last)
    del labels[last], children[last], parent[last]
    return path


def _mutable(t: Tree):
    labels = {v: nd.label for v, nd in t.nodes.items()}
    children = {v: list(nd.children) for v, nd in t.nodes.items()}
    parent = {c: v for v, kids in children.items() for c in kids}  # the root has none
    return labels, children, parent


def _freeze(labels: dict, children: dict, root: int) -> Tree:
    nodes = {v: Node(labels[v], tuple(children[v])) for v in labels}
    return Tree(nodes, root, validate=False)


def lp_apply(t: Tree, deleted: Sequence[int]) -> Tree:
    """Apply left-propagation deletions one at a time in the given order.

    Targets are structural node identifiers; an identifier that an earlier
    deletion's shift removed raises StaleTargetError.
    """
    _check_deletions(t, deleted)
    labels, children, parent = _mutable(t)
    for v in deleted:
        if v not in labels:
            raise StaleTargetError(f"node {v} already removed by an earlier label shift")
        if v == t.root:
            raise InvalidDeletionError("the root is never deleted")
        _lp_delete(labels, children, parent, v)
    return _freeze(labels, children, t.root)


def lp_trace(t: Tree, q: float, rng) -> Tree:
    """Mark non-root nodes with probability q; delete marks in ascending preorder.

    Each mark names a node of the original tree.  Because deletions shift
    labels up left-only paths, a marked node's content may sit at a different
    position by the time its turn comes; the deletion is applied wherever the
    content currently lives, so every mark is effective exactly once.
    """
    _check_q(q)
    order = preorder(t)[1:]
    if not order:
        return t
    marks = rng.random(len(order)) < q
    marked = [v for v, m in zip(order, marks) if m]
    labels, children, parent = _mutable(t)
    pos_of = {v: v for v in t.nodes}  # original node -> current position
    content_at = {v: v for v in t.nodes}
    for c in marked:
        path = _lp_delete(labels, children, parent, pos_of[c])
        for a, b in zip(path, path[1:]):
            moved = content_at[b]
            content_at[a] = moved
            pos_of[moved] = a
        del content_at[path[-1]]
        del pos_of[c]
    return _freeze(labels, children, t.root)


# ---------------------------------------------------------------------------
# Batched samplers.  Row r of rng.random((count, k)) holds the draws that the
# r-th of count sequential dict-sampler calls would make, so both read the
# same stream; k = 0 draws nothing, as the dict samplers do on one node.


class _Layout(NamedTuple):
    """A tree in preorder index space: node i is the i-th node in preorder."""

    ids: np.ndarray  # node id of each index
    word: np.ndarray  # character codes of the Dyck word
    labels: np.ndarray  # character codes of the preorder labels
    walk: np.ndarray  # index of the node each word symbol opens or closes
    kids: list[list[int]]  # child indices of each index


def _layout(t: Tree) -> _Layout:
    word, labels, order = _preorder_form(t)
    kids, walk = _dyck_links(word)
    ids = np.array(order)
    if ids.dtype.kind == "f":  # ids past int64 beside smaller ones: keep them exact
        ids = np.array(order, dtype=object)
    return _Layout(ids, np.frombuffer(word.encode(), np.uint8),
                   np.frombuffer(labels.encode(), np.uint8), np.array(walk, dtype=np.intp), kids)


def _joined(codes: np.ndarray, keep: np.ndarray) -> str:
    """codes[keep[r]] for every row r, decoded and concatenated."""
    return codes[keep.nonzero()[1]].tobytes().decode()


def _bounds(sizes: np.ndarray):
    """Each row's (start, end) in the concatenation of rows of these sizes."""
    ends = sizes.cumsum().tolist()
    return zip([0] + ends[:-1], ends)


def _strings(text: str, keep: np.ndarray) -> list[str]:
    joined = _joined(np.frombuffer(text.encode(), np.uint8), keep)
    return [joined[a:b] for a, b in _bounds(keep.sum(axis=1))]


def _traces(lay: _Layout, nodes: np.ndarray, labels: np.ndarray) -> list[Trace]:
    """Traces that keep the nodes (count x n, by index) and the label positions.

    Every row keeps as many labels as nodes and two word symbols per kept
    non-root node, so one cumulative sum bounds the ids, labels and words.
    """
    ids = lay.ids[nodes.nonzero()[1]].tolist()
    labs = _joined(lay.labels, labels)
    words = _joined(lay.word, nodes[:, lay.walk])
    return [Trace(words[2 * (a - r):2 * (b - r - 1)], labs[a:b], tuple(ids[a:b]))
            for r, (a, b) in enumerate(_bounds(nodes.sum(axis=1)))]


# Built Traces are kept on the source tree, per builder, only for trees with
# at most _MEMO_MARKS non-root nodes: at most 2^12 = 4,096 rows per builder
# (about 1.45 MB at 13 nodes).  They live exactly as long as the tree.
_MEMO_MARKS = 12


def _sampled(t: Tree) -> tuple[_Layout, dict | None]:
    """t's layout and, if t is small enough to keep them, its built rows per builder."""
    kept = getattr(t, "_sampled", None)  # unset until t is first sampled
    if kept is None:
        kept = t._sampled = (_layout(t), {} if t.n - 1 <= _MEMO_MARKS else None)
    return kept


def _sample(t: Tree, q: float, count: int, rng, build) -> list[Trace]:
    """Draw count rows of keep marks, then build only the rows not built before.

    Equal rows share one Trace, which is immutable.  A tree too large to keep
    its rows gets a fresh dict, which dedups within one call.
    """
    _check_q(q)
    keep = np.ones((count, t.n), dtype=bool)
    keep[:, 1:] = rng.random((count, t.n - 1)) >= q
    packed = np.packbits(keep, axis=1)
    # Fixed-width bytes: numpy drops trailing NULs, which keeps equal-width keys distinct.
    keys = packed.view(f"S{packed.shape[1]}").ravel().tolist()
    lay, kept = _sampled(t)
    built = {} if kept is None else kept.setdefault(build, {})
    new = {key: r for r, key in enumerate(keys) if key not in built}
    if new:
        built.update(zip(new, build(lay, keep[list(new.values())])))
    return [built[key] for key in keys]


def string_traces(s: str, q: float, count: int, rng) -> list[str]:
    """count string_trace draws in one call."""
    _check_q(q)
    return _strings(s, rng.random((count, len(s))) >= q)


def ted_traces(t: Tree, q: float, count: int, rng) -> list[Trace]:
    """count ted_trace draws in one call.

    A deleted node's children splice into its place, so a trace's word is the
    source word without the matched 1 and 0 of each deleted node, and its
    labels and ids lose the deleted nodes' positions.
    """
    return _sample(t, q, count, rng, _ted_traces)


def _ted_traces(lay: _Layout, keep: np.ndarray) -> list[Trace]:
    return _traces(lay, keep, keep)


def _lp_removed(marks: list[int], kids: list[list[int]]) -> list[int]:
    """Indices of the nodes that lp_trace removes for marks in ascending order.

    The labels of the survivors are the source labels without the marked
    positions, so the j-th mark, at index i, sits at rank i - j among the
    surviving nodes in preorder, and its deletion removes the first leaf at
    or after that rank: the end of the first-child chain from there.  Ranks
    never decrease, so the walk reads only nodes at or after the current
    rank, each of which has lost only its first nxt[v] children, and the
    chain is kept from one mark to the next.
    """
    nxt = [0] * len(kids)
    removed: list[int] = []
    pending: list[int] = []  # heap of removed indices not yet counted in passed
    passed = 0  # removed indices known to lie below the head
    chain: list[int] = []
    rank = 0
    for j, i in enumerate(marks):
        step, rank = i - j - rank, i - j
        if step < len(chain):
            del chain[:step]
        else:
            # The surviving node at this rank is rank + (removed nodes before it).
            head = rank + passed
            while pending and pending[0] <= head:
                heapq.heappop(pending)
                passed += 1
                head = rank + passed
            chain = [head]
        v = chain[-1]
        while nxt[v] < len(kids[v]):
            v = kids[v][nxt[v]]
            chain.append(v)
        chain.pop()
        if chain:
            nxt[chain[-1]] += 1
        heapq.heappush(pending, v)
        removed.append(v)
    return removed


def _lp_traces(lay: _Layout, labels: np.ndarray) -> list[Trace]:
    marked = ~labels
    rows, cols = marked.nonzero()
    marks = cols.tolist()
    removed: list[int] = []
    for a, b in _bounds(marked.sum(axis=1)):
        removed += _lp_removed(marks[a:b], lay.kids)
    nodes = np.ones_like(labels)
    nodes[rows, removed] = False
    return _traces(lay, nodes, labels)


def lp_traces(t: Tree, q: float, count: int, rng) -> list[Trace]:
    """count lp_trace draws in one call.

    Each deletion removes a leaf, so a trace's word is the source word
    without the matched 1 and 0 of each removed node; its labels lose the
    marked positions instead (see _lp_removed).
    """
    return _sample(t, q, count, rng, _lp_traces)


def lp_trace_set(t: Tree, k: int) -> set[Tree]:
    """All trees reachable by k left-propagation deletions, any targets, any order.

    Implemented as a k-step closure: from each reachable tree, delete at every
    current non-root position.  Step by step this covers every mark subset and
    every application order, because a deletion at a position is exactly a
    deletion of the (not yet deleted) content living there.
    """
    if t.n > TED_ENUM_CAP:
        raise SizeCapError(f"n={t.n} exceeds enumeration cap {TED_ENUM_CAP}")
    if k > t.n - 1:
        raise ValueError(f"k={k} exceeds the {t.n - 1} non-root nodes")
    frontier = {t.canonical(): t}
    for _ in range(k):
        nxt: dict[str, Tree] = {}
        for tree in frontier.values():
            for v in preorder(tree)[1:]:
                labels, children, parent = _mutable(tree)
                _lp_delete(labels, children, parent, v)
                out = _freeze(labels, children, tree.root)
                nxt.setdefault(out.canonical(), out)
        frontier = nxt
    return set(frontier.values())


def count_embeddings(s: str, trace: str) -> int:
    """Number of ways trace occurs in s as a subsequence (exact integer)."""
    m = len(trace)
    dp = [1] + [0] * m
    for ch in s:
        for j in range(m - 1, -1, -1):
            if trace[j] == ch:
                dp[j + 1] += dp[j]
    return dp[m]


def string_trace_prob(s: str, trace: str, q: float) -> float:
    """Exact P[string_trace(s, q) == trace] for binary strings and q in [0, 1].

    Zero when trace is not a subsequence of s.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    n, m = len(_binary(s, "s")), len(_binary(trace))
    if m > n:
        return 0.0
    count = count_embeddings(s, trace)
    if count == 0 or (m < n and q == 0.0) or (m > 0 and q == 1.0):
        return 0.0
    # In log space: count and the powers overflow separately for |s| ~ 1100.
    log_p = m * math.log(1.0 - q) if m else 0.0
    log_q = (n - m) * math.log(q) if m < n else 0.0
    return math.exp(math.log(count) + log_p + log_q)


def distinct_subsequences(s: str) -> set[str]:
    """All distinct subsequences of s, the empty string included."""
    if len(s) > SUBSEQ_ENUM_CAP:
        raise SizeCapError(f"|s|={len(s)} exceeds enumeration cap {SUBSEQ_ENUM_CAP}")
    # Next occurrence of each symbol at or after every position.
    alphabet = sorted(set(s))
    tails: dict[int, set[str]] = {len(s): {""}}

    def from_pos(i: int) -> set[str]:
        if i in tails:
            return tails[i]
        out = {""}
        for ch in alphabet:
            j = s.find(ch, i)
            if j >= 0:
                out.update(ch + rest for rest in from_pos(j + 1))
        tails[i] = out
        return out

    return from_pos(0)
