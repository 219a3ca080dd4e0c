"""Deletion channels: the string channel, the TED tree channel, left propagation.

Sampling functions take an explicit numpy Generator; exact-analysis functions
(`ted_trace_distribution`, `lp_trace_set`, `string_trace_prob`) are pure
enumeration oracles with hard size caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .trees import Node, SymbolString, Tree, preorder

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


@dataclass(frozen=True)
class ChannelSpec:
    """Deletion model plus deletion probability q (retention p = 1 - q)."""

    model: str
    q: float

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q must lie in [0, 1), got {self.q}")

    @property
    def p(self) -> float:
        return 1.0 - self.q


@dataclass(frozen=True)
class TraceDistribution:
    """Exact trace distribution; keys are canonical tree texts (or raw strings)."""

    entries: Mapping[str, float]

    def __post_init__(self):
        total = sum(self.entries.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        if any(p < 0 or p > 1 for p in self.entries.values()):
            raise ValueError("probability outside [0, 1]")

    def __getitem__(self, key: str) -> float:
        return self.entries[key]

    def __len__(self) -> int:
        return len(self.entries)

    def items(self):
        return self.entries.items()


def string_trace(s: SymbolString, q: float, rng) -> SymbolString:
    """Delete each symbol independently with probability q, keep the rest in order."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if len(s) == 0:
        return s
    keep = rng.random(len(s)) >= q
    kept = "".join(ch for ch, k in zip(s.symbols, keep) if k)
    return SymbolString(kept, s.alphabet)


def _check_deletions(t: Tree, deleted: Iterable[int]) -> set[int]:
    dels = set(deleted)
    if t.root in dels:
        raise InvalidDeletionError("the root is never deleted")
    unknown = dels - set(t.nodes)
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
    order = preorder(t)
    # expand[v]: the contiguous survivor block that stands where v stood.
    expand: dict[int, list[int]] = {}
    for v in reversed(order):
        if v in dels:
            block: list[int] = []
            for c in t.nodes[v].children:
                block.extend(expand[c])
            expand[v] = block
        else:
            expand[v] = [v]
    nodes: dict[int, Node] = {}
    stack = [(t.root, None)]
    while stack:
        v, par = stack.pop()
        kids: list[int] = []
        for c in t.nodes[v].children:
            kids.extend(expand[c])
        nodes[v] = Node(t.nodes[v].label, tuple(kids), par)
        stack.extend((c, v) for c in kids)
    return Tree(nodes, t.root, validate=False)


def ted_trace(t: Tree, q: float, rng) -> Tree:
    """Mark each non-root node independently with probability q, then splice."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
    order = preorder(t)[1:]
    if not order:
        return t
    marks = rng.random(len(order)) < q
    dels = {v for v, m in zip(order, marks) if m}
    return ted_apply(t, dels)


def ted_trace_distribution(t: Tree, q: float) -> TraceDistribution:
    """Exact distribution of ted_trace over all 2^(n-1) deletion subsets."""
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
    return TraceDistribution(entries)


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
    parent = {v: nd.parent for v, nd in t.nodes.items()}
    return labels, children, parent


def _freeze(labels: dict, children: dict, parent: dict, root: int) -> Tree:
    nodes = {v: Node(labels[v], tuple(children[v]), parent[v]) for v in labels}
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
    return _freeze(labels, children, parent, t.root)


def lp_trace(t: Tree, q: float, rng) -> Tree:
    """Mark non-root nodes with probability q; delete marks in ascending preorder.

    Each mark names a node of the original tree.  Because deletions shift
    labels up left-only paths, a marked node's content may sit at a different
    position by the time its turn comes; the deletion is applied wherever the
    content currently lives, so every mark is effective exactly once.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")
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
    return _freeze(labels, children, parent, t.root)


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
                out = _freeze(labels, children, parent, tree.root)
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


def string_trace_prob(s: SymbolString, trace: SymbolString, q: float) -> float:
    """Exact P[string_trace(s, q) == trace]; zero when trace is not a subsequence."""
    if set(trace.alphabet) - set(s.alphabet):
        raise ValueError("trace alphabet must be contained in source alphabet")
    n, m = len(s), len(trace)
    if m > n:
        return 0.0
    count = count_embeddings(s.symbols, trace.symbols)
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
