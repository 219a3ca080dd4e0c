"""Deletion channels: the string channel, the TED tree channel, left propagation.

Sampling functions take an explicit numpy Generator.  The batched samplers
(`string_traces`, `ted_traces`, `lp_traces`) draw all of a trial's traces in
one call and return a tree trace as a `Tree` whose ids are the source ids of
the surviving nodes.  Equal draws on one source tree object with at most 12
non-root nodes share one immutable `Tree`, also across calls (see `_sample`).
The node-table samplers that build one tree per trace from the same random
stream live in tests/oracles.py, as the batched samplers' oracles.
Exact-analysis functions have hard size caps: `string_trace_prob` is pure
enumeration, `trace_law` sends every TED or LP deletion mask through the
samplers' rule, and `lp_trace_set` sends the LP rule only the masks with k marks.
`verify.ted_subset_law` (`ted_apply` on every subset) and `lp_apply`
(tests/oracles.py) are their oracles.

Left propagation (LP) marks each non-root node with probability q and
deletes the marks in ascending preorder.  A deletion at a node shifts the
labels one step up its first-child path and removes the last node of that
path, so each mark's label goes wherever it has moved to.  On the preorder
form that is one pass over the Dyck word with a count of pending
removals.  At a node's `1`, a mark on it adds one.  At its `0`, the node is
removed if a removal is pending, which spends one.  A subtree that opens
with none pending closes with none, since each of its `1`s has its `0`
inside it; so a node with a surviving child has none pending at its `0`,
and only leaves are ever removed.  Survivors keep their depths, and the
survivors' labels are the source labels without the marked positions.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple

import numpy as np

from .trees import Tree, _check_int, _check_real, _dyck_links

MODELS = ("string", "ted", "lp")

# Exact enumeration limits: 2^(n-1) deletion subsets / 2^|s| retention masks.
TED_ENUM_CAP = 14
SUBSEQ_ENUM_CAP = 16


class SizeCapError(ValueError):
    """Instance too large for exact enumeration."""


class InvalidDeletionError(ValueError):
    """Deletion set targets the root or an unknown node."""


def _check_q(q: float) -> None:
    _check_real("q", q)
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q must lie in [0, 1), got {q}")


def _check_draws(q: float, count: int) -> None:
    _check_q(q)
    _check_int("count", count)
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")


def _binary(text: str, name: str | None = None) -> str:
    """text, if it holds only 0 and 1; name is the argument when it is not a trace."""
    if text.strip("01"):  # what is left holds a symbol other than 0 and 1
        raise ValueError(
            "traces must be binary strings" if name is None else f"{name} must be a binary string"
        )
    return text


def _check_deletions(t: Tree, deleted: Iterable[int]) -> set[int]:
    dels = set(deleted)
    if t.root in dels:
        raise InvalidDeletionError("the root is never deleted")
    unknown = dels.difference(t.ids)
    if unknown:
        raise InvalidDeletionError(f"unknown node ids {sorted(unknown)}")
    return dels


def ted_apply(t: Tree, deleted: Iterable[int]) -> Tree:
    """Remove a set of non-root nodes, by id; children splice into the parent in place.

    Every deleted node's children take its position as a contiguous block in
    the parent's left-to-right order.  On the preorder form that is one pass
    over the word: a deleted node's matched 1 and 0 go, as do its label and id.
    """
    dels = _check_deletions(t, deleted)
    if not dels:
        return t
    kept = [v not in dels for v in t.ids]  # by preorder index
    word: list[str] = []
    open_kept: list[bool] = []  # kept flag of each open node
    i = 0
    for ch in t.word:
        if ch == "1":  # opens the next node in preorder
            i += 1
            keep = kept[i]
            open_kept.append(keep)
        else:
            keep = open_kept.pop()
        if keep:
            word.append(ch)
    return Tree("".join(word), "".join(itertools.compress(t.labels, kept)),
                tuple(itertools.compress(t.ids, kept)), validate=False)


# ---------------------------------------------------------------------------
# Batched samplers.  Row r of rng.random((count, k)) holds the draws that the
# r-th of count sequential dict-sampler calls (tests/oracles.py) would make,
# so both read the same stream; k = 0 draws nothing, as they do on one node.


class _Layout(NamedTuple):
    """A tree in preorder index space: node i is the i-th node in preorder."""

    ids: np.ndarray  # node id of each index
    word: np.ndarray  # character codes of the Dyck word
    labels: np.ndarray  # character codes of the preorder labels
    walk: np.ndarray  # index of the node each word symbol opens or closes


def _layout(t: Tree) -> _Layout:
    _, walk = _dyck_links(t.word)
    ids = np.array(t.ids)
    if ids.dtype.kind == "f":  # ids past int64 beside smaller ones: keep them exact
        ids = np.array(t.ids, dtype=object)
    return _Layout(ids, np.frombuffer(t.word.encode(), np.uint8),
                   np.frombuffer(t.labels.encode(), np.uint8), np.array(walk, dtype=np.intp))


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


def _traces(lay: _Layout, nodes: np.ndarray, labels: np.ndarray) -> list[Tree]:
    """The trees that keep the nodes (count x n, by index) and the label positions.

    Every row keeps as many labels as nodes and two word symbols per kept
    non-root node, so one cumulative sum bounds the ids, labels and words.
    """
    ids = lay.ids[nodes.nonzero()[1]].tolist()
    labs = _joined(lay.labels, labels)
    words = _joined(lay.word, nodes[:, lay.walk])
    return [Tree(words[2 * (a - r):2 * (b - r - 1)], labs[a:b], ids[a:b], validate=False)
            for r, (a, b) in enumerate(_bounds(nodes.sum(axis=1)))]


# Built traces are kept on the source tree, per builder, only for trees with
# at most _MEMO_MARKS non-root nodes: at most 2^12 = 4,096 rows per builder
# (about 1.45 MB at 13 nodes).  They live exactly as long as the tree.
_MEMO_MARKS = 12
# A kept row's key is one int below 2^12: bit i is the keep mark of node i + 1.
_KEY_BITS = 1 << np.arange(_MEMO_MARKS)


def _rooted(marks: np.ndarray) -> np.ndarray:
    """Keep rows from rows of non-root keep marks: the root is always kept."""
    keep = np.ones((len(marks), marks.shape[1] + 1), dtype=bool)
    keep[:, 1:] = marks
    return keep


def _sample(t: Tree, q: float, count: int, rng, build) -> list[Tree]:
    """Draw count rows of keep marks and build their traces.

    A tree with at most _MEMO_MARKS non-root nodes keeps its layout and each
    row's trace in `_sampled`, so equal rows share one immutable trace, also
    across calls; a larger tree builds every row it draws and keeps nothing.
    """
    _check_draws(q, count)
    marks = rng.random((count, t.n - 1)) >= q
    if t.n - 1 > _MEMO_MARKS:
        return build(_layout(t), _rooted(marks))
    lay, kept = t._sampled = getattr(t, "_sampled", None) or (_layout(t), {})
    built = kept.setdefault(build, {})
    keys = (marks @ _KEY_BITS[:t.n - 1]).tolist()
    try:  # a kept tree has usually built every row already
        return [built[key] for key in keys]
    except KeyError:
        new = {key: r for r, key in enumerate(keys) if key not in built}
    built.update(zip(new, build(lay, _rooted(marks[list(new.values())]))))
    return [built[key] for key in keys]


def string_traces(s: str, q: float, count: int, rng) -> list[str]:
    """count string traces in one call: each symbol is deleted with probability q."""
    _check_draws(q, count)
    return _strings(s, rng.random((count, len(s))) >= q)


def ted_traces(t: Tree, q: float, count: int, rng) -> list[Tree]:
    """count TED traces in one call: each non-root node is deleted with probability q.

    A deleted node's children splice into its place, so a trace's word is the
    source word without the matched 1 and 0 of each deleted node, and its
    labels and ids lose the deleted nodes' positions.
    """
    return _sample(t, q, count, rng, _ted_traces)


def _ted_traces(lay: _Layout, keep: np.ndarray) -> list[Tree]:
    return _traces(lay, keep, keep)


def _lp_traces(lay: _Layout, labels: np.ndarray) -> list[Tree]:
    """The LP traces of the mark rows ~labels, by the module docstring's counter pass."""
    steps = list(zip((lay.word == ord("1")).tolist(), lay.walk.tolist()))
    nodes = np.ones_like(labels)
    for row, marked in zip(nodes, (~labels).tolist()):
        pending = 0
        for opens, v in steps:
            if opens:
                pending += marked[v]
            elif pending:
                pending -= 1
                row[v] = False
    return _traces(lay, nodes, labels)


def lp_traces(t: Tree, q: float, count: int, rng) -> list[Tree]:
    """count LP traces in one call: each non-root node is marked with probability q.

    Each deletion removes a leaf, so a trace's word is the source word
    without the matched 1 and 0 of each removed node; its labels lose the
    marked positions instead.
    """
    return _sample(t, q, count, rng, _lp_traces)


def _keep_rows(n: int) -> np.ndarray:
    """All 2^(n-1) keep masks of a tree on n nodes: bit i of row r drops node i + 1."""
    if n > TED_ENUM_CAP:
        raise SizeCapError(f"n={n} exceeds enumeration cap {TED_ENUM_CAP}")
    return (np.arange(1 << (n - 1))[:, None] << 1 >> np.arange(n)) & 1 == 0  # the root's bit is 0


def trace_law(t: Tree, q: float, model: str) -> dict[Tree, float]:
    """Exact law of a TED or LP trace of t: all 2^(n-1) masks through the samplers' rule.

    Bit i of row r deletes (TED) or marks (LP) the (i+1)-th non-root node in
    preorder.  A row with d set bits weighs q^d p^(k-d); equal traces sum in
    row order, keyed by the first row's trace, with its source ids.
    """
    _check_q(q)
    build = {"ted": _ted_traces, "lp": _lp_traces}.get(model)
    if build is None:
        raise ValueError(f"model must be 'ted' or 'lp', got {model!r}")
    keep = _keep_rows(t.n)
    k, p = t.n - 1, 1.0 - q
    law: dict[Tree, float] = {}
    for trace, d in zip(build(_layout(t), keep), (t.n - keep.sum(axis=1)).tolist()):
        prob = (q ** d) * (p ** (k - d))
        if prob:
            law[trace] = law.get(trace, 0.0) + prob
    return law


def lp_trace_set(t: Tree, k: int) -> set[Tree]:
    """All trees that k left-propagation deletions can leave, any targets.

    The LP rule on the C(n-1, k) rows of `_keep_rows` with k marks, so the
    support of `lp_traces` with k marks; the tests check it against `lp_apply`.
    """
    _check_int("k", k)
    if not 0 <= k < t.n:
        raise ValueError(f"k={k} must lie in [0, {t.n - 1}], the number of non-root nodes")
    keep = _keep_rows(t.n)
    return set(_lp_traces(_layout(t), keep[keep.sum(axis=1) == t.n - k]))


def count_embeddings(s: str, trace: str) -> int:
    """Number of ways trace occurs in s as a subsequence (exact integer)."""
    m = len(trace)
    at: dict[str, list[int]] = {}  # each symbol's trace positions
    for j in range(m - 1, -1, -1):  # descending, so dp[j] is read before it grows
        at.setdefault(trace[j], []).append(j)
    dp = [1] + [0] * m
    for ch in s:
        for j in at.get(ch, ()):
            dp[j + 1] += dp[j]
    return dp[m]


def string_trace_prob(s: str, trace: str, q: float) -> float:
    """Exact probability that the string channel at rate q turns s into trace.

    For binary strings and q in [0, 1]; zero when trace is not a subsequence of s.
    """
    _check_real("q", q)
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
    out = {""}
    for ch in s:  # each subsequence of the prefix, with and without ch
        out |= {sub + ch for sub in out}
    return out
