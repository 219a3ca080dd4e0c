"""Reference code that only the tests call.

The node-table model: a tree as a table {id: (label, child ids)}, read from
a `Tree` by `table_of` (through `Tree.children`) and back by
`tree_of_table` (through `trees._walk`).  On tables live `ted_splice`, the
splice that `channels.ted_apply` is checked against, `format_tree`, the
stack-walk formatter that `trees.format_tree` is checked against, and the
dict samplers and dict-based left propagation, the oracles of the batched
channels: each sampler builds one `Tree` (or str) per trace.  Call r of
count sequential calls reads the draws of row r of a batched sampler's
rng.random((count, k)), so `string_traces`, `ted_traces` and `lp_traces`
must return exactly these draws from a generator seeded alike.  `lp_apply`
deletes by node id on a mutable dict tree: the definition of left
propagation that `channels.lp_trace_set` and the LP rule are checked against.
`lp_marked` is `lp_trace` on a fixed mark set, and `ted_splice` is
`ted_trace`'s: applied to every mark row, they give the exact laws that
`channels.trace_law` is pinned to.

`fuzzy_words` lists a fuzzy class member by member: the class oracle of
`random_fuzzy_tree` and of the fuzzy decoder's candidates.  It lists each
class's skeletons with `peaked_dyck_words`, the Dyck words with a given
number of peaks.  `dyck_words`, one recursive generator per symbol, is the
order oracle of `trees.dyck_words`.

`ml_piece_scores` is the tally-order loop that scored a trie piece before
`string_recon._piece_scores` did it in one array pass, which must give the
same bytes.

`count_embeddings` is the full O(|s| |t|) embedding DP, and
`subsequence_mean_vector` the expected padded trace summed over the
distinct subsequences and their exact laws: the references of
`channels.count_embeddings` and `verify.enumeration_mean_vector`.

Also two statistics the tests measure: `distinguish_pair`, the
single-coordinate test between two candidate strings, and
`encoded_removal_stats`, leaf survival counts in encoded-family traces.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from treetrace.channels import (
    InvalidDeletionError,
    _check_deletions,
    _check_q,
    distinct_subsequences,
    string_trace_prob,
)
from treetrace.instances import _fuzzy_word, encoded_leaf_id, encoded_parent_id
from treetrace.string_recon import empirical_mean_vector, exact_mean_vector, find_separation
from treetrace.trees import Tree, _walk

Table = dict[int, tuple[int, tuple[int, ...]]]


def table_of(t: Tree) -> Table:
    """t's node table: each id's label and child ids, left to right."""
    kids = t.children()
    return {v: (int(b), kids[v]) for v, b in zip(t.ids, t.labels)}


def tree_of_table(table: Table, root: int) -> Tree:
    """The tree of a node table; every node must be reachable from the root."""
    word, ids = _walk({v: kids for v, (_, kids) in table.items()}, root)
    assert len(ids) == len(table), "unreachable nodes in the table"
    return Tree(word, "".join(str(table[v][0]) for v in ids), ids)


def form(t: Tree) -> tuple[str, str, tuple[int, ...]]:
    """Everything a tree holds: equality ignores the ids, this does not."""
    return t.word, t.labels, t.ids


def ted_splice(t: Tree, deleted) -> Tree:
    """Remove non-root nodes by id; each deleted node's children splice into its place.

    Only the records that list a deleted child change: each takes its
    children's survivor blocks, found by a stack walk through deleted nodes.
    """
    dels = _check_deletions(t, deleted)
    if not dels:
        return t
    old = table_of(t)
    nodes = {v: rec for v, rec in old.items() if v not in dels}
    for u in [u for u, (_, kids) in nodes.items() if not dels.isdisjoint(kids)]:
        kids: list[int] = []
        stack = list(reversed(old[u][1]))
        while stack:
            c = stack.pop()
            if c in dels:
                stack.extend(reversed(old[c][1]))
            else:
                kids.append(c)
        nodes[u] = (old[u][0], tuple(kids))
    return tree_of_table(nodes, t.root)


def format_tree(t: Tree) -> str:
    """Canonical text by a stack walk over the node table, one frame per open node."""
    nodes = table_of(t)
    label, kids = nodes[t.root]
    if not kids:
        return str(label)
    out = [f"{label}("]
    stack = [iter(kids)]  # each open node's unwritten children
    first = True
    while stack:
        v = next(stack[-1], None)  # ids are ints: None ends a frame
        if v is None:
            stack.pop()
            out.append(")")
            first = False
            continue
        label, kids = nodes[v]
        out.append(str(label) if first else f",{label}")
        if kids:
            out.append("(")
            stack.append(iter(kids))
            first = True
        else:
            first = False
    return "".join(out)


class StaleTargetError(ValueError):
    """A deletion target was already removed by an earlier label shift."""


def string_trace(s: str, q: float, rng) -> str:
    """Delete each symbol independently with probability q, keep the rest in order."""
    _check_q(q)
    if len(s) == 0:
        return s
    keep = rng.random(len(s)) >= q
    return "".join(ch for ch, k in zip(s, keep) if k)


def ted_trace(t: Tree, q: float, rng) -> Tree:
    """Mark each non-root node independently with probability q, then splice."""
    _check_q(q)
    order = t.ids[1:]
    if not order:
        return t
    marks = rng.random(len(order)) < q
    return ted_splice(t, {v for v, m in zip(order, marks) if m})


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
    table = table_of(t)
    labels = {v: label for v, (label, _) in table.items()}
    children = {v: list(kids) for v, (_, kids) in table.items()}
    parent = {c: v for v, kids in children.items() for c in kids}  # the root has none
    return labels, children, parent


def _freeze(labels: dict, children: dict, root: int) -> Tree:
    return tree_of_table({v: (labels[v], tuple(children[v])) for v in labels}, root)


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
    """Mark non-root nodes with probability q; delete marks in ascending preorder."""
    _check_q(q)
    order = t.ids[1:]
    if not order:
        return t
    marks = rng.random(len(order)) < q
    return lp_marked(t, [v for v, m in zip(order, marks) if m])


def lp_marked(t: Tree, marked: Sequence[int]) -> Tree:
    """Delete the marked nodes, in the given order, by left propagation.

    Each mark names a node of the original tree.  Because deletions shift
    labels up left-only paths, a marked node's content may sit at a different
    position by the time its turn comes; the deletion is applied wherever the
    content currently lives, so every mark is effective exactly once.
    """
    labels, children, parent = _mutable(t)
    pos_of = {v: v for v in t.ids}  # original node -> current position
    content_at = {v: v for v in t.ids}
    for c in marked:
        path = _lp_delete(labels, children, parent, pos_of[c])
        for a, b in zip(path, path[1:]):
            moved = content_at[b]
            content_at[a] = moved
            pos_of[moved] = a
        del content_at[path[-1]]
        del pos_of[c]
    return _freeze(labels, children, t.root)


def fuzzy_words(n: int, m: int, lam: int) -> Iterator[str]:
    """Dyck words of the fuzzy trees on n nodes whose skeleton has lam leaves.

    The skeleton words have n - m*lam nodes and lam peaks (a one-node
    skeleton has none), each built out by _fuzzy_word.  This is the
    class random_fuzzy_tree samples from and reconstruct_fuzzy searches.
    """
    k = n - m * lam
    for skeleton in peaked_dyck_words(k - 1, lam if k > 1 else 0):
        yield _fuzzy_word(skeleton, m)


def dyck_words(pairs: int) -> Iterator[str]:
    """Every Dyck word with `pairs` 1s, 1 before 0 at each position, by one
    generator per symbol: the order oracle of `trees.dyck_words`.
    """
    if pairs < 0:
        raise ValueError("need pairs >= 0")

    def words(ones_left: int, open_count: int) -> Iterator[str]:
        if ones_left == 0:
            yield "0" * open_count
            return
        for w in words(ones_left - 1, open_count + 1):
            yield "1" + w
        if open_count > 0:
            for w in words(ones_left, open_count - 1):
                yield "0" + w

    yield from words(pairs, 0)


def peaked_dyck_words(pairs: int, peaks: int) -> Iterator[str]:
    """The Dyck words with `pairs` 1s and exactly `peaks` factors 10, in
    `trees.dyck_words` order; for pairs >= 1 these are the trees with that
    many leaves (Narayana many).
    """
    if pairs < 0:
        raise ValueError("need pairs >= 0")

    def words(ones_left: int, open_count: int, peaks_left: int, after_one: bool) -> Iterator[str]:
        # The rest of the word makes between lo and hi peaks: each 1 still to
        # come can start one, as can a 1 just written, and the last 1 of the
        # word is always followed by a 0.  Pruning outside that range leaves
        # no dead branches, so the cost follows the words yielded.
        lo = 1 if ones_left else int(after_one)
        if not lo <= peaks_left <= ones_left + after_one:
            return
        if ones_left == 0:
            yield "0" * open_count
            return
        for w in words(ones_left - 1, open_count + 1, peaks_left, True):
            yield "1" + w
        if open_count > 0:
            for w in words(ones_left, open_count - 1, peaks_left - after_one, False):
                yield "0" + w

    yield from words(pairs, 0, peaks, False)


def ml_piece_scores(tally: Mapping[str, int], n: int, q: float, counts: np.ndarray) -> np.ndarray:
    """Each candidate's log-likelihood, one trace at a time in tally order.

    counts[k, t] embeds the t-th trace of tally in the k-th candidate.
    """
    log_q = math.log(q) if q > 0 else -math.inf
    log_p = math.log(1.0 - q)
    piece = np.zeros(len(counts))
    for t, (text, mult) in enumerate(tally.items()):
        ll = np.log(counts[:, t], dtype=float)
        ll += len(text) * log_p
        drop = n - len(text)
        if drop > 0:
            ll += drop * log_q  # -inf when q == 0 and symbols were dropped
        piece += mult * ll
    return piece


def count_embeddings(s: str, trace: str) -> int:
    """Number of ways trace occurs in s as a subsequence, every (symbol, position) visited."""
    m = len(trace)
    dp = [1] + [0] * m
    for ch in s:
        for j in range(m - 1, -1, -1):
            if trace[j] == ch:
                dp[j + 1] += dp[j]
    return dp[m]


def subsequence_mean_vector(s: str, q: float) -> np.ndarray:
    """Expected padded trace: each distinct subsequence weighted by its exact law."""
    acc = np.zeros(len(s))
    for t in distinct_subsequences(s):
        if t:
            prob = string_trace_prob(s, t, q)
            acc[: len(t)] += prob * (np.frombuffer(t.encode(), np.uint8) - ord("0"))
    return acc


def distinguish_pair(x: str, y: str, traces: Sequence[str], q: float) -> str:
    """Pick whichever candidate's exact mean is closer at the witness coordinate."""
    wit = find_separation(x, y, q)
    emp = empirical_mean_vector(traces, len(x))[wit.j]
    dx = abs(emp - exact_mean_vector(x, q)[wit.j])
    dy = abs(emp - exact_mean_vector(y, q)[wit.j])
    if dx < dy:
        return x
    if dy < dx:
        return y
    return min(x, y)


def encoded_removal_stats(traces: Sequence[Tree], s_len: int, ell: int) -> dict[str, float]:
    """Leaf survival statistics across traces for the encoding family.

    complete_removal counts (trace, position) pairs where the leaf and its
    parent are both gone, the event that erases all positional evidence.
    """
    complete = both_alive = leaf_only = parent_only = 0
    for tr in traces:
        present = set(tr.ids)
        for i in range(1, s_len + 1):
            leaf_in = encoded_leaf_id(s_len, ell, i) in present
            par_in = encoded_parent_id(ell, i) in present
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
