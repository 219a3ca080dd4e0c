"""Ordered labeled rooted trees: Dyck encoding, text format, equality.

Child order is significant throughout.  A tree is its preorder form: its
Dyck word, its preorder label string and its node ids in preorder.  The
ids are arbitrary ints and stay stable when a tree passes through a
deletion channel, so deletions can be tracked; equality and hashing look
only at the word and the labels.  One parse (`_dyck_links`) reads a Dyck
word's child lists, and one walk (`_walk`) turns child lists into a word.

The package's number rule lives here too, in the module every other one
imports: `_check_int` takes only a Python int as a count or size, and
`_check_real` any real number but a bool as a rate.
"""

from __future__ import annotations

import numbers
from typing import Iterator, Sequence


def _check_int(name: str, value) -> None:
    """Raise ValueError unless value is an int.

    A bool is not one, nor is a numpy integer, whose arithmetic wraps at 64
    bits where an int grows.
    """
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_real(name: str, value) -> None:
    """Raise ValueError unless value is a real number; a bool is not one.

    numbers.Real is an ABC, whose check is several times slower than a type
    test, the more so on its first call; so a float passes before it runs.
    """
    if not isinstance(value, float) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


class TreeTextError(ValueError):
    """Malformed tree text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class DyckStringError(ValueError):
    """Input is not a balanced Dyck word over {0,1}."""


class Tree:
    """Ordered rooted tree with one bit label per node, in preorder form.

    ``word`` is the Dyck word of the edge walk (a 1 per descent into a node,
    a 0 per ascent out of it; length 2(n-1)), ``labels`` the n label bits in
    preorder, and ``ids`` the n node ids in preorder, 0..n-1 unless given.
    An unlabeled tree is one whose labels are all zero.  Instances are
    immutable after construction; on one with at most 12 non-root nodes, the
    batched samplers keep the traces they build in ``_sampled`` (channels._sample).
    """

    __slots__ = ("word", "labels", "ids", "_sampled")

    def __init__(self, word: str, labels: str, ids: Sequence[int] | None = None,
                 validate: bool = True):
        self.word = word
        self.labels = labels
        self.ids = tuple(range(len(labels))) if ids is None else tuple(ids)
        if validate:
            self._validate()

    def _validate(self):
        if self.word.strip("01"):  # what is left holds a symbol other than 0 and 1
            raise DyckStringError(f"non-binary symbol in {self.word!r}")
        n = len(_dyck_links(self.word)[0])
        _check_labels(self.labels, n)
        if len(self.ids) != n or len(set(self.ids)) != n:
            raise ValueError(f"need {n} distinct node ids, got {self.ids!r}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def root(self) -> int:
        return self.ids[0]

    def children(self) -> dict[int, tuple[int, ...]]:
        """Each node's child ids, left to right, by node id."""
        kids, _ = _dyck_links(self.word)
        ids = self.ids
        return {ids[v]: tuple(ids[c] for c in cs) for v, cs in enumerate(kids)}

    def with_labels(self, labels: str) -> "Tree":
        """Copy of this tree with the given preorder labels.

        Only the labels are checked: the word and ids are this tree's own.
        """
        _check_labels(labels, self.n)
        return Tree(self.word, labels, self.ids, validate=False)

    def canonical(self) -> str:
        return format_tree(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.word == other.word and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.word, self.labels))

    def __repr__(self) -> str:
        return f"Tree({self.canonical()!r})"


def _check_labels(labels: str, n: int) -> None:
    if len(labels) != n or labels.strip("01"):
        raise ValueError(f"need {n} label bits, got {labels!r}")


def _dyck_links(word: str) -> tuple[list[list[int]], list[int]]:
    """Parse a Dyck word: each node's child indices, and each symbol's node.

    Index i is the i-th node in preorder, the root is 0, and symbol j opens
    (1) or closes (0) node walk[j].  Raises DyckStringError if unbalanced.
    """
    kids: list[list[int]] = [[]]
    walk: list[int] = []
    stack = [0]
    for ch in word:
        if ch == "1":
            v = len(kids)
            kids[stack[-1]].append(v)
            kids.append([])
            stack.append(v)
            walk.append(v)
        elif len(stack) > 1:
            walk.append(stack.pop())
        else:  # walk holds one entry per symbol read so far
            raise DyckStringError(f"unmatched 0 at position {len(walk)}")
    if len(stack) != 1:
        raise DyckStringError("unmatched 1s remain at end of input")
    return kids, walk


def _walk(kids, root: int) -> tuple[str, tuple[int, ...]]:
    """Dyck word and preorder ids of the tree whose child ids of v are kids[v]."""
    ids, word = [root], []
    stack = [iter(kids[root])]  # each open node's unvisited children
    while stack:
        v = next(stack[-1], None)  # ids are ints: None closes the node
        if v is None:
            stack.pop()
            word.append("0")
            continue
        ids.append(v)
        word.append("1")
        stack.append(iter(kids[v]))
    word.pop()  # the root has no closing 0
    return "".join(word), tuple(ids)


def tree_from_dyck(word: str) -> Tree:
    """The tree with this Dyck word; all labels zero, ids 0..n-1 in preorder.

    Raises DyckStringError if the word is not a balanced word over {0,1}.
    """
    return Tree(word, "0" * (word.count("1") + 1))


def format_tree(t: Tree) -> str:
    """Canonical text per the grammar node := LABEL ["(" node ("," node)* ")"].

    One pass over the word: a 1 opens a child list after a 1 and follows a
    sibling after a 0, then writes its node's label; a 0 after a 0 closes a
    child list, and the root's list closes at the end.
    """
    labels = iter(t.labels)
    out = [next(labels)]
    for prev, ch in zip("1" + t.word, t.word):
        if ch == "1":
            out.append(("(" if prev == "1" else ",") + next(labels))
        elif prev == "0":
            out.append(")")
    if t.word:
        out.append(")")
    return "".join(out)


def parse_tree(text: str) -> Tree:
    """Parse the tree grammar; whitespace between tokens is ignored.

    Iterative, so depth is bounded by memory, not the recursion limit.
    """
    labels: list[str] = []
    word: list[str] = []
    depth = 0  # nodes whose child list is being read
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    i = skip_ws(0)
    while True:
        if i >= n or text[i] not in "01":
            raise TreeTextError("expected label 0 or 1", i)
        labels.append(text[i])
        if depth:
            word.append("1")
        i = skip_ws(i + 1)
        if i < n and text[i] == "(":
            depth += 1
            i = skip_ws(i + 1)
            continue
        # The node is complete: close child lists until a sibling follows.
        while depth:
            word.append("0")
            if i < n and text[i] == ",":
                i = skip_ws(i + 1)
                break
            if i >= n or text[i] != ")":
                raise TreeTextError("expected ',' or ')'", i)
            depth -= 1
            i = skip_ws(i + 1)
        else:
            break
    if i != n:
        raise TreeTextError("trailing input after tree", i)
    return Tree("".join(word), "".join(labels), validate=False)


def dyck_words(pairs: int) -> Iterator[str]:
    """Every Dyck word with `pairs` 1s, trying 1 before 0 at each position.

    One stack of (prefix, 1s left, open nodes): the 0-branch goes on first,
    so the 1-branch comes off first.
    """
    _check_int("pairs", pairs)
    if pairs < 0:
        raise ValueError("need pairs >= 0")
    stack = [("", pairs, 0)]
    while stack:
        prefix, ones_left, open_count = stack.pop()
        if ones_left == 0:
            yield prefix + "0" * open_count
            continue
        if open_count > 0:
            stack.append((prefix + "0", ones_left, open_count - 1))
        stack.append((prefix + "1", ones_left - 1, open_count + 1))


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All ordered rooted trees with n nodes (Catalan(n-1) many), labels zero."""
    _check_int("n", n)
    if n < 1:
        raise ValueError("need n >= 1")
    for word in dyck_words(n - 1):
        yield tree_from_dyck(word)


def is_fuzzy(t: Tree, m: int) -> bool:
    """True when every terminal leaf has exactly m-1 siblings.

    A leaf is terminal when all of its siblings are leaves, i.e. its parent's
    children are all leaves; such a parent must then have exactly m children.
    """
    kids = t.children()
    return all(len(cs) == m for cs in kids.values() if cs and not any(kids[c] for c in cs))
