"""Ordered labeled rooted trees: traversal, Dyck encoding, text format, equality.

Child order is significant throughout.  A node records its label and its
children only; the shape is stored once, in the child lists.  Node
identifiers are arbitrary ints and stay stable when a tree passes through a
deletion channel, so deletions can be tracked; equality and hashing look
only at shape and labels.  One preorder walk (`_preorder_form`) reads a tree
out as its Dyck word, labels and ids, and one parse (`_dyck_links`) reads a
Dyck word back in.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple


class TreeTextError(ValueError):
    """Malformed tree text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class DyckStringError(ValueError):
    """Input is not a balanced Dyck word over {0,1}."""


class Node(NamedTuple):
    """A node's label and its children's ids, left to right; nothing else."""

    label: int
    children: tuple[int, ...] = ()


class Tree:
    """Ordered rooted tree with one bit label per node.

    ``nodes`` maps identifier -> Node, which holds the label and the child
    ids only: a parent is known from its child list, never stored beside it.
    An unlabeled tree is one whose labels are all zero.  Instances are
    immutable after construction; the batched samplers keep what they derive
    from one in ``_sampled`` (channels._sampled).
    """

    __slots__ = ("nodes", "root", "_canon", "_sampled")

    def __init__(self, nodes: Mapping[int, Node], root: int, validate: bool = True):
        # dict.copy keeps the table's layout; dict() re-inserts item by item,
        # which is slow on the holey tables that deletions leave.
        self.nodes = nodes.copy() if type(nodes) is dict else dict(nodes)
        self.root = root
        self._canon: str | None = None
        if validate:
            self._validate()

    def _validate(self):
        # With no parent field, a root listed as a child or a child listed
        # under two parents shows up as a node reached twice or unreachable.
        if self.root not in self.nodes:
            raise ValueError("root identifier missing from node table")
        seen = set()
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v in seen:
                raise ValueError(f"node {v} reached twice (cycle or shared child)")
            seen.add(v)
            node = self.nodes[v]
            if node.label not in (0, 1):
                raise ValueError(f"label of node {v} must be a bit, got {node.label}")
            for c in node.children:
                if c not in self.nodes:
                    raise ValueError(f"child {c} of node {v} missing from node table")
                stack.append(c)
        if seen != set(self.nodes):
            raise ValueError("unreachable nodes present")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def children_of(self, v: int) -> tuple[int, ...]:
        return self.nodes[v].children

    def is_leaf(self, v: int) -> bool:
        return not self.nodes[v].children

    def with_labels(self, labels: Mapping[int, int]) -> "Tree":
        """Copy of this tree with labels replaced where the mapping says so."""
        nodes = {
            v: Node(labels.get(v, nd.label), nd.children)
            for v, nd in self.nodes.items()
        }
        return Tree(nodes, self.root, validate=False)

    def canonical(self) -> str:
        if self._canon is None:
            self._canon = format_tree(self)
        return self._canon

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"Tree({self.canonical()!r})"


def preorder(t: Tree) -> list[int]:
    """Root first, then each subtree left to right."""
    nodes = t.nodes
    out = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack += nodes[v].children[::-1]
    return out


def _preorder_form(t: Tree) -> tuple[str, str, tuple[int, ...]]:
    """t's Dyck word, preorder label string and preorder ids, in one walk.

    The word has a 1 per descent into a node and a 0 per ascent out of it.
    """
    nodes = t.nodes
    root = nodes[t.root]
    ids, labels, word = [t.root], [str(root.label)], []
    stack = [iter(root.children)]  # each open node's unvisited children
    while stack:
        v = next(stack[-1], None)  # ids are ints: None closes the node
        if v is None:
            stack.pop()
            word.append("0")
            continue
        nd = nodes[v]
        ids.append(v)
        labels.append(str(nd.label))
        word.append("1")
        stack.append(iter(nd.children))
    word.pop()  # the root has no closing 0
    return "".join(word), "".join(labels), tuple(ids)


def preorder_label_string(t: Tree) -> str:
    """Labels read off in preorder; length equals the node count."""
    return _preorder_form(t)[1]


def dyck_string(t: Tree) -> str:
    """Balanced word of the edge walk: 1 per descent, 0 per ascent; length 2(n-1)."""
    return _preorder_form(t)[0]


def _dyck_links(word: str) -> tuple[list[list[int]], list[int]]:
    """Parse a Dyck word: each node's child indices, and each symbol's node.

    Node i is the i-th node in preorder, the root is 0, and symbol j opens
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


def tree_from_dyck(word: str) -> Tree:
    """Inverse of dyck_string; all labels zero, ids 0..n-1 in preorder.

    Raises DyckStringError if the word is not a balanced word over {0,1}.
    """
    if set(word) - {"0", "1"}:
        raise DyckStringError(f"non-binary symbol in {word!r}")
    kids, _ = _dyck_links(word)
    return Tree({v: Node(0, tuple(c)) for v, c in enumerate(kids)}, 0, validate=False)


def trees_equal(a: Tree, b: Tree) -> bool:
    """Shape and labels match from the roots; node identifiers are ignored."""
    return a.canonical() == b.canonical()


def format_tree(t: Tree) -> str:
    """Canonical text per the grammar node := LABEL ["(" node ("," node)* ")"]."""
    nodes = t.nodes
    root = nodes[t.root]
    if not root.children:
        return str(root.label)
    out = [f"{root.label}("]
    stack = [iter(root.children)]  # each open node's unwritten children
    first = True
    while stack:
        v = next(stack[-1], None)  # ids are ints: None ends a frame
        if v is None:
            stack.pop()
            out.append(")")
            first = False
            continue
        node = nodes[v]
        out.append(str(node.label) if first else f",{node.label}")
        if node.children:
            out.append("(")
            stack.append(iter(node.children))
            first = True
        else:
            first = False
    return "".join(out)


def parse_tree(text: str) -> Tree:
    """Parse the tree grammar; whitespace between tokens is ignored.

    Iterative, so depth is bounded by memory, not the recursion limit.
    """
    labels: list[int] = []
    kids: list[list[int]] = []
    open_nodes: list[int] = []  # nodes whose child list is being read
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    i = skip_ws(0)
    while True:
        if i >= n or text[i] not in "01":
            raise TreeTextError("expected label 0 or 1", i)
        v = len(labels)  # ids follow preorder
        labels.append(int(text[i]))
        kids.append([])
        if open_nodes:
            kids[open_nodes[-1]].append(v)
        i = skip_ws(i + 1)
        if i < n and text[i] == "(":
            open_nodes.append(v)
            i = skip_ws(i + 1)
            continue
        # v is complete: close child lists until a sibling follows.
        while open_nodes:
            if i < n and text[i] == ",":
                i = skip_ws(i + 1)
                break
            if i >= n or text[i] != ")":
                raise TreeTextError("expected ',' or ')'", i)
            open_nodes.pop()
            i = skip_ws(i + 1)
        else:
            break
    if i != n:
        raise TreeTextError("trailing input after tree", i)
    nodes = {v: Node(labels[v], tuple(kids[v])) for v in range(len(labels))}
    return Tree(nodes, 0, validate=False)


def dyck_words(pairs: int) -> Iterator[str]:
    """Every Dyck word with `pairs` 1s, trying 1 before 0 at each position."""
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


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All ordered rooted trees with n nodes (Catalan(n-1) many), labels zero."""
    if n < 1:
        raise ValueError("need n >= 1")
    for word in dyck_words(n - 1):
        yield tree_from_dyck(word)


def is_fuzzy(t: Tree, m: int) -> bool:
    """True when every terminal leaf has exactly m-1 siblings.

    A leaf is terminal when all of its siblings are leaves, i.e. its parent's
    children are all leaves; such a parent must then have exactly m children.
    """
    for v in t.nodes:
        kids = t.nodes[v].children
        if kids and all(t.is_leaf(c) for c in kids) and len(kids) != m:
            return False
    return True
