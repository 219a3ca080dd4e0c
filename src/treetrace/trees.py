"""Ordered labeled rooted trees: traversal, Dyck encoding, text format, equality.

Child order is significant throughout.  Node identifiers are arbitrary ints
and stay stable when a tree passes through a deletion channel, so deletions
can be tracked; equality and hashing look only at shape and labels.
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
    label: int
    children: tuple[int, ...] = ()
    parent: int | None = None


class Tree:
    """Ordered rooted tree with one bit label per node.

    ``nodes`` maps identifier -> Node; an unlabeled tree is one whose labels
    are all zero.  Instances are immutable after construction; the batched
    samplers keep what they derive from one in ``_sampled`` (channels._sampled).
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
        if self.root not in self.nodes:
            raise ValueError("root identifier missing from node table")
        if self.nodes[self.root].parent is not None:
            raise ValueError("root must have no parent")
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
                if self.nodes[c].parent != v:
                    raise ValueError(f"parent pointer of {c} inconsistent with child list of {v}")
                stack.append(c)
        if seen != set(self.nodes):
            raise ValueError("unreachable nodes present")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def label_of(self, v: int) -> int:
        return self.nodes[v].label

    def children_of(self, v: int) -> tuple[int, ...]:
        return self.nodes[v].children

    def parent_of(self, v: int) -> int | None:
        return self.nodes[v].parent

    def is_leaf(self, v: int) -> bool:
        return not self.nodes[v].children

    def leaves(self) -> list[int]:
        return [v for v in preorder(self) if self.is_leaf(v)]

    def with_labels(self, labels: Mapping[int, int]) -> "Tree":
        """Copy of this tree with labels replaced where the mapping says so."""
        nodes = {
            v: Node(labels.get(v, nd.label), nd.children, nd.parent)
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


def build_tree(spec) -> Tree:
    """Build a tree from nested (label, [children...]) pairs; ids follow preorder.

    Iterative, so depth is bounded by memory, not the recursion limit.
    """
    labels: list[int] = []
    parents: list[int | None] = []
    kids: list[list[int]] = []
    stack = [(spec, None)]
    while stack:
        item, parent = stack.pop()
        if isinstance(item, int):
            label, sub = item, ()
        else:
            label, sub = item
        v = len(labels)
        labels.append(label)
        parents.append(parent)
        kids.append([])
        if parent is not None:
            kids[parent].append(v)
        for kid in reversed(sub):
            stack.append((kid, v))
    nodes = {v: Node(*row) for v, row in enumerate(zip(labels, map(tuple, kids), parents))}
    return Tree(nodes, 0)


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


def preorder_label_string(t: Tree) -> str:
    """Labels read off in preorder; length equals the node count."""
    return "".join(str(t.nodes[v].label) for v in preorder(t))


def _euler_walk(t: Tree) -> Iterator[tuple[str, int]]:
    """Depth-first edge walk: ('1', v) descending into v, ('0', v) ascending out."""
    # Explicit stack of (node, next-child-index) to keep deep chains safe.
    stack = [(t.root, 0)]
    while stack:
        v, i = stack.pop()
        kids = t.nodes[v].children
        if i < len(kids):
            stack.append((v, i + 1))
            c = kids[i]
            yield "1", c
            stack.append((c, 0))
        elif v != t.root:
            yield "0", v


def dyck_string(t: Tree) -> str:
    """Balanced word of the edge walk: 1 per descent, 0 per ascent; length 2(n-1)."""
    return "".join(sym for sym, _ in _euler_walk(t))


def tree_from_dyck(word: str) -> Tree:
    """Inverse of dyck_string; all labels zero.  Raises DyckStringError if unbalanced."""
    if set(word) - {"0", "1"}:
        raise DyckStringError(f"non-binary symbol in {word!r}")
    children: list[list[int]] = [[]]  # indexed by id; ids follow preorder
    parent: list[int | None] = [None]
    stack = [0]
    for i, ch in enumerate(word):
        if ch == "1":
            v = len(parent)
            children[stack[-1]].append(v)
            children.append([])
            parent.append(stack[-1])
            stack.append(v)
        else:
            stack.pop()
            if not stack:
                raise DyckStringError(f"unmatched 0 at position {i}")
    if len(stack) != 1:
        raise DyckStringError("unmatched 1s remain at end of input")
    nodes = {v: Node(0, tuple(kids), par) for v, (kids, par) in enumerate(zip(children, parent))}
    return Tree(nodes, 0, validate=False)


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
    parents: list[int | None] = []
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
        parents.append(open_nodes[-1] if open_nodes else None)
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
    nodes = {v: Node(labels[v], tuple(kids[v]), parents[v]) for v in range(len(labels))}
    return Tree(nodes, 0, validate=False)


def dyck_words(pairs: int, peaks: int | None = None) -> Iterator[str]:
    """Every Dyck word with `pairs` 1s, trying 1 before 0 at each position.

    Given `peaks`, only the words with exactly that many factors 10; for
    pairs >= 1 these are the trees with that many leaves (Narayana many).
    """
    if pairs < 0:
        raise ValueError("need pairs >= 0")

    def words(ones_left: int, open_count: int, peaks_left: int, after_one: bool) -> Iterator[str]:
        # The rest of the word makes between lo and hi peaks: each 1 still to
        # come can start one, as can a 1 just written, and the last 1 of the
        # word is always followed by a 0.  Pruning outside that range leaves
        # no dead branches, so the cost follows the words yielded.
        lo = 1 if ones_left else int(after_one)
        if peaks is not None and not lo <= peaks_left <= ones_left + after_one:
            return
        if ones_left == 0:
            yield "0" * open_count
            return
        for w in words(ones_left - 1, open_count + 1, peaks_left, True):
            yield "1" + w
        if open_count > 0:
            for w in words(ones_left, open_count - 1, peaks_left - after_one, False):
                yield "0" + w

    yield from words(pairs, 0, peaks or 0, False)


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
