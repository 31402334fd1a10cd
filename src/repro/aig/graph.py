"""The And-Inverter Graph manager.

An AIG node is either the constant node, a primary input, or a two-input
AND.  Inversion lives on edges: an edge is ``2*node + complement``.  The
manager hash-conses AND nodes — identical ``(fanin0, fanin1)`` pairs map to
one node — which is the "AIG semi-canonicity and hashing scheme" the paper
exploits "to early detect functionally equivalent map points".
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, Mapping, NamedTuple

from repro.errors import AigError

FALSE = 0
TRUE = 1

_CONST_NODE = 0

# Budget of a manager's single-root cone memo, counted in stored cone
# nodes.  An overrun clears the memo wholesale, like the simulation plan
# cache; a node's cone never changes, so the memo never goes stale.
CONE_MEMO_NODE_LIMIT = 200_000


class ConeEntry(NamedTuple):
    """A memoized single-root cone."""

    order: tuple[int, ...]    # the nodes, in the order ``Aig.cone`` returns
    ands: int                 # AND nodes among them
    inputs: tuple[int, ...]   # input nodes among them


_EMPTY_CONE = ConeEntry((), 0, ())


def edge_node(edge: int) -> int:
    """The node an edge points to."""
    return edge >> 1


def edge_is_complement(edge: int) -> bool:
    """Whether the edge inverts its node."""
    return bool(edge & 1)


def edge_not(edge: int) -> int:
    """Negate an edge (invert the complement bit)."""
    return edge ^ 1


class Aig:
    """Append-only hash-consed AIG manager.

    >>> aig = Aig()
    >>> a, b = aig.add_input("a"), aig.add_input("b")
    >>> f = aig.and_(a, b)
    >>> g = aig.and_(b, a)
    >>> f == g                     # structural hashing
    True
    >>> aig.and_(a, edge_not(a))   # x AND NOT x == FALSE
    0
    """

    def __init__(self) -> None:
        # Node 0 is the constant-FALSE node.
        self._fanin0: list[int] = [-1]
        self._fanin1: list[int] = [-1]
        self._levels: list[int] = [0]
        self._inputs: list[int] = []
        self._input_names: dict[int, str] = {}
        self._strash: dict[tuple[int, int], int] = {}
        # Per-manager caches.  Both stay valid forever, because the
        # manager only grows: single-root cones by root node (see
        # ``cone``), and ``simulate.cone_plan``'s levelized plans by
        # target node set.
        self._cones: dict[int, ConeEntry] = {}
        self._cone_nodes = 0
        self._sim_plans: dict = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_input(self, name: str | None = None) -> int:
        """Create a primary input node; returns its positive edge."""
        node = len(self._fanin0)
        self._fanin0.append(-1)
        self._fanin1.append(-1)
        self._levels.append(0)
        self._inputs.append(node)
        if name is not None:
            self._input_names[node] = name
        return 2 * node

    def add_inputs(self, count: int, prefix: str = "x") -> list[int]:
        """Create ``count`` named inputs ``prefix0 .. prefixN-1``."""
        if count < 0:
            raise AigError("count must be non-negative")
        return [self.add_input(f"{prefix}{i}") for i in range(count)]

    def and_(self, a: int, b: int) -> int:
        """Return the edge for ``a AND b``, with simplification and hashing."""
        limit = 2 * len(self._fanin0)
        if not (0 <= a < limit and 0 <= b < limit):
            self._check_edge(a)
            self._check_edge(b)
        # Constant and trivial-structure simplifications.
        if a == FALSE or b == FALSE or a == edge_not(b):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        node = self._strash.get(key)
        if node is not None:
            return 2 * node
        node = len(self._fanin0)
        self._fanin0.append(a)
        self._fanin1.append(b)
        self._levels.append(
            1 + max(self._levels[a >> 1], self._levels[b >> 1])
        )
        self._strash[key] = node
        return 2 * node

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    def _check_edge(self, edge: int) -> None:
        if edge < 0 or (edge >> 1) >= len(self._fanin0):
            raise AigError(f"edge {edge} does not belong to this AIG")

    def is_input(self, node: int) -> bool:
        return self._fanin0[node] == -1 and node != _CONST_NODE

    def is_and(self, node: int) -> bool:
        return self._fanin0[node] != -1

    def is_const(self, node: int) -> bool:
        return node == _CONST_NODE

    def fanins(self, node: int) -> tuple[int, int]:
        """The two fanin edges of an AND node."""
        if not self.is_and(node):
            raise AigError(f"node {node} is not an AND node")
        return self._fanin0[node], self._fanin1[node]

    def level(self, node: int) -> int:
        return self._levels[node]

    @property
    def inputs(self) -> list[int]:
        """Input nodes in creation order."""
        return list(self._inputs)

    @property
    def input_edges(self) -> list[int]:
        return [2 * node for node in self._inputs]

    def input_name(self, node: int) -> str:
        return self._input_names.get(node, f"i{node}")

    def name_of(self, node: int) -> str | None:
        return self._input_names.get(node)

    @property
    def num_nodes(self) -> int:
        """Total nodes including constant and inputs."""
        return len(self._fanin0)

    @property
    def num_ands(self) -> int:
        return len(self._fanin0) - 1 - len(self._inputs)

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    def nodes(self) -> Iterator[int]:
        """All nodes in topological (creation) order."""
        return iter(range(len(self._fanin0)))

    def and_nodes(self) -> Iterator[int]:
        for node in range(len(self._fanin0)):
            if self.is_and(node):
                yield node

    # ------------------------------------------------------------------ #
    # Cone extraction / compaction
    # ------------------------------------------------------------------ #

    def cone(
        self, edges: Iterable[int], known: Container[int] | None = None
    ) -> list[int]:
        """Nodes in the transitive fanin of ``edges``, topologically sorted.

        Includes input nodes of the cone; excludes the constant node.  The
        walk neither returns nor descends below nodes in ``known``: callers
        that keep per-node state over a cone-closed node set (every known
        node's cone is known too) get exactly the new nodes, in the order
        the full walk would have returned them.

        Without ``known``, single-root cones come from the manager's memo
        (walked once, on a miss); several roots whose cones are all
        memoized are served by concatenating those cones from the last
        root to the first, dropping repeats — the order the walk, which
        pops the last root first, returns.  The result is a fresh list.
        """
        nodes = [edge >> 1 for edge in edges]
        if known is not None:
            return self._walk(nodes, known)
        # The walk pops the last root first, so a repeated root counts at
        # its last position.
        roots = [
            node for node in dict.fromkeys(reversed(nodes))
            if node != _CONST_NODE
        ]
        if len(roots) == 1:
            return list(self._memo_cone(roots[0]).order)
        cones = self._cones
        if not all(root in cones for root in roots):
            return self._walk(nodes, ())
        order: list[int] = []
        seen: set[int] = set()
        for root in roots:
            if root in seen:        # seen is closed under fanins
                continue
            for node in cones[root].order:
                if node not in seen:
                    seen.add(node)
                    order.append(node)
        return order

    def cone_entry(self, node: int) -> ConeEntry:
        """The memoized cone of ``node``: its order, AND count and inputs."""
        entry = self._cones.get(node)
        if entry is None:
            self.cone([2 * node])   # a miss walks inside ``cone``
            entry = self._cones.get(node, _EMPTY_CONE)
        return entry

    def _memo_cone(self, node: int) -> ConeEntry:
        entry = self._cones.get(node)
        if entry is None:
            order = self._walk([node], ())
            fanin0 = self._fanin0
            inputs = tuple(n for n in order if fanin0[n] == -1)
            entry = ConeEntry(tuple(order), len(order) - len(inputs), inputs)
            if self._cone_nodes + len(order) > CONE_MEMO_NODE_LIMIT:
                self._cones.clear()
                self._cone_nodes = 0
            self._cones[node] = entry
            self._cone_nodes += len(order)
        return entry

    def _walk(self, roots: list[int], known: Container[int]) -> list[int]:
        """The depth-first post-order walk behind ``cone``."""
        fanin0, fanin1 = self._fanin0, self._fanin1
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(node, False) for node in roots]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen or node == _CONST_NODE or node in known:
                continue
            seen.add(node)
            stack.append((node, True))
            f0 = fanin0[node]
            if f0 != -1:
                stack.append((f0 >> 1, False))
                stack.append((fanin1[node] >> 1, False))
        return order

    def extract(
        self, edges: Iterable[int], keep_all_inputs: bool = False
    ) -> tuple["Aig", list[int], dict[int, int]]:
        """Rebuild only the logic reachable from ``edges`` in a fresh manager.

        Returns ``(new_aig, new_edges, node_map)`` where ``node_map`` maps
        old node ids to new *edges*.  Input nodes keep their names.  With
        ``keep_all_inputs`` every input of this manager is recreated (in
        order) even if unreferenced, so input indices stay aligned.
        """
        edges = list(edges)
        new_aig = Aig()
        node_map: dict[int, int] = {_CONST_NODE: FALSE}
        if keep_all_inputs:
            for node in self._inputs:
                node_map[node] = new_aig.add_input(self._input_names.get(node))
        for node in self.cone(edges):
            if node in node_map:
                continue
            if self.is_input(node):
                node_map[node] = new_aig.add_input(self._input_names.get(node))
            else:
                f0, f1 = self._fanin0[node], self._fanin1[node]
                a = node_map[f0 >> 1] ^ (f0 & 1)
                b = node_map[f1 >> 1] ^ (f1 & 1)
                node_map[node] = new_aig.and_(a, b)
        new_edges = [node_map[e >> 1] ^ (e & 1) for e in edges]
        return new_aig, new_edges, node_map

    # ------------------------------------------------------------------ #
    # Rebuilding with a substitution map (shared by cofactor/compose/sweep)
    # ------------------------------------------------------------------ #

    def rebuild(
        self,
        edge: int,
        leaf_map: Mapping[int, int],
        cache: dict[int, int] | None = None,
    ) -> int:
        """Re-express ``edge`` with some nodes replaced by other edges.

        ``leaf_map`` maps node ids to replacement edges; every node not in
        the map is rebuilt from its (rebuilt) fanins.  The result lives in
        *this* manager.  ``cache`` allows sharing work across calls.

        Nodes are rebuilt in the depth-first post-order of :meth:`cone`,
        so new nodes are created in the same order whichever walk serves
        the call.  When every leaf is an input (a cofactor or a
        composition), the walk stops at no node above the inputs, so the
        cone's order is iterated directly: the memoized one when ``cache``
        is empty, else the walk that stops at cached nodes.  A node whose
        rebuilt fanins are its own is kept as it is, the edge structural
        hashing would return.
        """
        self._check_edge(edge)
        if cache is None:
            cache = {}
        root = edge >> 1
        fanin0, fanin1 = self._fanin0, self._fanin1
        if root in cache:
            return cache[root] ^ (edge & 1)
        size = len(fanin0)
        if root != _CONST_NODE and all(
            node < size and fanin0[node] == -1 for node in leaf_map
        ):
            if cache:
                order = self.cone([edge], known=cache)
            else:
                order = self.cone_entry(root).order
            and_ = self.and_
            for node in order:
                f0 = fanin0[node]
                if f0 == -1:
                    replacement = leaf_map.get(node)
                    cache[node] = (
                        2 * node if replacement is None else replacement
                    )
                    continue
                f1 = fanin1[node]
                a = cache[f0 >> 1] ^ (f0 & 1)
                b = cache[f1 >> 1] ^ (f1 & 1)
                cache[node] = 2 * node if a == f0 and b == f1 else and_(a, b)
            return cache[root] ^ (edge & 1)
        stack = [root]
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            if node in leaf_map:
                cache[node] = leaf_map[node]
                stack.pop()
                continue
            if not self.is_and(node):
                cache[node] = 2 * node
                stack.pop()
                continue
            f0, f1 = fanin0[node], fanin1[node]
            n0, n1 = f0 >> 1, f1 >> 1
            pending = False
            if n0 not in cache:
                stack.append(n0)
                pending = True
            if n1 not in cache:
                stack.append(n1)
                pending = True
            if pending:
                continue
            stack.pop()
            a = cache[n0] ^ (f0 & 1)
            b = cache[n1] ^ (f1 & 1)
            cache[node] = (
                2 * node if a == f0 and b == f1 else self.and_(a, b)
            )
        return cache[root] ^ (edge & 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Aig(inputs={self.num_inputs}, ands={self.num_ands})"
        )
