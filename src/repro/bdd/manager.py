"""A classic ROBDD manager with an optional node budget.

Nodes are integers; 0 and 1 are the terminals.  Internal nodes are
hash-consed triples ``(var, low, high)`` with ``low != high`` and variables
ordered along every path (``var`` strictly increases downward).  There are
no complement edges — negation is a cached traversal — which keeps the
implementation small and the canonicity argument obvious.

The kernel is organized the way serious BDD packages (CUDD, BuDDy) are:

* every operator (AND, OR, XOR, NOT, ITE, EXISTS, AND-EXISTS) has its own
  *operation-tagged* apply cache, so an ``and_`` never collides with an
  ``ite`` and commutative operators normalize their operands into one
  entry;
* quantification takes a *cube* (the positive conjunction of the
  quantified variables) and eliminates every variable in one recursion
  instead of rescanning the BDD once per variable;
* the relational-product workhorse :meth:`and_exists` fuses conjunction
  and existential quantification, short-circuiting on FALSE and on a TRUE
  disjunct, dropping cube variables that lie above the operands' supports,
  and skipping quantification of variables absent from the support;
* caches are *bounded*: when ``max_cache_entries`` is set, a cache that
  fills up is dropped wholesale (the MiniSat-style "cheap amnesia beats
  bookkeeping" discipline) and the reset is counted;
* hit/miss/reset counters per operation are exposed through
  :meth:`cache_stats` so engines can surface them in their ``StatsBag``.

Recursion depth is bounded by the variable order (every recursive call
strictly descends it), so :meth:`new_var` guards deep-chain circuits
against ``RecursionError`` by raising the interpreter recursion limit in
step with the variable count.

The node budget exists for the BDD-sweeping use case: when constructing the
BDD of an AIG node overruns the budget, :class:`~repro.errors.BddLimitExceeded`
is raised and the sweeping engine falls back to a cut point, exactly the
"abandon and cut" behaviour of Kuehlmann-Krohm sweeping.
"""

from __future__ import annotations

import sys
from typing import Iterable, Mapping

from repro.errors import BddError, BddLimitExceeded
from repro.obs import probes as _obs

BDD_FALSE = 0
BDD_TRUE = 1

# Operation tags, one apply cache per tag.
_OPS = ("ite", "and", "or", "xor", "not", "exists", "and_exists")

# Safety margin on top of the variable-count-derived recursion depth:
# interpreter frames already on the stack plus helper-call overhead.
_RECURSION_MARGIN = 512

# Never raise the interpreter recursion limit beyond this: past it the C
# stack becomes the binding constraint and a deeper Python limit would
# trade a catchable RecursionError for a hard crash.
_RECURSION_LIMIT_CAP = 100_000


def _preserves_order(mapping: Mapping[int, int]) -> bool:
    """Whether ``mapping`` sends its keys to strictly increasing images."""
    images = [mapping[v] for v in sorted(mapping)]
    return images == sorted(set(images))


class BddManager:
    """Hash-consed ROBDD manager.

    >>> mgr = BddManager()
    >>> x, y = mgr.new_var("x"), mgr.new_var("y")
    >>> f = mgr.and_(x, y)
    >>> mgr.evaluate(f, {0: True, 1: True})
    True
    >>> g = mgr.exists(f, [1])     # exists y . x AND y  ==  x
    >>> g == x
    True
    >>> mgr.and_exists(x, y, [1]) == x   # fused relational product
    True
    """

    def __init__(
        self,
        max_nodes: int | None = None,
        max_cache_entries: int | None = None,
    ) -> None:
        # Struct-of-arrays node store; slots 0/1 are the terminals
        # (var = big sentinel).  A node *is* its integer index into these
        # three columns.
        self._var: list[int] = [2**30, 2**30]
        self._low: list[int] = [-1, -1]
        self._high: list[int] = [-1, -1]
        # Unique table and apply caches are keyed by packed integers
        # (fields shifted into one int) rather than tuples: an int key
        # hashes and compares without touching three boxed elements, which
        # measures ~2x faster on the apply hot path.  The 30-bit field
        # width caps node indices at 2**30 — far past what fits in memory.
        self._unique: dict[int, int] = {}
        # Operation-tagged apply caches.  ``_not_cache`` doubles as the
        # complement table: both directions are stored, so "is g the
        # negation of f?" is one O(1) lookup whenever the complement has
        # ever been computed.
        self._ite_cache: dict[int, int] = {}
        self._and_cache: dict[int, int] = {}
        self._or_cache: dict[int, int] = {}
        self._xor_cache: dict[int, int] = {}
        self._not_cache: dict[int, int] = {}
        self._exists_cache: dict[int, int] = {}
        self._and_exists_cache: dict[int, int] = {}
        self._caches: dict[str, dict] = {
            "ite": self._ite_cache,
            "and": self._and_cache,
            "or": self._or_cache,
            "xor": self._xor_cache,
            "not": self._not_cache,
            "exists": self._exists_cache,
            "and_exists": self._and_exists_cache,
        }
        # Hit/miss counters are plain int attributes (one LOAD_ATTR +
        # inplace add on the hot path, no dict indexing); cache_stats()
        # assembles the per-op dict view on demand.  Resets stay a dict —
        # they only fire when a bounded cache overflows.
        self._hits_ite = self._misses_ite = 0
        self._hits_and = self._misses_and = 0
        self._hits_or = self._misses_or = 0
        self._hits_xor = self._misses_xor = 0
        self._hits_not = self._misses_not = 0
        self._hits_exists = self._misses_exists = 0
        self._hits_and_exists = self._misses_and_exists = 0
        self._resets: dict[str, int] = {op: 0 for op in _OPS}
        self._var_names: list[str] = []
        self._var_nodes: list[int] = []
        self.max_nodes = max_nodes
        self.max_cache_entries = max_cache_entries

    # ------------------------------------------------------------------ #
    # Variables and raw nodes
    # ------------------------------------------------------------------ #

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    @property
    def num_nodes(self) -> int:
        """Allocated node count (terminals included)."""
        return len(self._var)

    def new_var(self, name: str | None = None) -> int:
        """Append a variable at the bottom of the order; returns its node.

        Variable creation is exempt from the node budget: the budget guards
        against *function* blow-up during sweeping, and cut-point insertion
        itself must always be able to allocate a fresh variable.
        """
        index = len(self._var_names)
        self._var_names.append(name if name is not None else f"v{index}")
        node = self._make_node(index, BDD_FALSE, BDD_TRUE, exempt=True)
        self._var_nodes.append(node)
        # Every kernel recursion strictly descends the variable order, so
        # the worst-case Python stack is a small multiple of the variable
        # count (an and_exists frame may open an or_ chain).  Deep-chain
        # circuits used to die with RecursionError here.
        needed = min(3 * (index + 1) + _RECURSION_MARGIN, _RECURSION_LIMIT_CAP)
        if needed > sys.getrecursionlimit():
            sys.setrecursionlimit(needed)
        return node

    def var_node(self, index: int) -> int:
        """The node for variable ``index`` (created via :meth:`new_var`)."""
        if not 0 <= index < len(self._var_nodes):
            raise BddError(f"variable index {index} out of range")
        return self._var_nodes[index]

    def var_name(self, index: int) -> str:
        return self._var_names[index]

    def var_of(self, node: int) -> int:
        """Top variable index of a node (error on terminals)."""
        if node <= 1:
            raise BddError("terminals have no top variable")
        return self._var[node]

    def low_of(self, node: int) -> int:
        return self._low[node]

    def high_of(self, node: int) -> int:
        return self._high[node]

    def _make_node(
        self, var: int, low: int, high: int, exempt: bool = False
    ) -> int:
        if low == high:
            return low
        key = (var << 60) | (low << 30) | high
        node = self._unique.get(key)
        if node is not None:
            return node
        if (
            not exempt
            and self.max_nodes is not None
            and len(self._var) >= self.max_nodes
        ):
            raise BddLimitExceeded(
                f"BDD node budget of {self.max_nodes} exhausted"
            )
        node = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    # ------------------------------------------------------------------ #
    # Negation (also the complement table)
    # ------------------------------------------------------------------ #

    def not_(self, f: int) -> int:
        """Negation; both directions are cached as the complement table."""
        if f <= 1:
            return f ^ 1
        cache = self._not_cache
        cached = cache.get(f)
        if cached is not None:
            self._hits_not += 1
            return cached
        self._misses_not += 1
        result = self._make_node(
            self._var[f], self.not_(self._low[f]), self.not_(self._high[f])
        )
        bound = self.max_cache_entries
        if bound is not None and len(cache) >= bound:
            cache.clear()
            self._resets["not"] += 1
        cache[f] = result
        cache[result] = f
        return result

    # ------------------------------------------------------------------ #
    # Binary boolean operators (tagged apply caches)
    # ------------------------------------------------------------------ #

    def and_(self, f: int, g: int) -> int:
        if f == g or g == BDD_TRUE:
            return f
        if f == BDD_TRUE:
            return g
        if f == BDD_FALSE or g == BDD_FALSE:
            return BDD_FALSE
        if self._not_cache.get(f) == g:
            return BDD_FALSE
        if f > g:
            f, g = g, f
        cache = self._and_cache
        key = (f << 30) | g
        cached = cache.get(key)
        if cached is not None:
            self._hits_and += 1
            return cached
        self._misses_and += 1
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        vf = var_arr[f]
        vg = var_arr[g]
        if vf < vg:
            var = vf
            low = self.and_(low_arr[f], g)
            high = self.and_(high_arr[f], g)
        elif vg < vf:
            var = vg
            low = self.and_(f, low_arr[g])
            high = self.and_(f, high_arr[g])
        else:
            var = vf
            low = self.and_(low_arr[f], low_arr[g])
            high = self.and_(high_arr[f], high_arr[g])
        if low == high:
            result = low
        else:
            # Inlined _make_node: reduction rule, unique-table lookup and
            # allocation (with the node-budget check) without the method
            # call, double lookup or re-packing of the key.
            unique = self._unique
            ukey = (var << 60) | (low << 30) | high
            result = unique.get(ukey, -1)
            if result < 0:
                if (
                    self.max_nodes is not None
                    and len(var_arr) >= self.max_nodes
                ):
                    raise BddLimitExceeded(
                        f"BDD node budget of {self.max_nodes} exhausted"
                    )
                result = len(var_arr)
                var_arr.append(var)
                low_arr.append(low)
                high_arr.append(high)
                unique[ukey] = result
        bound = self.max_cache_entries
        if bound is not None and len(cache) >= bound:
            cache.clear()
            self._resets["and"] += 1
        cache[key] = result
        return result

    def or_(self, f: int, g: int) -> int:
        if f == g or g == BDD_FALSE:
            return f
        if f == BDD_FALSE:
            return g
        if f == BDD_TRUE or g == BDD_TRUE:
            return BDD_TRUE
        if self._not_cache.get(f) == g:
            return BDD_TRUE
        if f > g:
            f, g = g, f
        cache = self._or_cache
        key = (f << 30) | g
        cached = cache.get(key)
        if cached is not None:
            self._hits_or += 1
            return cached
        self._misses_or += 1
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        vf = var_arr[f]
        vg = var_arr[g]
        if vf < vg:
            var = vf
            low = self.or_(low_arr[f], g)
            high = self.or_(high_arr[f], g)
        elif vg < vf:
            var = vg
            low = self.or_(f, low_arr[g])
            high = self.or_(f, high_arr[g])
        else:
            var = vf
            low = self.or_(low_arr[f], low_arr[g])
            high = self.or_(high_arr[f], high_arr[g])
        if low == high:
            result = low
        else:
            # Inlined _make_node: reduction rule, unique-table lookup and
            # allocation (with the node-budget check) without the method
            # call, double lookup or re-packing of the key.
            unique = self._unique
            ukey = (var << 60) | (low << 30) | high
            result = unique.get(ukey, -1)
            if result < 0:
                if (
                    self.max_nodes is not None
                    and len(var_arr) >= self.max_nodes
                ):
                    raise BddLimitExceeded(
                        f"BDD node budget of {self.max_nodes} exhausted"
                    )
                result = len(var_arr)
                var_arr.append(var)
                low_arr.append(low)
                high_arr.append(high)
                unique[ukey] = result
        bound = self.max_cache_entries
        if bound is not None and len(cache) >= bound:
            cache.clear()
            self._resets["or"] += 1
        cache[key] = result
        return result

    def xor(self, f: int, g: int) -> int:
        if f == g:
            return BDD_FALSE
        if f == BDD_FALSE:
            return g
        if g == BDD_FALSE:
            return f
        if f == BDD_TRUE:
            return self.not_(g)
        if g == BDD_TRUE:
            return self.not_(f)
        if self._not_cache.get(f) == g:
            return BDD_TRUE
        if f > g:
            f, g = g, f
        cache = self._xor_cache
        key = (f << 30) | g
        cached = cache.get(key)
        if cached is not None:
            self._hits_xor += 1
            return cached
        self._misses_xor += 1
        var_arr = self._var
        low_arr = self._low
        high_arr = self._high
        vf = var_arr[f]
        vg = var_arr[g]
        if vf < vg:
            var = vf
            low = self.xor(low_arr[f], g)
            high = self.xor(high_arr[f], g)
        elif vg < vf:
            var = vg
            low = self.xor(f, low_arr[g])
            high = self.xor(f, high_arr[g])
        else:
            var = vf
            low = self.xor(low_arr[f], low_arr[g])
            high = self.xor(high_arr[f], high_arr[g])
        if low == high:
            result = low
        else:
            # Inlined _make_node: reduction rule, unique-table lookup and
            # allocation (with the node-budget check) without the method
            # call, double lookup or re-packing of the key.
            unique = self._unique
            ukey = (var << 60) | (low << 30) | high
            result = unique.get(ukey, -1)
            if result < 0:
                if (
                    self.max_nodes is not None
                    and len(var_arr) >= self.max_nodes
                ):
                    raise BddLimitExceeded(
                        f"BDD node budget of {self.max_nodes} exhausted"
                    )
                result = len(var_arr)
                var_arr.append(var)
                low_arr.append(low)
                high_arr.append(high)
                unique[ukey] = result
        bound = self.max_cache_entries
        if bound is not None and len(cache) >= bound:
            cache.clear()
            self._resets["xor"] += 1
        cache[key] = result
        return result

    def xnor(self, f: int, g: int) -> int:
        return self.not_(self.xor(f, g))

    def implies(self, f: int, g: int) -> int:
        return self.or_(self.not_(f), g)

    def and_all(self, nodes: Iterable[int]) -> int:
        result = BDD_TRUE
        for node in nodes:
            result = self.and_(result, node)
            if result == BDD_FALSE:
                break
        return result

    def or_all(self, nodes: Iterable[int]) -> int:
        result = BDD_FALSE
        for node in nodes:
            result = self.or_(result, node)
            if result == BDD_TRUE:
                break
        return result

    # ------------------------------------------------------------------ #
    # Core ITE
    # ------------------------------------------------------------------ #

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else with full terminal simplification.

        Equivalent calls are rewritten to one canonical form before any
        cache is consulted: ``ite(f, f, h)`` collapses to ``f OR h``,
        ``ite(f, g, f)`` to ``f AND g``, and the complement-of-``f`` cases
        (detected through the complement table) to their two-operand
        forms, so they all share the tagged two-operand caches instead of
        sprinkling synonyms across the ITE cache.
        """
        if f == BDD_TRUE:
            return g
        if f == BDD_FALSE:
            return h
        if g == h:
            return g
        not_f = self._not_cache.get(f)
        if g == f:                   # ite(f, f, h) = f OR h
            g = BDD_TRUE
        elif g == not_f:             # ite(f, !f, h) = !f AND h
            g = BDD_FALSE
        if h == f:                   # ite(f, g, f) = f AND g
            h = BDD_FALSE
        elif h == not_f:             # ite(f, g, !f) = !f OR g
            h = BDD_TRUE
        if g == BDD_TRUE:
            return f if h == BDD_FALSE else self.or_(f, h)
        if g == BDD_FALSE:
            return self.not_(f) if h == BDD_TRUE else self.and_(self.not_(f), h)
        if h == BDD_FALSE:
            return self.and_(f, g)
        if h == BDD_TRUE:
            return self.or_(self.not_(f), g)
        cache = self._ite_cache
        key = (f << 60) | (g << 30) | h
        cached = cache.get(key)
        if cached is not None:
            self._hits_ite += 1
            return cached
        self._misses_ite += 1
        var = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self._cofactors(f, var)
        g0, g1 = self._cofactors(g, var)
        h0, h1 = self._cofactors(h, var)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._make_node(var, low, high)
        bound = self.max_cache_entries
        if bound is not None and len(cache) >= bound:
            cache.clear()
            self._resets["ite"] += 1
        cache[key] = result
        return result

    def _cofactors(self, node: int, var: int) -> tuple[int, int]:
        if node <= 1 or self._var[node] != var:
            return node, node
        return self._low[node], self._high[node]

    # ------------------------------------------------------------------ #
    # Quantification, composition, restriction
    # ------------------------------------------------------------------ #

    def restrict(self, f: int, var: int, value: bool) -> int:
        """Cofactor w.r.t. one variable."""
        cache: dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= 1 or self._var[node] > var:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            if self._var[node] == var:
                result = self._high[node] if value else self._low[node]
            else:
                result = self._make_node(
                    self._var[node],
                    walk(self._low[node]),
                    walk(self._high[node]),
                )
            cache[node] = result
            return result

        # ``walk`` refers to itself through its closure cell.  Deleting it
        # breaks that cycle, so the manager (which the closure holds) is
        # freed by reference counting instead of by the cyclic collector.
        try:
            return walk(f)
        finally:
            del walk

    def cube_pos(self, variables: Iterable[int]) -> int:
        """The positive cube (conjunction) of a set of variable indices.

        Quantification cubes are exempt from the node budget: they are
        linear in the variable count and a budgeted sweep must always be
        able to *ask* for quantification.
        """
        result = BDD_TRUE
        for var in sorted(set(variables), reverse=True):
            if not 0 <= var < len(self._var_nodes):
                raise BddError(f"variable index {var} out of range")
            result = self._make_node(var, BDD_FALSE, result, exempt=True)
        return result

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential quantification over a set of variable indices.

        All variables are eliminated in one cube-directed recursion (not
        one full rescan per variable) with a persistent tagged cache.
        """
        # Probe on the non-recursive entry points only: quantification is
        # the image workhorse, so sampling here (tick-throttled, and one
        # branch when disabled) tracks node growth without touching the
        # recursion itself.
        if _obs.ENABLED:
            _obs.tick("bdd", self)
        return self._exists_rec(f, self.cube_pos(variables))

    def exists_cube(self, f: int, cube: int) -> int:
        """Existential quantification over a prebuilt positive cube.

        ``cube`` must be a conjunction of positive variable literals as
        returned by :meth:`cube_pos`; engines that quantify the same
        variable set every traversal step build the cube once.
        """
        if _obs.ENABLED:
            _obs.tick("bdd", self)
        return self._exists_rec(f, cube)

    def _exists_rec(self, f: int, cube: int) -> int:
        if f <= 1 or cube == BDD_TRUE:
            return f
        var_arr = self._var
        high_arr = self._high
        vf = var_arr[f]
        # Cube variables above the support of f are already quantified
        # away (exists x . f == f when x is absent) — drop them.
        while cube > 1 and var_arr[cube] < vf:
            cube = high_arr[cube]
        if cube == BDD_TRUE:
            return f
        cache = self._exists_cache
        key = (f << 30) | cube
        cached = cache.get(key)
        if cached is not None:
            self._hits_exists += 1
            return cached
        self._misses_exists += 1
        low, high = self._low[f], high_arr[f]
        if vf == var_arr[cube]:
            rest = high_arr[cube]
            r0 = self._exists_rec(low, rest)
            if r0 == BDD_TRUE:           # TRUE disjunct: short-circuit
                result = BDD_TRUE
            else:
                result = self.or_(r0, self._exists_rec(high, rest))
        else:
            r0 = self._exists_rec(low, cube)
            r1 = self._exists_rec(high, cube)
            if r0 == r1:
                result = r0
            else:
                result = self._unique.get(
                    (vf << 60) | (r0 << 30) | r1, -1
                )
                if result < 0:
                    result = self._make_node(vf, r0, r1)
        bound = self.max_cache_entries
        if bound is not None and len(cache) >= bound:
            cache.clear()
            self._resets["exists"] += 1
        cache[key] = result
        return result

    def and_exists(self, f: int, g: int, variables: Iterable[int]) -> int:
        """Fused relational product: ``exists variables . f AND g``.

        Never builds the full conjunction: the recursion quantifies each
        cube variable at its level, short-circuits on a FALSE conjunct and
        on a TRUE disjunct, and degrades gracefully to plain :meth:`and_`
        once the cube is exhausted.  This is the image-computation
        workhorse; see :meth:`and_exists_cube` to amortize cube
        construction across calls.
        """
        if _obs.ENABLED:
            _obs.tick("bdd", self)
        return self._and_exists_rec(f, g, self.cube_pos(variables))

    def and_exists_cube(self, f: int, g: int, cube: int) -> int:
        """Fused ``exists cube . f AND g`` over a prebuilt positive cube."""
        if _obs.ENABLED:
            _obs.tick("bdd", self)
        return self._and_exists_rec(f, g, cube)

    def _and_exists_rec(self, f: int, g: int, cube: int) -> int:
        if f == BDD_FALSE or g == BDD_FALSE:
            return BDD_FALSE
        if f == g or g == BDD_TRUE:
            return self._exists_rec(f, cube)
        if f == BDD_TRUE:
            return self._exists_rec(g, cube)
        if self._not_cache.get(f) == g:
            return BDD_FALSE
        var_arr = self._var
        high_arr = self._high
        vf, vg = var_arr[f], var_arr[g]
        top = vf if vf < vg else vg
        # Cube variables above both supports quantify to a no-op.
        while cube > 1 and var_arr[cube] < top:
            cube = high_arr[cube]
        if cube == BDD_TRUE:
            return self.and_(f, g)
        if f > g:
            f, g = g, f
            vf, vg = vg, vf
        cache = self._and_exists_cache
        key = (f << 60) | (g << 30) | cube
        cached = cache.get(key)
        if cached is not None:
            self._hits_and_exists += 1
            return cached
        self._misses_and_exists += 1
        f0, f1 = (self._low[f], high_arr[f]) if vf == top else (f, f)
        g0, g1 = (self._low[g], high_arr[g]) if vg == top else (g, g)
        if var_arr[cube] == top:
            rest = high_arr[cube]
            r0 = self._and_exists_rec(f0, g0, rest)
            if r0 == BDD_TRUE:           # TRUE disjunct: short-circuit
                result = BDD_TRUE
            else:
                result = self.or_(r0, self._and_exists_rec(f1, g1, rest))
        else:
            r0 = self._and_exists_rec(f0, g0, cube)
            r1 = self._and_exists_rec(f1, g1, cube)
            if r0 == r1:
                result = r0
            else:
                result = self._unique.get(
                    (top << 60) | (r0 << 30) | r1, -1
                )
                if result < 0:
                    result = self._make_node(top, r0, r1)
        bound = self.max_cache_entries
        if bound is not None and len(cache) >= bound:
            cache.clear()
            self._resets["and_exists"] += 1
        cache[key] = result
        return result

    def forall(self, f: int, variables: Iterable[int]) -> int:
        return self.not_(self.exists(self.not_(f), variables))

    def compose(self, f: int, substitution: Mapping[int, int]) -> int:
        """Simultaneous substitution of BDDs for variables.

        ``substitution`` maps variable indices to replacement BDD nodes.
        Implemented by Shannon expansion on every node, which is correct for
        simultaneous composition regardless of variable ordering.
        """
        cache: dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= 1:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            var = self._var[node]
            low = walk(self._low[node])
            high = walk(self._high[node])
            if var in substitution:
                selector = substitution[var]
            else:
                selector = self.var_node(var)
            result = self.ite(selector, high, low)
            cache[node] = result
            return result

        try:
            return walk(f)
        finally:
            del walk   # breaks the self-reference (see restrict)

    def rename(
        self,
        f: int,
        mapping: Mapping[int, int],
        cache: dict[int, int] | None = None,
    ) -> int:
        """Variable-to-variable renaming (indices to indices).

        When ``mapping`` preserves the variable order over its own keys,
        the BDD is relabeled in one pass with no support walk — the common
        "next-state back to current-state" case.  ``cache`` (node ->
        renamed node) may be shared by calls with the same mapping, so a
        traversal that renames every image relabels each node once per
        run.  If the pass meets a variable that ``mapping`` does not name,
        the support decides: a relabel when the mapping, extended by the
        identity over the support, still preserves the order, general
        composition otherwise.  What the abandoned pass built stays: its
        nodes and cache entries relabel subgraphs that the mapping covers.
        """
        if cache is None:
            cache = {}
        if _preserves_order(mapping):
            result = self._relabel_rec(f, mapping, cache)
            if result >= 0:
                return result
        support = self.support(f)
        applicable = {v: mapping.get(v, v) for v in support}
        if _preserves_order(applicable):
            # Not the shared memo: a direct pass puts its entries below
            # any renamed variable, which keeps the order only when every
            # variable under them was renamed too.
            return self._relabel_rec(f, applicable, {})
        return self.compose(
            f, {old: self.var_node(new) for old, new in mapping.items()}
        )

    def _relabel_rec(
        self, node: int, mapping: Mapping[int, int], cache: dict[int, int]
    ) -> int:
        """Relabel under an order-preserving ``mapping`` in one post-order
        pass (low branch first); -1 as soon as a variable outside the
        mapping turns up."""
        if node <= 1:
            return node
        hit = cache.get(node)
        if hit is not None:
            return hit
        var = mapping.get(self._var[node])
        if var is None:
            return -1
        low = self._relabel_rec(self._low[node], mapping, cache)
        if low < 0:
            return low
        high = self._relabel_rec(self._high[node], mapping, cache)
        if high < 0:
            return high
        result = self._make_node(var, low, high)
        cache[node] = result
        return result

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def evaluate(self, f: int, assignment: Mapping[int, bool]) -> bool:
        node = f
        while node > 1:
            var = self._var[node]
            node = self._high[node] if assignment.get(var, False) else self._low[node]
        return node == BDD_TRUE

    def size(self, f: int) -> int:
        """Number of internal nodes reachable from ``f``."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)

    def sat_count(self, f: int, num_vars: int | None = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        if num_vars is None:
            num_vars = self.num_vars
        cache: dict[int, int] = {}

        def walk(node: int) -> tuple[int, int]:
            """Returns (count over vars below node's var, node's var)."""
            if node == BDD_FALSE:
                return 0, num_vars
            if node == BDD_TRUE:
                return 1, num_vars
            if node in cache:
                return cache[node], self._var[node]
            low_count, low_var = walk(self._low[node])
            high_count, high_var = walk(self._high[node])
            var = self._var[node]
            low_count <<= low_var - var - 1
            high_count <<= high_var - var - 1
            total = low_count + high_count
            cache[node] = total
            return total, var

        try:
            count, top_var = walk(f)
        finally:
            del walk   # breaks the self-reference (see restrict)
        return count << top_var if f > 1 else count * (1 << num_vars) if f == 1 else 0

    def pick_cube(self, f: int) -> dict[int, bool] | None:
        """One satisfying partial assignment, or None if f is FALSE."""
        if f == BDD_FALSE:
            return None
        cube: dict[int, bool] = {}
        node = f
        while node > 1:
            var = self._var[node]
            if self._low[node] != BDD_FALSE:
                cube[var] = False
                node = self._low[node]
            else:
                cube[var] = True
                node = self._high[node]
        return cube

    def support(self, f: int) -> set[int]:
        """Variable indices appearing in the BDD."""
        seen: set[int] = set()
        variables: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            variables.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return variables

    def cube(self, literals: Mapping[int, bool]) -> int:
        """The conjunction of variable literals (index -> polarity)."""
        result = BDD_TRUE
        for var in sorted(literals, reverse=True):
            if not 0 <= var < len(self._var_nodes):
                raise BddError(f"variable index {var} out of range")
            if literals[var]:
                result = self._make_node(var, BDD_FALSE, result)
            else:
                result = self._make_node(var, result, BDD_FALSE)
        return result

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #

    def _hit_counts(self) -> dict[str, int]:
        return {
            "ite": self._hits_ite,
            "and": self._hits_and,
            "or": self._hits_or,
            "xor": self._hits_xor,
            "not": self._hits_not,
            "exists": self._hits_exists,
            "and_exists": self._hits_and_exists,
        }

    def _miss_counts(self) -> dict[str, int]:
        return {
            "ite": self._misses_ite,
            "and": self._misses_and,
            "or": self._misses_or,
            "xor": self._misses_xor,
            "not": self._misses_not,
            "exists": self._misses_exists,
            "and_exists": self._misses_and_exists,
        }

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Per-operation cache statistics: hits, misses, entries, resets."""
        hits = self._hit_counts()
        misses = self._miss_counts()
        return {
            op: {
                "hits": hits[op],
                "misses": misses[op],
                "entries": len(self._caches[op]),
                "resets": self._resets[op],
            }
            for op in _OPS
        }

    def cache_summary(self) -> dict[str, float]:
        """Aggregate cache counters (for StatsBag-style reporting)."""
        hits = sum(self._hit_counts().values())
        misses = sum(self._miss_counts().values())
        lookups = hits + misses
        return {
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": hits / lookups if lookups else 0.0,
            "cache_entries": sum(len(c) for c in self._caches.values()),
            "cache_resets": sum(self._resets.values()),
        }

    def clear_caches(self) -> None:
        """Drop operation caches (unique table is kept — nodes stay valid)."""
        for cache in self._caches.values():
            cache.clear()

    def trim_caches(self, bound: int | None = None) -> int:
        """Clear every operation cache larger than ``bound`` entries.

        ``bound`` defaults to a quarter of ``max_cache_entries`` — calls
        between traversal frontier steps must trim *below* the hard bound
        that the operators' bounded-cache insert already enforces, or they
        would never fire.
        With neither set this is a no-op.  Returns the number of caches
        cleared.  Traversal engines call this between frontier steps so
        one long run cannot accumulate unbounded cache garbage.
        """
        if bound is None and self.max_cache_entries is not None:
            bound = self.max_cache_entries // 4
        if bound is None:
            return 0
        cleared = 0
        for op, cache in self._caches.items():
            if len(cache) > bound:
                cache.clear()
                self._resets[op] += 1
                cleared += 1
        return cleared
