"""CDCL SAT solver with an incremental, assumption-based interface.

This is the ZChaff stand-in for the paper.  The features the paper's
SAT-merge routine depends on are all here:

* the clause database is loaded once and *persists across calls* —
  ``solve`` may be invoked any number of times, and new clauses may be
  added between calls ("we load the clause database once and for-all");
* each equivalence check is posed as a set of *assumption* literals, so
  several checks are factorized within a single solver instance without
  restarting ("we factorize several checks together within a single
  ZChaff run");
* on UNSAT under assumptions, the subset of assumptions actually used is
  reported (``core``), letting one UNSAT verdict cover many matching
  points.

Architecture is classic MiniSat-style CDCL: two-literal watches, VSIDS
decision heuristic with an indexed max-heap, phase saving, first-UIP conflict
analysis with clause minimization, Luby restarts and LBD-guided learned
clause database reduction.

Memory layout is flat-array, not object-per-clause: the whole clause
database lives in one integer *arena* (``_arena``) addressed by per-clause
``(_cbase, _csize)`` offset/length columns, watch lists are per-literal
integer vectors of clause indices compacted in place during propagation,
and the trail/reason/level/value columns are flat integer
buffers indexed by variable.  A deleted clause is ``_csize == 0``; its
arena slots are reclaimed wholesale when deletions pass a garbage
threshold (clause indices are stable — only base offsets move).  The
layout keeps the CPython hot loop free of per-visit allocations (no
rebuilt watch lists, no clause objects) and is the shape an optional
compiled backend can consume without any engine-visible change.

The VSIDS heap is on the same hot path.  A SAT answer assigns every
variable, so each one pops the whole heap and the backtrack re-inserts
it.  ``_pick_branch_var`` and ``_cancel_until`` therefore pop and
re-insert inline on the heap's two lists (``_bump_var`` sifts inline
too), and every sift moves a hole instead of swapping: the same
comparisons, so the same heap array and the same decisions.  When the trail already holds every variable, the
pick empties the heap in one pass, which is where popping one by one
would end.  A new variable's activity is 0.0, so it goes straight to
the last heap slot.

Tseitin AND gates have their own entry point, :meth:`Solver.add_and_gate`.
It attaches the gate's three clauses directly, in the order and the
literal order ``add_clause`` would give them, and falls back to
``add_clause`` whenever that would do more: a fanin fixed at level 0,
proof logging, or an unsatisfiable database.

Phase saving is always on: a decision re-uses the polarity of the
variable's last unwound assignment (false for a variable never
assigned).  Incremental workloads that pose long runs of near-identical
queries — IC3/PDR frame queries, interpolation rounds — so resume each
solve near the previous one's assignment.

Clauses can also be *removable*: :meth:`Solver.add_removable_clause`
attaches a fresh activation literal to the clause, the clause only
participates in a ``solve`` whose assumptions include that literal, and
:meth:`Solver.retire_clause` permanently disables it.  This is the
add/retire lifecycle PDR's per-frame lemma databases need without ever
rebuilding CNF.

With ``Solver(proof=True)`` every learned clause additionally records its
resolution chain (antecedent proof-node ids, in trail order), level-0
implied units record theirs, and an UNSAT verdict records the final
conflict resolution — the empty clause outright, or the clause over the
negated failing assumptions.  The resulting :class:`ProofLog` is the input
of the independent checker and the interpolant extractor in
:mod:`repro.itp`.  Proof recording never changes the search (decisions,
conflicts and restarts are identical with and without it) and costs one
predicted branch per implication when disabled.
"""

from __future__ import annotations

import enum
from time import perf_counter
from typing import Iterable, Sequence

from repro.errors import SatError
from repro.obs import metrics as _met
from repro.obs import probes as _obs
from repro.sat.cnf import CNF

# Internal literal encoding: variable v in [0, n) maps to literals 2*v
# (positive) and 2*v+1 (negative).  DIMACS literal d maps to
# 2*(|d|-1) + (d < 0).
_UNASSIGNED = 2


def _to_internal(dimacs_lit: int) -> int:
    if dimacs_lit == 0:
        raise SatError("literal 0 is not a valid DIMACS literal")
    var = abs(dimacs_lit) - 1
    return 2 * var + (1 if dimacs_lit < 0 else 0)


def _to_external(internal_lit: int) -> int:
    var = (internal_lit >> 1) + 1
    return -var if internal_lit & 1 else var


class SolveResult(enum.Enum):
    """Outcome of a ``solve`` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        # Convenience: ``if solver.solve():`` means "is satisfiable".
        return self is SolveResult.SAT


class ProofLog:
    """A resolution-refutation record in DIMACS literals.

    Node ``i`` carries a clause ``literals[i]`` and an antecedent chain
    ``chains[i]``.  An empty chain marks an axiom (an original clause as
    given to ``add_clause``); a non-empty chain derives the clause by
    resolving ``chains[i][0]`` with each subsequent antecedent in order,
    on exactly one pivot per step.  All antecedent ids are smaller than
    ``i``, so the log is topologically sorted by construction.

    ``root`` is the id of the derived empty clause (set when the database
    is refuted outright); ``final`` is the clause concluding the most
    recent UNSAT verdict — the empty clause, or the negation of the
    failing assumption subset.  ``final`` is ``None`` for the one
    underivable case: two directly complementary assumptions, whose
    "core clause" would be a tautology.
    """

    __slots__ = ("literals", "chains", "root", "final")

    def __init__(self) -> None:
        self.literals: list[tuple[int, ...]] = []
        self.chains: list[tuple[int, ...]] = []
        self.root: int | None = None
        self.final: int | None = None

    def append(self, literals: tuple[int, ...], chain: tuple[int, ...]) -> int:
        self.literals.append(literals)
        self.chains.append(chain)
        return len(self.literals) - 1

    def __len__(self) -> int:
        return len(self.literals)


def _luby(i: int) -> int:
    """The i-th element (0-based) of the Luby sequence 1,1,2,1,1,2,4,...

    Classic MiniSat formulation: find the smallest complete binary
    subsequence containing position ``i`` and recurse into it.
    """
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i = i % size
    return 1 << seq


class Solver:
    """Incremental CDCL solver over DIMACS-style literals.

    >>> s = Solver()
    >>> a, b = s.new_var(), s.new_var()
    >>> s.add_clause([a, b])
    >>> s.add_clause([-a, b])
    >>> s.solve()
    <SolveResult.SAT: 'sat'>
    >>> s.value(b)
    True
    >>> s.solve(assumptions=[-b])
    <SolveResult.UNSAT: 'unsat'>
    >>> s.solve()          # the database is untouched by assumptions
    <SolveResult.SAT: 'sat'>
    """

    def __init__(
        self,
        cnf: CNF | None = None,
        proof: bool = False,
    ) -> None:
        self._nvars = 0
        # Per-variable state.
        self._values = bytearray()        # _UNASSIGNED / 1 (true) / 0 (false)
        self._levels: list[int] = []
        self._reasons: list[int] = []     # clause index or -1
        self._activity: list[float] = []
        self._polarity: list[int] = []    # saved phase, 1 = assign true
        # VSIDS order: an indexed binary max-heap over activities (MiniSat's
        # order).  _heap holds variables, _heap_pos[var] is the variable's
        # slot or -1.  Branching, backtracking and bumping sift inline.
        self._heap: list[int] = []
        self._heap_pos: list[int] = []
        # Clause arena: one flat literal buffer, offset/length per clause.
        # A deleted clause has _csize == 0 (its arena slots are garbage
        # until _compact_arena reclaims them).
        self._arena: list[int] = []
        self._cbase: list[int] = []
        self._csize: list[int] = []
        self._arena_garbage = 0
        self._learnt_flags: list[bool] = []
        self._lbd: list[int] = []
        self._learnt_ids: list[int] = []
        # Per-literal watch vectors: flat clause-index lists, compacted in
        # place during propagation.
        self._watches: list[list[int]] = []
        # Trail.
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # Heuristic parameters.
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._restart_base = 100
        self._ok = True
        self._model: list[bool] = []
        self._core: tuple[int, ...] | None = None
        # Proof logging (all None/unused when disabled).
        self._proof = ProofLog() if proof else None
        self._proof_clause_ids: list[int] = []   # arena index -> proof id
        self._proof_units: dict[int, int] = {}   # level-0 internal lit -> id
        self._last_learnt_proof_id = -1
        # Statistics.
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.db_reductions = 0
        self.solve_calls = 0
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #

    @property
    def num_vars(self) -> int:
        return self._nvars

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its positive DIMACS literal."""
        self._nvars += 1
        self._values.append(_UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(-1)
        self._activity.append(0.0)
        self._polarity.append(0)
        self._watches.append([])
        self._watches.append([])
        # Activity 0.0 never beats a parent, so the new variable stays in
        # the last heap slot.
        self._heap_pos.append(len(self._heap))
        self._heap.append(self._nvars - 1)
        return self._nvars

    def _ensure_var(self, var: int) -> None:
        while self._nvars < var:
            self.new_var()

    def add_cnf(self, cnf: CNF) -> None:
        self._ensure_var(cnf.num_vars)
        for clause in cnf:
            self.add_clause(clause)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause (DIMACS literals).

        Returns ``False`` if the database became trivially unsatisfiable.
        May only be called at decision level 0, which is where ``solve``
        always leaves the solver.
        """
        if self._trail_lim:
            raise SatError("clauses may only be added at decision level 0")
        if not self._ok:
            return False
        # Single pass: DIMACS -> internal encoding, dedup, max-var, all
        # inline (this is the clause-loading hot path of the unrollers).
        internal_set: set[int] = set()
        max_var = 0
        for lit in lits:
            if lit > 0:
                if lit > max_var:
                    max_var = lit
                internal_set.add(lit + lit - 2)
            elif lit < 0:
                if -lit > max_var:
                    max_var = -lit
                internal_set.add(-lit - lit - 1)
            else:
                raise SatError("literal 0 is not a valid DIMACS literal")
        if max_var > self._nvars:
            self._ensure_var(max_var)
        internal = sorted(internal_set)
        # Tautology and level-0 simplification.
        simplified: list[int] = []
        removed: list[int] = []   # literals false at level 0
        satisfied = False
        previous = -1
        values = self._values
        for lit in internal:
            if lit == previous ^ 1 and previous != -1:
                return True  # contains x and ~x: no proof obligation either
            value = values[lit >> 1]
            if value == 2:
                simplified.append(lit)
            elif value ^ (lit & 1) == 1:
                satisfied = True
            else:
                removed.append(lit)
            previous = lit
        proof_id = -1
        if self._proof is not None:
            # The clause as given is an axiom; if level-0 units deleted
            # literals, the attached clause is derived by resolving the
            # axiom with each deleted literal's unit.
            proof_id = self._proof.append(
                tuple(_to_external(lit) for lit in internal), ()
            )
            if removed and not satisfied:
                chain = (proof_id,) + tuple(
                    self._proof_units[lit ^ 1] for lit in removed
                )
                proof_id = self._proof.append(
                    tuple(_to_external(lit) for lit in simplified), chain
                )
        if satisfied:
            return True  # already satisfied at level 0
        if not simplified:
            self._ok = False
            if self._proof is not None:
                self._proof.root = proof_id
                self._proof.final = proof_id
            return False
        if len(simplified) == 1:
            if self._proof is not None:
                self._proof_units[simplified[0]] = proof_id
            self._enqueue(simplified[0], -1)
            conflict = self._propagate()
            if conflict != -1:
                self._ok = False
                if self._proof is not None:
                    self._log_level0_conflict(conflict)
                return False
            return True
        self._attach_clause(simplified, learnt=False, lbd=0,
                            proof_id=proof_id)
        return True

    def add_and_gate(self, a: int, b: int) -> int:
        """Allocate ``out`` and add the Tseitin clauses of ``out <-> a AND b``.

        Returns ``out`` (a positive DIMACS literal).  The database ends up
        exactly as after ``add_clause([-out, a])``, ``add_clause([-out,
        b])`` and ``add_clause([out, -a, -b])``.  In the common case (no
        proof log, ``a`` and ``b`` on distinct existing variables, neither
        assigned at level 0) the three clauses are attached directly,
        already in ``add_clause``'s sorted literal order; every other case
        goes through ``add_clause``.
        """
        out = self.new_var()
        values = self._values
        if (
            0 < abs(a) < out and 0 < abs(b) < out and abs(a) != abs(b)
            and self._proof is None and self._ok and not self._trail_lim
            and values[abs(a) - 1] == _UNASSIGNED
            and values[abs(b) - 1] == _UNASSIGNED
        ):
            la = a + a - 2 if a > 0 else -a - a - 1
            lb = b + b - 2 if b > 0 else -b - b - 1
            not_out = out + out - 1
            # out is the newest variable, so its literals sort last.
            low, high = (la ^ 1, lb ^ 1) if la < lb else (lb ^ 1, la ^ 1)
            index = len(self._cbase)
            base = len(self._arena)
            self._arena += (la, not_out, lb, not_out, low, high, not_out ^ 1)
            self._cbase += (base, base + 2, base + 4)
            self._csize += (2, 2, 3)
            self._learnt_flags += (False, False, False)
            self._lbd += (0, 0, 0)
            watches = self._watches
            watches[la].append(index)
            watches[not_out].append(index)
            watches[lb].append(index + 1)
            watches[not_out].append(index + 1)
            watches[low].append(index + 2)
            watches[high].append(index + 2)
            return out
        self.add_clause((-out, a))
        self.add_clause((-out, b))
        self.add_clause((out, -a, -b))
        return out

    def add_removable_clause(self, lits: Iterable[int]) -> int:
        """Add a clause guarded by a fresh activation literal.

        Returns the (positive DIMACS) activation literal: the clause only
        constrains a ``solve`` whose assumptions include it, and
        :meth:`retire_clause` disables it permanently.  If the clause is
        already falsified by level-0 facts, assuming the activation
        literal simply yields UNSAT with the literal in the core — the
        caller-visible behavior stays uniform.
        """
        activation = self.new_var()
        self.add_clause(list(lits) + [-activation])
        return activation

    def retire_clause(self, activation: int) -> None:
        """Permanently disable a clause added by ``add_removable_clause``.

        The activation variable is pinned false, which satisfies the
        guarded clause outright; the slot is reclaimed lazily by watch
        cleanup.  Never reuse a retired activation literal.
        """
        self.add_clause([-activation])

    def _attach_clause(
        self, lits: list[int], learnt: bool, lbd: int, proof_id: int = -1
    ) -> int:
        index = len(self._cbase)
        arena = self._arena
        self._cbase.append(len(arena))
        self._csize.append(len(lits))
        arena.extend(lits)
        self._learnt_flags.append(learnt)
        self._lbd.append(lbd)
        self._watches[lits[0]].append(index)
        self._watches[lits[1]].append(index)
        if learnt:
            self._learnt_ids.append(index)
            self.learned_clauses += 1
        if self._proof is not None:
            self._proof_clause_ids.append(proof_id)
        return index

    def _clause_lits(self, ci: int) -> list[int]:
        """The live literals of clause ``ci`` (an arena slice)."""
        base = self._cbase[ci]
        return self._arena[base:base + self._csize[ci]]

    # ------------------------------------------------------------------ #
    # Assignment primitives
    # ------------------------------------------------------------------ #

    def _lit_value(self, lit: int) -> int:
        value = self._values[lit >> 1]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int) -> None:
        var = lit >> 1
        self._values[var] = 1 ^ (lit & 1)
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(lit)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        values, polarity = self._values, self._polarity
        reasons = self._reasons
        heap, pos, act = self._heap, self._heap_pos, self._activity
        target = self._trail_lim[level]
        trail = self._trail
        size = len(heap)
        for i in range(len(trail) - 1, target - 1, -1):
            var = trail[i] >> 1
            polarity[var] = values[var]
            values[var] = _UNASSIGNED
            reasons[var] = -1
            if pos[var] != -1:
                continue
            # Re-insert into the branching heap: sift a hole up from the
            # end.
            hole = size
            size += 1
            heap.append(var)
            key = act[var]
            while hole > 0:
                parent = (hole - 1) >> 1
                above = heap[parent]
                if key > act[above]:
                    heap[hole] = above
                    pos[above] = hole
                    hole = parent
                else:
                    break
            heap[hole] = var
            pos[var] = hole
        del trail[target:]
        del self._trail_lim[level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #

    def _propagate(self) -> int:
        """Unit propagation.  Returns a conflicting clause index or -1.

        The hot loop of the solver.  Everything it touches is a flat int
        buffer aliased to a local: the clause arena, the per-literal watch
        vectors (compacted in place with a write pointer — no list is ever
        rebuilt or reallocated), the value/level/reason columns and the
        trail.  Binary clauses resolve without a replacement scan, and the
        implied-literal enqueue is inlined.  Clause visit order, literal
        reordering inside the arena and watch-list movement are exactly
        the reference two-watched-literal scheme, so search trajectories
        are reproducible run to run.
        """
        arena = self._arena
        cbase = self._cbase
        csize = self._csize
        watches = self._watches
        values = self._values
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        level = len(self._trail_lim)
        qhead = self._qhead
        propagated = 0
        # Proof mode: implications at decision level 0 are permanent facts
        # whose derivations later chains resolve against, so each gets its
        # own proof node.  One dead branch per implication when disabled.
        log_units = self._proof is not None and level == 0
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            propagated += 1
            false_lit = p ^ 1
            watch_list = watches[false_lit]
            i = j = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                size = csize[ci]
                if size == 0:
                    continue  # lazily drop watches of deleted clauses
                base = cbase[ci]
                first = arena[base]
                if first == false_lit:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = false_lit
                fv = values[first >> 1]
                if fv != 2 and fv ^ (first & 1) == 1:
                    watch_list[j] = ci
                    j += 1
                    continue
                if size > 2:
                    moved = False
                    for k in range(base + 2, base + size):
                        lit = arena[k]
                        lv = values[lit >> 1]
                        if lv == 2 or lv ^ (lit & 1) == 1:
                            arena[base + 1] = lit
                            arena[k] = false_lit
                            watches[lit].append(ci)
                            moved = True
                            break
                    if moved:
                        continue
                watch_list[j] = ci
                j += 1
                if fv != 2:  # first is false: conflict
                    while i < n:
                        watch_list[j] = watch_list[i]
                        i += 1
                        j += 1
                    del watch_list[j:]
                    self._qhead = qhead
                    self.propagations += propagated
                    return ci
                if log_units:
                    self._log_level0_unit(first, ci)
                var = first >> 1
                values[var] = 1 ^ (first & 1)
                levels[var] = level
                reasons[var] = ci
                trail.append(first)
            del watch_list[j:]
        self._qhead = qhead
        self.propagations += propagated
        return -1

    # ------------------------------------------------------------------ #
    # Proof logging (every method here is only reached with proof=True)
    # ------------------------------------------------------------------ #

    def _log_level0_unit(self, lit: int, ci: int) -> None:
        """Record the derivation of a literal implied at decision level 0.

        The implying clause is resolved with the unit of every other (all
        level-0-false) literal it contains, leaving the unit ``(lit)``.
        """
        chain = [self._proof_clause_ids[ci]]
        base = self._cbase[ci]
        for k in range(base, base + self._csize[ci]):
            other = self._arena[k]
            if other != lit:
                chain.append(self._proof_units[other ^ 1])
        self._proof_units[lit] = self._proof.append(
            (_to_external(lit),), tuple(chain)
        )

    def _log_level0_conflict(self, ci: int) -> None:
        """Record the empty clause from a conflict at decision level 0."""
        chain = [self._proof_clause_ids[ci]]
        base = self._cbase[ci]
        for k in range(base, base + self._csize[ci]):
            chain.append(self._proof_units[self._arena[k] ^ 1])
        root = self._proof.append((), tuple(chain))
        self._proof.root = root
        self._proof.final = root

    def _log_learnt(
        self, chain_cis: list[int], removed: list[int], learnt: list[int]
    ) -> int:
        """Record a learned clause's resolution chain.

        ``chain_cis`` holds the conflict clause and the reason clauses in
        first-UIP merge order; ``removed`` the literals deleted by clause
        minimization.  Each removed literal resolves against its own
        reason (latest-assigned first, so a literal such a step
        re-introduces is still eliminated afterwards), and any level-0
        literal picked up along the way is finally resolved away with its
        unit — level-0 literals are all false, so they can never form a
        second complementary pair mid-chain, and one elimination at the
        end each is enough.
        """
        levels = self._levels
        arena = self._arena
        cbase = self._cbase
        csize = self._csize
        clause_ids = self._proof_clause_ids
        chain = [clause_ids[ci] for ci in chain_cis]
        zero: set[int] = set()
        for ci in chain_cis:
            base = cbase[ci]
            for k in range(base, base + csize[ci]):
                lit = arena[k]
                if levels[lit >> 1] == 0:
                    zero.add(lit)
        if removed:
            position = {lit: i for i, lit in enumerate(self._trail)}
            removed = sorted(
                removed, key=lambda lit: position[lit ^ 1], reverse=True
            )
            for lit in removed:
                ci = self._reasons[lit >> 1]
                chain.append(clause_ids[ci])
                base = cbase[ci]
                for k in range(base, base + csize[ci]):
                    other = arena[k]
                    if levels[other >> 1] == 0:
                        zero.add(other)
        for lit in sorted(zero):
            chain.append(self._proof_units[lit ^ 1])
        return self._proof.append(
            tuple(_to_external(lit) for lit in learnt), tuple(chain)
        )

    @property
    def proof(self) -> ProofLog | None:
        """The resolution log (``None`` unless built with ``proof=True``).

        Live view: it keeps growing across ``solve`` calls.  Feed it to
        :class:`repro.itp.proof.ResolutionProof` for independent checking
        or interpolant extraction.
        """
        return self._proof

    # ------------------------------------------------------------------ #
    # Conflict analysis
    # ------------------------------------------------------------------ #

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            inv = 1e-100
            for i in range(len(activity)):
                activity[i] *= inv
            self._var_inc *= inv
        # Restore heap order: sift a hole up from the variable's slot.
        heap, pos = self._heap, self._heap_pos
        hole = pos[var]
        if hole == -1:
            return
        key = activity[var]
        while hole > 0:
            parent = (hole - 1) >> 1
            above = heap[parent]
            if key > activity[above]:
                heap[hole] = above
                pos[above] = hole
                hole = parent
            else:
                break
        heap[hole] = var
        pos[var] = hole

    def _analyze(self, conflict: int) -> tuple[list[int], int, int]:
        """First-UIP analysis.

        Returns ``(learnt_clause, backtrack_level, lbd)`` with the asserting
        literal in position 0.
        """
        levels = self._levels
        reasons = self._reasons
        arena = self._arena
        cbase = self._cbase
        csize = self._csize
        seen = bytearray(self._nvars)
        learnt: list[int] = [0]
        current_level = self._decision_level()
        counter = 0
        p = -1
        index = len(self._trail) - 1
        ci = conflict
        proof = self._proof
        chain_cis = [conflict] if proof is not None else None
        while True:
            base = cbase[ci]
            for k in range(base, base + csize[ci]):
                q = arena[k]
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            trail = self._trail
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            pvar = p >> 1
            seen[pvar] = 0
            counter -= 1
            if counter == 0:
                break
            ci = reasons[pvar]
            if chain_cis is not None:
                chain_cis.append(ci)
        learnt[0] = p ^ 1
        # Cheap clause minimization: drop literals whose reason is subsumed
        # by the rest of the learnt clause.
        for q in learnt[1:]:
            seen[q >> 1] = 1
        minimized = [learnt[0]]
        removed: list[int] = []
        for q in learnt[1:]:
            reason = reasons[q >> 1]
            if reason == -1:
                minimized.append(q)
                continue
            not_q = q ^ 1
            base = cbase[reason]
            for k in range(base, base + csize[reason]):
                r = arena[k]
                if r != not_q and not seen[r >> 1] and levels[r >> 1] != 0:
                    minimized.append(q)
                    break
            else:
                removed.append(q)
        learnt = minimized
        if proof is not None:
            # Trail and reasons are still intact here (the caller only
            # backtracks after analysis), which the chain builder needs.
            self._last_learnt_proof_id = self._log_learnt(
                chain_cis, removed, learnt
            )
        if len(learnt) == 1:
            backtrack = 0
        else:
            # Move the literal with the highest level into position 1.
            best = 1
            for k in range(2, len(learnt)):
                if levels[learnt[k] >> 1] > levels[learnt[best] >> 1]:
                    best = k
            learnt[1], learnt[best] = learnt[best], learnt[1]
            backtrack = levels[learnt[1] >> 1]
        lbd = len({levels[q >> 1] for q in learnt})
        return learnt, backtrack, lbd

    def _analyze_final(self, failed_assumption: int) -> list[int]:
        """Compute the subset of assumptions responsible for a conflict.

        ``failed_assumption`` is the internal literal of the assumption whose
        negation is currently implied.  Because the conflict arises while the
        assumption prefix is being placed, every decision on the trail is an
        assumption, so reason-less seen literals are exactly the culprits.
        """
        proof = self._proof
        out = {failed_assumption}
        chain: list[int] = []
        zero: set[int] = set()
        if self._trail_lim:
            seen = bytearray(self._nvars)
            seen[failed_assumption >> 1] = 1
            for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
                lit = self._trail[i]
                var = lit >> 1
                if not seen[var]:
                    continue
                reason = self._reasons[var]
                if reason == -1:
                    out.add(lit)
                else:
                    if proof is not None:
                        chain.append(self._proof_clause_ids[reason])
                    base = self._cbase[reason]
                    for k in range(base, base + self._csize[reason]):
                        q = self._arena[k]
                        if self._levels[q >> 1] > 0:
                            seen[q >> 1] = 1
                        elif proof is not None:
                            zero.add(q)
                seen[var] = 0
        if proof is not None:
            # The final clause negates the core.  Three shapes: a normal
            # reason walk (resolve the chained reasons, then the level-0
            # units); an assumption whose negation is a level-0 fact (the
            # existing unit already is the final clause); two directly
            # complementary assumptions (a tautology — not derivable).
            if chain:
                for lit in sorted(zero):
                    chain.append(self._proof_units[lit ^ 1])
                proof.final = proof.append(
                    tuple(sorted(_to_external(lit ^ 1) for lit in out)),
                    tuple(chain),
                )
            elif len(out) == 1:
                proof.final = self._proof_units.get(failed_assumption ^ 1)
            else:
                proof.final = None
        return [_to_external(lit) for lit in out]

    # ------------------------------------------------------------------ #
    # Learned clause database reduction
    # ------------------------------------------------------------------ #

    def _locked(self, ci: int) -> bool:
        if self._csize[ci] == 0:
            return False
        first = self._arena[self._cbase[ci]]
        return (self._lit_value(first) == 1
                and self._reasons[first >> 1] == ci)

    def _reduce_db(self) -> None:
        """Remove roughly half of the learned clauses, worst LBD first."""
        self.db_reductions += 1
        csize = self._csize
        lbd = self._lbd
        live = [ci for ci in self._learnt_ids if csize[ci]]
        live.sort(key=lambda ci: (lbd[ci], csize[ci]))
        keep_count = len(live) // 2
        for ci in live[keep_count:]:
            if self._locked(ci) or lbd[ci] <= 2:
                continue
            self._arena_garbage += csize[ci]
            csize[ci] = 0
        self._learnt_ids = [ci for ci in live if csize[ci]]
        if self._arena_garbage * 2 > len(self._arena):
            self._compact_arena()

    def _compact_arena(self) -> None:
        """Reclaim the arena slots of deleted clauses.

        Clause indices are stable (watch lists keep referring to the same
        ``ci``); only base offsets move, so nothing outside the arena and
        the offset column is touched.  Stale watches of deleted clauses
        keep being dropped lazily by propagation (``_csize == 0``).
        """
        old = self._arena
        cbase = self._cbase
        csize = self._csize
        fresh: list[int] = []
        for ci in range(len(cbase)):
            size = csize[ci]
            if size:
                base = cbase[ci]
                cbase[ci] = len(fresh)
                fresh.extend(old[base:base + size])
        self._arena = fresh
        self._arena_garbage = 0

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def _pick_branch_var(self) -> int:
        """Pop heap maxima until an unassigned variable turns up (or -1)."""
        heap, pos = self._heap, self._heap_pos
        if len(self._trail) == self._nvars:
            # Everything is assigned: popping one by one would end in the
            # same empty heap.
            for var in heap:
                pos[var] = -1
            heap.clear()
            return -1
        act = self._activity
        values = self._values
        size = len(heap)
        while size:
            top = heap[0]
            pos[top] = -1
            last = heap.pop()
            size -= 1
            if size:
                # Sift a hole down from the root for ``last``.
                key = act[last]
                i = 0
                while True:
                    child = 2 * i + 1
                    if child >= size:
                        break
                    best = heap[child]
                    best_key = act[best]
                    if child + 1 < size:
                        right = heap[child + 1]
                        if act[right] > best_key:
                            child += 1
                            best = right
                            best_key = act[right]
                    if best_key > key:
                        heap[i] = best
                        pos[best] = i
                        i = child
                    else:
                        break
                heap[i] = last
                pos[last] = i
            if values[top] == _UNASSIGNED:
                return top
        return -1

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
    ) -> SolveResult:
        """Solve the current database under the given assumptions.

        The database (including everything learned) is left intact, so
        subsequent calls reuse all prior work — this is the paper's
        "factorize several checks together within a single ZChaff run".

        ``conflict_budget`` bounds the search; exceeding it yields
        ``SolveResult.UNKNOWN``.
        """
        self.solve_calls += 1
        self._model = []
        self._core = None
        # Observability: like proof logging, the probe hooks never touch
        # the search (they only read counters), so trajectories stay
        # bit-identical; disabled cost is one branch per solve/restart.
        observed = _obs.ENABLED
        if observed:
            snapshot = _obs.begin_solve(self)
        metered = _met.ENABLED
        if metered:
            t0 = perf_counter()
        if not self._ok:
            self._core = ()
            if observed:
                _obs.end_solve(self, snapshot, SolveResult.UNSAT)
            if metered:
                _met.SAT_SOLVE_SECONDS.observe(perf_counter() - t0)
            return SolveResult.UNSAT
        for lit in assumptions:
            self._ensure_var(abs(lit))
        internal_assumptions = [_to_internal(lit) for lit in assumptions]
        conflicts_allowed = (float("inf") if conflict_budget is None
                             else conflict_budget)
        conflicts_at_start = self.conflicts
        restart_index = 0
        restart_limit = self._restart_base * _luby(restart_index)
        conflicts_since_restart = 0
        max_learnts = max(1000, len(self._csize) // 3)
        result = SolveResult.UNKNOWN
        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self._ok = False
                    self._core = ()
                    if self._proof is not None:
                        self._log_level0_conflict(conflict)
                    result = SolveResult.UNSAT
                    break
                self._var_inc /= self._var_decay
                learnt, backtrack, lbd = self._analyze(conflict)
                self._cancel_until(backtrack)
                if len(learnt) == 1:
                    if self._proof is not None:
                        self._proof_units[learnt[0]] = \
                            self._last_learnt_proof_id
                    self._enqueue(learnt[0], -1)
                else:
                    ci = self._attach_clause(
                        learnt, learnt=True, lbd=lbd,
                        proof_id=self._last_learnt_proof_id,
                    )
                    self._enqueue(learnt[0], ci)
                if self.conflicts - conflicts_at_start >= conflicts_allowed:
                    result = SolveResult.UNKNOWN
                    break
                if conflicts_since_restart >= restart_limit:
                    self.restarts += 1
                    restart_index += 1
                    restart_limit = self._restart_base * _luby(restart_index)
                    conflicts_since_restart = 0
                    self._cancel_until(0)
                    if observed:
                        _obs.tick("sat", self)
                if self.learned_clauses and \
                        len(self._learnt_ids) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue
            # No conflict: place assumptions first, then decide.
            if self._decision_level() < len(internal_assumptions):
                lit = internal_assumptions[self._decision_level()]
                value = self._lit_value(lit)
                if value == 1:
                    # Already implied; open an empty decision level so the
                    # level-to-assumption correspondence is maintained.
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == 0:
                    self._core = tuple(self._analyze_final(lit))
                    result = SolveResult.UNSAT
                    break
                self.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, -1)
                continue
            var = self._pick_branch_var()
            if var == -1:
                self._model = [value == 1 for value in self._values]
                result = SolveResult.SAT
                break
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(2 * var + (0 if self._polarity[var] else 1), -1)
        self._cancel_until(0)
        if observed:
            _obs.end_solve(self, snapshot, result)
        if metered:
            _met.SAT_SOLVE_SECONDS.observe(perf_counter() - t0)
        return result

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> list[bool]:
        """The satisfying assignment of the last SAT call, indexed by var-1."""
        if not self._model:
            raise SatError("no model available (last call was not SAT)")
        return list(self._model)

    def value(self, var: int) -> bool:
        """Value of ``var`` (a positive DIMACS variable) in the last model."""
        if not self._model:
            raise SatError("no model available (last call was not SAT)")
        if not 1 <= var <= len(self._model):
            raise SatError(f"variable {var} out of range")
        return self._model[var - 1]

    def lit_true(self, lit: int) -> bool:
        """Whether the DIMACS literal holds in the last model."""
        value = self.value(abs(lit))
        return value if lit > 0 else not value

    @property
    def core(self) -> tuple[int, ...] | None:
        """The last UNSAT verdict's assumption core, as DIMACS literals.

        ``None`` when the last ``solve`` call was not UNSAT; an empty
        tuple when the database is unsatisfiable outright (no assumption
        needed); otherwise the subset of the passed assumptions that
        already forces the conflict — re-solving under just these
        literals is UNSAT again.
        """
        return self._core

    @property
    def ok(self) -> bool:
        """False once the database is known unsatisfiable outright."""
        return self._ok

    def stats(self) -> dict[str, int]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "db_reductions": self.db_reductions,
            "solve_calls": self.solve_calls,
            "clauses": sum(1 for size in self._csize if size),
            "vars": self._nvars,
        }
