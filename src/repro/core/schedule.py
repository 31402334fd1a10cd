"""Variable-ordering heuristics for multi-variable quantification.

``exists {x1..xk} . f`` is computed one variable at a time, and the order
matters enormously: a variable whose cofactors are nearly identical is
almost free (the merge phase collapses them), while a deeply entangled
variable can double the circuit.  The paper's "partial quantification"
aborts the expensive ones; these schedulers try to not meet them early in
the first place.

Heuristics (all return the *next* variable to quantify):

* ``static``         — caller-given order, no analysis;
* ``min_dependence`` — fewest AND nodes structurally depending on the
  variable (the default greedy schedule; cheap, one cone walk);
* ``min_level``      — shallowest variable first (its cofactors share the
  most top logic);
* ``cofactor_probe`` — simulate both cofactors on random patterns and pick
  the variable whose cofactors agree most often (highest expected merge
  yield, the most faithful to the paper's "similar cofactors" notion).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.aig.graph import Aig
from repro.aig.simulate import simulate, word_mask
from repro.errors import AigError

Scheduler = Callable[[Aig, int, Sequence[int]], int]


def schedule_static(
    aig: Aig, edge: int, candidates: Sequence[int]
) -> int:
    """Caller order: always the first remaining variable."""
    return candidates[0]


def schedule_min_dependence(
    aig: Aig, edge: int, candidates: Sequence[int]
) -> int:
    """The variable with the fewest structurally dependent AND nodes."""
    return min(
        candidates, key=lambda var: dependence_cost(aig, edge, var)
    )


def schedule_min_level(
    aig: Aig, edge: int, candidates: Sequence[int]
) -> int:
    """The variable whose deepest dependent node is shallowest.

    A variable only feeding shallow logic perturbs a small top slice of
    the cone; its two cofactors share everything below.
    """
    def max_dependent_level(var: int) -> int:
        dependent: set[int] = {var}
        deepest = 0
        for node in aig.cone([edge]):
            if not aig.is_and(node):
                continue
            f0, f1 = aig.fanins(node)
            if (f0 >> 1) in dependent or (f1 >> 1) in dependent:
                dependent.add(node)
                deepest = max(deepest, aig.level(node))
        return deepest

    return min(candidates, key=max_dependent_level)


def schedule_cofactor_probe(
    aig: Aig,
    edge: int,
    candidates: Sequence[int],
    words: int = 2,
    seed: int = 2005,
) -> int:
    """The variable whose cofactors agree on the most random patterns.

    High agreement predicts a high merge yield — the paper's "high merge
    probability (similar cofactors)" case, where quantification is cheap.
    Ties break towards lower dependence cost.
    """
    rng = random.Random(seed)
    vectors = {
        node: rng.getrandbits(64 * words)
        for node in aig.cone([edge])
        if aig.is_input(node)
    }

    def disagreement(var: int) -> tuple[int, int]:
        low = dict(vectors)
        low[var] = 0
        high = dict(vectors)
        high[var] = word_mask(words)
        value_low = simulate(aig, low, [edge], words)[edge]
        value_high = simulate(aig, high, [edge], words)[edge]
        differing = (value_low ^ value_high).bit_count()
        return differing, dependence_cost(aig, edge, var)

    return min(candidates, key=disagreement)


_SCHEDULERS: dict[str, Scheduler] = {
    "static": schedule_static,
    "min_dependence": schedule_min_dependence,
    "min_level": schedule_min_level,
    "cofactor_probe": schedule_cofactor_probe,
}


def get_scheduler(name: str) -> Scheduler:
    """Look up a scheduling heuristic by name."""
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise AigError(
            f"unknown quantification schedule {name!r}; "
            f"choose from {sorted(_SCHEDULERS)}"
        ) from None


def scheduler_names() -> list[str]:
    """All registered schedule names (benchmark sweeps iterate these)."""
    return sorted(_SCHEDULERS)


def schedule_variable_order(
    aig: Aig,
    edge: int,
    variables: Sequence[int],
    schedule: str = "min_dependence",
) -> list[int]:
    """A complete quantification order by repeated scheduler application.

    This is the *static* form of the per-step scheduling that
    :func:`repro.core.quantify.quantify_exists` performs dynamically: the
    chosen heuristic is applied to the fixed ``edge`` until every variable
    is placed.  Image pipelines use it to decide the conjunction order and
    early-quantification points of a partitioned transition relation —
    both the AIG and the BDD engines speak this one vocabulary.
    """
    scheduler = get_scheduler(schedule)
    remaining = list(dict.fromkeys(variables))
    order: list[int] = []
    while remaining:
        var = scheduler(aig, edge, remaining)
        remaining.remove(var)
        order.append(var)
    return order


@dataclass(frozen=True)
class ImageStep:
    """One step of a partitioned image computation.

    ``conjoin`` lists partition indices to AND into the running product;
    ``quantify`` lists the variables that become quantifiable right after
    (no remaining partition depends on them).
    """

    conjoin: tuple[int, ...]
    quantify: tuple[int, ...]


def plan_partitioned_quantification(
    var_order: Sequence[int],
    supports: Sequence[Iterable[int]],
) -> list[ImageStep]:
    """Schedule a partitioned relational product with early quantification.

    Given the quantification order of the variables and the support of
    each partition (transition-relation cluster), produce the IWLS95-style
    plan: walk the variables in order, conjoin the not-yet-conjoined
    partitions that depend on the current variable, then quantify every
    variable no remaining partition mentions.  Partitions whose support
    contains no scheduled variable are conjoined in a final step.

    The plan is representation-agnostic — the AIG image computer executes
    it with circuit conjunction + circuit quantification, the BDD engine
    with ``and_exists`` — which is what lets both paths share the
    scheduling heuristics of this module.
    """
    support_sets = [frozenset(s) for s in supports]
    remaining = set(range(len(support_sets)))
    quantified: set[int] = set()
    steps: list[ImageStep] = []
    for var in var_order:
        if var in quantified:
            continue
        conjoin = sorted(c for c in remaining if var in support_sets[c])
        remaining.difference_update(conjoin)
        pending: set[int] = set()
        for c in remaining:
            pending |= support_sets[c]
        free = tuple(
            v for v in var_order if v not in quantified and v not in pending
        )
        quantified.update(free)
        steps.append(ImageStep(tuple(conjoin), free))
    if remaining:
        steps.append(ImageStep(tuple(sorted(remaining)), ()))
    return steps


def dependence_cost(aig: Aig, edge: int, var_node: int) -> int:
    """How many AND nodes of the cone structurally depend on the variable."""
    dependent: set[int] = {var_node}
    count = 0
    for node in aig.cone([edge]):
        if not aig.is_and(node):
            continue
        f0, f1 = aig.fanins(node)
        if (f0 >> 1) in dependent or (f1 >> 1) in dependent:
            dependent.add(node)
            count += 1
    return count
