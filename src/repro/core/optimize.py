"""The synthesis-based optimization phase (Section 2.2).

After merging, ``f0 OR f1`` can still shrink: we transform each cofactor
using the *other* cofactor's onset as an input don't-care set — the
"category 1" optimizations the paper says it dedicates most effort to.
A multi-variable quantification runs the phase once, on the pair whose
disjunction is its result (see :func:`repro.core.quantify.quantify_exists`);
the single-variable step runs it on its one pair.

The algorithm per direction (simplify f1 under f0's onset):

1. simulate the cones on the shared sweeper's signature-table patterns
   (random words plus every learned counterexample) and derive candidate
   transformations per node (constants and merges modulo complement)
   valid on all simulated *care* patterns;
2. validate candidates with the input-DC SAT check, walking the cone
   root-down over live nodes only: those the final rebuild reaches,
   i.e. the root and the fanins of live nodes left unreplaced.  A
   replaced node's sub-cone is never checked for its own sake, and the
   ``MAX_INPUT_DC_CHECKS`` cap per direction counts live checks, so it
   goes to the nodes nearest the root.  Validated input-DC
   replacements compose, so they are applied in one batch rebuild;
3. keep the transformed disjunction only if it did not grow.
"""

from __future__ import annotations

from repro.aig.analysis import cone_size_many
from repro.aig.graph import Aig, edge_not
from repro.aig.ops import or_
from repro.core.dontcare import DontCareOracle, care_set_candidates
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


# Merge candidates proposed per node, and input-DC SAT checks made per
# simplification direction.
MAX_MERGE_CANDIDATES = 4
MAX_INPUT_DC_CHECKS = 200


def _simplify_against(
    aig: Aig,
    reference: int,
    target: int,
    oracle: DontCareOracle,
    stats: StatsBag,
) -> int:
    """Simplify ``target`` using the onset of ``reference`` as DC set."""
    candidates = care_set_candidates(
        aig,
        reference,
        target,
        oracle.sweeper.signature_table([reference, target]),
        max_merge_candidates=MAX_MERGE_CANDIDATES,
    )
    care_edge = edge_not(reference)
    replacements: dict[int, int] = {}
    # Root-down over the nodes the rebuild will reach: a node is live
    # until every path to it from the root passes a replaced node.
    live = {target >> 1}
    checks = 0
    for node in reversed(aig.cone([target])):
        if checks >= MAX_INPUT_DC_CHECKS:
            break
        if node not in live or not aig.is_and(node):
            continue
        for candidate in candidates.get(node, ()):
            if checks >= MAX_INPUT_DC_CHECKS:
                break
            checks += 1
            if oracle.valid_under_input_dc(care_edge, 2 * node, candidate):
                replacements[node] = candidate
                stats.incr("input_dc_replacements")
                break
        if node not in replacements:
            f0, f1 = aig.fanins(node)
            live.update((f0 >> 1, f1 >> 1))
    if not replacements:
        return target
    return aig.rebuild(target, replacements)


def optimize_disjunction(
    aig: Aig,
    f0: int,
    f1: int,
    sweeper: SatSweeper | None = None,
) -> tuple[int, StatsBag]:
    """Optimize ``f0 OR f1`` by mutual cofactor simplification.

    Returns ``(result_edge, stats)``.  The result is guaranteed no larger
    than the plain disjunction (a growing transform is discarded).
    """
    if sweeper is None:
        sweeper = SatSweeper(aig)
    stats = StatsBag()
    sweeper.fit_solver([f0, f1])
    sweeper_before = sweeper.stats.as_dict()
    oracle = DontCareOracle(aig, sweeper)
    baseline = or_(aig, f0, f1)
    baseline_size = cone_size_many(aig, [baseline])
    f1_simplified = _simplify_against(aig, f0, f1, oracle, stats)
    f0_simplified = _simplify_against(aig, f1_simplified, f0, oracle, stats)
    best = or_(aig, f0_simplified, f1_simplified)
    best_size = cone_size_many(aig, [best])
    if best_size > baseline_size:
        stats.incr("growth_discarded")
        best, best_size = baseline, baseline_size
    stats.merge(oracle.stats)
    # The sweeper may be shared: report only the checks made here.
    stats.merge(sweeper.stats.growth_since(sweeper_before))
    stats.set("size_before", baseline_size)
    stats.set("size_after", best_size)
    return best, stats
