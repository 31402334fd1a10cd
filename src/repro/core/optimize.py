"""The synthesis-based optimization phase (Section 2.2).

After merging, ``f0 OR f1`` can still shrink: we transform each cofactor
using the *other* cofactor's onset as an input don't-care set — the
"category 1" optimizations the paper says it dedicates most effort to —
then optionally run truth-table rewriting on the final disjunction
("category 2").

The algorithm per direction (simplify f1 under f0's onset):

1. simulate the cones on the shared sweeper's signature-table patterns
   (random words plus every learned counterexample) and derive candidate
   transformations per node (constants and merges modulo complement)
   valid on all simulated *care* patterns;
2. validate candidates with the input-DC SAT check; validated input-DC
   replacements compose, so they are applied in one batch rebuild;
3. optionally retry failed candidates under the observability-DC rule
   (full output equivalence check); these do not compose and are applied
   one at a time;
4. keep the transformed cofactor only if it did not grow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.analysis import cone_size_many
from repro.aig.graph import Aig, edge_not
from repro.aig.ops import or_
from repro.aig.rewrite import rewrite_root
from repro.core.dontcare import DontCareOracle, care_set_candidates
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


@dataclass
class OptimizeOptions:
    """Knobs of the optimization phase."""

    use_input_dc: bool = True
    use_odc: bool = False          # observability checks are expensive
    use_rewrite: bool = False
    max_merge_candidates: int = 4
    max_input_dc_checks: int = 200
    max_odc_checks: int = 30


def _simplify_against(
    aig: Aig,
    reference: int,
    target: int,
    oracle: DontCareOracle,
    options: OptimizeOptions,
    stats: StatsBag,
) -> int:
    """Simplify ``target`` using the onset of ``reference`` as DC set."""
    candidates = care_set_candidates(
        aig,
        reference,
        target,
        oracle.sweeper.signature_table([reference, target]),
        max_merge_candidates=options.max_merge_candidates,
    )
    care_edge = edge_not(reference)
    replacements: dict[int, int] = {}
    odc_retry: list[tuple[int, int]] = []
    checks = 0
    for node in aig.cone([target]):
        if node not in candidates or not aig.is_and(node):
            continue
        for candidate in candidates[node]:
            if checks >= options.max_input_dc_checks:
                break
            checks += 1
            verdict = oracle.valid_under_input_dc(
                care_edge, 2 * node, candidate
            )
            if verdict:
                replacements[node] = candidate
                stats.incr("input_dc_replacements")
                break
            if verdict is False and options.use_odc:
                odc_retry.append((node, candidate))
    simplified = target
    if replacements:
        simplified = aig.rebuild(target, replacements)
    if options.use_odc:
        odc_checks = 0
        for node, candidate in odc_retry:
            if odc_checks >= options.max_odc_checks:
                break
            # The node may have disappeared from the rebuilt cone.
            if node not in set(aig.cone([simplified])):
                continue
            odc_checks += 1
            transformed = aig.rebuild(simplified, {node: candidate})
            verdict = oracle.valid_under_odc(reference, simplified, transformed)
            if verdict:
                simplified = transformed
                stats.incr("odc_replacements")
    return simplified


def optimize_disjunction(
    aig: Aig,
    f0: int,
    f1: int,
    sweeper: SatSweeper | None = None,
    options: OptimizeOptions | None = None,
) -> tuple[int, StatsBag]:
    """Optimize ``f0 OR f1`` by mutual cofactor simplification.

    Returns ``(result_edge, stats)``.  The result is guaranteed no larger
    than the plain disjunction (a growing transform is discarded).
    """
    if options is None:
        options = OptimizeOptions()
    if sweeper is None:
        sweeper = SatSweeper(aig)
    stats = StatsBag()
    sweeper.fit_solver([f0, f1])
    sweeper_before = sweeper.stats.as_dict()
    oracle = DontCareOracle(aig, sweeper)
    baseline = or_(aig, f0, f1)
    baseline_size = cone_size_many(aig, [baseline])
    best = baseline
    best_size = baseline_size
    if options.use_input_dc or options.use_odc:
        f1_simplified = _simplify_against(
            aig, f0, f1, oracle, options, stats
        )
        f0_simplified = _simplify_against(
            aig, f1_simplified, f0, oracle, options, stats
        )
        candidate = or_(aig, f0_simplified, f1_simplified)
        candidate_size = cone_size_many(aig, [candidate])
        if candidate_size <= best_size:
            best, best_size = candidate, candidate_size
        else:
            stats.incr("growth_discarded")
    if options.use_rewrite:
        rewritten = rewrite_root(aig, best)
        rewritten_size = cone_size_many(aig, [rewritten])
        if rewritten_size < best_size:
            stats.set("rewrite_gain", best_size - rewritten_size)
            best, best_size = rewritten, rewritten_size
    stats.merge(oracle.stats)
    # The sweeper may be shared: report only the checks made here.
    stats.merge(sweeper.stats.growth_since(sweeper_before))
    stats.set("size_before", baseline_size)
    stats.set("size_after", best_size)
    return best, stats
