"""The benchmark's workloads: design lists, expected verdicts, seeding.

Each workload is one engine run over a short list of generated designs.
Every design carries its expected verdict and, for FAILED designs, the
length of the shortest counterexample; all four engines used here are
breadth-first traversals, so a correct FAILED trace has exactly that
length.

The seed permutes the declaration order of each design's latches and
inputs: the design is serialized to the ``.net`` text format, its
``input``/``latch`` lines are shuffled among themselves, and the text is
parsed back.  That renumbers every AIG node and reorders the BDD
variables, so the engines see a different but equivalent netlist, and
the verdicts must not change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.circuits import generators as G
from repro.circuits.netlist import Netlist
from repro.circuits.parse import parse_netlist, serialize_netlist

# Traversal bound handed to every task; the deepest fix point below
# (mod_counter(12, 3000) forward) needs 3000 iterations.
MAX_DEPTH = 10_000


@dataclass(frozen=True)
class Design:
    """One generated design and the verdict it must get."""

    build: Callable[[], Netlist]
    proved: bool
    depth: int | None = None          # counterexample length when FAILED


@dataclass(frozen=True)
class Workload:
    engine: str
    designs: tuple[Design, ...]


WORKLOADS: dict[str, Workload] = {
    # The paper's backward engine on designs with primary inputs: input
    # quantification (merge, don't-care optimization, SAT sweeping) does
    # the work.
    "bwd_quant": Workload(
        "reach_aig",
        (
            Design(
                lambda: G.mod_counter(5, 20, safe=False, with_enable=True),
                proved=False,
                depth=19,
            ),
            Design(lambda: G.arbiter(8), proved=True),
            Design(
                lambda: G.one_hot_fsm(10, safe=False), proved=False, depth=1
            ),
        ),
    ),
    # Forward post-images quantify state and input variables: the
    # heaviest quantification load.
    "fwd_image": Workload(
        "reach_aig_fwd",
        (
            Design(lambda: G.fifo_level(4), proved=True),
            Design(lambda: G.gray_counter(4), proved=True),
            Design(lambda: G.mod_counter(5, 20), proved=True),
        ),
    ),
    # Input-free designs: nothing to quantify, so the traversal layer
    # (frontier/init SAT checks, compaction, trace concretization) works.
    "bwd_deep": Workload(
        "reach_aig",
        (
            Design(lambda: G.bug_at_depth(30), proved=False, depth=30),
            Design(
                lambda: G.mod_counter(5, 30, safe=False),
                proved=False,
                depth=29,
            ),
            Design(lambda: G.johnson_counter(14), proved=True),
        ),
    ),
    # Long BDD fix points with warm operation caches; bypasses the AIG
    # core, sweeping and SAT entirely.
    "bdd_fix": Workload(
        "reach_bdd_fwd",
        (
            Design(lambda: G.gray_counter(10), proved=True),
            Design(lambda: G.up_down_counter(12), proved=True),
            Design(lambda: G.mod_counter(12, 3000), proved=True),
        ),
    ),
}


def permute(netlist: Netlist, seed: int) -> Netlist:
    """Round-trip ``netlist`` through text with shuffled declarations."""
    lines = serialize_netlist(netlist).splitlines()
    slots = [
        i
        for i, line in enumerate(lines)
        if line.startswith(("input ", "latch "))
    ]
    declarations = [lines[i] for i in slots]
    random.Random(seed).shuffle(declarations)
    for slot, line in zip(slots, declarations):
        lines[slot] = line
    return parse_netlist("\n".join(lines) + "\n")


def build_netlists(workload: Workload, seed: int) -> list[Netlist]:
    """The workload's designs, each permuted by its own seeded stream."""
    return [
        permute(design.build(), seed * 1000 + index)
        for index, design in enumerate(workload.designs)
    ]


def judge(design: Design, netlist: Netlist, outcome) -> str | None:
    """Why ``outcome`` (a result or the exception raised) is wrong, or None.

    A design fails if it raised, ended UNKNOWN, got the wrong verdict, or
    returned a FAILED trace that does not replay on the netlist or has
    the wrong length.
    """
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    if outcome.proved:
        return None if design.proved else "PROVED, expected FAILED"
    if not outcome.failed:
        return "ended UNKNOWN"
    if design.proved:
        return "FAILED, expected PROVED"
    trace = outcome.trace
    if trace is None:
        return "FAILED without a trace"
    if trace.depth != design.depth:
        return f"trace length {trace.depth}, expected {design.depth}"
    try:
        replays = trace.validate(netlist)
    except Exception as exc:  # a malformed trace is a wrong answer
        return f"trace replay raised {type(exc).__name__}: {exc}"
    return None if replays else "trace does not replay"
