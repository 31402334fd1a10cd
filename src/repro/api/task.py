"""Typed description of one verification problem plus its budgets.

A :class:`VerificationTask` is everything a :class:`repro.api.Session`
needs to run (and cache, and report on) one problem: the netlist, the
engine name, and two budgets — traversal depth and wall-clock seconds.
Tasks are plain data; building one runs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.registry import EngineSpec, get_engine
from repro.circuits.netlist import Netlist


@dataclass
class VerificationTask:
    """One netlist, one engine, explicit budgets.

    * ``max_depth`` — bounds BMC depth / induction k / traversal
      iterations (the engine option dataclass's depth field).
    * ``timeout`` — wall-clock seconds; when set, the engine runs in a
      worker process that is terminated at the deadline and the task
      reports UNKNOWN.  A composite engine budgets its own workers, so
      the timeout becomes its per-engine budget instead (an explicit
      ``budget`` in ``options`` wins).
    * ``options`` — extra engine options, exactly as
      :func:`repro.mc.verify` accepts them (loose keywords, or a
      ready-made dataclass under the ``"options"`` key).
    * ``label`` — display name for progress events; defaults to the
      netlist's own name.
    """

    netlist: Netlist
    engine: str = "reach_aig"
    max_depth: int = 100
    timeout: float | None = None
    options: dict[str, object] = field(default_factory=dict)
    label: str | None = None

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.netlist.name

    def spec(self) -> EngineSpec:
        """Resolve the engine name (raises on an unknown engine)."""
        return get_engine(self.engine)
