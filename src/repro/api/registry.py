"""The engine registry: one enumerable source of truth for every engine.

The paper's message — no single image/quantification strategy wins
everywhere, so strategies must be interchangeable and schedulable —
needs an API to match: engines are described once, as an
:class:`EngineSpec` carrying the name, the capability flags consumers
select on, the typed option dataclass, and the runner itself.  Every
consumer derives from here:

* :func:`repro.mc.verify` resolves its ``method=`` argument via
  :func:`get_engine`;
* the portfolio derives its default candidate set from capability
  queries (:func:`engines_with`);
* the CLI builds its ``--method`` choices from :func:`engine_names`,
  so a newly registered engine appears there without edits.

Engines register themselves with the :func:`register_engine` decorator::

    @register_engine(
        name="my_engine",
        summary="one-line description",
        options_class=MyOptions,
        depth_field="max_iterations",
        complete=True,
    )
    def _run_my_engine(netlist, options):
        return ...  # a VerificationResult

The built-in engines live in :mod:`repro.mc.engine`; that module is
imported lazily on first query so the registry is always populated, in
whatever import order the process chose.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import ModelCheckingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.netlist import Netlist
    from repro.mc.result import VerificationResult

_REGISTRY: dict[str, "EngineSpec"] = {}
_builtin_loaded = False


def _ensure_builtin() -> None:
    """Import the module that registers the built-in engines, once."""
    global _builtin_loaded
    if not _builtin_loaded:
        _builtin_loaded = True
        import repro.mc.engine  # noqa: F401 - registration side effect


@dataclass(frozen=True)
class EngineSpec:
    """One verification engine: identity, capabilities, options, runner.

    Capability flags are what consumers select on:

    * ``produces_trace`` — FAILED results carry a replayable
      counterexample;
    * ``complete`` — the engine can PROVE (BMC, a pure falsifier, has
      ``complete=False``);
    * ``supports_constraints`` — honors netlist environment constraints;
    * ``quick`` — cheap early-exit engine, fronted by sequential
      portfolio policies;
    * ``composite`` — dispatches to other engines (the portfolio); never
      a portfolio *candidate* itself;
    * ``variant_of`` — another engine this one runs with a different
      built-in mode (``reach_aig_allsat``/``_hybrid`` eliminate inputs
      their own way); excluded from default portfolios, which already
      run the base engine.

    ``direction`` is ``"backward"``, ``"forward"`` or ``"any"``.
    ``options_class`` is the engine's typed option dataclass and
    ``depth_field`` names the field of it that a caller's ``max_depth``
    budget initializes.  Anything the engine name itself implies is the
    runner's business, not an option.
    """

    name: str
    summary: str
    run: Callable[["Netlist", object], "VerificationResult"]
    options_class: type | None = None
    depth_field: str | None = None
    produces_trace: bool = True
    complete: bool = True
    supports_constraints: bool = True
    quick: bool = False
    direction: str = "backward"
    composite: bool = False
    variant_of: str | None = None

    # ------------------------------------------------------------------ #
    # Option normalization
    # ------------------------------------------------------------------ #

    def make_options(self, max_depth: int, overrides: Mapping[str, object]):
        """One normalization for every engine.

        Callers either pass a ready-made ``options=...`` object (whose
        own depth field is respected) or loose keyword options merged
        into a fresh object; ``max_depth`` initializes the depth field
        unless explicitly overridden.
        """
        overrides = dict(overrides)
        provided = overrides.pop("options", None)
        if provided is not None:
            if overrides:
                raise ModelCheckingError(
                    f"pass either options=... or loose keywords, not both: "
                    f"{sorted(overrides)}"
                )
            return provided
        if self.options_class is None:
            if overrides:
                raise ModelCheckingError(
                    f"engine {self.name!r} takes no options: "
                    f"{sorted(overrides)}"
                )
            return None
        if self.depth_field is not None:
            overrides.setdefault(self.depth_field, max_depth)
        try:
            return self.options_class(**overrides)
        except TypeError as exc:
            known = sorted(
                f.name for f in dataclasses.fields(self.options_class)
            )
            raise ModelCheckingError(
                f"bad options for engine {self.name!r}: {exc}; "
                f"known options are {known}"
            ) from None

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def verify(
        self,
        netlist: "Netlist",
        max_depth: int = 100,
        **options: object,
    ) -> "VerificationResult":
        """Run this engine with normalized options and a validated trace.

        Counterexample traces of FAILED results are replay-validated
        before being returned — an engine producing a bogus trace is a
        bug, not a result.
        """
        from repro.mc.result import Status

        result = self.run(netlist, self.make_options(max_depth, options))
        if result.status is Status.FAILED and result.trace is not None:
            if not result.trace.validate(netlist):
                raise ModelCheckingError(
                    f"{self.name} produced an invalid counterexample trace"
                )
        return result


# ---------------------------------------------------------------------- #
# Registration and queries
# ---------------------------------------------------------------------- #


def register_engine(
    *,
    name: str,
    summary: str,
    options_class: type | None = None,
    depth_field: str | None = None,
    produces_trace: bool = True,
    complete: bool = True,
    supports_constraints: bool = True,
    quick: bool = False,
    direction: str = "backward",
    composite: bool = False,
    variant_of: str | None = None,
) -> Callable:
    """Decorator registering a ``(netlist, options) -> result`` runner."""
    if direction not in ("backward", "forward", "any"):
        raise ModelCheckingError(
            f"engine direction must be backward/forward/any, "
            f"not {direction!r}"
        )

    def _register(run: Callable) -> Callable:
        if name in _REGISTRY:
            raise ModelCheckingError(f"engine {name!r} already registered")
        _REGISTRY[name] = EngineSpec(
            name=name,
            summary=summary,
            run=run,
            options_class=options_class,
            depth_field=depth_field,
            produces_trace=produces_trace,
            complete=complete,
            supports_constraints=supports_constraints,
            quick=quick,
            direction=direction,
            composite=composite,
            variant_of=variant_of,
        )
        return run

    return _register


def unregister_engine(name: str) -> None:
    """Remove an engine (tests registering temporary engines clean up)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> EngineSpec:
    """The spec registered under ``name``; raises with the known names."""
    _ensure_builtin()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ModelCheckingError(
            f"unknown engine {name!r}; choose from {engine_names()}"
        )
    return spec


def engine_names() -> tuple[str, ...]:
    """Every registered engine name, in registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY)


def iter_engines() -> tuple[EngineSpec, ...]:
    """Every registered spec, in registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY.values())


def engine_catalog() -> list[dict]:
    """Machine-readable registry: one JSON-shaped dict per engine.

    This is the payload of ``repro engines --json`` and of the
    verification service's ``/engines`` endpoint, so a remote client
    can validate a submission's ``method`` (and discover its option
    names) without importing the registry — the schema is stable:
    ``name``/``summary``/``direction``/``depth_field`` scalars, a
    ``capabilities`` flag map, and the option dataclass's field names.
    """
    _ensure_builtin()
    catalog = []
    for spec in _REGISTRY.values():
        options = (
            sorted(f.name for f in dataclasses.fields(spec.options_class))
            if spec.options_class is not None
            else []
        )
        catalog.append(
            {
                "name": spec.name,
                "summary": spec.summary,
                "direction": spec.direction,
                "depth_field": spec.depth_field,
                "capabilities": {
                    "produces_trace": spec.produces_trace,
                    "complete": spec.complete,
                    "supports_constraints": spec.supports_constraints,
                    "quick": spec.quick,
                    "composite": spec.composite,
                    "variant_of": spec.variant_of,
                },
                "options": options,
            }
        )
    return catalog


def engines_with(**flags: object) -> tuple[EngineSpec, ...]:
    """Specs whose attributes match every given flag, e.g.
    ``engines_with(complete=True, composite=False)``."""
    _ensure_builtin()
    return tuple(
        spec
        for spec in _REGISTRY.values()
        if all(getattr(spec, key) == value for key, value in flags.items())
    )
