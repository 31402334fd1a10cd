"""Circuit-based quantifier elimination — the paper's contribution.

Existential quantification over AIG state sets via Shannon expansion
(``exists x . f  =  f|x=0  OR  f|x=1``), with the size explosion fought by

* the merge phase (:mod:`repro.core.merge` orchestrating the engines of
  :mod:`repro.sweep`) and
* the synthesis-based optimization phase (:mod:`repro.core.optimize`,
  don't-care machinery in :mod:`repro.core.dontcare`).

:func:`quantify_exists` (:mod:`repro.core.quantify`) is the one loop
that runs this pipeline over variables.  Section 3's traversal support
lives in :mod:`repro.core.images` (pre/post-image) and
:mod:`repro.core.substitution` (quantification by in-lining); Section 4's
partial quantification in :mod:`repro.core.partial`, which calls
:func:`quantify_exists` once per variable.
"""

from repro.core.quantify import (
    QuantifyOptions,
    QuantifyOutcome,
    quantify_exists,
    quantify_forall,
)
from repro.core.partial import PartialQuantifier, PartialOutcome
from repro.core.substitution import preimage_by_substitution
from repro.core.images import ImageComputer

__all__ = [
    "QuantifyOptions",
    "QuantifyOutcome",
    "quantify_exists",
    "quantify_forall",
    "PartialQuantifier",
    "PartialOutcome",
    "preimage_by_substitution",
    "ImageComputer",
]
