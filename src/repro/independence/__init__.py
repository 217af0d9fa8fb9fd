"""Update-FD independence analysis (Section 5 of the paper).

* :mod:`repro.independence.language` -- the dangerous-document language
  ``L`` of Definition 6, built as a flagged product of the FD trace
  automaton (with selected-subtree regions) and the update-class trace
  automaton, optionally intersected with a schema automaton;
* :mod:`repro.independence.criterion` -- the polynomial criterion IC of
  Propositions 2-3: ``L = ∅  ⇒  independent``;
* :mod:`repro.independence.matrix` -- batch IC over (FDs × update
  classes) grids, sharing factor automata and fixpoints across cells
  with opt-in process fan-out;
* :mod:`repro.independence.revalidate` -- the document-at-hand baseline
  in the spirit of [14]: apply the update, re-check the FD;
* :mod:`repro.independence.exhaustive` -- brute-force impact search over
  bounded document spaces (ground truth for the precision study T4);
* :mod:`repro.independence.hardness` -- the Proposition 1 reduction from
  regular-expression inclusion (Figures 7-8), runnable in both
  directions.
"""

from repro.independence.language import DangerousLanguage, dangerous_language
from repro.independence.criterion import (
    EAGER,
    LAZY,
    IndependenceResult,
    Verdict,
    check_independence,
)
from repro.independence.matrix import (
    IndependenceMatrix,
    MatrixCell,
    cell_from_record,
    cell_to_record,
    check_independence_matrix,
    check_view_independence_matrix,
)
from repro.independence.revalidate import (
    RoutedOutcome,
    apply_with_fallback,
    revalidation_check,
)
from repro.independence.exhaustive import exhaustive_impact_search
from repro.independence.hardness import (
    hardness_gadget,
    inclusion_via_independence,
    violation_witness_for,
)
from repro.independence.views import (
    ViewIndependenceResult,
    check_view_independence,
)
from repro.independence.explain import ImpactDemonstration, demonstrate_impact

__all__ = [
    "DangerousLanguage",
    "dangerous_language",
    "EAGER",
    "LAZY",
    "IndependenceResult",
    "Verdict",
    "check_independence",
    "IndependenceMatrix",
    "MatrixCell",
    "cell_from_record",
    "cell_to_record",
    "check_independence_matrix",
    "check_view_independence_matrix",
    "RoutedOutcome",
    "apply_with_fallback",
    "revalidation_check",
    "exhaustive_impact_search",
    "hardness_gadget",
    "inclusion_via_independence",
    "violation_witness_for",
    "ViewIndependenceResult",
    "check_view_independence",
    "ImpactDemonstration",
    "demonstrate_impact",
]
