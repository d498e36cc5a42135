"""The MAXSS → MAXGSAT approximation-factor-preserving reduction (Section IV).

The reduction builds, from a set Σ of eCFDs over schema R, a MAXGSAT
instance ``f(Σ)`` together with a decoding function ``g`` such that

1. ``f`` and ``g`` are PTIME;
2. ``card(OPT_maxgsat(f(Σ))) = card(OPT_maxss(Σ))``;
3. for any truth assignment ``p`` with satisfied-formula set ``Φ_m``,
   ``card(g(Φ_m)) ≥ card(Φ_m)`` and ``g(Φ_m)`` is a satisfiable subset of Σ.

Construction (following the paper, with the single practical deviation that
only the attributes actually mentioned by Σ get variables — unmentioned
attributes contribute a single fresh value and only constant-true
conjuncts, so dropping them changes nothing):

* For every mentioned attribute ``A_i`` the active domain ``adom(A_i)`` is
  the set of constants mentioned for ``A_i`` plus one extra domain value
  (when one exists).  For each ``a ∈ adom(A_i)`` there is a Boolean
  variable ``x(i, a)`` meaning "the template tuple t has t[A_i] = a".
* ``φ_i`` asserts that exactly one of the ``x(i, ·)`` holds:
  ``∨_a x(i,a)  ∧  ∧_{a≠b} (x(i,a) → ¬x(i,b))``; ``Φ_R`` is the conjunction
  of all ``φ_i``.
* For an eCFD ``φ`` with pattern tuple ``tp``::

      ψ(φ, tp) =  ∨_{B ∈ X} [t[B] ⋬ tp[B]]  ∨  ∧_{A ∈ Y ∪ Yp} [t[A] ≍ tp[A]]

  where ``[t[B] ≍ S]`` is the disjunction of ``x(B, a)`` over ``a ∈ S``,
  ``[t[B] ≍ S̄]`` is the conjunction of ``¬x(B, a)`` over ``a ∈ S`` and the
  wildcard encodes ``true`` (non-match is the dual).
* The MAXGSAT instance has one formula per member of Σ:
  ``Ψ(φ) = Φ_R ∧ ∧_{tp ∈ Tp} ψ(φ, tp)`` — for single-pattern eCFDs this is
  exactly the paper's ``ψ(φ, tp) ∧ Φ_R``; for multi-pattern eCFDs the
  conjunction keeps the one-formula-per-constraint correspondence that
  MAXSS needs.

``g`` reads the template tuple back from a truth assignment (picking, for
each attribute, the value whose variable is true) and returns the subset of
Σ satisfied by that single-tuple database.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.analysis.active_domain import active_domains, mentioned_attributes
from repro.core.ecfd import ECFD, ECFDSet
from repro.core.patterns import ComplementSet, PatternValue, ValueSet, Wildcard
from repro.core.schema import RelationSchema, Value
from repro.exceptions import ConstraintError
from repro.sat.expr import FALSE, TRUE, Expression, Not, Var, conjoin, disjoin
from repro.sat.maxgsat import MaxGSATInstance

__all__ = ["ReductionResult", "reduce_to_maxgsat", "variable_name"]


def variable_name(attribute: str, value: Value) -> str:
    """The name of the Boolean variable ``x(i, a)`` for ``t[attribute] = value``."""
    return f"x[{attribute}={value!r}]"


@dataclass(frozen=True)
class ReductionResult:
    """The output of ``f`` plus everything needed to compute ``g``.

    Attributes
    ----------
    instance:
        The MAXGSAT instance ``f(Σ)``; formula ``i`` corresponds to the
        ``i``-th eCFD of ``constraints``.
    constraints:
        The input Σ, in order.
    domains:
        Active domain per mentioned attribute.
    schema:
        The common relation schema.
    """

    instance: MaxGSATInstance
    constraints: tuple[ECFD, ...]
    domains: dict[str, list[Value]]
    schema: RelationSchema

    # ------------------------------------------------------------------
    # Decoding (the function g of the paper)
    # ------------------------------------------------------------------
    def decode_tuple(self, assignment: Mapping[str, bool]) -> dict[str, Value]:
        """Instantiate the template tuple from a truth assignment.

        For each mentioned attribute the value whose variable is true is
        chosen (the first one in deterministic order if the assignment
        violates the uniqueness formulas); attributes with no true variable,
        and unmentioned attributes, get a fresh domain value.
        """
        witness: dict[str, Value] = {}
        for attribute, candidates in self.domains.items():
            chosen: Value | None = None
            for value in candidates:
                if assignment.get(variable_name(attribute, value), False):
                    chosen = value
                    break
            if chosen is None:
                fresh = self.schema.domain(attribute).fresh_value(exclude=candidates)
                chosen = fresh if fresh is not None else candidates[0]
            witness[attribute] = chosen
        for attribute in self.schema.attribute_names:
            if attribute not in witness:
                fresh = self.schema.domain(attribute).fresh_value()
                witness[attribute] = fresh if fresh is not None else "_"
        return witness

    def decode_satisfied(self, assignment: Mapping[str, bool]) -> list[int]:
        """``g(Φ_m)``: indices of the eCFDs satisfied by the decoded tuple."""
        witness = self.decode_tuple(assignment)
        return [
            index
            for index, constraint in enumerate(self.constraints)
            if constraint.satisfied_by_single_tuple(witness)
        ]


def _match_expression(attribute: str, pattern: PatternValue) -> Expression:
    """The Boolean encoding of ``t[attribute] ≍ pattern``."""
    if isinstance(pattern, Wildcard):
        return TRUE
    if isinstance(pattern, ValueSet):
        return disjoin([Var(variable_name(attribute, value)) for value in sorted(pattern.values)])
    if isinstance(pattern, ComplementSet):
        return conjoin(
            [Not(Var(variable_name(attribute, value))) for value in sorted(pattern.values)]
        )
    raise ConstraintError(f"unknown pattern kind {pattern!r}")


def _no_match_expression(attribute: str, pattern: PatternValue) -> Expression:
    """The Boolean encoding of ``t[attribute] ⋬ pattern`` (the dual of matching)."""
    if isinstance(pattern, Wildcard):
        return FALSE
    if isinstance(pattern, ValueSet):
        return conjoin(
            [Not(Var(variable_name(attribute, value))) for value in sorted(pattern.values)]
        )
    if isinstance(pattern, ComplementSet):
        return disjoin([Var(variable_name(attribute, value)) for value in sorted(pattern.values)])
    raise ConstraintError(f"unknown pattern kind {pattern!r}")


def _uniqueness_formula(attribute: str, candidates: Sequence[Value]) -> Expression:
    """``φ_i``: the template tuple takes exactly one value for ``attribute``."""
    at_least_one = disjoin([Var(variable_name(attribute, value)) for value in candidates])
    at_most_one = conjoin(
        [
            disjoin(
                [
                    Not(Var(variable_name(attribute, left))),
                    Not(Var(variable_name(attribute, right))),
                ]
            )
            for index, left in enumerate(candidates)
            for right in candidates[index + 1 :]
        ]
    )
    return conjoin([at_least_one, at_most_one])


def reduce_to_maxgsat(sigma: ECFDSet | Sequence[ECFD]) -> ReductionResult:
    """Compute ``f(Σ)`` and package it with the decoding data for ``g``."""
    constraints = list(sigma)
    if not constraints:
        raise ConstraintError("cannot reduce an empty set of eCFDs")
    schema = constraints[0].schema
    for constraint in constraints:
        if constraint.schema != schema:
            raise ConstraintError("all eCFDs in a reduction must share one schema")

    fragments = [fragment for constraint in constraints for fragment in constraint.normalize()]
    mentioned = mentioned_attributes(fragments)
    domains_all = active_domains(fragments, schema, fresh_per_attribute=1)
    domains = {attribute: domains_all[attribute] for attribute in mentioned}

    phi_r = conjoin(
        [_uniqueness_formula(attribute, domains[attribute]) for attribute in mentioned]
    )

    formulas: list[Expression] = []
    for constraint in constraints:
        per_pattern: list[Expression] = []
        for fragment in constraint.normalize():
            pattern = fragment.tableau[0]
            lhs_escape = disjoin(
                [
                    _no_match_expression(attribute, pattern.lhs_entry(attribute))
                    for attribute in fragment.lhs
                ]
            )
            rhs_hold = conjoin(
                [
                    _match_expression(attribute, pattern.rhs_entry(attribute))
                    for attribute in fragment.rhs_all
                ]
            )
            per_pattern.append(disjoin([lhs_escape, rhs_hold]))
        formulas.append(conjoin([phi_r, conjoin(per_pattern)]))

    return ReductionResult(
        instance=MaxGSATInstance(formulas),
        constraints=tuple(constraints),
        domains=domains,
        schema=schema,
    )
