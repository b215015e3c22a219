"""Capability-driven algorithm selection (``algorithm="auto"``).

The paper's landscape is a ladder of regimes: exact optimum where the
instance is tiny (subset DP, branch-and-bound), exact-but-parameterized
where the relation is narrow (the pattern DP of
:mod:`repro.algorithms.fpt_suppression`, the multiplicity DP of
:mod:`repro.algorithms.small_m`), the proven O(k log m) approximation of
Theorem 4.2 everywhere else, and unguaranteed heuristics as a last
resort.  The planner walks that ladder per instance: it reads each
registration's capability metadata (:class:`repro.registry.AlgorithmInfo`
``is_applicable`` / ``estimated_seconds``), filters by the time budget
actually remaining, and picks the strongest affordable tier —

    exact (tier 0)  >  parameterized exact (tier 1)
        >  proven approximation (tier 2)  >  heuristic/baseline (tier 3)

breaking ties within a tier by estimated cost.  The full ranking, with
per-candidate reasons, is returned as a :class:`PlanDecision` and
recorded into the run trace so a dispatch can always be audited.

>>> from repro.core.table import Table
>>> t = Table([(0, 0), (0, 1), (1, 0), (1, 1)] * 2)
>>> plan(t, 2).algorithm
'branch_bound'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import registry
from repro.algorithms.base import (
    AnonymizationResult,
    Anonymizer,
    InfeasibleAnonymizationError,
)
from repro.core.alphabet import STAR
from repro.core.table import Table
from repro.instrument import BudgetExceededError, TimeBudget, as_budget

#: allowance when no budget limits the request: refuse plans estimated
#: beyond this many seconds even though nothing is counting down
DEFAULT_SOFT_CAP_SECONDS = 30.0

#: fraction of the remaining budget a plan may claim — cost models are
#: order-of-magnitude calibrations, so leave half the budget as margin
BUDGET_SAFETY_FRACTION = 0.5

#: the always-applicable, strongly polynomial, proven-bound fallback
FALLBACK_ALGORITHM = "center_cover"

#: kind/parameterized -> planner tier (lower is stronger)
TIER_EXACT, TIER_FPT, TIER_APPROX, TIER_HEURISTIC = 0, 1, 2, 3


def tier_of(info: registry.AlgorithmInfo) -> int:
    if info.kind == "exact":
        return TIER_FPT if info.parameterized else TIER_EXACT
    if info.kind == "approx" and info.bound is not None:
        return TIER_APPROX
    return TIER_HEURISTIC


def sigma_of(table: Table) -> int:
    """σ: the most distinct unsuppressed values in any one column (0 if none)."""
    return max((len(set(col) - {STAR}) for col in zip(*table.rows)), default=0)


@dataclass(frozen=True)
class InstanceFeatures:
    """The features the capability predicates and cost models consume."""

    n: int
    m: int
    sigma: int
    k: int

    @classmethod
    def from_table(cls, table: Table, k: int) -> "InstanceFeatures":
        return cls(n=table.n_rows, m=table.degree, sigma=sigma_of(table),
                   k=k)

    def to_dict(self) -> dict[str, int]:
        return {"n": self.n, "m": self.m, "sigma": self.sigma, "k": self.k}


@dataclass(frozen=True)
class PlanCandidate:
    """One algorithm's evaluation against an instance."""

    name: str
    kind: str
    tier: int
    parameterized: bool
    anytime: bool
    est_seconds: float
    applicable: bool
    affordable: bool
    reason: str

    @property
    def selectable(self) -> bool:
        return self.applicable and self.affordable

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "tier": self.tier,
            "parameterized": self.parameterized,
            "anytime": self.anytime,
            "est_seconds": self.est_seconds,
            "applicable": self.applicable,
            "affordable": self.affordable,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class PlanDecision:
    """The planner's verdict: chosen algorithm plus the audited field.

    ``candidates`` is the full portfolio ranked selectable-first by
    (tier, estimated seconds); ``reason`` explains the winner.
    """

    algorithm: str
    reason: str
    features: InstanceFeatures
    allowance_seconds: float
    remaining_seconds: float | None
    candidates: tuple[PlanCandidate, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "reason": self.reason,
            "features": self.features.to_dict(),
            "allowance_seconds": self.allowance_seconds,
            "remaining_seconds": self.remaining_seconds,
            "candidates": [c.to_dict() for c in self.candidates],
        }


def plan_features(
    features: InstanceFeatures,
    *,
    budget: "TimeBudget | float | int | None" = None,
    soft_cap: float = DEFAULT_SOFT_CAP_SECONDS,
) -> PlanDecision:
    """Rank the registered portfolio against *features* and a budget.

    With a limited budget, a candidate is affordable while its estimate
    fits in ``remaining * BUDGET_SAFETY_FRACTION``; without one, the
    *soft_cap* plays that role so an unbounded request still never picks
    a solver estimated at minutes.  If nothing is both applicable and
    affordable the proven-bound :data:`FALLBACK_ALGORITHM` is chosen
    regardless — a request always gets a valid release.
    """
    armed = as_budget(budget).start()
    remaining = armed.remaining()
    if remaining is None:
        allowance = soft_cap
    else:
        allowance = max(0.0, remaining) * BUDGET_SAFETY_FRACTION
    n, m, sigma, k = features.n, features.m, features.sigma, features.k

    candidates = []
    for info in registry.all_algorithms():
        applicable = info.is_applicable(n, m, sigma, k)
        est = info.estimated_seconds(n, m, sigma, k)
        affordable = est <= allowance
        if not applicable:
            reason = (
                f"outside its regime at n={n} m={m} sigma={sigma} k={k}"
            )
        elif not affordable:
            reason = (
                f"estimated {est:.3g}s exceeds the "
                f"{allowance:.3g}s allowance"
            )
        else:
            reason = f"tier {tier_of(info)} {info.kind}, ~{est:.3g}s"
        candidates.append(PlanCandidate(
            name=info.name,
            kind=info.kind,
            tier=tier_of(info),
            parameterized=info.parameterized,
            anytime=info.anytime,
            est_seconds=est,
            applicable=applicable,
            affordable=affordable,
            reason=reason,
        ))
    candidates.sort(
        key=lambda c: (not c.selectable, c.tier, c.est_seconds, c.name)
    )

    best = next((c for c in candidates if c.selectable), None)
    if best is not None:
        chosen, reason = best.name, f"strongest affordable tier: {best.reason}"
    else:
        chosen = FALLBACK_ALGORITHM
        reason = (
            "no candidate both applicable and affordable; falling back "
            f"to the proven-bound {FALLBACK_ALGORITHM}"
        )
    return PlanDecision(
        algorithm=chosen,
        reason=reason,
        features=features,
        allowance_seconds=allowance,
        remaining_seconds=remaining,
        candidates=tuple(candidates),
    )


def plan(
    table: Table,
    k: int,
    *,
    budget: "TimeBudget | float | int | None" = None,
    soft_cap: float = DEFAULT_SOFT_CAP_SECONDS,
) -> PlanDecision:
    """:func:`plan_features` over features read off an actual table."""
    return plan_features(
        InstanceFeatures.from_table(table, k),
        budget=budget, soft_cap=soft_cap,
    )


class PlannedAnonymizer(Anonymizer):
    """The ``"auto"`` algorithm: plan, then run the chosen solver.

    Deliberately *not* registered: ``auto`` is a dispatch policy, not an
    algorithm — ``registry.get("auto")`` raises, ``proven_bound`` has no
    entry to consult, and experiment bound checks on ``auto`` fail
    loudly instead of crediting the policy with a guarantee it only
    sometimes inherits.

    The planner decision rides on the result as ``extras["plan"]`` (and
    inside ``extras["trace"]["plan"]`` when tracing): the ``algorithm``
    field of the result names the solver that actually ran.  If the
    chosen solver dies on a guard or its budget mid-run, the
    :data:`FALLBACK_ALGORITHM` reruns the request so the caller still
    gets a valid release.
    """

    name = "auto"

    def __init__(self, backend=None, budget=None, trace=None,
                 soft_cap: float = DEFAULT_SOFT_CAP_SECONDS):
        super().__init__(backend=backend, budget=budget, trace=trace)
        self._soft_cap = soft_cap

    def anonymize(
        self,
        table: Table,
        k: int,
        *,
        backend=None,
        timeout=None,
        trace: bool | None = None,
    ) -> AnonymizationResult:
        budget = as_budget(
            timeout if timeout is not None else self.budget
        ).start()
        decision = plan(table, k, budget=budget, soft_cap=self._soft_cap)
        plan_dict = decision.to_dict()
        try:
            result = self._run(decision.algorithm, table, k,
                               backend, budget, trace)
        except InfeasibleAnonymizationError:
            raise
        except (BudgetExceededError, ValueError) as exc:
            if decision.algorithm == FALLBACK_ALGORITHM:
                raise
            plan_dict["fallback"] = {
                "from": decision.algorithm,
                "error": f"{type(exc).__name__}: {exc}",
            }
            result = self._run(FALLBACK_ALGORITHM, table, k,
                               backend, budget, trace)
        result.extras["plan"] = plan_dict
        trace_dict = result.extras.get("trace")
        if isinstance(trace_dict, dict):
            trace_dict["plan"] = plan_dict
        return result

    def _run(self, name, table, k, backend, budget, trace):
        inner = registry.get(name).make()
        inner.backend = backend if backend is not None else self.backend
        inner.trace = trace if trace is not None else self.trace
        # the armed budget carries over, so planning time and the inner
        # solve draw down the same clock
        inner.budget = budget
        return inner.anonymize(table, k)

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        raise AssertionError(
            "PlannedAnonymizer overrides anonymize() wholesale"
        )
