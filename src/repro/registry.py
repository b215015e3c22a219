"""Central capability registry for anonymization algorithms.

Every concrete :class:`~repro.algorithms.base.Anonymizer` subclass
self-registers here (via the :func:`register` class decorator applied at
definition site) with machine-readable metadata:

* a stable canonical **name** (``greedy_cover``, ``center_cover``, ...)
  plus CLI-friendly **aliases** (``greedy``, ``center``, ...);
* its **kind** — ``"exact"`` (provably optimal), ``"approx"`` (proven
  approximation ratio), ``"heuristic"`` (no guarantee), or
  ``"baseline"`` (comparison strawman);
* whether it is **anytime** (degrades gracefully under a
  :class:`~repro.instrument.TimeBudget` instead of raising);
* its **proven bound** as a callable ``(k, m) -> float`` taken from
  :mod:`repro.theory` (``None`` when no guarantee exists), plus a
  human-readable ``bound_label``;
* the **cost models** it optimizes (currently ``"stars"`` throughout);
* planner-consumable **capabilities**: an ``applicable(n, m, sigma, k)``
  predicate delimiting the regime the algorithm can handle, an
  ``estimated-ops`` cost model over the same features, and a
  ``parameterized`` flag for FPT solvers (exact, but only inside their
  parameter regime).  Kind-level defaults cover registrations that do
  not supply their own, so all existing ``@register`` sites stay
  source-compatible.

The registry is the *single* source of the name→class mapping: the CLI's
``--algorithm`` choices, the ``kanon algorithms`` listing, the
experiment runners' bound dispatch, and the benchmarks all resolve
algorithms through :func:`get` / :func:`create` instead of maintaining
private dicts.

>>> from repro import registry
>>> registry.get("center").name          # aliases resolve
'center_cover'
>>> registry.get("center_cover").kind
'approx'
>>> registry.create("mondrian").anonymize  # doctest: +ELLIPSIS
<bound method ...>
"""

from __future__ import annotations

import builtins
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.base import Anonymizer

#: proven-bound callable signature: ``bound(k, m) -> float``
BoundFn = Callable[[int, int], float]

#: capability predicate signature: ``applicable(n, m, sigma, k) -> bool``
ApplicableFn = Callable[[int, int, int, int], bool]

#: cost-model signature: ``cost_model(n, m, sigma, k) -> estimated ops``
CostFn = Callable[[int, int, int, int], float]

_KINDS = ("exact", "approx", "heuristic", "baseline")

#: Calibrated throughput for converting cost-model ops into seconds.
#: Derived from the committed E9/E21 bench baselines (quick mode,
#: x86_64/CPython 3.11): the subset DP's ``2^n * n^2`` model against
#: ``test_e9_exact_dp_scaling`` (n=10: 102k ops / 8.9 ms; n=12: 590k
#: ops / 43.7 ms) and the Theorem 4.2 solver's ``n^2 * m`` model
#: against ``test_e9_center_scaling_in_n`` (n=400: 1.3M ops / 73 ms)
#: both land within 2x of 1.2e7 ops/s, so the per-model constants
#: below are normalized to this single figure.
CALIBRATED_OPS_PER_SECOND = 1.2e7


def _exact_applicable(n: int, m: int, sigma: int, k: int) -> bool:
    # subset-mask DPs hit a wall around n = 16 regardless of m
    return k <= n <= 16


def _exact_cost(n: int, m: int, sigma: int, k: int) -> float:
    return (2.0 ** n) * n * n


def _poly_applicable(n: int, m: int, sigma: int, k: int) -> bool:
    return n >= k


def _poly_cost(n: int, m: int, sigma: int, k: int) -> float:
    return float(n) * n * m


def _cheap_cost(n: int, m: int, sigma: int, k: int) -> float:
    return float(n) * m * 32.0


#: kind-level capability defaults for registrations without their own
_DEFAULT_APPLICABLE: dict[str, ApplicableFn] = {
    "exact": _exact_applicable,
    "approx": _poly_applicable,
    "heuristic": _poly_applicable,
    "baseline": _poly_applicable,
}
_DEFAULT_COST: dict[str, CostFn] = {
    "exact": _exact_cost,
    "approx": _poly_cost,
    "heuristic": _poly_cost,
    "baseline": _cheap_cost,
}


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registered metadata for one anonymization algorithm.

    :ivar name: canonical registry name (stable across releases).
    :ivar cls: the :class:`Anonymizer` subclass.
    :ivar kind: ``"exact"`` / ``"approx"`` / ``"heuristic"`` /
        ``"baseline"``.
    :ivar anytime: True iff the algorithm degrades gracefully when its
        time budget expires (returns its best valid release so far).
    :ivar bound: proven approximation guarantee as ``(k, m) -> float``,
        or ``None`` when the algorithm carries no guarantee.  Exact
        solvers use the constant ``1.0``.
    :ivar bound_label: human-readable form of *bound* for listings.
    :ivar cost_models: objective functions the algorithm optimizes.
    :ivar aliases: accepted alternative names (CLI shorthands).
    :ivar summary: one-line description for ``kanon algorithms``.
    :ivar factory: zero-argument-callable default constructor.
    :ivar applicable: capability predicate over instance features
        ``(n, m, sigma, k)``; ``None`` falls back to the kind default.
    :ivar cost_model: estimated-ops model over the same features
        (normalized so :data:`CALIBRATED_OPS_PER_SECOND` converts to
        seconds); ``None`` falls back to the kind default.
    :ivar parameterized: True for FPT solvers — exact, but only inside
        the regime their ``applicable`` predicate delimits.  The planner
        ranks them below unconditional exact solvers.
    """

    name: str
    cls: type
    kind: str
    anytime: bool = False
    bound: BoundFn | None = None
    bound_label: str | None = None
    cost_models: tuple[str, ...] = ("stars",)
    aliases: tuple[str, ...] = ()
    summary: str = ""
    factory: Callable[[], "Anonymizer"] | None = None
    applicable: ApplicableFn | None = None
    cost_model: CostFn | None = None
    parameterized: bool = False

    def make(self) -> "Anonymizer":
        """A fresh default-configured instance."""
        return (self.factory or self.cls)()

    def proven_bound(self, k: int, m: int) -> float | None:
        """The guarantee at ``(k, m)``, or None without one."""
        return None if self.bound is None else self.bound(k, m)

    def is_applicable(self, n: int, m: int, sigma: int, k: int) -> bool:
        """Can this algorithm plausibly handle the instance?"""
        fn = self.applicable or _DEFAULT_APPLICABLE[self.kind]
        return bool(fn(n, m, sigma, k))

    def estimated_ops(self, n: int, m: int, sigma: int, k: int) -> float:
        """Estimated normalized operations on the instance.

        An estimate too large for a float (e.g. ``2.0 ** n`` at
        n >= ~1030) is ``math.inf``: unaffordable under any budget.
        """
        fn = self.cost_model or _DEFAULT_COST[self.kind]
        try:
            return float(fn(n, m, sigma, k))
        except OverflowError:
            return math.inf

    def estimated_seconds(self, n: int, m: int, sigma: int, k: int) -> float:
        """Wall-clock estimate via :data:`CALIBRATED_OPS_PER_SECOND`."""
        return self.estimated_ops(n, m, sigma, k) / CALIBRATED_OPS_PER_SECOND

    @property
    def all_names(self) -> tuple[str, ...]:
        return (self.name, *self.aliases)


_BY_NAME: dict[str, AlgorithmInfo] = {}
_BY_ALIAS: dict[str, str] = {}
_BY_CLASS: dict[type, AlgorithmInfo] = {}


def register(
    name: str,
    *,
    kind: str,
    summary: str,
    anytime: bool = False,
    bound: BoundFn | None = None,
    bound_label: str | None = None,
    cost_models: tuple[str, ...] = ("stars",),
    aliases: tuple[str, ...] = (),
    factory: Callable[[], "Anonymizer"] | None = None,
    applicable: ApplicableFn | None = None,
    cost_model: CostFn | None = None,
    parameterized: bool = False,
):
    """Class decorator: enter an :class:`Anonymizer` subclass into the
    registry under *name* (plus *aliases*).

    Raises :class:`ValueError` on duplicate names/aliases or an unknown
    *kind* — registration bugs should fail at import time, not at first
    lookup.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown algorithm kind {kind!r}; expected "
                         f"one of {_KINDS}")

    def decorate(cls):
        info = AlgorithmInfo(
            name=name, cls=cls, kind=kind, anytime=anytime, bound=bound,
            bound_label=bound_label, cost_models=tuple(cost_models),
            aliases=tuple(aliases), summary=summary, factory=factory,
            applicable=applicable, cost_model=cost_model,
            parameterized=parameterized,
        )
        if parameterized and kind != "exact":
            raise ValueError(
                f"{name!r}: parameterized is reserved for exact solvers"
            )
        for candidate in info.all_names:
            if candidate in _BY_NAME or candidate in _BY_ALIAS:
                raise ValueError(
                    f"algorithm name {candidate!r} registered twice"
                )
        _BY_NAME[name] = info
        for alias in info.aliases:
            _BY_ALIAS[alias] = name
        _BY_CLASS[cls] = info
        cls.registry_name = name
        return cls

    return decorate


def _ensure_loaded() -> None:
    """Import the algorithms package so every module self-registers."""
    import repro.algorithms  # noqa: F401  (import triggers registration)


def all() -> tuple[AlgorithmInfo, ...]:  # noqa: A001 - deliberate API name
    """Every registered algorithm, sorted by canonical name."""
    _ensure_loaded()
    return tuple(sorted(_BY_NAME.values(), key=lambda info: info.name))


#: alias for callers that shadow the ``all`` builtin
all_algorithms = all


def names(include_aliases: bool = False) -> tuple[str, ...]:
    """Registered canonical names (optionally with aliases), sorted."""
    _ensure_loaded()
    out = builtins.list(_BY_NAME)
    if include_aliases:
        out.extend(_BY_ALIAS)
    return tuple(sorted(out))


def get(name: str) -> AlgorithmInfo:
    """Look up by canonical name or alias.

    :raises KeyError: for an unknown name (the message lists valid ones).
    """
    _ensure_loaded()
    canonical = _BY_ALIAS.get(name, name)
    info = _BY_NAME.get(canonical)
    if info is None:
        raise KeyError(
            f"unknown algorithm {name!r}; registered names: "
            f"{', '.join(names(include_aliases=True))}"
        )
    return info


def create(name: str) -> "Anonymizer":
    """A fresh default-configured instance of the named algorithm."""
    return get(name).make()


def info_for(algorithm) -> AlgorithmInfo | None:
    """Metadata for an algorithm *instance* (or class), else ``None``.

    Matches by exact class first, then walks the MRO so app-level
    subclasses inherit their parent's registration.  Lookup is by type,
    not by ``algorithm.name`` — wrapper algorithms (local search,
    annealing) rename their instances after their inner algorithm
    (``"center_cover+local"``), which is a display name, not an
    identity.
    """
    _ensure_loaded()
    cls = algorithm if isinstance(algorithm, type) else type(algorithm)
    for base in cls.__mro__:
        info = _BY_CLASS.get(base)
        if info is not None:
            return info
    return None


def proven_bound(algorithm, k: int, m: int) -> float | None:
    """The proven approximation bound for an algorithm instance/class/
    name at ``(k, m)``, or ``None`` when it has no guarantee."""
    if isinstance(algorithm, str):
        info = get(algorithm)
    else:
        info = info_for(algorithm)
    return None if info is None else info.proven_bound(k, m)
