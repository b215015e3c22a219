"""ε-differentially-private noisy release of equivalence-class counts.

Suppression-based k-anonymity (the paper's model) is a *syntactic*
guarantee: it caps re-identification risk but composes badly and says
nothing about aggregate outputs.  This module adds the standard
semantic complement — an ε-DP post-pass that releases the equivalence
class **histogram** of a suppressed table under calibrated noise:

* :func:`laplace_noise` — the continuous Laplace mechanism
  (Dwork et al. 2006), scale ``sensitivity / epsilon``;
* :func:`geometric_noise` — the two-sided geometric (discrete Laplace)
  mechanism (Ghosh/Roughgarden/Sundararajan 2009), integer-valued and
  exactly ε-DP for counting queries;
* :func:`noisy_histogram` / :func:`noisy_class_histogram` — apply one
  mechanism to class counts.  A histogram query has L1 sensitivity 1
  (one row moves one unit of count between bins), so a single ε covers
  the whole released vector.

Everything is **seedable and deterministic**: mechanisms draw from a
caller-supplied :class:`random.Random`, so the service can cache a
noisy release and re-serve the *same* noise on cache hits (re-releasing
identical output consumes no extra budget under sequential
composition).

:class:`PrivacyAccountant` tracks that budget: a per-dataset ledger
under sequential composition (spends add; :class:`BudgetExhaustedError`
once a dataset would exceed the configured ε budget).  The
anonymization service owns one accountant across requests.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence
from threading import Lock
from typing import Any

from repro.core.table import Table

#: Mechanisms understood by :func:`noisy_histogram`.
MECHANISMS = ("laplace", "geometric")

#: Absolute tolerance for budget arithmetic (floats accumulate).
_BUDGET_EPS = 1e-12


class BudgetExhaustedError(RuntimeError):
    """A release would push a dataset past its ε budget."""


def laplace_noise(scale: float, rng: random.Random) -> float:
    """One draw from Laplace(0, *scale*) via the inverse CDF.

    >>> rng = random.Random(7)
    >>> round(laplace_noise(1.0, rng), 6) == round(
    ...     laplace_noise(1.0, random.Random(7)), 6)
    True
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    u = rng.random() - 0.5
    return -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


def geometric_noise(epsilon: float, rng: random.Random) -> int:
    """One draw from the two-sided geometric distribution.

    The difference of two geometric variables with success probability
    ``1 - exp(-epsilon)``: integer-valued, symmetric around 0, and the
    exactly-ε-DP mechanism for sensitivity-1 counting queries.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    alpha = math.exp(-epsilon)

    def _geometric() -> int:
        # P(X = n) = (1 - alpha) * alpha**n for n = 0, 1, 2, ...
        u = rng.random()
        if u >= 1.0 - _BUDGET_EPS:  # guard log(0)
            u = 1.0 - _BUDGET_EPS
        return int(math.log1p(-u) / math.log(alpha)) if alpha > 0 else 0

    return _geometric() - _geometric()


def noisy_histogram(
    counts: Mapping[Any, int] | Sequence[int],
    epsilon: float,
    *,
    mechanism: str = "laplace",
    seed: int | None = None,
    sensitivity: float = 1.0,
) -> dict[Any, float]:
    """Noise a histogram under ε-DP.

    ``counts`` maps bins to non-negative counts (a sequence is treated
    as bins ``0..len-1``).  A histogram has L1 sensitivity
    ``sensitivity`` (default 1: one individual shifts one unit between
    bins), so every bin is noised with the full ε.  ``seed`` makes the
    draw deterministic.

    >>> h = noisy_histogram({"a": 10, "b": 4}, 1.0, seed=0)
    >>> h == noisy_histogram({"a": 10, "b": 4}, 1.0, seed=0)
    True
    >>> sorted(h) == ["a", "b"]
    True
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sensitivity <= 0:
        raise ValueError("sensitivity must be positive")
    if mechanism not in MECHANISMS:
        raise ValueError(
            f"unknown mechanism {mechanism!r}; choose from {MECHANISMS}"
        )
    if not isinstance(counts, Mapping):
        counts = {i: c for i, c in enumerate(counts)}
    rng = random.Random(seed)
    scaled_eps = epsilon / sensitivity
    noisy: dict[Any, float] = {}
    # Deterministic iteration order => deterministic noise per bin.
    for bin_ in sorted(counts, key=repr):
        count = counts[bin_]
        if count < 0:
            raise ValueError("histogram counts must be non-negative")
        if mechanism == "laplace":
            noisy[bin_] = float(count) + laplace_noise(
                sensitivity / epsilon, rng
            )
        else:
            noisy[bin_] = float(count + geometric_noise(scaled_eps, rng))
    return noisy


def noisy_class_histogram(
    table: Table,
    epsilon: float,
    *,
    mechanism: str = "laplace",
    seed: int | None = None,
) -> dict[str, Any]:
    """ε-DP noisy equivalence-class histogram of a released table.

    Returns a JSON-ready dict: the mechanism, ε, noise scale, and one
    entry per equivalence class (keyed by the class's suppressed row
    pattern, ``*`` for stars) holding its noisy count.  Released
    alongside the suppressed table, this gives callers calibrated
    aggregate statistics without further privacy loss beyond ε.
    """
    # each distinct record is one class, counted in one dict pass
    records: dict[tuple, int] = {}
    for row in table.rows:
        records[row] = records.get(row, 0) + 1
    # STAR reprs as "*", so suppressed cells serialize naturally.
    counts = {"|".join(map(str, row)): count for row, count in records.items()}
    noisy = noisy_histogram(
        counts, epsilon, mechanism=mechanism, seed=seed
    )
    return {
        "epsilon": float(epsilon),
        "mechanism": mechanism,
        "scale": 1.0 / float(epsilon),
        "classes": {bin_: round(value, 6) for bin_, value in noisy.items()},
    }


class PrivacyAccountant:
    """Per-dataset ε ledger under sequential composition.

    The service owns one accountant across requests: every *fresh* DP
    release of a dataset spends its ε (cache hits re-release the same
    noise and spend nothing).  ``budget=None`` means unlimited — the
    ledger still tracks spends so ``stats`` can report them.

    >>> acct = PrivacyAccountant(budget=1.0)
    >>> acct.charge("tbl", 0.4); acct.charge("tbl", 0.6)
    >>> acct.spent("tbl")
    1.0
    >>> acct.charge("tbl", 0.1)
    Traceback (most recent call last):
        ...
    repro.privacy.dp.BudgetExhaustedError: dataset 'tbl': \
charging 0.1 would spend 1.1 of budget 1
    """

    def __init__(self, budget: float | None = None):
        if budget is not None and budget <= 0:
            raise ValueError("budget must be positive (or None)")
        self.budget = float(budget) if budget is not None else None
        self._spent: dict[str, float] = {}
        self._lock = Lock()

    def charge(self, dataset: str, epsilon: float) -> None:
        """Spend *epsilon* on *dataset*, atomically.

        Raises :class:`BudgetExhaustedError` — without mutating the
        ledger — when the charge would exceed the budget.
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        with self._lock:
            spent = self._spent.get(dataset, 0.0)
            total = spent + float(epsilon)
            if (self.budget is not None
                    and total > self.budget + _BUDGET_EPS):
                raise BudgetExhaustedError(
                    f"dataset {dataset!r}: charging {epsilon:g} would "
                    f"spend {total:g} of budget {self.budget:g}"
                )
            self._spent[dataset] = total

    def refund(self, dataset: str, epsilon: float) -> None:
        """Return *epsilon* to *dataset* (floored at zero spend).

        For callers that charge optimistically before a release and
        learn the release never happened (e.g. the solve errored).
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        with self._lock:
            spent = self._spent.get(dataset, 0.0) - float(epsilon)
            if spent <= _BUDGET_EPS:
                self._spent.pop(dataset, None)
            else:
                self._spent[dataset] = spent

    def spent(self, dataset: str) -> float:
        """Total ε spent on *dataset* so far."""
        with self._lock:
            return self._spent.get(dataset, 0.0)

    def remaining(self, dataset: str) -> float | None:
        """ε left for *dataset* (``None`` when the budget is unlimited)."""
        with self._lock:
            if self.budget is None:
                return None
            return max(0.0, self.budget - self._spent.get(dataset, 0.0))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready ledger snapshot for the service's ``stats``."""
        with self._lock:
            return {
                "budget": self.budget,
                "datasets": {
                    dataset: round(spent, 12)
                    for dataset, spent in sorted(self._spent.items())
                },
            }
