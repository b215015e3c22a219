"""Exact optimal suppression exploiting low-degree relations.

The paper remarks that "for the special case m = O(log n) ... a
polynomial time exact algorithm has been recently proposed by Sweeney
[8]" — an unpublished manuscript ("Optimal anonymity using k-similar").
We simulate the role that algorithm plays: an *exact* solver that is
fast precisely when the degree (and hence, for constant alphabets, the
number of **distinct** records) is small, complementing the subset DP
which is exponential in n regardless of m.

Approach: collapse the relation to (distinct record, multiplicity)
pairs.  A group is a take-vector over distinct records; its ANON cost is
(group size) x (disagreeing coordinates among its distinct members).
Dynamic programming over the vector of remaining multiplicities, with
the canonical rule that each group must contain the first distinct
record that still has copies left.

Duplicate records are *not* forced into the same group — doing so is not
optimality-preserving (see ``tests/test_small_m.py`` for the 6-row
counterexample) — but they are interchangeable, which is exactly the
symmetry the multiplicity-vector state collapses.

The state space is bounded by ``prod_i (count_i + 1)`` — polynomial in n
for a *fixed number* D of distinct records, but growing like
``(n/D + 1)^D`` with D.  The solver estimates this bound up front and
refuses instances beyond ``max_states`` rather than silently hanging;
in the feasible regime (D <= ~5, or larger D with lopsided counts) it
reaches n far beyond the subset DP's ~16-row wall.
"""

from __future__ import annotations

from collections import deque

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.core.backend import get_backend
from repro.core.partition import Partition
from repro.core.table import Table
from repro.registry import register
from repro.theory import exact_bound

_INF = float("inf")


def _take_vectors(counts, first, k, k_max):
    """Yield take-vectors t with t[first] >= 1, t <= counts elementwise,
    and k <= sum(t) <= k_max.  Deterministic order."""
    n_kinds = len(counts)

    def extend(index, taken, total):
        if total > k_max:
            return
        if index == n_kinds:
            if total >= k:
                yield tuple(taken)
            return
        low = 1 if index == first else 0
        for take in range(low, min(counts[index], k_max - total) + 1):
            taken.append(take)
            yield from extend(index + 1, taken, total + take)
            taken.pop()

    yield from extend(first, [0] * first, 0)


def _small_m_applicable(n: int, m: int, sigma: int, k: int) -> bool:
    # the default max_distinct guard refuses > 16 distinct records;
    # sigma^m upper-bounds the distinct count the features can promise
    return n >= k and min(n, sigma ** m) <= 16


def _small_m_cost(n: int, m: int, sigma: int, k: int) -> float:
    # multiset-DP states ~ ((n / distinct) + 1)^distinct; the 600
    # ops/state constant reproduces the E9 baseline series
    # (test_e9_small_m_scaling: n=120, distinct=3 -> 3.4 s at the
    # CALIBRATED_OPS_PER_SECOND scale)
    distinct = max(1, min(n, sigma ** m, 16))
    states = min((n / distinct + 1.0) ** distinct, 1e12)
    return states * 600.0


@register(
    "small_m_exact",
    kind="exact",
    bound=exact_bound,
    bound_label="1 — provably optimal",
    aliases=("small_m",),
    summary="multiplicity-vector exact DP; fast with few distinct rows",
    parameterized=True,
    applicable=_small_m_applicable,
    cost_model=_small_m_cost,
)
class SmallMExactAnonymizer(Anonymizer):
    """Exact optimum via multiplicity-vector DP (the [8] simulation).

    Fast when the table has few *distinct* records (low degree m and a
    small alphabet force this); exponential in the distinct-record count.

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0)] * 3 + [(0, 1)] * 3)
    >>> SmallMExactAnonymizer().anonymize(t, 3).stars
    0
    """

    name = "small_m_exact"

    def __init__(self, max_distinct: int = 16, max_states: int = 2_000_000,
                 backend=None, budget=None, trace=None):
        super().__init__(backend=backend, budget=budget, trace=trace)
        #: guard: refuse instances whose distinct-record count would blow up
        self._max_distinct = max_distinct
        #: guard: refuse instances whose DP state space would blow up
        self._max_states = max_states

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        budget = run.budget
        distinct = table.distinct_rows()
        if len(distinct) > self._max_distinct:
            raise ValueError(
                f"{len(distinct)} distinct records exceed the "
                f"max_distinct={self._max_distinct} guard; "
                "use CenterCoverAnonymizer for wide/diverse tables"
            )
        multiplicity = table.row_multiset()
        counts0 = tuple(multiplicity[row] for row in distinct)
        state_bound = 1
        for count in counts0:
            state_bound *= count + 1
        if state_bound > self._max_states:
            raise ValueError(
                f"multiplicity-DP state bound {state_bound} exceeds "
                f"max_states={self._max_states}; this instance is outside "
                "the small-distinct-record regime"
            )
        k_max = 2 * k - 1

        # Metric queries run against a backend over the distinct-record
        # table: a take-vector's disagreement set depends only on which
        # distinct records participate, not on multiplicities.
        distinct_backend = get_backend(Table(distinct), self.backend)
        group_cost_cache: dict[tuple[int, ...], int] = {}

        def group_cost(take: tuple[int, ...]) -> int:
            cached = group_cost_cache.get(take)
            if cached is None:
                members = [i for i, t in enumerate(take) if t]
                cached = sum(take) * len(
                    distinct_backend.disagreeing_coordinates(members)
                )
                group_cost_cache[take] = cached
            return cached

        memo: dict[tuple[int, ...], float] = {}
        choice: dict[tuple[int, ...], tuple[int, ...]] = {}

        def solve(counts: tuple[int, ...]) -> float:
            total = sum(counts)
            if total == 0:
                return 0
            if total < k:
                return _INF
            cached = memo.get(counts)
            if cached is not None:
                return cached
            # An exact DP has no feasible incumbent mid-flight, so budget
            # expiry must raise rather than degrade.
            budget.check("small_m_exact multiplicity DP")
            first = next(i for i, c in enumerate(counts) if c)
            best = _INF
            best_take: tuple[int, ...] | None = None
            for take in _take_vectors(counts, first, k, k_max):
                remainder = tuple(
                    c - (take[i] if i < len(take) else 0)
                    for i, c in enumerate(counts)
                )
                candidate = group_cost(take) + solve(remainder)
                if candidate < best:
                    best = candidate
                    best_take = take
            memo[counts] = best
            if best_take is not None:
                choice[counts] = best_take
            return best

        with run.phase("dp"):
            opt = solve(counts0)
        assert opt != _INF, "n >= k always admits a grouping"
        run.count("dp_states", len(memo))

        # Rebuild a concrete partition: hand out original row indices of
        # each distinct record in order.
        queues = {row: deque() for row in distinct}
        for i, row in enumerate(table.rows):
            queues[row].append(i)
        groups: list[frozenset[int]] = []
        counts = counts0
        while sum(counts):
            take = choice[counts]
            members: list[int] = []
            for i, t in enumerate(take):
                for _ in range(t):
                    members.append(queues[distinct[i]].popleft())
            groups.append(frozenset(members))
            counts = tuple(
                c - (take[i] if i < len(take) else 0) for i, c in enumerate(counts)
            )
        partition = Partition(groups, table.n_rows, k)
        # the DP minimises the partition's ANON cost; on a table that
        # already holds ``*`` cells the release's star count differs
        assert partition.anon_cost(table, run.backend) == opt
        return self._result_from_partition(
            table, k, partition,
            {"opt": int(opt), "distinct_records": len(distinct),
             "dp_states": len(memo)},
            run=run,
        )
