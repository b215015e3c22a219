"""Exact optimal suppression, fixed-parameter tractable in the degree.

The paper proves optimal k-anonymity NP-hard in general (Theorem 3.1),
but the hardness needs *wide* relations: Bonizzoni et al.
("Parameterized Complexity of k-Anonymity") show the problem is FPT
when the number of attributes m (and the alphabet) is bounded.  This
module instantiates that regime with a dynamic program over
**attribute-suppression patterns** — the column-subset analogue of the
row-subset DP in :mod:`repro.algorithms.partition_dp`.

Formulation.  WLOG an optimal solution is described by its *released
vectors*: pairs ``(projection, pattern)`` where ``pattern ⊆ [m]`` is the
starred column set and ``projection`` the shared values on the kept
columns.  A row of kind ``r`` is compatible with exactly one released
vector per pattern ``P`` — ``(r restricted to [m] \\ P, P)`` — so a
solution is an assignment of row counts to patterns, per distinct row
kind, subject to every used vector receiving 0 or >= k rows, minimizing
``sum assigned_rows * |P|``.  Both directions of the equivalence with
(k, 2k-1)-partitions are elementary: a partition maps each group to the
vector of its disagreement set, and a feasible assignment splits each
vector's rows into groups of size in [k, 2k-1] whose true cost never
exceeds the assignment's (the disagreement set of a subgroup is
contained in the vector's pattern).

The DP processes distinct row kinds in first-appearance order and
tracks, per *open* released vector (one whose kind class still has
unprocessed members), only its deficit below k — counts cap at k, so
the state space is bounded by ``(k+1)^(2^m * sigma^m)``
(:func:`repro.theory.fpt_suppression_states`): a function of the
parameters alone, with per-row work polynomial in n.  Reachable states
are far fewer; the solver still guards with ``max_states`` and refuses
instances outside the bounded-m regime instead of hanging.

Compared to the other exact tiers: the subset DP
(:mod:`repro.algorithms.exact`) is exponential in n regardless of m;
the multiplicity DP (:mod:`repro.algorithms.small_m`) is exponential in
the number of *distinct rows*; this solver is exponential only in
``m`` / ``sigma`` and reaches n in the hundreds on narrow tables.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.core.partition import Partition
from repro.core.table import Table
from repro.registry import register
from repro.theory import exact_bound


def fpt_applicable(n: int, m: int, sigma: int, k: int) -> bool:
    """Planner predicate: is the pattern DP's regime plausible here?

    The DP is exponential in the number of patterns (``2^m``) and in the
    distinct-record count (at most ``sigma^m``, capped by n), so the
    regime is narrow tables over small alphabets.  The thresholds are
    deliberately conservative — refusing an instance the solver could
    have handled costs only optimality on that instance (the planner
    falls through to the approximation tier), while accepting one it
    cannot handle wastes the whole budget.
    """
    if n < k:
        return False
    distinct = min(n, sigma ** m) if sigma > 0 else 0
    return m <= 3 and k <= 4 and distinct <= 30


def fpt_cost_model(n: int, m: int, sigma: int, k: int) -> float:
    """Planner cost model: estimated normalized ops for the pattern DP.

    The A* search settles few states when most row kinds hold >= k
    copies (they close their own zero-cost vector), and the most when
    ``n < k * distinct`` — then almost every kind must join a mixed
    group and the deficit frontier is widest.  The settled-state
    estimates below are calibrated against measured runs (m=3, sigma=3,
    k=3: n=30 settles ~24k states in ~0.45 s; n=120 settles ~330 in
    ~8 ms) at ~30 ops per state per pattern on the
    :data:`repro.registry.CALIBRATED_OPS_PER_SECOND` scale.
    """
    patterns = 2 ** m
    distinct = max(1, min(n, sigma ** m) if sigma > 0 else 1)
    if n >= 2 * k * distinct:
        settled = 4.0 * distinct
    elif n >= k * distinct:
        settled = 3_000.0
    else:
        settled = 30_000.0
    return settled * patterns * 30.0 + n * m * 50.0


@register(
    "fpt_suppression",
    kind="exact",
    bound=exact_bound,
    bound_label="1 — provably optimal",
    aliases=("fpt", "pattern_dp"),
    summary="FPT pattern-DP exact optimum; narrow tables (bounded m)",
    parameterized=True,
    applicable=fpt_applicable,
    cost_model=fpt_cost_model,
)
class FPTSuppressionAnonymizer(Anonymizer):
    """Exact optimum via DP over attribute-suppression patterns.

    Fixed-parameter tractable in ``(k, m, sigma)``: the running time is
    ``f(k, m, sigma) * poly(n)``, so the solver reaches row counts far
    beyond the subset DP's ~16-row wall whenever the table is narrow.

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0)] * 3 + [(0, 1)] * 3)
    >>> FPTSuppressionAnonymizer().anonymize(t, 3).stars
    0
    """

    name = "fpt_suppression"

    def __init__(self, max_degree: int = 8, max_states: int = 200_000,
                 backend=None, budget=None, trace=None):
        super().__init__(backend=backend, budget=budget, trace=trace)
        #: guard: refuse relations wider than this (patterns = 2^m)
        self._max_degree = max_degree
        #: guard: refuse instances whose DP frontier would blow up
        self._max_states = max_states

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        self._check_feasible(table, k)
        if table.n_rows == 0:
            return self._empty_result(table, k)
        m = table.degree
        if m > self._max_degree:
            raise ValueError(
                f"degree {m} exceeds the max_degree={self._max_degree} "
                "guard; the pattern DP is exponential in m — use "
                "CenterCoverAnonymizer for wide tables"
            )
        budget = run.budget
        kinds = table.distinct_rows()
        multiplicity = table.row_multiset()
        counts = [multiplicity[kind] for kind in kinds]
        n_kinds = len(kinds)
        patterns = list(range(1 << m))
        weight = [bin(p).count("1") for p in patterns]

        # Released-vector interning: kind i under pattern p always maps
        # to the vector (projection of kind i onto [m] \ p, p).
        with run.phase("patterns"):
            kept = [
                tuple(j for j in range(m) if not (p >> j) & 1)
                for p in patterns
            ]
            vector_ids: dict[tuple, int] = {}
            vec_of: list[list[int]] = []
            last_kind: dict[int, int] = {}
            for i, kind in enumerate(kinds):
                row_vecs = []
                for p in patterns:
                    signature = (p, tuple(kind[j] for j in kept[p]))
                    vec = vector_ids.setdefault(signature, len(vector_ids))
                    row_vecs.append(vec)
                    last_kind[vec] = i
                vec_of.append(row_vecs)
        run.count("patterns", len(patterns))
        run.count("released_vectors", len(vector_ids))

        # Per-vector suffix capacity: rows of the vector's class still
        # unprocessed once kinds < i are done.  A state holding an open
        # vector whose deficit exceeds its suffix capacity can never
        # become feasible, so such top-ups are pruned at creation.
        suffix_cap: dict[int, list[int]] = {
            v: [0] * (n_kinds + 1) for v in last_kind
        }
        for i in range(n_kinds - 1, -1, -1):
            for v, caps in suffix_cap.items():
                caps[i] = caps[i + 1]
            for v in set(vec_of[i]):
                suffix_cap[v][i] += counts[i]

        # Admissible per-kind lower bound: any feasible completion
        # routes every copy of kind r through a pattern whose vector's
        # class holds >= k rows in total, so each copy pays at least
        # wtil[r]; consistency follows from the capacity pruning above.
        wtil = [
            min(
                weight[p]
                for p in patterns
                if suffix_cap[vec_of[r][p]][0] >= k
            )
            for r in range(n_kinds)
        ]
        hsuf = [0] * (n_kinds + 1)
        for i in range(n_kinds - 1, -1, -1):
            hsuf[i] = hsuf[i + 1] + counts[i] * wtil[i]

        # A* over (kind index, open-vector deficit state).  A state maps
        # open vectors to deficit-capped counts (min(assigned, k)); per
        # kind, copies split into per-pattern top-ups t_p <= k - cnt_p
        # plus a remainder dumped on the cheapest vector that ends
        # saturated (extra copies on a saturated vector change cost, not
        # state, so dumping anywhere else is dominated).  Vectors whose
        # class has no kinds left close as each layer advances: their
        # count must then be 0 or k.
        # Edges out of a state are enumerated lazily, stratified by
        # exact edge cost: the heap holds (f, layer, state, d) markers,
        # each enumerating only the per-pattern top-up combos of total
        # cost d before re-queueing itself for d + 1.  The search thus
        # never materializes the (k+1)^patterns combo space around
        # states it does not actually need to leave expensively.
        start = (0, ())
        dist: dict[tuple[int, tuple], int] = {start: 0}
        parent: dict[tuple[int, tuple], tuple[tuple, tuple]] = {}
        heap: list[tuple[int, int, tuple, int]] = [
            (hsuf[1] if n_kinds else 0, 0, (), 0)
        ]
        opt = None
        explored = 0

        while heap:
            f, i, skey, d = heapq.heappop(heap)
            if i == n_kinds:
                opt = dist[(i, skey)]
                break
            g = dist[(i, skey)]
            if f != g + d + hsuf[i + 1]:
                continue  # stale marker: the state has been improved
            explored += 1
            if explored % 64 == 0:
                budget.check("fpt_suppression pattern DP")
            c = counts[i]
            vecs = vec_of[i]
            scounts = dict(skey)
            current = [scounts.get(v, 0) for v in vecs]
            # Top-up choices per pattern: 0 keeps an untouched vector
            # closed; otherwise the count after this kind must leave a
            # deficit coverable by the class's remaining rows.
            choices: list[tuple[int, ...]] = []
            dead = False
            for p in patterns:
                cnt = current[p]
                hi = min(c, k - cnt)
                lo = k - cnt - suffix_cap[vecs[p]][i + 1]
                opts: list[int] = []
                if cnt == 0 or lo <= 0:
                    opts.append(0)
                lo = max(lo, 1)
                if lo <= hi:
                    opts.extend(range(lo, hi + 1))
                if not opts:
                    dead = True
                    break
                choices.append(tuple(opts))
            if dead:
                continue
            closing = {v for v in vecs if last_kind[v] == i}

            def relax(taken: list[int], remainder: int, dump: int) -> None:
                merged = dict(scounts)
                for p in patterns:
                    add = taken[p] + (remainder if p == dump else 0)
                    if add:
                        v = vecs[p]
                        merged[v] = min(k, merged.get(v, 0) + add)
                for v in closing:
                    got = merged.pop(v, 0)
                    if 0 < got < k:
                        return
                key = (i + 1, tuple(sorted(merged.items())))
                candidate = g + d
                if candidate < dist.get(key, _HUGE):
                    dist[key] = candidate
                    parent[key] = (
                        skey,
                        tuple(
                            (p, taken[p] + (remainder if p == dump else 0))
                            for p in patterns
                            if taken[p] or p == dump
                        ),
                    )
                    nxt = hsuf[i + 2] if i + 1 < n_kinds else 0
                    heapq.heappush(
                        heap, (candidate + nxt, i + 1, key[1], 0)
                    )

            def extend(p_index: int, spent: int, delta: int,
                       taken: list[int]) -> None:
                if delta > d:
                    return
                if p_index == len(patterns):
                    remainder = c - spent
                    dump = -1
                    if remainder > 0:
                        dump_weight = None
                        for p in patterns:
                            if current[p] + taken[p] >= k and (
                                dump_weight is None
                                or weight[p] < dump_weight
                            ):
                                dump_weight = weight[p]
                                dump = p
                        if dump < 0:
                            return  # nowhere to place the rest
                        delta += remainder * dump_weight
                    if delta == d:
                        relax(taken, remainder, dump)
                    return
                for t in choices[p_index]:
                    if spent + t > c:
                        continue
                    taken.append(t)
                    extend(p_index + 1, spent + t,
                           delta + t * weight[p_index], taken)
                    taken.pop()

            extend(0, 0, 0, [])
            if d < c * m:  # edge costs are bounded by all-suppressed
                heapq.heappush(
                    heap, (g + d + 1 + hsuf[i + 1], i, skey, d + 1)
                )
            if len(dist) > self._max_states:
                raise ValueError(
                    f"pattern-DP frontier {len(dist)} exceeds "
                    f"max_states={self._max_states}; this instance is "
                    "outside the bounded-m regime"
                )
        run.count("dp_states", explored)

        assert opt is not None, \
            "the all-suppressed assignment is always feasible"

        # Walk the back-pointers to per-kind pattern assignments, then
        # materialize groups vector by vector.
        with run.phase("rebuild"):
            assignment: list[tuple[tuple[int, int], ...]] = [()] * n_kinds
            key: tuple = ()
            for i in range(n_kinds - 1, -1, -1):
                key, dist_rec = parent[(i + 1, key)]
                assignment[i] = dist_rec
            queues = {kind: deque() for kind in kinds}
            for index, row in enumerate(table.rows):
                queues[row].append(index)
            vector_rows: dict[int, list[int]] = {}
            for i, dist in enumerate(assignment):
                for p, count in dist:
                    members = vector_rows.setdefault(vec_of[i][p], [])
                    for _ in range(count):
                        members.append(queues[kinds[i]].popleft())
            groups: list[frozenset[int]] = []
            for members in vector_rows.values():
                remaining = list(members)
                while len(remaining) > 2 * k - 1:
                    groups.append(frozenset(remaining[:k]))
                    remaining = remaining[k:]
                groups.append(frozenset(remaining))
        partition = Partition(groups, table.n_rows, k)
        # the search minimises the partition's ANON cost; on a table
        # that already holds ``*`` cells the release's star count differs
        cost = partition.anon_cost(table, run.backend)
        assert cost <= opt, "splitting never exceeds the pattern cost"
        assert cost == opt, "a cheaper split contradicts optimality"
        return self._result_from_partition(
            table, k, partition,
            {"opt": int(opt), "patterns": len(patterns),
             "released_vectors": len(vector_ids), "dp_states": explored},
            run=run,
        )


_HUGE = float("inf")
