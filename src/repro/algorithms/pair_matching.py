"""Optimal *pairing* for 2-anonymity via minimum-weight perfect matching.

The paper's hardness proofs need ``k >= 3`` — "it is possible that the
problem is still tractable" below that.  For ``k = 2`` a natural
polynomial-time algorithm exists for the *pairs-only* restriction:
partition the rows into groups of exactly two, minimizing total ANON
cost.  Since ``ANON({u, v}) = 2 d(u, v)``, that is exactly a
minimum-weight perfect matching on the complete graph — solvable in
polynomial time with Edmonds' blossom algorithm (via networkx, the
optional ``matching`` extra; the planner skips this solver without it).

Pairs-only is a genuine restriction: triples can beat pairs (three
mutually-equal rows pair at cost > 0 if the fourth row is far), so this
is an exact solver for a meaningful subproblem and a strong heuristic
for full 2-anonymity.  For odd ``n`` one group of three is forced; we
try every choice of the tripled rows' "extra" member greedily.

Guarantee for the pairs-only objective: exact.  Against unrestricted
OPT: never better (tests assert), usually within a few stars.
"""

from __future__ import annotations

import functools
import importlib.util

from repro.algorithms.base import AnonymizationResult, Anonymizer
from repro.core.backend import get_backend
from repro.core.partition import Partition
from repro.core.table import Table
from repro.registry import register


def minimum_weight_pairing(table: Table, backend=None) -> list[tuple[int, int]]:
    """Min-total-distance perfect pairing of the rows (n must be even).

    Uses Edmonds' blossom algorithm through networkx's
    ``max_weight_matching`` on negated weights with ``maxcardinality``.
    """
    import networkx as nx

    n = table.n_rows
    if n % 2:
        raise ValueError("perfect pairing needs an even number of rows")
    if n == 0:
        return []
    dist = get_backend(table, backend).distance_matrix()
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    # max_weight_matching maximizes; use (max_dist - d) to minimize d
    # while maxcardinality=True forces a perfect matching.
    ceiling = max(max(row) for row in dist) + 1
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j, weight=ceiling - dist[i][j])
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    pairs = sorted(tuple(sorted(edge)) for edge in matching)
    assert len(pairs) == n // 2, "complete graphs always pair perfectly"
    return pairs


@functools.cache
def _networkx_importable() -> bool:
    """True iff the optional ``networkx`` dependency (the ``matching``
    extra) can be imported; looked up once, without importing it."""
    return importlib.util.find_spec("networkx") is not None


@register(
    "pair_matching",
    kind="heuristic",
    summary="Edmonds blossom matching; optimal among pairs-only at k=2",
    applicable=lambda n, m, sigma, k: (
        k == 2 and n >= 2 and _networkx_importable()
    ),
)
class PairMatchingAnonymizer(Anonymizer):
    """Exact pairs-only 2-anonymity (k = 2 only).

    >>> from repro.core.table import Table
    >>> t = Table([(0, 0), (0, 1), (5, 5), (5, 6)])
    >>> PairMatchingAnonymizer().anonymize(t, 2).stars
    4
    """

    name = "pair_matching"

    def _anonymize(self, table: Table, k: int, run) -> AnonymizationResult:
        if k != 2:
            raise ValueError("PairMatchingAnonymizer is specific to k = 2")
        self._check_feasible(table, k)
        n = table.n_rows
        if n == 0:
            return self._empty_result(table, k)
        backend = run.backend

        if n % 2 == 0:
            with run.phase("matching"):
                pairs = minimum_weight_pairing(table, backend=backend)
            groups = [frozenset(pair) for pair in pairs]
            partition = Partition(groups, n, 2)
            return self._result_from_partition(
                table, k, partition, {"pairs": len(pairs), "tripled": None},
                run=run,
            )

        # odd n: one triple is unavoidable; try each row as the "extra"
        # member appended to its best pair after matching the rest.
        best: tuple[int, list[frozenset[int]], int] | None = None
        for extra in range(n):
            remaining = [i for i in range(n) if i != extra]
            sub = table.select_rows(remaining)
            pairs = minimum_weight_pairing(sub, backend=backend)
            groups = [
                frozenset({remaining[a], remaining[b]}) for a, b in pairs
            ]
            # attach `extra` to the group whose cost grows least
            target = min(
                range(len(groups)),
                key=lambda g: (
                    backend.anon_cost(groups[g] | {extra})
                    - backend.anon_cost(groups[g]),
                    g,
                ),
            )
            candidate = [
                (group | {extra}) if g == target else group
                for g, group in enumerate(groups)
            ]
            cost = sum(backend.anon_cost(group) for group in candidate)
            if best is None or cost < best[0]:
                best = (cost, candidate, extra)
        assert best is not None
        partition = Partition(best[1], n, 2)
        return self._result_from_partition(
            table, k, partition,
            {"pairs": len(best[1]) - 1, "tripled": best[2]},
            run=run,
        )
