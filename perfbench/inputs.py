"""Seeded inputs: census quasi-identifier instances and wide binary tables.

Everything here is a pure function of the ``--seed`` the benchmark was
given; the program under test only ever sees the tables generated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.table import Table
from repro.workloads import census_table, quasi_identifiers

#: rows in the census pool that service instances are sampled from
POOL_ROWS = 4000


@dataclass(eq=False)
class Instance:
    """One anonymization instance as the wire carries it."""

    csv: str
    k: int
    n: int


class CensusSource:
    """Census quasi-identifier tables drawn as row samples of one seeded pool.

    Generating a census table row by row costs ~80 µs per row, so the
    thousands of small service instances a run needs are sampled from
    one pool instead; every sample is a distinct table from the same
    distribution.  Values travel as strings, as they do after a CSV
    round trip, so a table built here hashes like the one a server
    parses.
    """

    def __init__(self, seed: int):
        table = quasi_identifiers(census_table(POOL_ROWS, seed=seed))
        self.attributes = table.attributes
        self.rows = [tuple(str(value) for value in row) for row in table.rows]

    def table(self, rng: np.random.Generator, n: int) -> Table:
        picks = rng.choice(len(self.rows), size=n, replace=False)
        return Table([self.rows[i] for i in picks], attributes=self.attributes)


class Shapes:
    """A fixed cycle of ``(n, k)`` shapes, so seeds vary content, not size.

    Sizes are spread evenly over ``[low, high]`` and k alternates over
    *ks*; with random sizes, a seed's mean table size (and so its mean
    solve time) would move the end-to-end figures on its own.
    """

    def __init__(self, low: int, high: int, count: int, ks: tuple[int, ...]):
        self.sizes = [low + round(i * (high - low) / (count - 1))
                      for i in range(count)]
        self.ks = ks
        self.drawn = 0

    def next(self) -> tuple[int, int]:
        index = self.drawn
        self.drawn += 1
        return self.sizes[index % len(self.sizes)], self.ks[index % len(self.ks)]


def instance(table: Table, k: int) -> Instance:
    return Instance(table.to_csv(), k, table.n_rows)


def payload(item: Instance, algorithm: str) -> dict:
    """The ``anonymize`` request for *item*."""
    return {"op": "anonymize", "csv": item.csv, "k": item.k,
            "algorithm": algorithm}
