"""Golden releases: sha256 of release CSVs recorded before a refactor.

Cross-backend parity tests compare backends against each other, so a
change in code every backend shares — the ball cover, Reduce, the group
split, a seed scan — moves all of them together and still passes.  These
hashes pin the releases themselves.  They were recorded from the
pre-vectorisation solve path (per-element ``sorted`` neighbour orders,
scalar-distance split and seed scans, ``Fraction`` heap keys); the
two 300x6 entries were recorded later, before the greedy's candidates
became one sorted stream and the split and suppression moved onto
index and code arrays.  Any change to a solver's output fails here, on
every backend.  The incremental entries hash a solve and two chained
deltas, release CSVs and snapshot JSON alike.  The 600-row entries were
recorded from the per-cell ``setdefault`` encode, the fully sorted
candidate stream and the per-star row copy.

Regenerate only for an intended change of release, never to make a
refactor pass: ``python -m tests.test_golden_releases`` prints the
current hashes.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import registry
from repro.algorithms.center_cover import CenterCoverAnonymizer
from repro.algorithms.greedy_cover import GreedyCoverAnonymizer
from repro.algorithms.incremental import IncrementalAnonymizer, IncrementalState
from repro.core.alphabet import STAR
from repro.core.backend import available_backends
from repro.core.table import Table
from repro.workloads import census_table, quasi_identifiers, uniform_table

def _with_id_column(table: Table) -> Table:
    """*table*'s quasi-identifiers plus a column of distinct values."""
    base = quasi_identifiers(table)
    n = base.n_rows
    return Table(
        [row + (f"p{(i * 7) % n}",) for i, row in enumerate(base.rows)],
        attributes=list(base.attributes) + ["person"],
    )


#: (id, algorithm, table factory, k, sha256 of the release CSV); the
#: algorithm is a registry name or a factory of a configured instance
GOLDEN = [
    ("center_cover-census-300",
     "center_cover", lambda: quasi_identifiers(census_table(300, seed=1)), 5,
     "f9c03a1c80b5f278e3f754fb5c0b159d9ff38bdbc1ca1c15381aa98563fe09e4"),
    ("center_cover-census-1000",
     "center_cover", lambda: quasi_identifiers(census_table(1000, seed=2)), 5,
     "28e64db3dd4b2e150d237261056b794a392b88ebd96651a1fca681748467494b"),
    ("center_cover-binary-800x128",
     "center_cover",
     lambda: uniform_table(800, 128, alphabet_size=2, seed=3), 4,
     "e989eabcbad1e9f80cd77e2fab89b1941143ffdfbd61c99e853b3883f735a8f1"),
    # the only golden instance whose greedy picks more than one ball
    # (43 balls, 1783 re-queues), in both diameter modes
    ("center_cover-binary-300x6",
     "center_cover", lambda: uniform_table(300, 6, alphabet_size=2, seed=1), 4,
     "18c66f4888f25d987b9d7441b641cf45b39243232db4758cda42a12887d15d85"),
    ("center_cover-exact-binary-300x6",
     lambda: CenterCoverAnonymizer(diameter_mode="exact"),
     lambda: uniform_table(300, 6, alphabet_size=2, seed=1), 4,
     "18c66f4888f25d987b9d7441b641cf45b39243232db4758cda42a12887d15d85"),
    # 5,712 candidates and 2,122 pops: the greedy streams far past the
    # first chunk of candidates, in both diameter modes
    ("center_cover-binary-600x10",
     "center_cover", lambda: uniform_table(600, 10, alphabet_size=2, seed=2), 3,
     "29c5413f32ef55aa605fb5cd25481deeb9346acf8b8daa73269bb1b59a96379a"),
    ("center_cover-exact-binary-600x10",
     lambda: CenterCoverAnonymizer(diameter_mode="exact"),
     lambda: uniform_table(600, 10, alphabet_size=2, seed=2), 3,
     "29c5413f32ef55aa605fb5cd25481deeb9346acf8b8daa73269bb1b59a96379a"),
    # a column of 600 distinct values takes 16-bit codes
    ("center_cover-census-600-ids",
     "center_cover", lambda: _with_id_column(census_table(600, seed=16)), 5,
     "bfde8eb0065e95d693be2f8ae0e39baa58c78da1a624d096fb514902a4552192"),
    ("reduce_cover-census-300",
     "reduce_cover", lambda: quasi_identifiers(census_table(300, seed=4)), 4,
     "e9d436a2045efe8ab79a7bafe0723250d1f099e710f27605adf01b6aaa23e76f"),
    ("kmember-census-120",
     "kmember", lambda: quasi_identifiers(census_table(120, seed=5)), 3,
     "263e6c8420fd7175591e7a76763e9cf152b1c7f3c5f0a2e835ae6a9efc96cf3d"),
    ("kmember-binary-90x24",
     "kmember", lambda: uniform_table(90, 24, alphabet_size=2, seed=6), 4,
     "d0f7f8d45d7a4b21dc846cc1fcdd608661396656af97e157759b3437b9ab8312"),
    ("mst_forest-census-150",
     "mst_forest", lambda: quasi_identifiers(census_table(150, seed=7)), 4,
     "fb2df1d69c2e197e1b5057f2d322330ccc8c7bb5aa4de473eb283c8a4eab3fe6"),
    ("topdown_greedy-census-150",
     "topdown_greedy", lambda: quasi_identifiers(census_table(150, seed=8)),
     3,
     "31e4e33b4397e4754a3ee6c4548a13a524c5af475ac600c0330f3149ab20c141"),
    ("topdown_greedy-binary-120x32",
     "topdown_greedy",
     lambda: uniform_table(120, 32, alphabet_size=2, seed=9), 4,
     "c0061f21b8017300eff46ecd9e255097791a45159f264279dc0fc0de842d0918"),
    # Theorem 4.1, recorded from the eager greedy that re-scanned every
    # [k, 2k-1]-subset on each pick
    ("greedy_cover-census-20",
     "greedy_cover", lambda: quasi_identifiers(census_table(20, seed=11)), 3,
     "31888606dac78afdb3a21b6abe03af1b76e0df9c4a9b0987630f790e7c3cacce"),
    ("greedy_cover-census-24",
     "greedy_cover", lambda: quasi_identifiers(census_table(24, seed=12)), 2,
     "b083e7eb21ab82757d5a1343595cb795c4741a6626d72e68383bf1d1a9a100e6"),
    ("greedy_cover-binary-18x8",
     "greedy_cover", lambda: uniform_table(18, 8, alphabet_size=2, seed=13), 3,
     "e704f6561f70d9d59e2f94a9d0f8981fa612e5b873dce1b5b7ea57a3eca276e0"),
    ("greedy_cover-binary-22x10",
     "greedy_cover", lambda: uniform_table(22, 10, alphabet_size=2, seed=14),
     2,
     "157cb6785902622b040882df8964aaa1cbb9ff06eda17caeceb7c14ac757f6f6"),
    ("greedy_cover-kmax4-census-16",
     lambda: GreedyCoverAnonymizer(k_max=4),
     lambda: quasi_identifiers(census_table(16, seed=15)), 3,
     "f7a2cdc72ea8b2fa6667c95a10f4cf87c6072aa845986d199c985d2e04aee86c"),
]

#: instances cheap enough for the pure-Python backend as well (its
#: exact-mode diameters take seconds on the 300x6 instance)
_PYTHON_OK = {
    "center_cover-census-300", "center_cover-binary-300x6",
    "center_cover-binary-600x10", "center_cover-census-600-ids",
    "reduce_cover-census-300",
    "kmember-census-120", "kmember-binary-90x24", "mst_forest-census-150",
    "topdown_greedy-census-150", "topdown_greedy-binary-120x32",
    "greedy_cover-census-20", "greedy_cover-census-24",
    "greedy_cover-binary-18x8", "greedy_cover-binary-22x10",
    "greedy_cover-kmax4-census-16",
}


def release_digest(algorithm, table, k: int, backend: str) -> str:
    anonymizer = (
        registry.create(algorithm) if isinstance(algorithm, str) else algorithm()
    )
    result = anonymizer.anonymize(table, k, backend=backend)
    return hashlib.sha256(result.anonymized.to_csv().encode()).hexdigest()


def _cases():
    for case_id, algorithm, factory, k, digest in GOLDEN:
        for backend in available_backends():
            if backend == "python" and case_id not in _PYTHON_OK:
                continue
            yield pytest.param(algorithm, factory, k, digest, backend,
                               id=f"{case_id}-{backend}")


@pytest.mark.parametrize("algorithm, factory, k, digest, backend", _cases())
def test_release_matches_golden_hash(algorithm, factory, k, digest, backend):
    assert release_digest(algorithm, factory(), k, backend) == digest


#: rows each chained delta appends (not a multiple of any k below, so
#: the chain also carries pending rows across snapshots)
DELTA_ROWS = 7


def _starred_census(n: int, seed: int) -> Table:
    """A census table that already holds ``*`` cells, as a re-anonymized
    CSV would: every fifth row has one suppressed cell."""
    table = quasi_identifiers(census_table(n, seed=seed))
    rows = [
        tuple(
            STAR if i % 5 == 0 and j == i % table.degree else value
            for j, value in enumerate(row)
        )
        for i, row in enumerate(table.rows)
    ]
    return Table(rows, attributes=table.attributes)


#: (id, table factory, k, sha256 over the incremental chain); recorded
#: from the engine that priced each placement by rebuilding the group
INCREMENTAL_GOLDEN = [
    ("incremental-census-64-k2",
     lambda: quasi_identifiers(census_table(64, seed=21)), 2,
     "bc36e673334490ca856e6b1c44a3e47b5d0610a28db5c3d1d4d515702fccb731"),
    ("incremental-census-64-k3",
     lambda: quasi_identifiers(census_table(64, seed=21)), 3,
     "b8016ba30a41a5b99bf259f9fa24814a7fef06a4565052e58af1d18c28c83da2"),
    ("incremental-census-64-k5",
     lambda: quasi_identifiers(census_table(64, seed=21)), 5,
     "a958bdd8557dc5c3d0048430c228f40436f1dbb41c46395693198d3989daf57e"),
    ("incremental-census-128-k2",
     lambda: quasi_identifiers(census_table(128, seed=22)), 2,
     "26dff3081212e9a3d2cbc801a997c2428cf1f08798a53ee175726586ecb477a9"),
    ("incremental-census-128-k3",
     lambda: quasi_identifiers(census_table(128, seed=22)), 3,
     "b5aece02e91fafa5466836c00201fce8d2c64739b4458b56878fdc6c457c55e7"),
    ("incremental-census-128-k5",
     lambda: quasi_identifiers(census_table(128, seed=22)), 5,
     "a6a8933ce6eedd31a9f0b8cc57fbaa0383cf38a6a567025f8f6d21e8818d8a62"),
    ("incremental-census-360-k2",
     lambda: quasi_identifiers(census_table(360, seed=23)), 2,
     "2f7b7696ce39f3801203e627240ae27f224a03d8cb23b3b41956352c85cae958"),
    ("incremental-census-360-k3",
     lambda: quasi_identifiers(census_table(360, seed=23)), 3,
     "2b7dd52325e5f3a6e9ee7cfebb02683c2bca545897cbe7ab0c2b7c6f997e288d"),
    ("incremental-census-360-k5",
     lambda: quasi_identifiers(census_table(360, seed=23)), 5,
     "d852f63e7b5372c561cbbac41f3114fb032f71da700cfee3cec30fcdffa1ccfb"),
    ("incremental-starred-census-96-k3",
     lambda: _starred_census(96, seed=24), 3,
     "1a10ce839d4b73db6790e46c4bf660d2641657f4c67f7671f135c5fee2d6ce29"),
]


def incremental_chain_digest(table: Table, k: int) -> str:
    """sha256 over an ``incremental`` solve and two chained deltas.

    The last ``2 * DELTA_ROWS`` rows arrive as two deltas, continued
    the way the service continues a stream: the snapshot goes through
    JSON, is restored, takes the delta, is exported again and then
    finalized.  Every step's release CSV and snapshot JSON is hashed.
    """
    digest = hashlib.sha256()
    cut = table.n_rows - 2 * DELTA_ROWS
    solver = registry.create("incremental")
    solver.capture_state = True
    result = solver.anonymize(
        Table(table.rows[:cut], attributes=table.attributes), k
    )
    state = result.extras["incremental_state"]
    digest.update(result.anonymized.to_csv().encode())
    digest.update(json.dumps(state, sort_keys=True).encode())
    for start in (cut, cut + DELTA_ROWS):
        engine = IncrementalAnonymizer.from_state(
            IncrementalState.from_dict(json.loads(json.dumps(state)))
        )
        engine.insert(table.rows[start:start + DELTA_ROWS])
        state = engine.export_state().as_dict()
        engine.finalize()
        digest.update(engine.released().to_csv().encode())
        digest.update(json.dumps(state, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "factory, k, digest",
    [pytest.param(factory, k, digest, id=case_id)
     for case_id, factory, k, digest in INCREMENTAL_GOLDEN],
)
def test_incremental_chain_matches_golden_hash(factory, k, digest):
    assert incremental_chain_digest(factory(), k) == digest


if __name__ == "__main__":
    for case_id, algorithm, factory, k, _ in GOLDEN:
        print(case_id, release_digest(algorithm, factory(), k, "numpy"))
    for case_id, factory, k, _ in INCREMENTAL_GOLDEN:
        print(case_id, incremental_chain_digest(factory(), k))
