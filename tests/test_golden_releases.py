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
every backend.

Regenerate only for an intended change of release, never to make a
refactor pass: ``python -m tests.test_golden_releases`` prints the
current hashes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import registry
from repro.algorithms.center_cover import CenterCoverAnonymizer
from repro.algorithms.greedy_cover import GreedyCoverAnonymizer
from repro.core.backend import available_backends
from repro.workloads import census_table, quasi_identifiers, uniform_table

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


if __name__ == "__main__":
    for case_id, algorithm, factory, k, _ in GOLDEN:
        print(case_id, release_digest(algorithm, factory(), k, "numpy"))
