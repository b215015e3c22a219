"""Core substrate: relations, suppressors, distances, partitions.

This package implements Section 2 of Meyerson & Williams (PODS 2004):
the formal model of relations as sets of vectors over finite alphabets,
suppressors (Definition 2.1), k-anonymity (Definition 2.2), the distance
and diameter machinery of Definition 4.1, and the (k1, k2)-cover /
partition notions of Section 4.1.
"""

from repro.core.alphabet import STAR, Alphabet, infer_alphabets, is_suppressed
from repro.core.backend import (
    DistanceBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    default_backend_name,
    encode_table,
    get_backend,
    make_backend,
)
from repro.core.anonymity import (
    anonymity_level,
    equivalence_classes,
    is_k_anonymous,
    suppressed_cell_count,
)
from repro.core.distance import (
    anon_cost,
    diameter,
    disagreeing_coordinates,
    distance,
    group_image,
)
from repro.core.partition import (
    Cover,
    Partition,
    anonymize_partition,
    split_into_small_groups,
)
from repro.core.suppressor import Suppressor
from repro.core.table import Table

__all__ = [
    "STAR",
    "Alphabet",
    "Cover",
    "DistanceBackend",
    "NumpyBackend",
    "Partition",
    "PythonBackend",
    "Suppressor",
    "Table",
    "anon_cost",
    "available_backends",
    "default_backend_name",
    "encode_table",
    "get_backend",
    "make_backend",
    "anonymity_level",
    "anonymize_partition",
    "diameter",
    "disagreeing_coordinates",
    "distance",
    "equivalence_classes",
    "group_image",
    "infer_alphabets",
    "is_k_anonymous",
    "is_suppressed",
    "split_into_small_groups",
    "suppressed_cell_count",
]
