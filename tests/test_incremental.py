"""Tests for incremental anonymization and the shared partition DP."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.incremental import (
    IncrementalAnonymizer,
    IncrementalBatchAnonymizer,
    IncrementalState,
)
from repro.algorithms.partition_dp import minimum_cost_partition
from repro.core.alphabet import STAR
from repro.core.anonymity import is_k_anonymous, suppressed_cell_count
from repro.core.distance import disagreeing_coordinates
from repro.core.table import Table

from .conftest import random_table


class TestPartitionDpEngine:
    def test_zero_cost_function(self):
        cost, groups = minimum_cost_partition(6, 2, lambda members: 0.0)
        assert cost == 0.0
        assert sorted(i for g in groups for i in g) == list(range(6))
        assert all(2 <= len(g) <= 3 for g in groups)

    def test_prefers_cheap_groups(self):
        # cost = spread of indices: consecutive pairs are optimal
        def spread(members):
            return max(members) - min(members)

        cost, groups = minimum_cost_partition(6, 2, spread)
        assert cost == 3.0
        assert {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})} == set(
            groups
        )

    def test_group_max_override(self):
        cost, groups = minimum_cost_partition(
            6, 2, lambda m: float(len(m)), group_max=2
        )
        assert all(len(g) == 2 for g in groups)
        assert cost == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            minimum_cost_partition(1, 2, lambda m: 0.0)
        with pytest.raises(ValueError):
            minimum_cost_partition(3, 0, lambda m: 0.0)
        with pytest.raises(ValueError):
            minimum_cost_partition(3, 2, lambda m: 0.0, group_max=1)
        assert minimum_cost_partition(0, 3, lambda m: 0.0) == (0.0, [])

    def test_cost_function_called_once_per_group(self):
        calls = []

        def counting(members):
            calls.append(members)
            return 0.0

        minimum_cost_partition(5, 2, counting)
        assert len(calls) == len(set(calls))


class TestOptimalRecoding:
    def test_suppression_hierarchies_match_exact(self):
        """With height-1 hierarchies, recoding loss == OPT stars."""
        import numpy as np

        from repro.algorithms.exact import optimal_anonymization
        from repro.generalization import Hierarchy
        from repro.generalization.optimal_recoding import optimal_recoding

        for seed in range(4):
            t = random_table(np.random.default_rng(seed), 8, 3, 3)
            hierarchies = [
                Hierarchy.suppression(sorted({row[j] for row in t.rows}))
                for j in range(3)
            ]
            loss, _ = optimal_recoding(t, 2, hierarchies)
            opt, _ = optimal_anonymization(t, 2)
            assert loss == pytest.approx(opt)

    def test_real_hierarchies_lose_less(self):
        """Interval hierarchies never lose more than suppression."""
        from repro.algorithms.exact import optimal_anonymization
        from repro.generalization import interval_hierarchy
        from repro.generalization.optimal_recoding import optimal_recoding

        t = Table([(2,), (3,), (12,), (13,)])
        hierarchy = interval_hierarchy(0, 16, base_width=2, branching=2)
        loss, partition = optimal_recoding(t, 2, hierarchies=[hierarchy])
        opt, _ = optimal_anonymization(t, 2)
        assert loss <= opt
        # the natural grouping pairs neighbours
        assert {frozenset({0, 1}), frozenset({2, 3})} == set(partition.groups)

    def test_recoded_release_is_k_anonymous(self):
        from repro.generalization import interval_hierarchy, recode_partition
        from repro.generalization.optimal_recoding import optimal_recoding

        t = Table([(1,), (6,), (9,), (14,)])
        hierarchy = interval_hierarchy(0, 16, base_width=4, branching=2)
        _, partition = optimal_recoding(t, 2, [hierarchy])
        released = recode_partition(t, partition, [hierarchy])
        assert is_k_anonymous(released, 2)

    def test_validation(self):
        from repro.generalization import Hierarchy
        from repro.generalization.optimal_recoding import optimal_recoding

        h = Hierarchy.suppression([1, 2])
        with pytest.raises(ValueError):
            optimal_recoding(Table([(1,), (2,)]), 2, [h, h])
        with pytest.raises(ValueError):
            optimal_recoding(Table([(1,)]), 2, [h])
        assert optimal_recoding(Table([], attributes=["a"]), 2, [h])[0] == 0.0


class TestIncrementalAnonymizer:
    def test_doctest_scenario(self):
        inc = IncrementalAnonymizer(k=2, degree=2)
        inc.insert([(0, 0), (0, 1)])
        assert inc.released().rows == ((0, STAR), (0, STAR))
        inc.insert([(5, 5)])
        assert inc.released().rows[2] == (STAR, STAR)
        assert inc.n_pending == 1
        inc.insert([(5, 5)])
        assert inc.released().rows[2] == (5, 5)
        assert inc.n_pending == 0

    def test_snapshots_always_k_anonymous(self):
        import numpy as np

        rng = np.random.default_rng(0)
        inc = IncrementalAnonymizer(k=3, degree=3)
        for _ in range(15):
            batch = [tuple(int(v) for v in rng.integers(0, 3, size=3))]
            inc.insert(batch)
            assert inc.is_publishable()
            snapshot = inc.released()
            # the full snapshot (pending all-star rows included) is
            # k-anonymous whenever the all-star class is empty or big
            if inc.n_pending == 0:
                assert is_k_anonymous(snapshot, 3)

    def test_images_only_coarsen(self):
        """Once a cell is released, later snapshots never reveal more
        about it — the anti-intersection-attack invariant."""
        import numpy as np

        rng = np.random.default_rng(1)
        inc = IncrementalAnonymizer(k=2, degree=3)
        previous: list[tuple] = []
        previously_settled: set[int] = set()
        for _ in range(20):
            inc.insert([tuple(int(v) for v in rng.integers(0, 2, size=3))])
            current = list(inc.released().rows)
            for i in previously_settled:
                # a *published* (settled) cell, once starred, stays starred;
                # pending rows are withheld, not published, so their later
                # reveal is fine and they are excluded here
                for old_value, new_value in zip(previous[i], current[i]):
                    if old_value is STAR:
                        assert new_value is STAR
            previous = current
            previously_settled = set(inc._group_of)

    def test_batch_insert(self):
        inc = IncrementalAnonymizer(k=2, degree=1)
        inc.insert([(1,), (1,), (2,), (2,), (3,)])
        assert inc.n_rows == 5
        assert inc.n_pending == 1

    def test_degree_validation(self):
        inc = IncrementalAnonymizer(k=2, degree=2)
        with pytest.raises(ValueError, match="degree"):
            inc.insert([(1,)])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            IncrementalAnonymizer(k=0, degree=1)
        with pytest.raises(ValueError):
            IncrementalAnonymizer(k=2, degree=-1)

    def test_attributes_carried(self):
        inc = IncrementalAnonymizer(k=2, degree=2, attributes=["a", "b"])
        inc.insert([(1, 2), (1, 3)])
        assert inc.released().attributes == ("a", "b")

    def test_groups_never_exceed_2k_minus_1(self):
        import numpy as np

        rng = np.random.default_rng(2)
        inc = IncrementalAnonymizer(k=2, degree=2)
        for _ in range(30):
            inc.insert([tuple(int(v) for v in rng.integers(0, 2, size=2))])
        assert all(len(g) <= 3 for g in inc._groups)

    def test_empty_snapshot(self):
        inc = IncrementalAnonymizer(k=3, degree=2)
        assert inc.released().n_rows == 0
        assert inc.is_publishable()
        assert inc.total_stars() == 0

    def test_insert_is_atomic_on_mid_batch_degree_mismatch(self):
        """Regression: a bad row mid-batch used to leave earlier rows
        of the same batch already appended (and possibly flushed)."""
        inc = IncrementalAnonymizer(k=2, degree=2)
        inc.insert([(0, 0), (0, 1)])
        released_before = inc.released().rows
        with pytest.raises(ValueError, match="row 2 of degree 3"):
            # rows 0-1 are valid and would have flushed a new group
            # under the old row-at-a-time loop; row 2 is torn
            inc.insert([(5, 5), (5, 6), (5, 6, 7)])
        assert inc.n_rows == 2
        assert inc.n_pending == 0
        assert inc.released().rows == released_before
        # the engine still works after the rejected batch
        inc.insert([(5, 5), (5, 6)])
        assert inc.n_rows == 4

    def test_insert_atomicity_with_generator_input(self):
        """A half-consumed generator must not leak rows in either."""
        inc = IncrementalAnonymizer(k=2, degree=1)

        def rows():
            yield (1,)
            yield (2, 3)

        with pytest.raises(ValueError):
            inc.insert(rows())
        assert inc.n_rows == 0


class TestIncrementalState:
    def _streamed(self):
        inc = IncrementalAnonymizer(k=2, degree=2, attributes=("x", "y"))
        inc.insert([(0, 0), (0, 1), (7, 7), (7, 8), (3, 3)])
        return inc

    def test_export_restore_round_trip(self):
        inc = self._streamed()
        restored = IncrementalAnonymizer.from_state(inc.export_state())
        assert restored.released() == inc.released()
        assert restored.groups() == inc.groups()
        assert restored.n_pending == inc.n_pending

    def test_as_dict_survives_json_and_star_cells(self):
        inc = self._streamed()
        state = inc.export_state()
        # group images contain STAR cells; they must survive the trip
        assert any(STAR in image for image in state.images)
        payload = json.loads(json.dumps(state.as_dict()))
        rebuilt = IncrementalState.from_dict(payload)
        assert rebuilt == state
        restored = IncrementalAnonymizer.from_state(rebuilt)
        assert restored.released() == inc.released()

    def test_star_token_identified_with_suppression(self):
        # the wire encoding uses the CSV star token, so a literal "*"
        # cell decodes to STAR — the same identification CSV makes
        state = IncrementalState(
            k=1, degree=2, attributes=None, rows=(("*", STAR),),
            groups=((0,),), images=((STAR, "x"),), pending=(),
        )
        payload = state.as_dict()
        assert payload["rows"] == [["*", "*"]]
        assert payload["images"] == [["*", "x"]]
        rebuilt = IncrementalState.from_dict(payload)
        assert rebuilt.rows[0][0] is STAR and rebuilt.rows[0][1] is STAR
        assert rebuilt.images == ((STAR, "x"),)

    def test_restored_engine_is_replay_equivalent(self):
        inc = self._streamed()
        restored = IncrementalAnonymizer.from_state(inc.export_state())
        tail = [(3, 4), (0, 0), (9, 9), (9, 9)]
        inc.insert(tail)
        restored.insert(tail)
        assert restored.released() == inc.released()
        inc.finalize()
        restored.finalize()
        assert restored.released() == inc.released()

    def test_unknown_version_rejected(self):
        state = self._streamed().export_state()
        payload = dict(state.as_dict(), version=99)
        with pytest.raises(ValueError, match="version 99"):
            IncrementalState.from_dict(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            IncrementalState.from_dict({"version": 1, "k": 2})
        with pytest.raises(ValueError, match="malformed"):
            IncrementalState.from_dict({})

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            min_size=2, max_size=24,
        ),
        st.integers(0, 23),
        st.integers(2, 3),
    )
    def test_replay_equivalence_property(self, rows, cut, k):
        """Snapshotting at ANY point of a stream and replaying the rest
        equals the uninterrupted run — the delta verb's correctness."""
        cut = min(cut, len(rows))
        cold = IncrementalAnonymizer(k=k, degree=2)
        cold.insert(rows)
        prefix = IncrementalAnonymizer(k=k, degree=2)
        prefix.insert(rows[:cut])
        resumed = IncrementalAnonymizer.from_state(prefix.export_state())
        resumed.insert(rows[cut:])
        assert resumed.released() == cold.released()
        assert resumed.groups() == cold.groups()
        if cold._groups:
            cold.finalize()
            resumed.finalize()
            assert resumed.released() == cold.released()


class TestHonestFinalizeMetadata:
    def test_finalize_prefers_under_cap_groups(self):
        # two settled groups: one AT the k=2 cap whose image matches
        # the leftover exactly (delta cost 0), one under cap and far
        # away.  The old finalize picked the cheap at-cap group; it
        # must strictly prefer the under-cap one.
        state = IncrementalState(
            k=2, degree=1, attributes=None,
            rows=((1,), (1,), (1,), (9,), (8,), (1,)),
            groups=((0, 1, 2), (3, 4)),
            images=((1,), (STAR,)),
            pending=(5,),
        )
        inc = IncrementalAnonymizer.from_state(state)
        inc.finalize()
        assert sorted(len(g) for g in inc._groups) == [3, 3]
        assert not inc.cap_exceeded
        assert inc.is_publishable()

    def test_cap_exceeded_surfaced_when_unavoidable(self):
        # every group at cap plus a leftover: overflow is the only way
        # to settle it, and the engine must say so instead of papering
        # over the broken [k, 2k-1] bound
        state = IncrementalState(
            k=2, degree=1, attributes=None,
            rows=((1,), (1,), (1,), (2,)),
            groups=((0, 1, 2),),
            images=((1,),),
            pending=(3,),
        )
        inc = IncrementalAnonymizer.from_state(state)
        assert not inc.cap_exceeded
        inc.finalize()
        assert [len(g) for g in inc._groups] == [4]
        assert inc.cap_exceeded

    def test_batch_facade_reports_honest_k_max(self):
        # 4 rows, k=2: stream flushes one group of 2, finalize must
        # settle the rest without silently widening the metadata
        table = Table([(1,), (1,), (1,), (2,)])
        result = IncrementalBatchAnonymizer().anonymize(table, 2)
        assert result.is_valid(table)
        if result.extras["cap_exceeded"]:
            sizes = [len(g) for g in result.partition.groups]
            assert result.partition.k_max == max(sizes)
        else:
            assert result.partition.k_max == 3

    def test_batch_facade_captures_state_on_request(self):
        table = Table([(1, 2), (1, 3), (4, 5), (4, 5), (4, 6)])
        plain = IncrementalBatchAnonymizer().anonymize(table, 2)
        assert "incremental_state" not in plain.extras
        capturing = IncrementalBatchAnonymizer(capture_state=True)
        result = capturing.anonymize(table, 2)
        state = IncrementalState.from_dict(
            result.extras["incremental_state"]
        )
        # the snapshot is pre-finalize: replaying nothing + finalize
        # reproduces the released table exactly
        engine = IncrementalAnonymizer.from_state(state)
        engine.finalize()
        assert engine.released() == result.anonymized


class EagerReference(IncrementalAnonymizer):
    """The engine's placement rules, priced the eager way.

    Every (pending row, group) pair is priced by rebuilding the grown
    group and recomputing its disagreeing coordinates, O(k·m) per pair.
    The engine must make exactly the same choices.
    """

    def _image_respecting_cost(self, gid: int, extra: list[int]) -> int:
        members = self._groups[gid] + extra
        vectors = [self._rows[i] for i in members]
        disagreements = set(disagreeing_coordinates(vectors))
        disagreements |= {
            j for j, value in enumerate(self._images[gid]) if value is STAR
        }
        return len(members) * len(disagreements)

    def _flush(self) -> None:
        pending = self._pending
        vectors = [self._rows[i] for i in pending]
        plan_a_cost = len(pending) * len(disagreeing_coordinates(vectors))
        plan_b: list[tuple[int, int]] | None = []
        plan_b_cost = 0
        additions: dict[int, list[int]] = {
            gid: [] for gid in range(len(self._groups))
        }
        for i in pending:
            best = None
            for gid in additions:
                size = len(self._groups[gid]) + len(additions[gid])
                if size >= 2 * self._k - 1:
                    continue
                delta = (
                    self._image_respecting_cost(gid, additions[gid] + [i])
                    - self._image_respecting_cost(gid, additions[gid])
                )
                if best is None or delta < best[0]:
                    best = (delta, gid)
            if best is None:
                plan_b = None
                break
            plan_b_cost += best[0]
            additions[best[1]].append(i)
            plan_b.append((i, best[1]))
        if plan_b is not None and plan_b_cost < plan_a_cost:
            touched = set()
            for i, gid in plan_b:
                self._groups[gid].append(i)
                self._group_of[i] = gid
                touched.add(gid)
            for gid in touched:
                self._refresh_image(gid)
        else:
            gid = len(self._groups)
            self._groups.append(list(pending))
            for i in pending:
                self._group_of[i] = gid
            self._refresh_image(gid)
        self._pending = []

    def finalize(self) -> None:
        if not self._pending:
            return
        if not self._groups:
            raise ValueError("cannot finalize: fewer than k rows inserted")
        cap = 2 * self._k - 1
        for i in self._pending:
            best = None
            for gid in range(len(self._groups)):
                delta = (
                    self._image_respecting_cost(gid, [i])
                    - self._image_respecting_cost(gid, [])
                )
                key = (len(self._groups[gid]) >= cap, delta, gid)
                if best is None or key < best:
                    best = key
            gid = best[2]
            self._groups[gid].append(i)
            self._group_of[i] = gid
            self._refresh_image(gid)
        self._pending = []


def _engine_facts(engine: IncrementalAnonymizer):
    # the star count read off the images equals the rendered snapshot's
    assert engine.total_stars() == suppressed_cell_count(engine.released())
    # every cached coordinate set is what a rebuild would give
    for gid, unstarred in engine._unstarred_of.items():
        rows = [engine._rows[i] for i in engine._groups[gid]]
        starred = set(disagreeing_coordinates(rows)) | {
            j for j, value in enumerate(engine._images[gid]) if value is STAR
        }
        assert unstarred == tuple(
            j for j in range(engine._degree) if j not in starred
        )
    return (
        engine._groups, engine._images, engine._pending, engine.cap_exceeded,
    )


#: cells that stress the equality the pricing rests on: STAR, NaN (never
#: equal to itself), 1 == 1.0 == True, and plain strings
_CELLS = st.sampled_from([STAR, float("nan"), 1, 1.0, True, 0, "a", "b"])


class TestEngineMatchesEagerReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 4))
    def test_same_choices_over_random_streams(self, data, k, degree):
        # rows are a few templates with at most one cell changed, so
        # rows often nearly agree and joining a group can beat opening one
        templates = data.draw(
            st.lists(st.tuples(*[_CELLS] * degree), min_size=1, max_size=3)
        )

        def varied(template, j, cell, change):
            return template[:j] + (cell,) + template[j + 1:] if change else template

        rows = st.builds(
            varied, st.sampled_from(templates), st.integers(0, degree - 1),
            _CELLS, st.booleans(),
        )
        steps = data.draw(st.lists(
            st.one_of(
                st.lists(rows, min_size=0, max_size=7),
                st.just("split"),
            ),
            max_size=12,
        ))
        engine = IncrementalAnonymizer(k=k, degree=degree)
        reference = EagerReference(k=k, degree=degree)
        for step in steps:
            if step == "split":
                payload = engine.export_state().as_dict()
                engine = IncrementalAnonymizer.from_state(
                    IncrementalState.from_dict(payload)
                )
                reference = EagerReference.from_state(
                    reference.export_state()
                )
            else:
                engine.insert(step)
                reference.insert(step)
            assert _engine_facts(engine) == _engine_facts(reference)
        if reference._groups:
            engine.finalize()
            reference.finalize()
        elif reference.n_pending:
            with pytest.raises(ValueError):
                engine.finalize()
        assert _engine_facts(engine) == _engine_facts(reference)

    def test_restored_snapshot_with_foreign_images(self):
        # a snapshot whose frozen images star more than the members
        # disagree on, and a group with an under-starred image: the
        # engine must price from the snapshot as given
        state = IncrementalState(
            k=2, degree=3, attributes=None,
            rows=((1, 2, 3), (1, 2, 4), (5, 6, 7), (5, 6, 7), (1, 6, 7)),
            groups=((0, 1), (2, 3)),
            images=((STAR, 2, 3), (5, 6, 7)),
            pending=(4,),
        )
        engine = IncrementalAnonymizer.from_state(state)
        reference = EagerReference.from_state(state)
        engine.insert([(5, 2, 3)])
        reference.insert([(5, 2, 3)])
        assert _engine_facts(engine) == _engine_facts(reference)
        engine.insert([(1, 2, 7)])
        reference.insert([(1, 2, 7)])
        engine.finalize()
        reference.finalize()
        assert _engine_facts(engine) == _engine_facts(reference)
