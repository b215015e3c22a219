"""Tests for the resumable run-artifact store."""

import json

import pytest

from repro.artifacts import (
    ArtifactMismatchError,
    RunStore,
    instance_key,
    state_key,
    table_hash,
)
from repro.core.table import Table
from repro.experiments import k_sweep, ratio_experiment
from repro.algorithms import CenterCoverAnonymizer
from repro.io import append_jsonl, read_jsonl
from repro.workloads import uniform_table


class TestTableHash:
    def test_stable_and_content_sensitive(self):
        a = Table([(1, 2), (3, 4)], attributes=("x", "y"))
        b = Table([(1, 2), (3, 4)], attributes=("x", "y"))
        c = Table([(1, 2), (3, 5)], attributes=("x", "y"))
        assert table_hash(a) == table_hash(b)
        assert table_hash(a) != table_hash(c)

    def test_attributes_matter(self):
        a = Table([(1, 2)], attributes=("x", "y"))
        b = Table([(1, 2)], attributes=("u", "v"))
        assert table_hash(a) != table_hash(b)


class TestPinnedKeys:
    """Cache and routing keys must not move: a disk cache written by an
    older server is read as hits.  These values were recorded while the
    backend was still a setting, with ``"numpy"`` passed for it."""

    table = Table([(1, 2, "a"), (1, 2, "b"), (3, 4, "a")],
                  attributes=("x", "y", "z"))

    def test_instance_and_state_keys(self):
        assert instance_key(self.table, 2, "center_cover", "numpy") == (
            "a59d1b96397b49b394026614c8c14ce9"
        )
        assert state_key(self.table, 2, "incremental", "numpy") == (
            "8febf1c9aba8b3b3b1fc4a0f96f47106"
        )

    def test_service_admission_keys(self):
        from repro.service.server import admit

        csv = self.table.to_csv()
        assert admit({"csv": csv, "k": 2}).key == (
            "7db520655f569b69d96430af02875e69"
        )
        assert admit(
            {"csv": csv, "k": 2, "algorithm": "incremental"}
        ).state_key == "095b2c9c51e6cdc76ea13eaa25dd9c77"


class TestRunStore:
    def test_record_roundtrip(self, tmp_path):
        store = RunStore(tmp_path, experiment="demo", config={"k": 3})
        assert not store.done("trial-0")
        store.record("trial-0", cost=4, opt=2)
        assert store.done("trial-0")
        assert store.get("trial-0")["cost"] == 4
        assert len(store) == 1
        assert store.completed_keys == ("trial-0",)

    def test_records_survive_reopen(self, tmp_path):
        RunStore(tmp_path, experiment="demo", config={"k": 3}).record(
            "trial-0", cost=4
        )
        resumed = RunStore(tmp_path, experiment="demo", config={"k": 3},
                           resume=True)
        assert resumed.done("trial-0")
        assert resumed.get("trial-0")["cost"] == 4

    def test_populated_dir_requires_resume(self, tmp_path):
        RunStore(tmp_path, experiment="demo", config={"k": 3}).record(
            "trial-0", cost=4
        )
        with pytest.raises(ArtifactMismatchError, match="resume"):
            RunStore(tmp_path, experiment="demo", config={"k": 3})

    def test_manifest_mismatch_rejected(self, tmp_path):
        RunStore(tmp_path, experiment="demo", config={"k": 3})
        with pytest.raises(ArtifactMismatchError, match="refusing to mix"):
            RunStore(tmp_path, experiment="demo", config={"k": 4},
                     resume=True)
        with pytest.raises(ArtifactMismatchError, match="refusing to mix"):
            RunStore(tmp_path, experiment="other", config={"k": 3},
                     resume=True)

    def test_duplicate_record_rejected(self, tmp_path):
        store = RunStore(tmp_path, experiment="demo", config={})
        store.record("trial-0", cost=1)
        with pytest.raises(ArtifactMismatchError, match="already recorded"):
            store.record("trial-0", cost=2)

    def test_instance_hash_check(self, tmp_path):
        store = RunStore(tmp_path, experiment="demo", config={})
        store.record("trial-0", cost=1, instance_hash="abcd")
        store.check_instance("trial-0", "abcd")  # matching: fine
        store.check_instance("unknown-key", "whatever")  # unknown: no-op
        with pytest.raises(ArtifactMismatchError, match="hash"):
            store.check_instance("trial-0", "ffff")

    def test_torn_final_line_tolerated(self, tmp_path):
        """A crash mid-append must not poison the records before it."""
        path = tmp_path / "trials.jsonl"
        append_jsonl(path, {"key": "trial-0", "cost": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "trial-1", "cos')  # torn write
        records = list(read_jsonl(path))
        assert [r["key"] for r in records] == ["trial-0"]
        store = RunStore(tmp_path, experiment="demo", config={},
                         resume=True)
        assert store.completed_keys == ("trial-0",)


class TestResumedExperiments:
    def test_ratio_resume_skips_completed_trials(self, tmp_path,
                                                 monkeypatch):
        """Resuming re-solves only the missing trials and reproduces the
        uninterrupted run exactly."""
        config = {"algorithm": "center_cover", "k": 2}
        full = ratio_experiment(CenterCoverAnonymizer(), k=2, n=7,
                                trials=4)

        store = RunStore(tmp_path, experiment="ratio", config=config)
        ratio_experiment(CenterCoverAnonymizer(), k=2, n=7, trials=2,
                         store=store)

        import repro.experiments as experiments

        solved = []
        real_trial = experiments._ratio_trial

        def counting_trial(task):
            solved.append(task.trial)
            return real_trial(task)

        monkeypatch.setattr(experiments, "_ratio_trial", counting_trial)
        resumed_store = RunStore(tmp_path, experiment="ratio",
                                 config=config, resume=True)
        resumed = ratio_experiment(CenterCoverAnonymizer(), k=2, n=7,
                                   trials=4, store=resumed_store)
        assert solved == [2, 3]  # trials 0-1 came from the artifacts
        assert resumed == full

    def test_resume_verifies_instance_hash(self, tmp_path):
        """A record whose workload no longer regenerates identically is
        an error, not silently-stale data."""
        store = RunStore(tmp_path, experiment="ratio", config={})
        store.record("trial-0000", seed=0, opt=1, cost=1,
                     instance_hash="not-the-real-hash")
        resumed = RunStore(tmp_path, experiment="ratio", config={},
                           resume=True)
        with pytest.raises(ArtifactMismatchError, match="hash"):
            ratio_experiment(CenterCoverAnonymizer(), k=2, n=7, trials=1,
                             store=resumed)

    def test_k_sweep_resume(self, tmp_path):
        table = uniform_table(20, 3, alphabet_size=3, seed=1)
        full = k_sweep(table, ks=(2, 3, 4))

        store = RunStore(tmp_path, experiment="k_sweep", config={})
        k_sweep(table, ks=(2, 3), store=store)
        resumed_store = RunStore(tmp_path, experiment="k_sweep",
                                 config={}, resume=True)
        resumed = k_sweep(table, ks=(2, 3, 4), store=resumed_store)
        assert resumed == full
        assert set(resumed_store.completed_keys) == {"k-2", "k-3", "k-4"}

    def test_k_sweep_resume_rejects_different_table(self, tmp_path):
        table = uniform_table(20, 3, alphabet_size=3, seed=1)
        other = uniform_table(20, 3, alphabet_size=3, seed=2)
        store = RunStore(tmp_path, experiment="k_sweep", config={})
        k_sweep(table, ks=(2,), store=store)
        resumed = RunStore(tmp_path, experiment="k_sweep", config={},
                           resume=True)
        with pytest.raises(ArtifactMismatchError, match="hash"):
            k_sweep(other, ks=(2,), store=resumed)

    def test_records_carry_required_fields(self, tmp_path):
        store = RunStore(tmp_path, experiment="ratio", config={})
        ratio_experiment(CenterCoverAnonymizer(), k=2, n=6, trials=1,
                         store=store, trace=True)
        record = store.get("trial-0000")
        for field in ("seed", "algorithm", "k", "cost", "opt",
                      "elapsed_seconds", "instance_hash",
                      "trace_summary"):
            assert field in record
        assert record["trace_summary"]["runs"] == 1
        # the on-disk form is plain JSON lines
        raw = (tmp_path / "trials.jsonl").read_text().splitlines()
        assert json.loads(raw[0])["key"] == "trial-0000"
