"""Tests for experiment-row export."""

import csv
import json

import numpy as np
import pytest

from repro.analysis import (
    attempt_records,
    rows_to_records,
    write_csv,
    write_json,
)
from repro.core.result import (
    FailureReason,
    SolverResult,
    SolveStatus,
    with_attempts,
)
from repro.experiments import SweepConfig, run_sweep
from repro.reliability import AttemptRecord, ProbeReport, RecoveryAction

TINY = SweepConfig(sizes=(8,), variations=(0,), trials=1)


@pytest.fixture(scope="module")
def rows():
    return run_sweep("feasible", "reference", TINY).rows


class TestFlatten:
    def test_nested_stats_become_dotted_columns(self, rows):
        records = rows_to_records(rows)
        assert len(records) == 1
        record = records[0]
        assert record["constraints"] == 8
        assert "error.mean" in record
        assert "iterations.count" in record

    def test_accepts_plain_dict_rows(self):
        records = rows_to_records([{"a": 1, "stats": {"mean": 2.0}}])
        assert records == [{"a": 1, "stats.mean": 2.0}]

    def test_rejects_non_dataclass_non_dict(self):
        with pytest.raises(TypeError, match="dataclass"):
            rows_to_records([("a", 1)])

    def test_colliding_flattened_keys_error(self):
        with pytest.raises(ValueError, match="colliding"):
            rows_to_records([{"probe": {"label": 1}, "probe.label": 2}])
        with pytest.raises(ValueError, match="colliding"):
            rows_to_records([{"probe.label": 2, "probe": {"label": 1}}])


class TestWriters:
    def test_csv_roundtrip(self, rows, tmp_path):
        path = write_csv(rows, tmp_path / "fig5.csv")
        with path.open() as handle:
            loaded = list(csv.DictReader(handle))
        assert len(loaded) == 1
        assert loaded[0]["solver"] == "reference"
        assert float(loaded[0]["error.mean"]) < 1e-3

    def test_json_roundtrip(self, rows, tmp_path):
        path = write_json(rows, tmp_path / "fig5.json")
        loaded = json.loads(path.read_text())
        assert loaded[0]["constraints"] == 8

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            write_csv([], tmp_path / "empty.csv")


class TestAttemptRecords:
    """Round-trip the recovery-attempt history through the writers."""

    @pytest.fixture(scope="class")
    def records(self):
        probe = ProbeReport(
            max_rel_error=0.4,
            tolerance=0.05,
            vectors=2,
            healthy=False,
            label="M",
        )
        rejected = AttemptRecord(
            index=0,
            action=RecoveryAction.INITIAL,
            status=SolveStatus.NUMERICAL_FAILURE,
            failure_reason=FailureReason.PROBE_UNHEALTHY,
            iterations=0,
            seed=42,
            message="health probe rejected array 'M'",
            probe=probe,
        )
        recovered = AttemptRecord(
            index=1,
            action=RecoveryAction.REPROGRAM,
            status=SolveStatus.OPTIMAL,
            failure_reason=FailureReason.NONE,
            iterations=17,
            seed=43,
            verify_repulsed=3,
        )
        result = SolverResult(
            status=SolveStatus.OPTIMAL,
            x=np.zeros(2),
            y=np.zeros(2),
            w=np.zeros(2),
            z=np.zeros(2),
            objective=1.0,
            iterations=17,
        )
        return attempt_records(
            with_attempts(result, (rejected, recovered))
        )

    def test_enums_and_probe_flattened(self, records):
        assert len(records) == 2
        rejected, recovered = records
        assert rejected["action"] == "initial"
        assert rejected["failure_reason"] == "probe_unhealthy"
        assert rejected["iterations"] == 0
        assert rejected["probe.healthy"] is False
        assert rejected["probe.label"] == "M"
        # The recovered attempt ran without a probe.
        assert recovered["action"] == "reprogram"
        assert recovered["probe"] is None
        assert recovered["verify_repulsed"] == 3

    def test_json_roundtrip(self, records, tmp_path):
        path = write_json(records, tmp_path / "attempts.json")
        loaded = json.loads(path.read_text())
        assert loaded == records

    def test_csv_union_header_fills_missing_cells(self, records, tmp_path):
        path = write_csv(records, tmp_path / "attempts.csv")
        with path.open() as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        # The probe-rejected attempt contributes probe.* columns the
        # recovered attempt lacks; both rows share the union header.
        assert "probe.max_rel_error" in reader.fieldnames
        assert rows[0]["probe.label"] == "M"
        assert rows[0]["iterations"] == "0"
        assert rows[1]["iterations"] == "17"
        assert rows[1]["probe.max_rel_error"] == ""
