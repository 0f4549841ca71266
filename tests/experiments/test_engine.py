"""Tests for the parallel, resumable sweep execution engine."""

import json

import numpy as np
import pytest

from repro.analysis import reconcile_with_counters
from repro.experiments import (
    CellKey,
    SweepConfig,
    grid_keys,
    infeasibility_sweep,
    run_sweep,
    sweep_fingerprint,
)
from repro.experiments.engine import CELL_CRASHED, SweepCache, resolve_spec
from repro.experiments.runner import cell_seed, solver_for
from repro.obs import RecordingTracer
from repro.workloads import random_feasible_lp

TINY = SweepConfig(sizes=(6, 8), variations=(0, 10), trials=2)
CHEAP = SweepConfig(sizes=(6, 8), variations=(0,), trials=2)

CRASH_SPEC = "tests.experiments.crash_spec:SPEC"


class TestDeterminism:
    def test_workers_1_vs_4_rows_identical(self):
        serial = run_sweep("feasible", "crossbar", TINY, workers=1)
        parallel = run_sweep("feasible", "crossbar", TINY, workers=4)
        # Bit-identical: dataclass equality compares every float
        # exactly, and the rendered tables match byte for byte.
        assert serial.rows == parallel.rows
        spec = resolve_spec("feasible")
        assert spec.render(serial.rows) == spec.render(parallel.rows)

    def test_sweep_wrapper_matches_engine(self):
        rows = infeasibility_sweep("reference", CHEAP, workers=2)
        assert rows == run_sweep("infeasibility", "reference", CHEAP).rows

    def test_fingerprint_distinguishes_grids(self):
        a = sweep_fingerprint("feasible", "crossbar", TINY)
        b = sweep_fingerprint("feasible", "crossbar", CHEAP)
        c = sweep_fingerprint("feasible", "reference", TINY)
        d = sweep_fingerprint("infeasibility", "crossbar", TINY)
        assert len({a, b, c, d}) == 4

    def test_grid_keys_order(self):
        keys = grid_keys(CHEAP)
        assert keys[0] == CellKey(size=6, variation=0, trial=0)
        assert len(keys) == 4


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        cache = tmp_path / "cells.jsonl"
        first = run_sweep(
            "feasible", "reference", CHEAP, cache_path=cache
        )
        assert first.executed == 4 and first.skipped == 0
        second = run_sweep(
            "feasible", "reference", CHEAP, cache_path=cache, workers=2
        )
        assert second.executed == 0 and second.skipped == 4
        assert second.rows == first.rows

    def test_interrupted_cache_reruns_missing_cells(self, tmp_path):
        cache = tmp_path / "cells.jsonl"
        first = run_sweep(
            "feasible", "reference", CHEAP, cache_path=cache
        )
        lines = cache.read_text().splitlines()
        cache.write_text("\n".join(lines[:-2]) + "\n")  # drop 2 cells
        resumed = run_sweep(
            "feasible", "reference", CHEAP, cache_path=cache
        )
        assert resumed.executed == 2 and resumed.skipped == 2
        assert resumed.rows == first.rows

    @staticmethod
    def cut_last_line(cache):
        """Leave the cache as a run killed mid-append would."""
        text = cache.read_text()
        last = text.splitlines()[-1]
        cache.write_text(text[: -len(last) - 1] + last[: len(last) // 2])

    def test_cut_last_line_resumes(self, tmp_path):
        cache = tmp_path / "cells.jsonl"
        first = run_sweep(
            "feasible", "reference", CHEAP, cache_path=cache
        )
        self.cut_last_line(cache)
        resumed = run_sweep(
            "feasible", "reference", CHEAP, cache_path=cache
        )
        assert resumed.executed == 1 and resumed.skipped == 3
        assert resumed.rows == first.rows

    def test_append_after_cut_line_gets_its_own_line(self, tmp_path):
        cache = tmp_path / "cells.jsonl"
        first = run_sweep(
            "feasible", "reference", CHEAP, cache_path=cache
        )
        self.cut_last_line(cache)
        fingerprint = sweep_fingerprint("feasible", "reference", CHEAP)
        reopened = SweepCache(cache, fingerprint)
        assert len(reopened.completed) == 3
        reopened.append(first.outcomes[-1])
        kinds = [
            json.loads(line)["kind"]
            for line in cache.read_text().splitlines()
        ]
        assert kinds == ["header"] + ["cell"] * 4

    def test_corrupt_middle_line_still_raises(self, tmp_path):
        cache = tmp_path / "cells.jsonl"
        run_sweep("feasible", "reference", CHEAP, cache_path=cache)
        lines = cache.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        cache.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            run_sweep("feasible", "reference", CHEAP, cache_path=cache)

    def test_untraced_resume_of_traced_cache(self, tmp_path):
        cache = tmp_path / "cells.jsonl"
        first = run_sweep(
            "feasible",
            "reference",
            CHEAP,
            cache_path=cache,
            tracer=RecordingTracer(),
        )
        resumed = run_sweep(
            "feasible", "reference", CHEAP, cache_path=cache
        )
        assert resumed.executed == 0 and resumed.rows == first.rows

    def test_cache_bound_to_fingerprint(self, tmp_path):
        cache = tmp_path / "cells.jsonl"
        run_sweep("feasible", "reference", CHEAP, cache_path=cache)
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep("feasible", "crossbar", CHEAP, cache_path=cache)

    def test_cache_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"kind": "meta"}) + "\n")
        with pytest.raises(ValueError, match="not a repro-sweep-cache"):
            SweepCache(path, "abc123")

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        cache = tmp_path / "cells.jsonl"
        first = run_sweep(
            CRASH_SPEC, "reference", CHEAP, cache_path=cache
        )
        assert len(first.failures) == 1
        resumed = run_sweep(
            CRASH_SPEC, "reference", CHEAP, cache_path=cache
        )
        # The crashed cell is not "completed": it runs again.
        assert resumed.executed == 1
        assert resumed.failures[0].key == first.failures[0].key


class TestFailureIsolation:
    def test_crashed_cell_recorded_not_fatal_inline(self):
        run = run_sweep(CRASH_SPEC, "reference", CHEAP, workers=1)
        assert len(run.failures) == 1
        outcome = run.failures[0]
        assert outcome.key == CellKey(size=8, variation=0, trial=1)
        assert outcome.payload is None
        assert outcome.failure.failure_reason == CELL_CRASHED
        assert outcome.failure.error_type == "RuntimeError"
        assert "planted crash" in outcome.failure.message
        # The other cells aggregated normally around the hole.
        by_size = {row["size"]: row for row in run.rows}
        assert by_size[6]["values"] == [6000, 6001]
        assert by_size[8]["values"] == [8000, None]

    def test_crashed_cell_recorded_not_fatal_parallel(self):
        run = run_sweep(CRASH_SPEC, "reference", CHEAP, workers=2)
        assert len(run.failures) == 1
        assert run.failures[0].failure.failure_reason == CELL_CRASHED
        assert run.rows == run_sweep(CRASH_SPEC, "reference", CHEAP).rows


class TestTraceMerge:
    def test_parallel_counters_match_serial(self):
        serial, parallel = RecordingTracer(), RecordingTracer()
        run_sweep("feasible", "crossbar", CHEAP, tracer=serial)
        run_sweep(
            "feasible", "crossbar", CHEAP, tracer=parallel, workers=2
        )
        assert serial.counters == parallel.counters
        assert serial.counters["sweep.trials"] == 4.0

    def test_sweep_cell_spans_carry_worker_ids(self):
        tracer = RecordingTracer()
        run_sweep(
            "feasible", "reference", CHEAP, tracer=tracer, workers=2
        )
        cells = [
            event
            for event in tracer.events
            if getattr(event, "name", None) == "sweep_cell"
            and hasattr(event, "attrs")
        ]
        assert len(cells) == 4
        assert all(isinstance(c.attrs["worker"], int) for c in cells)
        coords = {
            (c.attrs["size"], c.attrs["variation"], c.attrs["trial"])
            for c in cells
        }
        assert len(coords) == 4

    def test_merged_span_ids_unique_and_linked(self):
        tracer = RecordingTracer()
        run_sweep(
            "feasible", "crossbar", CHEAP, tracer=tracer, workers=2
        )
        spans = [e for e in tracer.events if hasattr(e, "parent_id")]
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        known = set(ids)
        assert all(
            s.parent_id is None or s.parent_id in known for s in spans
        )

    def test_merged_trace_reconciles_with_crossbar_counters(self):
        """The sweep's merged trace replays to the exact analog totals.

        One-cell sweep: rerun the identical trial directly (same
        ``cell_seed`` derivation) and check the merged worker events
        reconcile field-by-field with the direct run's
        ``CrossbarCounters``.
        """
        config = SweepConfig(sizes=(8,), variations=(0,), trials=1)
        tracer = RecordingTracer()
        run_sweep(
            "feasible", "crossbar", config, tracer=tracer, workers=2
        )

        seed = cell_seed(config, 8, 0, 0)
        rng = np.random.default_rng(seed)
        problem = random_feasible_lp(8, rng=rng)
        solve = solver_for("crossbar", 0)
        result = solve(problem, np.random.default_rng(seed.spawn(1)[0]))

        rows = reconcile_with_counters(tracer.event_dicts(), result)
        mismatched = [row.name for row in rows if not row.matches]
        assert not mismatched, mismatched


class TestBatchedTrials:
    def test_batched_rows_bit_identical_serial(self):
        serial = run_sweep("feasible", "crossbar", TINY, workers=1)
        batched = run_sweep(
            "feasible", "crossbar", TINY, workers=1, batch_trials=True
        )
        assert serial.rows == batched.rows
        spec = resolve_spec("feasible")
        assert spec.render(serial.rows) == spec.render(batched.rows)
        # The lockstep path prices latency and energy, per solved trial.
        assert all(
            row.latency.count == row.energy.count == row.solved
            for row in batched.rows
        )
        assert sum(row.solved for row in batched.rows) > 0

    def test_batched_parallel_workers_identical(self):
        serial = run_sweep("feasible", "crossbar", TINY, workers=1)
        batched = run_sweep(
            "feasible", "crossbar", TINY, workers=4, batch_trials=True
        )
        assert serial.rows == batched.rows

    def test_reference_solver_ignores_batching(self):
        serial = run_sweep("feasible", "reference", CHEAP, workers=1)
        batched = run_sweep(
            "feasible", "reference", CHEAP, workers=1, batch_trials=True
        )
        assert serial.rows == batched.rows
