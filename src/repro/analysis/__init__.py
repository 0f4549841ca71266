"""Metrics and report rendering."""

from repro.analysis.export import (
    attempt_records,
    rows_to_records,
    write_csv,
    write_json,
)
from repro.analysis.metrics import SampleStats, relative_error
from repro.analysis.spans import (
    ReconcileRow,
    reconcile_with_counters,
    render_reconciliation,
    render_span_summary,
    replay_counters,
    replay_gauges,
    span_totals,
)
from repro.analysis.tables import format_cell, render_table

__all__ = [
    "relative_error",
    "SampleStats",
    "render_table",
    "format_cell",
    "rows_to_records",
    "attempt_records",
    "write_csv",
    "write_json",
    "span_totals",
    "replay_counters",
    "replay_gauges",
    "render_span_summary",
    "ReconcileRow",
    "reconcile_with_counters",
    "render_reconciliation",
]
