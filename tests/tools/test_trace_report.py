"""Unit tests for the windowed trace-report renderer."""

from __future__ import annotations

import json

import pytest

from repro.obs.tracer import Tracer
from tools.trace_report import load_events, main, render_report

from tests.integration.test_obs_overhead import elastic_bootstrap_run


def jsonl(events):
    return [json.dumps(event) for event in events]


EVENTS = [
    {"t": 0.1, "kind": "op.issue", "op": "read", "key": "a"},
    {"t": 0.3, "kind": "op.complete", "op": "read", "key": "a", "latency": 0.01},
    {"t": 0.6, "kind": "op.complete", "op": "read", "key": "b", "latency": 0.03,
     "timed_out": True},
    {"t": 1.2, "kind": "op.complete", "op": "write", "key": "c", "latency": 0.0,
     "unavailable": True},
    {"t": 1.3, "kind": "op.retry", "op": "write", "key": "c",
     "from_level": "QUORUM", "to_level": "ONE", "attempt": 1},
    {"t": 1.4, "kind": "fault", "description": "isolate dc rennes"},
    {"t": 2.2, "kind": "control.decision", "policy": "harmony", "scope": "cluster",
     "decision": "read_level", "value": "QUORUM"},
    {"t": 2.5, "kind": "repair.session", "pair": "n1|n2", "ranges_diffed": 3,
     "pair_bytes": 512},
]


class TestLoadEvents:
    def test_skips_blank_lines_and_sorts_by_time(self):
        lines = jsonl([EVENTS[2], EVENTS[0]]) + ["", "   "] + jsonl([EVENTS[1]])
        events = load_events(lines)
        assert [e["t"] for e in events] == [0.1, 0.3, 0.6]


class TestRenderReport:
    def test_totals_line_counts_by_kind(self):
        lines = render_report(load_events(jsonl(EVENTS)), window=1.0)
        assert lines[0].startswith("8 events, kinds: ")
        assert "op.complete=3" in lines[0]
        assert "fault=1" in lines[0]

    def test_window_rows_bucket_the_counts(self):
        lines = render_report(load_events(jsonl(EVENTS)), window=1.0)
        table = [line for line in lines if line.lstrip().startswith("[")]
        assert len(table) == 3  # [0.1,1.1) [1.1,2.1) [2.1,3.1)
        first = table[0].split()
        # issued=1, done=1, t/o=1, unavail=0 in the first window; the
        # timed-out completion still counts as done (it returned a result).
        assert first[1:5] == ["1", "2", "1", "0"]
        second = table[1].split()
        assert second[4] == "1"  # the unavailable rejection
        assert second[5] == "1"  # the retry

    def test_annotations_follow_their_window(self):
        lines = render_report(load_events(jsonl(EVENTS)), window=1.0)
        fault_notes = [line for line in lines if "isolate dc rennes" in line]
        assert fault_notes == ["    fault: isolate dc rennes"]
        ctrl_notes = [line for line in lines if "harmony" in line]
        assert ctrl_notes == ["    harmony [cluster] read_level -> QUORUM"]

    def test_mean_latency_excludes_unavailable(self):
        events = load_events(jsonl(EVENTS[:4]))
        lines = render_report(events, window=10.0)
        # One window: latencies 0.01 and 0.03 -> 20.00 ms; the unavailable
        # rejection's 0.0 must not drag the mean down.
        assert lines[-1].endswith("20.00")

    def test_empty_trace_renders_totals_only(self):
        assert render_report([], window=1.0) == ["0 events, kinds: "]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            render_report([], window=0.0)


class TestRunnerTrace:
    """A real run's trace, not synthetic rows: the runner's tracer reaches
    the membership manager the fault injector builds mid-run."""

    @pytest.fixture(scope="class")
    def trace(self):
        tracer = Tracer()
        result = elastic_bootstrap_run(tracer=tracer)
        (bootstrap,) = result.injector.log
        assert bootstrap[1].startswith("bootstrap of ") and bootstrap[1].endswith(" started")
        return tracer

    def test_bootstrap_phases_reach_the_trace(self, trace):
        kinds = [e.kind for e in trace.events if e.kind.startswith("bootstrap.")]
        assert kinds[0] == "bootstrap.start"
        assert kinds[-1] == "bootstrap.cutover"

    def test_the_fault_precedes_the_bootstrap_it_began(self, trace):
        kinds = [e.kind for e in trace.events]
        assert kinds.count("fault") == 1
        assert kinds.index("fault") < kinds.index("bootstrap.start")

    def test_report_renders_the_member_column_and_annotations(self, trace):
        lines = render_report(load_events(trace.to_jsonl().splitlines()), window=0.5)
        header = lines[1].split()
        member = header.index("member")
        rows = [line.split() for line in lines if line.lstrip().startswith("[")]
        assert sum(int(row[member]) for row in rows) == sum(
            1 for e in trace.events if e.kind.startswith("bootstrap.")
        )
        notes = [line.strip() for line in lines if line.startswith("    bootstrap.")]
        assert notes[0].startswith("bootstrap.start rennes/")
        assert notes[-1].startswith("bootstrap.cutover rennes/")


class TestMain:
    def test_renders_a_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(jsonl(EVENTS)) + "\n")
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "8 events" in out
        assert "fault: isolate dc rennes" in out

    def test_kinds_flag_prints_totals_only(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(jsonl(EVENTS)) + "\n")
        assert main([str(path), "--kinds"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
