"""Tests for the qir-trace command-line tool.

Most tests run against a golden JSONL fixture (same numbers as
tests/obs/test_trace_analytics.py: workers busy 40/50/90 ms, imbalance
1.8); one end-to-end test records a real process-scheduler trace through
qir-run and analyses it.
"""

import json

import pytest

from repro.tools.qir_run import main as run_main
from repro.tools.qir_trace import main as trace_main
from repro.workloads.qec import teleportation_qir
from repro.workloads.qir_programs import bell_qir

GOLDEN_EVENTS = [
    {"name": "parse", "ph": "X", "ts": 0.0, "dur": 150.0,
     "pid": 0, "tid": 0, "args": {"run_id": "01GOLD"}},
    {"name": "run_shots", "ph": "X", "ts": 160.0, "dur": 100000.0,
     "pid": 0, "tid": 0, "args": {"run_id": "01GOLD"}},
    {"name": "process.supervisor", "ph": "X", "ts": 200.0, "dur": 99000.0,
     "pid": 0, "tid": 0},
    {"name": "process.worker", "ph": "X", "ts": 1000.0, "dur": 40000.0,
     "pid": 0, "tid": 1, "args": {"worker": 0, "shots": 10, "chunk": "0..9"}},
    {"name": "process.worker", "ph": "X", "ts": 1200.0, "dur": 50000.0,
     "pid": 0, "tid": 2, "args": {"worker": 1, "shots": 10, "chunk": "10..19"}},
    {"name": "process.worker", "ph": "X", "ts": 1100.0, "dur": 90000.0,
     "pid": 0, "tid": 3, "args": {"worker": 2, "shots": 10, "chunk": "20..29"}},
]


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.jsonl"
    path.write_text(
        "\n".join(json.dumps(e) for e in GOLDEN_EVENTS) + "\n"
    )
    return str(path)


@pytest.fixture
def serial_file(tmp_path):
    path = tmp_path / "serial.jsonl"
    path.write_text(
        json.dumps({"name": "run_shots", "ph": "X", "ts": 0.0, "dur": 10.0})
        + "\n"
    )
    return str(path)


class TestSummary:
    def test_human_output(self, golden_file, capsys):
        assert trace_main(["summary", golden_file]) == 0
        out = capsys.readouterr().out
        assert "spans 6" in out
        assert "run_id 01GOLD" in out
        assert "critical path:" in out
        assert "process.worker#2" in out
        assert "imbalance 1.80" in out

    def test_json_output(self, golden_file, capsys):
        assert trace_main(["summary", golden_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 6
        assert payload["run_ids"] == ["01GOLD"]
        assert payload["critical_path"][-1]["name"] == "process.worker#2"
        assert payload["workers"]["imbalance"] == pytest.approx(1.8)

    def test_hotspots_limit(self, golden_file, capsys):
        assert trace_main(
            ["summary", golden_file, "--json", "--hotspots", "2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["hotspots"]) == 2

    def test_stdin_source(self, golden_file, capsys, monkeypatch):
        import io

        with open(golden_file) as handle:
            monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
        assert trace_main(["summary", "-", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["spans"] == 6


class TestCriticalPath:
    def test_golden_path(self, golden_file, capsys):
        assert trace_main(["critical-path", golden_file]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert "parse" in lines[0]
        assert "process.worker#2" in out
        assert "[worker track]" in out

    def test_json_steps(self, golden_file, capsys):
        assert trace_main(["critical-path", golden_file, "--json"]) == 0
        steps = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in steps] == [
            "parse", "run_shots", "process.supervisor", "process.worker#2",
        ]
        assert steps[-1]["parallel"] is True


class TestWorkers:
    def test_golden_imbalance(self, golden_file, capsys):
        assert trace_main(["workers", golden_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["imbalance"] == pytest.approx(1.8)
        assert payload["stragglers"] == [2]
        assert [w["worker"] for w in payload["workers"]] == [0, 1, 2]
        assert payload["workers"][0]["chunks"] == ["0..9"]

    def test_serial_trace_exits_not_found(self, serial_file, capsys):
        assert trace_main(["workers", serial_file]) == 1
        assert "no process.worker spans" in capsys.readouterr().err

    def test_chunks_table(self, golden_file, capsys):
        assert trace_main(["workers", golden_file, "--chunks"]) == 0
        out = capsys.readouterr().out
        assert "CHUNK" in out and "ORIGIN" in out
        assert "0..9" in out and "20..29" in out
        assert "first" in out

    def test_chunks_json_wraps_both_payloads(self, golden_file, capsys):
        assert trace_main(
            ["workers", golden_file, "--chunks", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"]["imbalance"] == pytest.approx(1.8)
        chunks = payload["chunks"]
        assert [c["chunk"] for c in chunks] == ["0..9", "20..29", "10..19"]
        assert all(c["origin"] == "first" for c in chunks)

    def test_json_shape_without_chunks_is_unchanged(self, golden_file, capsys):
        assert trace_main(["workers", golden_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "chunks" not in payload  # top level stays the bare report
        assert "imbalance" in payload


class TestFlame:
    def test_stdout_collapsed_stacks(self, golden_file, capsys):
        assert trace_main(["flame", golden_file]) == 0
        out = capsys.readouterr().out
        assert "run_shots;process.supervisor;process.worker#2 90000" in out
        for line in out.strip().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert int(value) >= 0

    def test_output_file(self, golden_file, tmp_path, capsys):
        target = tmp_path / "out.folded"
        assert trace_main(["flame", golden_file, "-o", str(target)]) == 0
        assert "process.worker#1 50000" in target.read_text()


class TestDiff:
    def test_self_diff_is_flat(self, golden_file, capsys):
        assert trace_main(["diff", golden_file, golden_file]) == 0
        out = capsys.readouterr().out
        assert "01GOLD -> 01GOLD" in out
        assert "worker imbalance: 1.80 -> 1.80" in out

    def test_json_payload(self, golden_file, serial_file, capsys):
        assert trace_main(
            ["diff", serial_file, golden_file, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["current_run_id"] == "01GOLD"
        assert payload["current_imbalance"] == pytest.approx(1.8)
        names = [row["name"] for row in payload["rows"]]
        assert "process.worker" in names

    def test_ledger_join_annotates_runs(self, golden_file, tmp_path, capsys,
                                        monkeypatch):
        # Record a real run into a ledger, rewrite the golden trace to
        # carry that run's id, and check diff joins the two.
        monkeypatch.delenv("QIR_LEDGER", raising=False)
        ledger_dir = tmp_path / "ledger"
        program = tmp_path / "bell.ll"
        program.write_text(bell_qir("static"))
        assert run_main(
            [str(program), "--shots", "5", "--seed", "7",
             "--ledger", str(ledger_dir)]
        ) == 0
        capsys.readouterr()
        from repro.obs.ledger import RunLedger

        record = RunLedger(str(ledger_dir)).list_runs(limit=1)[0]
        events = [dict(e, args=dict(e.get("args") or {})) for e in GOLDEN_EVENTS]
        for event in events:
            if "run_id" in event["args"]:
                event["args"]["run_id"] = record.run_id
        trace = tmp_path / "joined.jsonl"
        trace.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        assert trace_main(
            ["diff", str(trace), str(trace), "--json",
             "--ledger", str(ledger_dir)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert record.run_id in payload["ledger"]
        assert payload["ledger"][record.run_id]["shots"] == 5

    def test_missing_ledger_rows_are_not_fatal(self, golden_file, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.delenv("QIR_LEDGER", raising=False)
        assert trace_main(
            ["diff", golden_file, golden_file, "--json",
             "--ledger", str(tmp_path / "empty-ledger")]
        ) == 0
        assert json.loads(capsys.readouterr().out)["ledger"] == {}


class TestErrors:
    def test_no_command_is_usage(self, capsys):
        assert trace_main([]) == 2

    def test_unreadable_file_is_usage(self, tmp_path, capsys):
        assert trace_main(
            ["summary", str(tmp_path / "missing.jsonl")]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_garbage_file_is_usage(self, tmp_path, capsys):
        path = tmp_path / "junk.jsonl"
        path.write_text("not a trace\nstill not\n")
        assert trace_main(["summary", str(path)]) == 2


class TestEndToEnd:
    def test_process_scheduler_trace_analyses(self, tmp_path, capsys):
        # teleportation feeds back on its measurements, which defeats the
        # sampling fast path, so the process pool really dispatches and
        # the trace carries process.worker spans.
        program = tmp_path / "teleport.ll"
        program.write_text(teleportation_qir(0.7))
        trace = tmp_path / "run.jsonl"
        assert run_main(
            [str(program), "--shots", "16", "--seed", "7",
             "--jobs", "2",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()

        assert trace_main(["summary", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"] > 0
        assert [
            s for s in summary["critical_path"] if s["name"] == "run_shots"
        ]

        assert trace_main(["workers", str(trace), "--json"]) == 0
        workers = json.loads(capsys.readouterr().out)
        assert 1 <= len(workers["workers"]) <= 2
        assert workers["imbalance"] >= 1.0
        assert all(w["chunks"] for w in workers["workers"])
        assert sum(w["shots"] for w in workers["workers"]) == 16

        assert trace_main(
            ["workers", str(trace), "--chunks", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        chunks = payload["chunks"]
        covered = []
        for row in chunks:
            start, _, stop = row["chunk"].partition("..")
            covered.extend(range(int(start), int(stop) + 1))
            assert row["attempt"] == 0  # clean run: first dispatches only
        assert sorted(covered) == list(range(16))

        assert trace_main(["flame", str(trace)]) == 0
        folded = capsys.readouterr().out
        assert "process.worker#" in folded
