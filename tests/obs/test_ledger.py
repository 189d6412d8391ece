"""RunLedger: durable rows, fail-open writes, quarantine, gc."""

import glob
import os
import sqlite3
import time

import pytest

from repro.obs import Observer
from repro.obs.ledger import (
    LEDGER_ENV,
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    RunLedger,
    RunRecord,
    ledger_dir_from_env,
)
from repro.obs.runctx import RunContext


def make_record(run_id=None, finished_at=None, **overrides):
    context = RunContext()
    now = finished_at if finished_at is not None else time.time()
    record = RunRecord(
        run_id=run_id or context.run_id,
        started_at=now - 0.5,
        finished_at=now,
        scheduler="serial",
        shots=100,
        successful_shots=100,
        wall_seconds=0.5,
        shots_per_second=200.0,
    )
    for key, value in overrides.items():
        setattr(record, key, value)
    return record


class TestEnvResolution:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(LEDGER_ENV, raising=False)
        assert ledger_dir_from_env() is None

    def test_empty_is_none(self, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, "   ")
        assert ledger_dir_from_env() is None

    def test_set_expands_user(self, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, "~/runs")
        assert ledger_dir_from_env() == os.path.expanduser("~/runs")


class TestRecordRoundTrip:
    def test_record_and_get(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        record = make_record(
            plan_key="k", entry="main", counters={"a": 1.5}, demotions=["x->y"]
        )
        assert ledger.record(record) is True
        loaded = ledger.get(record.run_id)
        assert loaded == record

    def test_list_newest_first(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        base = time.time()
        ids = []
        for offset in range(3):
            record = make_record(finished_at=base + offset)
            ids.append(record.run_id)
            assert ledger.record(record)
        listed = [r.run_id for r in ledger.list_runs()]
        assert listed == list(reversed(ids))
        assert len(ledger) == 3

    def test_top_orders_by_column(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        slow = make_record(wall_seconds=9.0)
        fast = make_record(wall_seconds=0.1)
        ledger.record(slow)
        ledger.record(fast)
        assert [r.run_id for r in ledger.top(by="wall_seconds")] == [
            slow.run_id,
            fast.run_id,
        ]

    def test_top_rejects_unknown_column(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.record(make_record())
        with pytest.raises(LedgerError):
            ledger.top(by="run_id; DROP TABLE runs")

    def test_flaky_view(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        clean = make_record()
        wobbled = make_record(redispatches=2, supervision_state="degraded")
        demoted = make_record(demotions=["statevector->stabilizer"])
        for record in (clean, wobbled, demoted):
            ledger.record(record)
        flaky_ids = {r.run_id for r in ledger.flaky()}
        assert flaky_ids == {wobbled.run_id, demoted.run_id}
        assert not clean.flaky and wobbled.flaky and demoted.flaky

    def test_gc_deletes_old_rows_only(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        old = make_record(finished_at=time.time() - 10 * 86400)
        new = make_record()
        ledger.record(old)
        ledger.record(new)
        assert ledger.gc(keep_days=5) == 1
        assert ledger.get(old.run_id) is None
        assert ledger.get(new.run_id) is not None

    def test_gc_rejects_negative(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.record(make_record())
        with pytest.raises(LedgerError):
            ledger.gc(keep_days=-1)


class TestFromResultAndError:
    def test_from_error_uses_context_shape(self):
        context = RunContext(plan_key="k", entry="main", shots=64).with_labels(
            scheduler="process", jobs=4
        )
        record = RunRecord.from_error(
            context, error_code="TrapError", wall_seconds=0.25
        )
        assert record.run_id == context.run_id
        assert record.scheduler == "process"
        assert record.jobs == 4
        assert record.shots == 64
        assert record.successful_shots == 0
        assert record.error_code == "TrapError"
        assert record.environment  # fingerprint embedded
        assert record.finished_at - record.started_at == pytest.approx(0.25)


class TestFailOpen:
    def test_read_of_missing_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError):
            RunLedger(str(tmp_path)).list_runs()

    def test_corrupt_db_is_quarantined_and_write_retried(self, tmp_path):
        observer = Observer()
        ledger = RunLedger(str(tmp_path), observer=observer)
        assert ledger.record(make_record())
        # Clobber the database with garbage: the next write must detect
        # corruption, move the file aside, and still land its row.
        with open(ledger.path, "wb") as handle:
            handle.write(b"this is definitely not a sqlite database")
        record = make_record()
        assert ledger.record(record) is True
        quarantined = glob.glob(ledger.path + ".corrupt-*")
        assert len(quarantined) == 1
        with open(quarantined[0], "rb") as handle:
            assert handle.read().startswith(b"this is definitely")
        assert ledger.get(record.run_id) is not None
        counters = observer.metrics.snapshot()["counters"]
        assert counters["ledger.quarantined"] == 1
        assert counters["ledger.write_error"] >= 1
        assert counters["ledger.writes"] >= 2

    def test_overwritten_file_without_runs_table_is_corrupt(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        # A healthy sqlite file that is simply not ours: passes the header
        # check, fails the integrity probe ("no such table: runs").
        conn = sqlite3.connect(ledger.path)
        conn.execute("CREATE TABLE other (x)")
        conn.execute(f"PRAGMA user_version = {LEDGER_SCHEMA_VERSION}")
        conn.commit()
        conn.close()
        assert ledger.record(make_record()) is True
        assert glob.glob(ledger.path + ".corrupt-*")

    def test_newer_schema_is_skipped_not_quarantined(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        ledger.record(make_record())
        conn = sqlite3.connect(ledger.path)
        conn.execute(f"PRAGMA user_version = {LEDGER_SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        # Write loses (fail-open, returns False) but the healthy file from
        # the future toolchain must stay exactly where it is.
        assert ledger.record(make_record()) is False
        assert not glob.glob(ledger.path + ".corrupt-*")
        with pytest.raises(LedgerError):
            ledger.list_runs()

    def test_unwritable_directory_is_swallowed(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the directory should be")
        ledger = RunLedger(str(blocker))
        assert ledger.record(make_record()) is False

    def test_len_of_missing_ledger_is_zero(self, tmp_path):
        assert len(RunLedger(str(tmp_path))) == 0


class TestHostileLedgerFiles:
    """Seeded mutations of a healthy ledger file: writes stay fail-open,
    and every read surface raises only ``LedgerError``."""

    @staticmethod
    def _mutate(data: bytes, rng) -> bytes:
        data = bytearray(data)
        kind = rng.randrange(3)
        if kind == 0:  # one bit flip
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        elif kind == 1:  # truncation
            del data[rng.randrange(len(data)):]
        else:  # eight random bytes
            at = rng.randrange(len(data) - 8)
            data[at:at + 8] = bytes(rng.randrange(256) for _ in range(8))
        return bytes(data)

    def test_seeded_mutations_fail_closed(self, tmp_path):
        import random

        healthy = RunLedger(str(tmp_path / "healthy"))
        for i in range(5):
            assert healthy.record(make_record(finished_at=1000.0 + i, demotions=["x"]))
        with open(healthy.path, "rb") as handle:
            clean = handle.read()
        rng = random.Random(20)
        reads = (
            lambda ledger: [r.flaky for r in ledger.list_runs()],
            lambda ledger: ledger.top(),
            lambda ledger: ledger.flaky(),
            lambda ledger: ledger.get("missing"),
            lambda ledger: ledger.gc(1.0),
        )
        for trial in range(300):
            directory = tmp_path / str(trial)
            directory.mkdir()
            ledger = RunLedger(str(directory))
            with open(ledger.path, "wb") as handle:
                handle.write(self._mutate(clean, rng))
            for read in reads:
                try:
                    read(ledger)
                except LedgerError:
                    pass
            assert len(ledger) >= 0
            assert ledger.record(make_record()) in (True, False)
