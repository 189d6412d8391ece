"""The disk tier: PlanCache, the QirSession wiring, and qir-plan-cache."""

import os

import pytest

from repro.llvmir.verifier import VerificationError
from repro.obs.observer import Observer
from repro.resilience import corrupt_bytes
from repro.runtime import PlanCache, QirSession, compile_plan, default_cache_dir
from repro.runtime.plancache import CACHE_ENV, environment_tag
from repro.tools.qir_plan_cache import main as plan_cache_main
from repro.workloads.qec import teleportation_qir
from repro.workloads.qir_programs import bell_qir, counted_loop_qir


def _corrupt_file(path, seed=0):
    """Flip bits in an on-disk plan with the chaos layer's generator."""
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(corrupt_bytes(data, seed=seed))


@pytest.fixture()
def cache(tmp_path):
    return PlanCache(str(tmp_path / "plans"))


class TestPlanCache:
    def test_miss_on_empty_directory(self, cache):
        assert cache.get("no-such-key") is None
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 0

    def test_put_get_round_trip(self, cache):
        plan = compile_plan(bell_qir("static"))
        path = cache.put(plan.key, plan)
        assert path is not None and os.path.exists(path)
        loaded = cache.get(plan.key)
        assert loaded is not None
        assert loaded.key == plan.key
        assert loaded.source_hash == plan.source_hash
        assert cache.stats == {"hits": 1, "misses": 0, "evictions": 0, "corrupt": 0}

    def test_corrupt_entry_deleted_and_counted(self, cache):
        plan = compile_plan(bell_qir("static"))
        path = cache.put(plan.key, plan)
        with open(path, "wb") as handle:
            handle.write(b"definitely not a plan")
        assert cache.get(plan.key) is None
        assert not os.path.exists(path)
        assert cache.stats["corrupt"] == 1
        assert cache.stats["misses"] == 1

    def test_key_mismatch_treated_as_corrupt(self, cache):
        # A file copied to the wrong address must not be served.
        plan = compile_plan(bell_qir("static"))
        wrong_key = plan.key + ":tampered"
        target = cache.path_for(wrong_key)
        os.makedirs(cache.directory, exist_ok=True)
        with open(target, "wb") as handle:
            handle.write(plan.to_bytes())
        assert cache.get(wrong_key) is None
        assert cache.stats["corrupt"] == 1
        assert not os.path.exists(target)

    def test_observer_counters(self, tmp_path):
        obs = Observer()
        cache = PlanCache(str(tmp_path), observer=obs)
        plan = compile_plan(bell_qir("static"))
        cache.get(plan.key)
        cache.put(plan.key, plan)
        cache.get(plan.key)
        counters = obs.snapshot()["counters"]
        assert counters["cache.plan_disk.miss"] == 1
        assert counters["cache.plan_disk.hit"] == 1

    def test_eviction_drops_oldest(self, tmp_path):
        cache = PlanCache(str(tmp_path), max_entries=2)
        plans = [
            compile_plan(counted_loop_qir(n), pipeline="unroll") for n in (2, 3, 4)
        ]
        paths = []
        for stamp, plan in enumerate(plans):
            path = cache.put(plan.key, plan)
            paths.append(path)
            # mtime decides eviction order; make it deterministic.
            os.utime(path, (stamp, stamp))
        assert len(cache) == 2
        assert cache.stats["evictions"] == 1
        assert not os.path.exists(paths[0])
        assert os.path.exists(paths[2])

    def test_entries_clear_and_len(self, cache):
        plan = compile_plan(bell_qir("static"), pipeline="o1")
        cache.put(plan.key, plan)
        entries = cache.entries()
        assert len(entries) == 1
        assert entries[0].key == plan.key
        assert entries[0].pipeline == "o1"
        assert entries[0].short_hash == plan.source_hash[:12]
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.entries() == []

    def test_environment_tag_qualifies_address(self, cache):
        # Same key, different environment tag -> different file, so a
        # python/numpy upgrade silently invalidates old entries.
        plan = compile_plan(bell_qir("static"))
        cache.put(plan.key, plan)
        other = PlanCache(cache.directory)
        other._env_tag = environment_tag({"python": "99.0"})
        assert other.path_for(plan.key) != cache.path_for(plan.key)
        assert other.get(plan.key) is None
        assert other.stats["misses"] == 1

    def test_bad_max_entries_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            PlanCache(str(tmp_path), max_entries=0)


class TestPlanCacheVerify:
    def test_clean_cache_verifies_clean(self, cache):
        plan = compile_plan(bell_qir("static"))
        cache.put(plan.key, plan)
        report = cache.verify()
        assert report.clean
        assert report.corrupt == []
        assert len(report.ok) == 1
        assert report.deleted

    def test_corrupt_file_detected_and_deleted(self, cache):
        plans = [
            compile_plan(counted_loop_qir(n), pipeline="unroll") for n in (2, 3)
        ]
        paths = [cache.put(plan.key, plan) for plan in plans]
        _corrupt_file(paths[0])
        report = cache.verify()
        assert not report.clean
        assert report.corrupt == [paths[0]]
        assert report.ok == [paths[1]]
        assert not os.path.exists(paths[0])
        assert os.path.exists(paths[1])
        # A second sweep sees a clean cache.
        assert cache.verify().clean

    def test_verify_keep_leaves_file_and_counts(self, tmp_path):
        obs = Observer()
        cache = PlanCache(str(tmp_path), observer=obs)
        plan = compile_plan(bell_qir("static"))
        path = cache.put(plan.key, plan)
        _corrupt_file(path, seed=3)
        report = cache.verify(delete=False)
        assert report.corrupt == [path]
        assert not report.deleted
        assert os.path.exists(path)
        assert cache.stats["corrupt"] == 1
        assert obs.snapshot()["counters"]["cache.plan_disk.corrupt"] == 1

    def test_verify_catches_json_valid_bit_flips(self, cache):
        # The envelope may still parse as JSON after a flip; verify goes
        # through the full wire decode, so it is caught anyway.
        plan = compile_plan(bell_qir("static"))
        path = cache.put(plan.key, plan)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-10] + b"X" + data[-9:])
        report = cache.verify()
        assert report.corrupt == [path]

    def test_verify_missing_directory_is_clean(self, tmp_path):
        cache = PlanCache(str(tmp_path / "never-created"))
        report = cache.verify()
        assert report.clean
        assert report.ok == []

    def test_session_verify_plan_cache(self, tmp_path):
        session = QirSession(plan_cache_dir=str(tmp_path))
        session.compile(bell_qir("static"))
        path = session.plan_cache.entries()[0].path
        _corrupt_file(path)
        report = session.verify_plan_cache()
        assert report is not None
        assert report.corrupt == [path]
        assert len(session.plan_cache) == 0

    def test_session_without_disk_tier_returns_none(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert QirSession().verify_plan_cache() is None


class TestSessionDiskTier:
    def test_fresh_session_warm_starts_from_disk(self, tmp_path):
        text = bell_qir("static")
        first = QirSession(seed=1, plan_cache_dir=str(tmp_path))
        first.compile(text, pipeline="o1")
        # A new session simulates a new process: memory LRU is empty,
        # so the plan must come back from disk, not a recompile.
        second = QirSession(seed=1, plan_cache_dir=str(tmp_path))
        plan = second.compile(text, pipeline="o1")
        stats = second.cache_stats()
        assert stats["plan_disk"]["hits"] == 1
        assert stats["plan_disk"]["misses"] == 0
        counts = second.runtime.run_shots(plan, shots=20, sampling="never").counts
        direct = QirSession(seed=1).run_shots(text, shots=20,
                                              pipeline="o1",
                                              sampling="never").counts
        assert counts == direct

    def test_disk_hit_populates_memory_lru(self, tmp_path):
        text = bell_qir("static")
        QirSession(plan_cache_dir=str(tmp_path)).compile(text)
        session = QirSession(plan_cache_dir=str(tmp_path))
        session.compile(text)
        session.compile(text)
        stats = session.cache_stats()
        assert stats["plan_disk"]["hits"] == 1  # only the first lookup
        assert stats["plan"]["hits"] == 1       # the second stayed in memory

    def test_disk_counters_on_observer(self, tmp_path):
        obs = Observer()
        from repro.runtime import QirRuntime

        text = bell_qir("static")
        QirSession(plan_cache_dir=str(tmp_path)).compile(text)
        session = QirSession(
            runtime=QirRuntime(observer=obs), plan_cache_dir=str(tmp_path)
        )
        session.compile(text)
        counters = obs.snapshot()["counters"]
        assert counters["cache.plan_disk.hit"] == 1

    def test_env_variable_opts_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        session = QirSession()
        assert session.plan_cache is not None
        assert session.plan_cache.directory == str(tmp_path)
        assert default_cache_dir() == str(tmp_path)
        session.compile(bell_qir("static"))
        assert len(session.plan_cache) == 1

    def test_no_dir_means_no_disk_tier(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        session = QirSession()
        assert session.plan_cache is None
        assert "plan_disk" not in session.cache_stats()

    def test_callable_pipeline_bypasses_disk(self, tmp_path):
        class _NoopPasses:
            def run(self, module, observer=None):
                return []

        text = bell_qir("static")
        session = QirSession(plan_cache_dir=str(tmp_path))
        session.compile(text, pipeline=_NoopPasses)
        assert len(session.plan_cache) == 0
        # A run under the callable leaves the warm pipeline-free entry of
        # the same source alone, so the next process still hits it.
        QirSession(plan_cache_dir=str(tmp_path)).run_shots(text, shots=20)
        session.run_shots(text, shots=20, pipeline=_NoopPasses)
        fresh = QirSession(plan_cache_dir=str(tmp_path))
        assert fresh.compile(text).distribution is not None
        assert fresh.plan_cache.stats == {
            "hits": 1, "misses": 0, "evictions": 0, "corrupt": 0,
        }


def _reject_me():
    """A module the verifier rejects (a value returned from a void
    function) that still parses and runs."""
    return bell_qir("static").replace("ret void", "ret i64 1")


class TestVerifiedHits:
    def test_unverified_plan_is_not_served_to_a_verified_compile(self):
        session = QirSession()
        session.compile(_reject_me(), verify=False)
        with pytest.raises(VerificationError):
            session.compile(_reject_me())

    def test_unverified_disk_entry_is_not_served_to_a_verified_compile(
        self, tmp_path
    ):
        QirSession(plan_cache_dir=str(tmp_path)).compile(_reject_me(), verify=False)
        session = QirSession(plan_cache_dir=str(tmp_path))
        with pytest.raises(VerificationError):
            session.compile(_reject_me())
        assert session.plan_cache.stats["hits"] == 0

    def test_verified_recompile_replaces_both_tiers(self, tmp_path):
        text = bell_qir("static")
        session = QirSession(plan_cache_dir=str(tmp_path))
        unverified = session.compile(text, verify=False)
        assert session.compile(text, verify=False) is unverified
        verified = session.compile(text)
        assert verified.verified and verified is not unverified
        assert session.compile(text, verify=False) is verified
        fresh = QirSession(plan_cache_dir=str(tmp_path))
        assert fresh.compile(text).verified
        assert fresh.plan_cache.stats["hits"] == 1


def _bell_twice(session):
    session.run_shots(bell_qir("static"), shots=50)
    return session.run_shots(bell_qir("static"), shots=50)


class TestOneWritePerPlan:
    """Each new plan costs the disk tier one write; a cached plan is
    re-written only by the run that first warms it."""

    @pytest.fixture()
    def puts(self, monkeypatch):
        """Every ``PlanCache.put`` as ``(key, carries a distribution)``."""
        calls = []
        put = PlanCache.put

        def counting_put(cache, key, plan):
            calls.append((key, plan.distribution is not None))
            return put(cache, key, plan)

        monkeypatch.setattr(PlanCache, "put", counting_put)
        return calls

    @pytest.mark.parametrize(
        "calls, program, writes",
        [
            pytest.param(
                lambda s: s.run_shots(bell_qir("static"), shots=50),
                bell_qir("static"), [True], id="run",
            ),
            pytest.param(_bell_twice, bell_qir("static"), [True], id="run-again"),
            pytest.param(
                lambda s: s.run_shots(teleportation_qir(0.4), shots=20),
                teleportation_qir(0.4), [False], id="feedback-run",
            ),
            pytest.param(
                lambda s: s.compile(bell_qir("static")),
                bell_qir("static"), [False], id="compile",
            ),
            # The qir-run shape: compile writes through, then the first
            # run re-writes the entry with its distribution so the next
            # process warm-starts with it.
            pytest.param(
                lambda s: s.run_shots(s.compile(bell_qir("static")), shots=50),
                bell_qir("static"), [False, True], id="compile-then-run",
            ),
        ],
    )
    def test_disk_writes_per_call(self, tmp_path, puts, calls, program, writes):
        session = QirSession(seed=1, plan_cache_dir=str(tmp_path))
        calls(session)
        key = session.compile(program).key  # a memory hit: no write
        assert puts == [(key, dist) for dist in writes]
        (entry,) = session.plan_cache.entries()
        assert entry.has_distribution == writes[-1]

    def test_a_run_that_raises_still_writes_its_compile(
        self, tmp_path, puts, monkeypatch
    ):
        session = QirSession(plan_cache_dir=str(tmp_path))

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(session.runtime, "run_shots", boom)
        with pytest.raises(RuntimeError):
            session.run_shots(bell_qir("static"), shots=10)
        assert len(puts) == 1
        assert len(session.plan_cache) == 1


class TestPlanCacheCli:
    def test_no_command_is_usage_error(self, capsys):
        assert plan_cache_main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_path_prints_resolved_directory(self, tmp_path, capsys):
        assert plan_cache_main(["--dir", str(tmp_path), "path"]) == 0
        assert capsys.readouterr().out.strip() == str(tmp_path)

    def test_list_empty_then_populated(self, tmp_path, capsys):
        directory = str(tmp_path / "plans")
        assert plan_cache_main(["--dir", directory, "list"]) == 0
        assert "empty" in capsys.readouterr().out
        QirSession(plan_cache_dir=directory).compile(
            bell_qir("static"), pipeline="o1"
        )
        assert plan_cache_main(["--dir", directory, "list"]) == 0
        out = capsys.readouterr().out
        assert "BACKEND" in out and "o1" in out
        assert "1 plan(s)" in out

    def test_clear_deletes_entries(self, tmp_path, capsys):
        directory = str(tmp_path)
        QirSession(plan_cache_dir=directory).compile(bell_qir("static"))
        assert plan_cache_main(["--dir", directory, "clear"]) == 0
        assert "1" in capsys.readouterr().out
        assert PlanCache(directory).entries() == []

    def test_list_verify_clean_cache(self, tmp_path, capsys):
        directory = str(tmp_path)
        QirSession(plan_cache_dir=directory).compile(bell_qir("static"))
        assert plan_cache_main(["--dir", directory, "list", "--verify"]) == 0
        captured = capsys.readouterr()
        assert "VERIFY\tok=1 corrupt=0" in captured.out
        assert "CORRUPT" not in captured.err

    def test_list_verify_deletes_corrupt_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        directory = str(tmp_path)
        session = QirSession(plan_cache_dir=directory)
        session.compile(bell_qir("static"))
        path = session.plan_cache.entries()[0].path
        _corrupt_file(path)
        assert plan_cache_main(["--dir", directory, "list", "--verify"]) == 1
        captured = capsys.readouterr()
        assert f"CORRUPT\t{path}\t(deleted)" in captured.err
        assert "ok=0 corrupt=1 (deleted)" in captured.out
        assert not os.path.exists(path)
        # The sweep healed the cache: a second verify is clean.
        assert plan_cache_main(["--dir", directory, "list", "--verify"]) == 0

    def test_list_verify_keep_corrupt(self, tmp_path, capsys):
        directory = str(tmp_path)
        session = QirSession(plan_cache_dir=directory)
        session.compile(bell_qir("static"))
        path = session.plan_cache.entries()[0].path
        _corrupt_file(path)
        code = plan_cache_main(
            ["--dir", directory, "list", "--verify", "--keep-corrupt"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"CORRUPT\t{path}\t(kept)" in captured.err
        assert os.path.exists(path)

    def test_keep_corrupt_requires_verify(self, tmp_path, capsys):
        code = plan_cache_main(["--dir", str(tmp_path), "list", "--keep-corrupt"])
        assert code == 2
        assert "--keep-corrupt requires --verify" in capsys.readouterr().err
