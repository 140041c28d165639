"""Fault injection and the hardening it exercises.

Three layers under test:

* the :mod:`repro.reliability` registry itself — spec grammar, trigger
  determinism, zero-overhead-off semantics;
* the sweep supervisor — crashed/hung workers are re-spawned and their
  points re-dispatched, poison points quarantine with terminal records,
  resume converges;
* the serve front end — deadlines (504), load shedding (503 +
  ``Retry-After``), bounded single-flight waits, graceful drain.

Chaos here is *deterministic*: every injected fault uses count or fuse
triggers, so these tests replay identically instead of flaking.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.driver.diskcache import DiskCache
from repro.reliability import (
    CRASH_EXIT_CODE,
    FAULT_SITES,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    clear_plan,
    fault_point,
    injected_faults,
    install_plan,
)
from repro.serve import SingleFlight, WaitTimeout, make_server, parse_request
from repro.sweep.runner import (
    SweepRunner,
    TRANSIENT_ERROR_TYPES,
    _is_transient,
    run_sweep,
)
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultStore


@pytest.fixture(autouse=True)
def _clean_plan():
    """Every test starts and ends with no fault plan installed."""
    os.environ.pop("FUSEFLOW_FAULTS", None)
    clear_plan()
    yield
    os.environ.pop("FUSEFLOW_FAULTS", None)
    clear_plan()


def tiny_spec() -> SweepSpec:
    return SweepSpec(
        name="chaos",
        models=["sae"],
        schedules=["unfused", "full"],
        machines=["rda"],
        model_args={"batch": 1},
    )


# ----------------------------------------------------------------------
# The registry: grammar, triggers, lifecycle
# ----------------------------------------------------------------------


class TestFaultPlanParsing:
    def test_grammar_roundtrip(self):
        plan = FaultPlan.parse(
            "compile:raise@nth=2;sweep.point:hang:1.5@match=*unfused*,times=3;"
            "diskcache.put:crash;serve.request:slow:0.25@p=0.5,seed=7"
        )
        kinds = sorted((r.site, r.kind) for r in plan.rules)
        assert kinds == [
            ("compile", "raise"),
            ("diskcache.put", "crash"),
            ("serve.request", "slow"),
            ("sweep.point", "hang"),
        ]

    def test_rejections(self):
        bad = [
            "nope.site:raise",  # unknown site
            "compile:explode",  # unknown kind
            "compile:hang",  # hang needs seconds
            "compile:hang:-1",  # negative seconds
            "compile:raise@p=2",  # probability out of range
            "compile:raise@every=0",  # every must be >= 1
            "compile:raise@wat=1",  # unknown trigger
            "compile",  # no kind at all
        ]
        for spec in bad:
            with pytest.raises(FaultSpecError):
                FaultPlan.parse(spec)

    def test_sites_registry_is_closed(self):
        assert FAULT_SITES == {
            "compile",
            "diskcache.get",
            "diskcache.put",
            "sweep.point",
            "serve.request",
        }


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        plan = FaultPlan.parse("compile:raise@nth=3")
        install_plan(plan)
        fault_point("compile")
        fault_point("compile")
        with pytest.raises(InjectedFault):
            fault_point("compile")
        fault_point("compile")  # call 4: silent again

    def test_every_and_times(self):
        plan = FaultPlan.parse("compile:raise@every=2,times=2")
        install_plan(plan)
        fired = 0
        for _ in range(10):
            try:
                fault_point("compile")
            except InjectedFault:
                fired += 1
        assert fired == 2  # calls 2 and 4 only; times= caps the rest

    def test_probability_is_seeded_and_deterministic(self):
        def count(seed: int) -> int:
            plan = FaultPlan.parse(f"compile:raise@p=0.5,seed={seed}")
            fired = 0
            for _ in range(50):
                for rule in plan.rules:
                    if rule.should_fire(None):
                        fired += 1
            return fired

        assert count(0) == count(0)  # identical replay
        assert 5 < count(0) < 45  # actually probabilistic

    def test_match_substring_and_glob(self):
        plan = FaultPlan.parse("sweep.point:raise@match=*unfused*")
        install_plan(plan)
        fault_point("sweep.point", key="sae/synthetic/full/rda")
        with pytest.raises(InjectedFault):
            fault_point("sweep.point", key="sae/synthetic/unfused/rda")
        # Plain substring (no metacharacters) selects the same.
        install_plan(FaultPlan.parse("sweep.point:raise@match=unfused"))
        with pytest.raises(InjectedFault):
            fault_point("sweep.point", key="sae/synthetic/unfused/rda")

    def test_fuse_caps_fires_across_plans(self, tmp_path):
        # Two plans (standing in for two processes) share one fuse dir:
        # the rule fires exactly `times` times in total.
        fuse = tmp_path / "fuse"
        spec = f"compile:raise@times=2,fuse={fuse}"
        fired = 0
        for _ in range(2):  # "process" A and B
            plan = FaultPlan.parse(spec)
            for _ in range(5):
                for rule in plan.rules:
                    if rule.should_fire(None):
                        fired += 1
        assert fired == 2
        assert len(list(fuse.iterdir())) == 2

    def test_slow_sleeps_and_continues(self):
        install_plan(FaultPlan.parse("compile:slow:0.05"))
        started = time.perf_counter()
        fault_point("compile")  # no exception
        assert time.perf_counter() - started >= 0.05

    def test_crash_downgrades_to_raise_in_main_process(self):
        # os._exit in the test runner would be catastrophic; in the main
        # process the crash kind must degrade to InjectedFault.
        install_plan(FaultPlan.parse("compile:crash"))
        with pytest.raises(InjectedFault):
            fault_point("compile")


class TestLifecycle:
    def test_no_plan_is_silent(self):
        for site in FAULT_SITES:
            fault_point(site, key="anything")

    def test_env_plan_is_parsed_lazily_and_tracks_changes(self):
        fault_point("compile")  # caches "env empty"
        os.environ["FUSEFLOW_FAULTS"] = "compile:raise"
        with pytest.raises(InjectedFault):
            fault_point("compile")  # re-set env picked up, not shadowed
        del os.environ["FUSEFLOW_FAULTS"]
        fault_point("compile")  # and unset is picked up too

    def test_env_parse_error_is_loud(self):
        os.environ["FUSEFLOW_FAULTS"] = "garbage"
        with pytest.raises(FaultSpecError):
            fault_point("compile")

    def test_injected_faults_context_manager(self):
        with injected_faults("compile:raise"):
            with pytest.raises(InjectedFault):
                fault_point("compile")
        fault_point("compile")  # plan uninstalled on exit

    def test_stats_count_calls_and_fires(self):
        with injected_faults("compile:raise@nth=2") as plan:
            fault_point("compile")
            with pytest.raises(InjectedFault):
                fault_point("compile")
            assert plan.stats() == {
                ("compile", "raise"): {"calls": 2, "fires": 1}
            }


# ----------------------------------------------------------------------
# Sweep hardening
# ----------------------------------------------------------------------


class TestTransientClassification:
    def test_error_type_prefix_allowlist(self):
        assert _is_transient(
            {"status": "error", "error": "InjectedFault: compile: raise"}
        )
        assert _is_transient({"status": "error", "error": "OSError: boom"})
        assert not _is_transient(
            {"status": "error", "error": "ValueError: bad schedule"}
        )
        # Verification failures are deterministic — never retried.
        assert not _is_transient(
            {"status": "error", "error": "verification failed: max_abs_err=1"}
        )
        assert not _is_transient({"status": "ok"})

    def test_allowlist_has_no_catchall(self):
        assert "Exception" not in TRANSIENT_ERROR_TYPES
        assert "RuntimeError" not in TRANSIENT_ERROR_TYPES


class TestRunnerValidation:
    def test_bad_knobs_rejected(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="point_timeout"):
            SweepRunner(spec, point_timeout=0)
        with pytest.raises(ValueError, match="max_attempts"):
            SweepRunner(spec, max_attempts=0)
        with pytest.raises(ValueError, match="retry_backoff"):
            SweepRunner(spec, retry_backoff=-1)


class TestSweepChaos:
    def test_worker_crash_redispatches_with_zero_lost_points(self, tmp_path):
        # Two injected os._exit crashes across the worker fleet (the fuse
        # dir bounds them globally); every point must still land ok.
        fuse = tmp_path / "fuse"
        os.environ["FUSEFLOW_FAULTS"] = (
            f"sweep.point:crash@times=2,fuse={fuse}"
        )
        out = run_sweep(
            spec=tiny_spec(),
            store_path=str(tmp_path / "r.jsonl"),
            workers=2,
            point_timeout=60.0,
        )
        assert out.ran == 2
        assert all(r["status"] == "ok" for r in out.records)
        assert out.retries == 2
        retried = [r for r in out.records if "attempts" in r]
        assert retried and all(r["attempts"] >= 2 for r in retried)

    def test_hung_worker_is_killed_and_point_quarantined(self, tmp_path):
        # One point hangs on every attempt: the supervisor kills the
        # worker each time and finally quarantines a terminal "timeout"
        # record instead of wedging the sweep.
        os.environ["FUSEFLOW_FAULTS"] = "sweep.point:hang:30@match=*unfused*"
        store_path = str(tmp_path / "r.jsonl")
        out = run_sweep(
            spec=tiny_spec(),
            store_path=store_path,
            workers=2,
            point_timeout=1.0,
            max_attempts=2,
        )
        by_status = {r["status"]: r for r in out.records}
        assert sorted(by_status) == ["ok", "timeout"]
        quarantined = by_status["timeout"]
        assert quarantined["attempts"] == 2
        assert "wall-clock timeout" in quarantined["error"]
        assert "unfused" in quarantined["label"]

        # Faults off, resume converges: only the quarantined point
        # re-runs, and afterwards every point is complete.
        del os.environ["FUSEFLOW_FAULTS"]
        out2 = run_sweep(
            store_path=store_path, resume=True, workers=2, point_timeout=60.0
        )
        assert (out2.ran, out2.skipped) == (1, 1)
        assert all(r["status"] == "ok" for r in out2.records)
        store = ResultStore.open(store_path)
        try:
            assert len(store.completed_ids()) == 2
        finally:
            store.close()

    def test_inline_transient_retry(self, tmp_path):
        # workers=1 runs inline; a once-only transient raise (fuse-
        # bounded) is retried with backoff and the record annotated.
        fuse = tmp_path / "fuse"
        os.environ["FUSEFLOW_FAULTS"] = (
            f"sweep.point:raise@times=1,fuse={fuse}"
        )
        out = run_sweep(spec=tiny_spec(), workers=1)
        assert all(r["status"] == "ok" for r in out.records)
        assert out.retries == 1
        assert sum(1 for r in out.records if r.get("attempts") == 2) == 1

    def test_healthy_records_carry_no_attempts_field(self):
        # Byte-identity guarantee: with no faults and no retries the
        # record shape is exactly the pre-hardening one.
        out = run_sweep(spec=tiny_spec(), workers=2)
        assert all("attempts" not in r for r in out.records)
        assert out.retries == 0
        assert "retr" not in out.describe()

    def test_poison_raise_quarantines_as_error_record(self, tmp_path):
        # A point that raises transiently on *every* attempt exhausts
        # max_attempts and keeps its last error record (annotated).
        os.environ["FUSEFLOW_FAULTS"] = "sweep.point:raise@match=*unfused*"
        out = run_sweep(
            spec=tiny_spec(),
            store_path=str(tmp_path / "r.jsonl"),
            workers=2,
            max_attempts=2,
        )
        by_status = sorted(r["status"] for r in out.records)
        assert by_status == ["error", "ok"]
        poison = [r for r in out.records if r["status"] == "error"][0]
        assert poison["attempts"] == 2
        assert poison["error"].startswith("InjectedFault")


class TestTornTail:
    def test_torn_trailing_line_warns_and_is_counted(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "r.jsonl"
        store = ResultStore.create(str(path), spec)
        store.append({"type": "result", "point_id": "p1", "status": "ok"})
        store.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "result", "point_id": "p2", "sta')  # torn
        reopened = ResultStore.open(str(path))
        try:
            with pytest.warns(UserWarning, match="torn trailing record"):
                completed = reopened.completed_ids()
            assert completed == {"p1"}
            assert reopened.torn_tails_skipped == 1
        finally:
            reopened.close()


# ----------------------------------------------------------------------
# DiskCache breaker
# ----------------------------------------------------------------------


class TestDiskCacheBreaker:
    def test_consecutive_put_failures_disable_the_disk_level(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"), put_failure_limit=2)
        with injected_faults("diskcache.put:raise"):
            assert cache.put("k1", {"v": 1}) is False
            assert cache.disabled_reason is None  # one failure: still open
            assert cache.put("k2", {"v": 2}) is False
        reason = cache.disabled_reason
        assert reason is not None and "2 consecutive" in reason
        assert "InjectedFault" in reason
        # Disabled means short-circuit: no write, no read, no exception —
        # even now that the fault plan is gone.
        assert cache.put("k3", {"v": 3}) is False
        assert cache.get("k3") is None
        info = cache.info()
        assert info.disabled_reason == reason
        assert info.put_failures == 2
        assert "DISABLED" in str(info)

    def test_success_resets_the_consecutive_count(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"), put_failure_limit=2)
        with injected_faults("diskcache.put:raise@nth=1"):
            assert cache.put("k1", {"v": 1}) is False
            assert cache.put("k2", {"v": 2}) is True  # resets the streak
            assert cache.disabled_reason is None
        assert cache.info().put_failures == 1

    def test_injected_get_fault_is_a_miss_not_a_crash(self, tmp_path):
        cache = DiskCache(str(tmp_path / "c"))
        assert cache.put("k", {"v": 1}) is True
        with injected_faults("diskcache.get:raise"):
            assert cache.get("k") is None
        assert cache.get("k") == {"v": 1}


class TestKernelStoreFaults:
    """A sick disk under backend ``codegen`` degrades to compiling."""

    def test_every_read_failing_is_a_cold_compile(self, tmp_path):
        from repro.driver import Session
        from repro.models.gcn import gcn_on_synthetic

        bundle = gcn_on_synthetic(nodes=16, density=0.2, seed=0)
        schedule = bundle.schedule("partial")
        Session(backend="codegen", disk_cache=str(tmp_path)).compile(
            bundle.program, schedule
        )
        before = sorted(os.listdir(str(tmp_path)))
        session = Session(backend="codegen", disk_cache=str(tmp_path))
        with injected_faults("diskcache.get:raise"):
            exe, source = session.compile_detailed(bundle.program, schedule)
        assert source == "compiled"
        # The entry it could not read was rewritten in place, not beside.
        assert sorted(os.listdir(str(tmp_path))) == before
        assert session.disk_cache.info().corrupt == 0
        assert bundle.max_abs_err(exe(bundle.binding)) < 1e-9


# ----------------------------------------------------------------------
# SingleFlight bounded waits
# ----------------------------------------------------------------------


class TestSingleFlightTimeouts:
    def test_follower_wait_is_bounded(self):
        flight = SingleFlight()
        release = threading.Event()
        entered = threading.Event()

        def work():
            entered.set()
            release.wait(timeout=60)
            return "value"

        results = []
        leader = threading.Thread(
            target=lambda: results.append(flight.run("k", work))
        )
        leader.start()
        assert entered.wait(timeout=10)
        with pytest.raises(WaitTimeout) as excinfo:
            flight.run("k", lambda: "unused", timeout=0.1)
        assert excinfo.value.key == "k"
        assert not excinfo.value.leader
        release.set()
        leader.join(timeout=30)
        assert results == [("value", False)]
        assert flight.stats()["wait_timeouts"] == 1

    def test_leader_with_deadline_times_out_but_work_completes(self):
        flight = SingleFlight()
        finished = threading.Event()

        def slow():
            time.sleep(0.4)
            finished.set()
            return "late"

        with pytest.raises(WaitTimeout) as excinfo:
            flight.run("k", slow, timeout=0.05)
        assert excinfo.value.leader
        # The abandoned execution still runs to completion (cache warming).
        assert finished.wait(timeout=10)

    def test_timeout_none_is_the_classic_inline_path(self):
        flight = SingleFlight()
        assert flight.run("k", lambda: 7) == (7, False)
        assert flight.stats()["wait_timeouts"] == 0


# ----------------------------------------------------------------------
# Serve hardening (real HTTP, ephemeral ports)
# ----------------------------------------------------------------------


def _url(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _post_raw(server, path: str, body: dict):
    """POST returning (status, headers, payload) without raising on 5xx."""
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


def _get_raw(server, path: str):
    try:
        with urllib.request.urlopen(_url(server, path), timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.fixture()
def hardened_server(tmp_path):
    srv = make_server(
        port=0,
        cache_dir=str(tmp_path / "cache"),
        quiet=True,
        deadline=1.0,
        max_inflight=2,
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=30)


SMALL = {"model": "sae", "model_args": {"nodes": 12}}


class TestServeDeadlines:
    def test_server_deadline_maps_hang_to_504(self, hardened_server):
        with injected_faults("serve.request:hang:5@nth=1"):
            status, _, payload = _post_raw(
                hardened_server, "/v1/compile", SMALL
            )
        assert status == 504
        assert "deadline" in payload["error"] or "wait" in payload["error"]
        _, stats = _get_raw(hardened_server, "/v1/stats")
        assert stats["timeouts"] == 1
        assert stats["deadline_seconds"] == 1.0

    def test_request_deadline_ms_tightens_the_server_deadline(
        self, hardened_server
    ):
        # Server allows 1s; the client asks for 100ms and a 0.5s stall
        # (inside the server budget) must still 504.
        with injected_faults("serve.request:hang:0.5@nth=1"):
            status, _, _ = _post_raw(
                hardened_server,
                "/v1/compile",
                {**SMALL, "deadline_ms": 100},
            )
        assert status == 504

    def test_deadline_ms_is_not_part_of_the_content_key(self):
        a = parse_request(json.dumps(SMALL).encode(), "compile")
        b = parse_request(
            json.dumps({**SMALL, "deadline_ms": 5000}).encode(), "compile"
        )
        assert a.key() == b.key()

    def test_deadline_ms_validation(self):
        from repro.serve import ServeError

        for bad in (0, -5, "soon", True, 1.5):
            with pytest.raises(ServeError, match="deadline_ms"):
                parse_request(
                    json.dumps({**SMALL, "deadline_ms": bad}).encode(),
                    "compile",
                )

    def test_fast_requests_are_unaffected(self, hardened_server):
        status, headers, payload = _post_raw(
            hardened_server, "/v1/compile", SMALL
        )
        assert status == 200
        assert payload["cache"] == "compiled"
        assert "X-Fuseflow-Cache" in headers


class TestServeShedding:
    def test_overload_sheds_with_503_and_retry_after(self, tmp_path):
        srv = make_server(
            port=0, cache_dir=str(tmp_path / "c"), quiet=True, max_inflight=1
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            results = []
            with injected_faults("serve.request:hang:2@nth=1"):
                blocker = threading.Thread(
                    target=lambda: results.append(
                        _post_raw(srv, "/v1/compile", SMALL)
                    )
                )
                blocker.start()
                deadline = time.time() + 10
                while time.time() < deadline:
                    _, stats = _get_raw(srv, "/v1/stats")
                    if stats["active_requests"] >= 1:
                        break
                    time.sleep(0.01)
                status, headers, payload = _post_raw(
                    srv,
                    "/v1/compile",
                    {"model": "sae", "model_args": {"nodes": 16}},
                )
                blocker.join(timeout=60)
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert "overloaded" in payload["error"]
            assert results and results[0][0] == 200  # admitted one finished
            _, stats = _get_raw(srv, "/v1/stats")
            assert stats["shed"] == 1
            assert stats["max_inflight"] == 1
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=30)


class TestServeDrain:
    def test_drain_refuses_new_work_and_stops_cleanly(self, tmp_path):
        srv = make_server(port=0, cache_dir=str(tmp_path / "c"), quiet=True)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            status, _, _ = _post_raw(srv, "/v1/compile", SMALL)
            assert status == 200
            srv.state.begin_drain()
            status, payload = _get_raw(srv, "/healthz")
            assert (status, payload) == (503, {"status": "draining"})
            status, _, payload = _post_raw(srv, "/v1/compile", SMALL)
            assert status == 503
            assert "draining" in payload["error"]
            _, stats = _get_raw(srv, "/v1/stats")
            assert stats["draining"] is True
            srv.drain(timeout=5.0)  # idempotent; unblocks serve_forever
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            srv.server_close()

    def test_drain_waits_for_inflight_work(self, tmp_path):
        srv = make_server(port=0, cache_dir=str(tmp_path / "c"), quiet=True)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        results = []
        try:
            with injected_faults("serve.request:slow:1@nth=1"):
                poster = threading.Thread(
                    target=lambda: results.append(
                        _post_raw(srv, "/v1/compile", SMALL)
                    )
                )
                poster.start()
                deadline = time.time() + 10
                while time.time() < deadline:
                    _, stats = _get_raw(srv, "/v1/stats")
                    if stats["active_requests"] >= 1:
                        break
                    time.sleep(0.01)
                srv.drain(timeout=30.0)
                poster.join(timeout=60)
            # The in-flight request completed during the drain window.
            assert results and results[0][0] == 200
            thread.join(timeout=30)
        finally:
            srv.server_close()


class TestCodegenCompileFaults:
    """A compile interrupted under ``backend="codegen"`` leaves nothing behind.

    A fault at the ``compile`` site must leave no executable in the
    session cache and no file in its disk cache; the retry compiles
    cleanly.
    """

    def _program_binding(self):
        import numpy as np

        from repro.core.einsum.parser import parse_program
        from repro.ftree import SparseTensor, csr, dense

        program = parse_program(
            "tensor A(4, 5): csr\n"
            "tensor X(5, 3): dense\n"
            "T(i, j) = A(i, k) * X(k, j)"
        )
        rng = np.random.default_rng(7)
        a = rng.random((4, 5)) * (rng.random((4, 5)) < 0.5)
        binding = {
            "A": SparseTensor.from_dense(a, csr(), "A"),
            "X": SparseTensor.from_dense(rng.random((5, 3)), dense(2), "X"),
        }
        return program, binding

    def test_interrupted_compile_leaves_caches_consistent(self):
        from repro.comal.machines import RDA_MACHINE
        from repro.driver import Session

        program, binding = self._program_binding()
        session = Session(machine=RDA_MACHINE, backend="codegen")
        with injected_faults("compile:raise@nth=1"):
            with pytest.raises(InjectedFault):
                session.compile(program)
            assert session.cache_info().entries == 0
            # The retry (same session, same plan — the fault was one-shot)
            # compiles and runs.
            exe = session.compile(program)
        assert session.cache_info().entries == 1
        assert exe(binding).metrics.tokens > 0

    def test_interrupted_compile_leaves_no_partial_kernel_file(self, tmp_path):
        # An abort in the entry write-back, or before it, must leave the
        # directory clean: no orphan temp file, no entry.
        from repro.driver import Session

        program, binding = self._program_binding()
        cache = DiskCache(str(tmp_path))
        session = Session(backend="codegen", disk_cache=cache)
        with injected_faults("diskcache.put:crash@nth=1"):
            # crash in the main process downgrades to a raise the cache
            # absorbs: the entry write fails, the compile goes on.
            exe = session.compile(program)
        assert os.listdir(str(tmp_path)) == []
        assert cache.info().put_failures == 1
        assert exe(binding).metrics.tokens > 0
        with injected_faults("compile:raise@nth=1"):
            with pytest.raises(InjectedFault):
                Session(backend="codegen", disk_cache=cache).compile(program)
        assert os.listdir(str(tmp_path)) == []


class TestServeStatsSurface:
    def test_stats_reports_reliability_fields(self, hardened_server):
        _post_raw(hardened_server, "/v1/compile", SMALL)
        _, stats = _get_raw(hardened_server, "/v1/stats")
        for key in (
            "active_requests",
            "shed",
            "timeouts",
            "wait_timeouts",
            "draining",
            "deadline_seconds",
            "max_inflight",
        ):
            assert key in stats, key
        assert stats["disk_cache"]["disabled_reason"] is None

    def test_stats_reports_kernel_store_counters(self, hardened_server):
        # Under backend codegen the disk cache holds compile entries only.
        body = dict(SMALL, backend="codegen")
        assert _post_raw(hardened_server, "/v1/compile", body)[0] == 200
        _, stats = _get_raw(hardened_server, "/v1/stats")
        disk = stats["disk_cache"]
        assert disk["entries"] == disk["writes"] == 1
        assert disk["rejected"] == 0
        assert not [key for key in disk if "kernel" in key]

    def test_compile_fault_is_a_500_not_a_crash(self, hardened_server):
        with injected_faults("compile:raise@nth=1"):
            status, _, payload = _post_raw(
                hardened_server, "/v1/compile", SMALL
            )
        assert status == 500
        assert "InjectedFault" in payload["error"]
        # The server survives and answers the retry.
        status, _, _ = _post_raw(hardened_server, "/v1/compile", SMALL)
        assert status == 200
