"""The serve front end: protocol validation, round trips, in-flight dedup.

The server under test binds an ephemeral localhost port with real threads
and real HTTP (stdlib urllib client), because the bugs this layer exists
to prevent — duplicated concurrent compiles, torn shared state — only
show up under genuine concurrency.
"""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import SingleFlight, ServeError, make_server, parse_request
from repro.sweep import run_point

MM_PROGRAM = """
tensor A(8, 8): csr
tensor B(8, 8): dense
C(i, j) = A(i, k) * B(k, j)
"""


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------


@pytest.fixture()
def server(tmp_path):
    srv = make_server(port=0, cache_dir=str(tmp_path / "cache"), quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=30)


def _url(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path: str):
    with urllib.request.urlopen(_url(server, path), timeout=60) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def _settled_stats(server, timeout: float = 10.0) -> dict:
    """``/v1/stats`` once no request is in flight, or at ``timeout``.

    A handler flushes its reply before it leaves the in-flight count (so
    a drain never exits with a reply unsent), so a client can read the
    stats while the request it just got an answer to still counts.
    """
    deadline = time.monotonic() + timeout
    while True:
        _, _, stats = _get(server, "/v1/stats")
        if stats["active_requests"] == 0 or time.monotonic() > deadline:
            return stats
        time.sleep(0.01)


def _post(server, path: str, body: dict):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def _post_error(server, path: str, body) -> tuple:
    data = (
        body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    )
    request = urllib.request.Request(_url(server, path), data=data)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=60)
    err = excinfo.value
    return err.code, json.loads(err.read())


def _post_declaring(server, content_length, body: bytes) -> tuple:
    """POST /v1/simulate with a hand-written ``Content-Length`` header."""
    host, port = server.server_address[:2]
    # The timeout turns a handler that blocks on the body into a failure.
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/simulate")
        if content_length is not None:
            conn.putheader("Content-Length", content_length)
        conn.endheaders(body)
        response = conn.getresponse()
        closing = response.getheader("Connection") == "close"
        return response.status, closing, json.loads(response.read())
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_model_request_reuses_sweep_validation(self):
        request = parse_request(
            json.dumps({"model": "gcn", "model_args": {"nodes": 24}}).encode(),
            "simulate",
        )
        assert request.point is not None
        assert request.point.model == "gcn"
        assert request.key() == request.key()

    def test_key_is_content_addressed(self):
        a = parse_request(json.dumps({"model": "gcn"}).encode(), "compile")
        b = parse_request(json.dumps({"model": "gcn"}).encode(), "compile")
        c = parse_request(json.dumps({"model": "sae"}).encode(), "compile")
        d = parse_request(json.dumps({"model": "gcn"}).encode(), "simulate")
        assert a.key() == b.key()
        assert a.key() != c.key()
        assert a.key() != d.key()  # same point, different action

    def test_rejections(self):
        cases = [
            (b"not json", "compile", "not valid JSON"),
            (b"[1, 2]", "compile", "JSON object"),
            (json.dumps({}).encode(), "compile", "exactly one of"),
            (
                json.dumps({"model": "gcn", "program": "x"}).encode(),
                "compile",
                "exactly one of",
            ),
            (json.dumps({"model": "nope"}).encode(), "compile", "unknown model"),
            (
                json.dumps({"model": "gcn", "typo_knob": 1}).encode(),
                "compile",
                "unknown request key",
            ),
            (
                json.dumps({"program": MM_PROGRAM}).encode(),
                "simulate",
                "compile-only",
            ),
            (
                json.dumps({"program": "garbage ("}).encode(),
                "compile",
                "does not parse",
            ),
            (
                json.dumps({"program": MM_PROGRAM, "schedule": "cs"}).encode(),
                "compile",
                "support schedule",
            ),
        ]
        for raw, action, match in cases:
            with pytest.raises(ServeError, match=match):
                parse_request(raw, action)

    @pytest.mark.parametrize(
        "model, args, field",
        [
            ("gcn", {"nodes": 10_000_000}, "nodes"),  # over the cap
            ("gcn", {"nodes": 257}, "nodes"),  # one past it
            ("gpt3", {"seq_len": 16, "n_layers": 9}, "n_layers"),
            ("gcn", {"nodes": 192, "density": 1}, "density"),  # degree > 16
            ("graphsage", {"density": 0.1}, "density"),  # 200 default nodes
            ("gpt3", {"seq_len": 16, "n_layers": 0}, "n_layers"),
            ("sae", {"nodes": -4}, "nodes"),
            ("gcn", {"nodes": 24.0}, "nodes"),  # sizes are ints
            ("gcn", {"nodes": True}, "nodes"),
            ("sae", {"hidden": None}, "hidden"),
            ("gcn", {"features": [12]}, "features"),
            ("gcn", {"density": 0}, "density"),
            ("sae", {"weight_density": 1.5}, "weight_density"),
            ("gcn", {"density": "0.1"}, "density"),
            ("gcn", {"seed": 1.5}, "seed"),
            ("gcn", {"pattern": {"kind": "uniform"}}, "pattern"),
        ],
    )
    def test_model_arg_values_are_bounded(self, model, args, field):
        raw = json.dumps({"model": model, "model_args": args}).encode()
        with pytest.raises(ServeError, match=rf"model_args\['{field}'\] must be"):
            parse_request(raw, "simulate")

    def test_in_range_model_args_are_accepted(self):
        bodies = [
            ("gcn", {"nodes": 192, "features": 12, "density": 0.08,
                     "pattern": "uniform", "hidden": 8, "classes": 4,
                     "seed": 2**31 - 2}),
            ("sae", {"nodes": 48, "hidden": 5, "weight_density": 1}),
            ("gpt3", {"seq_len": 128, "d_model": 8, "block": 4,
                      "n_layers": 4, "ffn_mult": 2}),
            # Every cap at once.
            ("graphsage", {"nodes": 256, "density": 0.0625, "features": 32,
                           "hidden": 32, "classes": 32}),
            ("gpt3", {"seq_len": 256, "d_model": 64, "block": 64,
                      "n_layers": 8, "ffn_mult": 4}),
            # Arguments the model does not take are dropped, not judged.
            ("sae", {"nodes": 16, "seq_len": 10**9, "density": None}),
        ]
        for model, args in bodies:
            raw = json.dumps({"model": model, "model_args": args}).encode()
            assert dict(parse_request(raw, "simulate").point.model_args) == args

    def test_every_accepted_model_arg_is_classified(self):
        """A new model argument must be bounded on purpose: an unclassified
        name raises AssertionError here, not ServeError."""
        from repro.sweep.spec import _MODEL_ARG_NAMES

        for model, names in _MODEL_ARG_NAMES.items():
            for name in names:
                raw = json.dumps({"model": model, "model_args": {name: None}})
                with pytest.raises(ServeError, match=name):
                    parse_request(raw.encode(), "simulate")


class TestSingleFlight:
    def test_concurrent_identical_work_runs_once(self):
        flight = SingleFlight()
        release = threading.Event()
        calls = []

        def work():
            calls.append(1)
            release.wait(timeout=60)
            return "value"

        results = []

        def runner():
            results.append(flight.run("k", work))

        leader = threading.Thread(target=runner)
        leader.start()
        while not calls:  # leader is inside work()
            pass
        followers = [threading.Thread(target=runner) for _ in range(4)]
        for t in followers:
            t.start()
        while flight.stats()["followers"] < 4:
            pass
        release.set()
        leader.join(timeout=60)
        for t in followers:
            t.join(timeout=60)
        assert len(calls) == 1
        assert [r[0] for r in results] == ["value"] * 5
        assert sorted(r[1] for r in results) == [False, True, True, True, True]

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        with pytest.raises(RuntimeError, match="boom"):
            flight.run("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        # The key is released: the next run starts a fresh flight.
        assert flight.run("k", lambda: 7) == (7, False)


# ----------------------------------------------------------------------
# End-to-end round trips
# ----------------------------------------------------------------------


class TestServer:
    def test_healthz(self, server):
        status, _, payload = _get(server, "/healthz")
        assert (status, payload) == (200, {"status": "ok"})

    def test_unknown_paths_are_404(self, server):
        code, payload = _post_error(server, "/v1/nope", {"model": "gcn"})
        assert code == 404 and "unknown path" in payload["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(_url(server, "/nope"), timeout=60)
        assert excinfo.value.code == 404

    def test_compile_roundtrip_and_memory_hit(self, server):
        body = {"model": "gcn", "model_args": {"nodes": 20}}
        status, headers, payload = _post(server, "/v1/compile", body)
        assert status == 200
        assert headers["X-Fuseflow-Cache"] == "compiled"
        assert headers["X-Fuseflow-Deduped"] == "0"
        assert float(headers["X-Fuseflow-Compile-Ms"]) > 0
        assert payload["cache"] == "compiled"
        assert payload["regions"] > 0
        _, headers, payload = _post(server, "/v1/compile", body)
        assert headers["X-Fuseflow-Cache"] == "memory"
        assert payload["cache"] == "memory"

    def test_simulate_runs_and_verifies(self, server):
        body = {"model": "gcn", "model_args": {"nodes": 20}, "schedule": "partial"}
        status, headers, payload = _post(server, "/v1/simulate", body)
        assert status == 200
        assert payload["verified"] is True
        assert payload["max_abs_err"] < 1e-6
        assert payload["metrics"]["cycles"] > 0
        # One record builder: the sweep record of the same point reports
        # the same numbers, field for field.
        record = run_point(parse_request(json.dumps(body).encode(), "simulate").point)
        assert payload["metrics"] == record["metrics"]
        assert payload["max_abs_err"] == record["max_abs_err"]

    def test_compile_ms_header_times_the_compile_only(self, server):
        # The header is the time inside compile_detailed, not the whole
        # request: simulation and verification stay out of it, and a
        # memory hit costs a dictionary lookup however long the run takes.
        body = {"model": "gcn", "model_args": {"nodes": 20}, "schedule": "partial"}
        _, headers, payload = _post(server, "/v1/simulate", body)
        assert headers["X-Fuseflow-Cache"] == "compiled"
        compile_ms = float(headers["X-Fuseflow-Compile-Ms"])
        assert 0 < compile_ms <= payload["elapsed_ms"]
        assert compile_ms >= payload["compile_seconds"] * 1e3
        _, headers, payload = _post(server, "/v1/simulate", body)
        assert headers["X-Fuseflow-Cache"] == "memory"
        hit_ms = float(headers["X-Fuseflow-Compile-Ms"])
        assert hit_ms <= payload["elapsed_ms"]
        assert hit_ms < min(5.0, compile_ms)

    def test_program_text_compile(self, server):
        status, _, payload = _post(
            server, "/v1/compile", {"program": MM_PROGRAM, "name": "mm"}
        )
        assert status == 200
        assert payload["program"] == "mm"
        assert payload["regions"] == 1

    def test_bad_request_is_400_and_counted(self, server):
        code, payload = _post_error(server, "/v1/compile", {"model": "nope"})
        assert code == 400 and "unknown model" in payload["error"]
        code, payload = _post_error(
            server, "/v1/simulate",
            {"model": "gcn", "model_args": {"nodes": 10_000_000}},
        )
        assert code == 400 and "model_args['nodes']" in payload["error"]
        # A zero par factor used to pass the door and fail inside the
        # parallelize pass as a 500.
        code, payload = _post_error(
            server, "/v1/simulate",
            {"model": "gcn", "model_args": {"nodes": 24}, "par": {"x9": 0}},
        )
        assert code == 400 and "factor for 'x9'" in payload["error"]
        _, _, stats = _get(server, "/v1/stats")
        assert stats["errors"] == 3

    @pytest.mark.parametrize("declared", [None, "abc", "-1", "+5", "1e3"])
    def test_bad_content_length_is_400(self, server, declared):
        # "-1" used to block the handler on rfile.read(-1), holding its
        # admission slot until the client hung up; "abc" raised out of
        # the handler with no response at all.
        status, closing, payload = _post_declaring(server, declared, b"{}")
        assert (status, closing) == (400, True)
        assert "Content-Length" in payload["error"]
        stats = _settled_stats(server)
        assert (stats["errors"], stats["active_requests"]) == (1, 0)

    def test_oversized_body_is_413_unread(self, server):
        from repro.serve.app import MAX_BODY_BYTES

        status, closing, payload = _post_declaring(
            server, str(MAX_BODY_BYTES + 1), b""
        )
        assert (status, closing) == (413, True)
        assert str(MAX_BODY_BYTES) in payload["error"]
        stats = _settled_stats(server)
        assert (stats["errors"], stats["active_requests"]) == (1, 0)
        # The cap itself is still a body the handler reads and parses.
        padded = json.dumps({"model": "nope"}).encode().ljust(MAX_BODY_BYTES)
        status, closing, payload = _post_declaring(
            server, str(len(padded)), padded
        )
        assert (status, closing) == (400, False)
        assert "unknown model" in payload["error"]

    def test_disk_cache_survives_server_restart(self, server, tmp_path):
        body = {"model": "gcn", "model_args": {"nodes": 20}}
        _post(server, "/v1/compile", body)
        # A brand-new server process state over the same cache directory
        # answers from disk, not by recompiling.
        reborn = make_server(
            port=0, cache_dir=str(tmp_path / "cache"), quiet=True
        )
        thread = threading.Thread(target=reborn.serve_forever, daemon=True)
        thread.start()
        try:
            _, headers, payload = _post(reborn, "/v1/compile", body)
            assert headers["X-Fuseflow-Cache"] == "disk"
            assert payload["cache"] == "disk"
        finally:
            reborn.shutdown()
            reborn.server_close()
            thread.join(timeout=30)

    def test_identical_inflight_requests_compile_once(self, server):
        # K identical requests for a key nothing has compiled yet: the
        # single-flight layer plus the session cache guarantee exactly one
        # fresh pipeline run no matter how the threads interleave.
        body = {
            "model": "gpt3",
            "model_args": {"seq_len": 16, "n_layers": 2},
            "schedule": "partial",
        }
        k = 6
        barrier = threading.Barrier(k)
        responses = []
        errors = []

        def fire():
            barrier.wait()
            try:
                responses.append(_post(server, "/v1/simulate", body))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        assert errors == []
        assert len(responses) == k
        _, _, stats = _get(server, "/v1/stats")
        assert stats["compiles"] == 1
        assert stats["requests"] == k
        # Exactly one response did the fresh compile itself; every other
        # either rode the in-flight execution (deduped) or arrived after
        # it finished and hit the session cache.
        fresh = [
            (headers, payload)
            for _, headers, payload in responses
            if headers["X-Fuseflow-Deduped"] == "0"
            and payload["cache"] == "compiled"
        ]
        assert len(fresh) == 1
        cycles = {r[2]["metrics"]["cycles"] for r in responses}
        assert len(cycles) == 1  # all K saw the same result

    def test_stats_shape(self, server):
        _post(server, "/v1/compile", {"model": "sae", "model_args": {"nodes": 12}})
        _, _, stats = _get(server, "/v1/stats")
        for key in (
            "requests",
            "compiles",
            "errors",
            "deduped",
            "inflight",
            "sessions",
            "disk_cache",
        ):
            assert key in stats, key
        assert stats["disk_cache"]["writes"] >= 1


class _CountingSocket(socket.socket):
    """An accepted connection that counts the sends it makes."""

    sends = 0

    def send(self, data, *args):
        self.sends += 1
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sends += 1
        return super().sendall(data, *args)


class TestTransport:
    """A keep-alive reply leaves in one write, so no delayed ACK stalls it."""

    @staticmethod
    def _count_sends(server):
        accepted = []
        accept = server.get_request

        def get_request():
            conn, addr = accept()
            counted = _CountingSocket(
                conn.family, conn.type, conn.proto, fileno=conn.detach()
            )
            accepted.append(counted)
            return counted, addr

        server.get_request = get_request
        return accepted

    @staticmethod
    def _exchange(conn, method, path, body=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        conn.request(method, path, body=data)
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        return resp.status, payload

    def test_each_keep_alive_reply_is_one_write(self, server):
        accepted = self._count_sends(server)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=120)
        body = {"model": "sae", "model_args": {"nodes": 12}, "schedule": "partial"}
        try:
            replies = [
                self._exchange(conn, "GET", "/healthz"),
                self._exchange(conn, "POST", "/v1/simulate", body),
                self._exchange(conn, "POST", "/v1/simulate", body),
                self._exchange(conn, "POST", "/v1/compile", {"model": "nope"}),
                self._exchange(conn, "GET", "/v1/stats"),
            ]
        finally:
            conn.close()
        assert [status for status, _ in replies] == [200, 200, 200, 400, 200]
        assert len(accepted) == 1  # one persistent connection
        assert accepted[0].sends == len(replies)

    def test_memory_hits_beat_the_delayed_ack_floor(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=120)
        body = {"model": "sae", "model_args": {"nodes": 12}, "schedule": "partial"}
        try:
            self._exchange(conn, "POST", "/v1/simulate", body)  # compile + run
            times = []
            for _ in range(10):
                start = time.perf_counter()
                status, payload = self._exchange(conn, "POST", "/v1/simulate", body)
                times.append((time.perf_counter() - start) * 1e3)
                assert status == 200 and payload["cache"] == "memory"
        finally:
            conn.close()
        # A two-write reply waits ~40 ms on the client's delayed ACK.
        assert statistics.median(times) < 20.0, times

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        host, port = server.server_address[:2]
        body = json.dumps({"model": "sae", "model_args": {"nodes": 12}}).encode()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/compile HTTP/1.1\r\n"
                + f"Host: {host}\r\nContent-Length: {len(body)}\r\n".encode()
                + b"Expect: 100-continue\r\n\r\n"
            )
            interim = sock.recv(4096)
            assert interim.startswith(b"HTTP/1.1 100"), interim
            sock.sendall(body)
            final = sock.recv(65536)
        assert final.startswith(b"HTTP/1.1 200"), final
