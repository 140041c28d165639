"""``fuseflow serve``: a threaded HTTP front end over shared Sessions.

Stdlib only (:mod:`http.server`); one :class:`ServerState` owns everything
the handler threads share:

* one :class:`~repro.driver.session.Session` per (machine, hierarchy),
  all attached to one :class:`~repro.driver.diskcache.DiskCache`
  — so a serve process restarted over a warm cache directory answers its
  first compile with a read-and-unpickle;
* model bundles from :func:`~repro.sweep.spec.bundle_for` (tracing a
  model once per process, shared with sweep workers);
* a :class:`~repro.serve.dedup.SingleFlight` collapsing identical
  in-flight requests onto one execution.

Endpoints::

    GET  /healthz      liveness (503 + ``draining`` once drain begins)
    GET  /v1/stats     request/dedup/cache counters (JSON)
    POST /v1/compile   compile a model point or raw einsum program
    POST /v1/simulate  compile + execute + verify a model point

Every POST response carries ``X-Fuseflow-Cache`` (``memory`` / ``disk`` /
``compiled``), ``X-Fuseflow-Deduped`` (this request rode an in-flight
identical one), and ``X-Fuseflow-Compile-Ms`` (wall time inside
``Session.compile_detailed`` — near zero on a ``memory`` hit; the payload's
``elapsed_ms`` is the whole request, simulation and verification included).

Overload and failure behavior (see ``docs/reliability.md``):

* **Deadlines.**  With a server ``deadline`` (or a per-request
  ``deadline_ms``, capped by the server's), a request that cannot be
  answered in time gets a **504**; the underlying compile keeps running
  and benefits the next caller through the caches.
* **Load shedding.**  With ``max_inflight`` set, excess concurrent POSTs
  are refused immediately with a **503** and a ``Retry-After`` header
  instead of queueing without bound inside the thread pool.
* **Bounded bodies.**  A POST whose ``Content-Length`` is missing,
  non-numeric or negative gets a **400**, one above
  :data:`MAX_BODY_BYTES` a **413**; either way the body is never read,
  the connection is closed and the admission slot released.
* **Graceful drain.**  :meth:`FuseFlowServer.drain` (wired to
  SIGTERM/SIGINT by the CLI) stops admitting new work (503), lets
  in-flight requests finish up to a timeout, then shuts down; health
  checks report ``draining`` so balancers stop routing here.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..comal.machines import MACHINES
from ..core.einsum.parser import parse_program
from ..core.schedule.schedule import fully_fused, unfused
from ..driver.diskcache import DiskCache
from ..driver.session import Session
from ..models.common import VERIFY_TOLERANCE
from ..reliability import fault_point
from ..sweep.spec import bundle_for
from .dedup import SingleFlight, WaitTimeout
from .protocol import ServeError, ServeRequest, parse_request

__all__ = ["ServerState", "FuseFlowServer", "make_server"]

_POST_ACTIONS = {"/v1/compile": "compile", "/v1/simulate": "simulate"}

#: Largest request body read.  The largest valid ``/v1/simulate`` body —
#: every key set, the model's arguments, a ``par`` and a ``splits`` entry
#: per index — stays under 4 KiB, and the program text of an eight-layer
#: gpt3 stack on ``/v1/compile`` is ~15 KiB; 1 MiB clears both many times
#: over while a hostile ``Content-Length`` can no longer make a handler
#: thread buffer without bound.
MAX_BODY_BYTES = 1 << 20


class ServerState:
    """Shared compile/execute state behind the HTTP handler threads.

    Parameters
    ----------
    cache_dir:
        Persistent compile-cache directory every session shares; ``None``
        follows ``FUSEFLOW_CACHE_DIR`` (no disk cache when unset).
    deadline:
        Per-request response deadline in seconds; a request not answered
        in time is a 504.  ``None`` disables deadlines (a per-request
        ``deadline_ms`` still applies, capped only by itself).
    max_inflight:
        Concurrent-POST cap; excess requests are shed with 503 +
        ``Retry-After``.  ``None`` = unbounded (pre-hardening behavior).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        deadline: Optional[float] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get("FUSEFLOW_CACHE_DIR") or None
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be positive (or None)")
        self.disk_cache: Optional[DiskCache] = (
            DiskCache(cache_dir) if cache_dir else None
        )
        self.deadline = deadline
        self.max_inflight = max_inflight
        self.flight = SingleFlight()
        self._lock = threading.Lock()
        self._sessions: Dict[Tuple[str, str], Session] = {}
        self._requests = 0
        self._compiles = 0
        self._errors = 0
        self._inflight = 0
        self._shed = 0
        self._timeouts = 0
        self._draining = False
        self._started = time.time()

    # ------------------------------------------------------------------
    # Admission control / drain lifecycle
    # ------------------------------------------------------------------
    def admit(self) -> Optional[str]:
        """Try to admit one POST; returns a refusal reason or ``None``.

        On ``None`` the caller MUST pair this with :meth:`finish` (the
        in-flight count is what drain waits on and shedding caps).
        """
        with self._lock:
            if self._draining:
                return "draining"
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                self._shed += 1
                return "overloaded"
            self._inflight += 1
            return None

    def finish(self) -> None:
        """Release one admitted request."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    def begin_drain(self) -> None:
        """Stop admitting new requests; in-flight ones run to completion."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def inflight_count(self) -> int:
        with self._lock:
            return self._inflight

    def count_timeout(self) -> None:
        with self._lock:
            self._timeouts += 1

    def count_error(self) -> None:
        with self._lock:
            self._errors += 1

    # ------------------------------------------------------------------
    # Shared resources
    # ------------------------------------------------------------------
    def session_for(self, machine: str, hierarchy: str) -> Session:
        """The shared Session for (machine, hierarchy)."""
        key = (machine, hierarchy)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = Session(
                    machine=MACHINES[machine],
                    hierarchy=hierarchy,
                    # False (not None): the env var is folded into this
                    # state's shared DiskCache already, so sessions must
                    # not each grow a private second instance.
                    disk_cache=self.disk_cache
                    if self.disk_cache is not None
                    else False,
                )
                self._sessions[key] = session
            return session

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def request_timeout(self, request: ServeRequest) -> Optional[float]:
        """Effective wait bound: the tighter of server and client deadlines."""
        bounds = []
        if self.deadline is not None:
            bounds.append(self.deadline)
        if request.deadline_ms is not None:
            bounds.append(request.deadline_ms / 1000.0)
        return min(bounds) if bounds else None

    def handle(self, request: ServeRequest) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """Execute one request (deduplicated); returns (payload, headers).

        Raises
        ------
        WaitTimeout
            The request's deadline expired before the (possibly shared)
            execution finished; the front end maps it to HTTP 504.
        """
        with self._lock:
            self._requests += 1
        result, deduped = self.flight.run(
            request.key(),
            lambda: self._execute(request),
            timeout=self.request_timeout(request),
        )
        headers = dict(result["headers"])
        headers["X-Fuseflow-Deduped"] = "1" if deduped else "0"
        payload = dict(result["payload"])
        payload["deduped"] = deduped
        return payload, headers

    def _execute(self, request: ServeRequest) -> Dict[str, Any]:
        started = time.perf_counter()
        # Fault site: an injected hang here is a stuck compile/simulate —
        # exactly what the deadline (504), the single-flight follower
        # timeout, and load shedding exist to contain.
        fault_point("serve.request", key=request.key())
        session = self.session_for(request.machine, request.hierarchy)
        bundle = None
        if request.point is not None:
            bundle = bundle_for(request.point)
            program = bundle.program
            schedule = request.point.schedule_for(bundle)
        else:
            program = parse_program(request.program_text, request.program_name)
            schedule = (
                unfused(program)
                if request.schedule == "unfused"
                else fully_fused(program)
            )
        compile_started = time.perf_counter()
        executable, source = session.compile_detailed(program, schedule)
        compile_ms = (time.perf_counter() - compile_started) * 1000.0
        if source == "compiled":
            with self._lock:
                self._compiles += 1
        payload: Dict[str, Any] = {
            "action": request.action,
            "label": request.label(),
            "key": request.key(),
            "cache": source,
            "program": program.name,
            "schedule": schedule.name,
            "regions": len(executable.compiled.regions),
            "compile_seconds": executable.compiled.compile_seconds,
        }
        if request.action == "simulate":
            result = executable(bundle.binding)
            metrics = result.metrics
            max_abs_err = bundle.max_abs_err(result)
            payload["metrics"] = {
                "cycles": metrics.cycles,
                "flops": metrics.flops,
                "dram_bytes": metrics.dram_bytes,
                "sram_bytes": metrics.sram_bytes,
                "spill_bytes": metrics.spill_bytes,
                "fill_bytes": metrics.fill_bytes,
                "tokens": metrics.tokens,
                "num_kernels": metrics.num_kernels,
            }
            payload["max_abs_err"] = max_abs_err
            payload["verified"] = bool(max_abs_err < VERIFY_TOLERANCE)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        payload["elapsed_ms"] = elapsed_ms
        headers = {
            "X-Fuseflow-Cache": source,
            "X-Fuseflow-Compile-Ms": f"{compile_ms:.2f}",
        }
        return {"payload": payload, "headers": headers}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counters for monitoring and the serve tests' dedup assertions."""
        flight = self.flight.stats()
        with self._lock:
            sessions = {
                "/".join(filter(None, key)) or "default": str(
                    session.cache_info()
                )
                for key, session in self._sessions.items()
            }
            data: Dict[str, Any] = {
                "requests": self._requests,
                "compiles": self._compiles,
                "errors": self._errors,
                "deduped": flight["followers"],
                "inflight": flight["inflight"],
                "active_requests": self._inflight,
                "shed": self._shed,
                "timeouts": self._timeouts,
                "wait_timeouts": flight["wait_timeouts"],
                "draining": self._draining,
                "deadline_seconds": self.deadline,
                "max_inflight": self.max_inflight,
                "uptime_seconds": time.time() - self._started,
                "sessions": sessions,
            }
        if self.disk_cache is not None:
            data["disk_cache"] = asdict(self.disk_cache.info())
            data["disk_cache"]["root"] = self.disk_cache.root
        return data


class _Handler(BaseHTTPRequestHandler):
    server_version = "fuseflow-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Unbuffered, the headers and the body left as two sends, and on a
    # keep-alive connection the second waited for the client's delayed ACK
    # of the first (~40 ms).  TCP_NODELAY alone removes that wait; the
    # buffer (io.DEFAULT_BUFFER_SIZE, 8 KiB) also makes a reply that fits
    # in it one send, which measured ~10 % faster on serve_mix.  A larger
    # reply still leaves as headers, then body.
    wbufsize = -1
    disable_nagle_algorithm = True

    def handle_expect_100(self) -> bool:
        # The interim reply must leave before the body is read, not with
        # the final one.
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)

    @property
    def state(self) -> ServerState:
        return self.server.state  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            if self.state.draining:
                # Non-200 so load balancers / readiness probes stop
                # routing traffic here while in-flight work finishes.
                self._send(503, {"status": "draining"})
            else:
                self._send(200, {"status": "ok"})
        elif self.path == "/v1/stats":
            self._send(200, self.state.stats())
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        action = _POST_ACTIONS.get(self.path)
        if action is None:
            self._send(
                404,
                {
                    "error": f"unknown path {self.path!r}; POST one of "
                    f"{sorted(_POST_ACTIONS)}"
                },
            )
            return
        refusal = self.state.admit()
        if refusal is not None:
            # Shed instead of queue: a bounded, explicit 503 with a
            # retry hint beats an unbounded thread pile-up.
            self._send(
                503,
                {"error": f"server is {refusal}; retry shortly"},
                {"Retry-After": "1"},
            )
            return
        try:
            declared = (self.headers.get("Content-Length") or "").strip()
            # Digits only: int() alone would take "-1" (read(-1) blocks
            # until the client hangs up), "+5" and "1_0".
            length = (
                int(declared)
                if declared.isascii() and declared.isdigit()
                else -1
            )
            if not 0 <= length <= MAX_BODY_BYTES:
                self.state.count_error()
                # The body stays unread, so this connection cannot carry
                # another request.
                self.close_connection = True
                if length < 0:
                    code, error = 400, (
                        "Content-Length must be a non-negative integer, "
                        f"got {declared!r}"
                    )
                else:
                    code, error = 413, (
                        f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit"
                    )
                self._send(code, {"error": error}, {"Connection": "close"})
                return
            raw = self.rfile.read(length)
            try:
                request = parse_request(raw, action)
            except ServeError as exc:
                self.state.count_error()
                self._send(400, {"error": str(exc)})
                return
            try:
                payload, headers = self.state.handle(request)
            except WaitTimeout as exc:
                # The work is still running and will warm the caches;
                # only this response missed its deadline.
                self.state.count_timeout()
                self._send(504, {"error": str(exc)})
                return
            except Exception as exc:  # compile/simulate failure: 500, not a crash
                self.state.count_error()
                self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
                return
            self._send(200, payload, headers)
        finally:
            self.state.finish()

    # ------------------------------------------------------------------
    def _send(
        self,
        code: int,
        obj: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        # Before the request leaves the in-flight count, so a drain that
        # waits for it never stops the process with a reply unsent.
        self.wfile.flush()


class FuseFlowServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServerState`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        state: ServerState,
        quiet: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.state = state
        self.quiet = quiet
        self._drain_once = threading.Lock()

    def drain(self, timeout: float = 10.0) -> None:
        """Gracefully drain and stop: refuse new work, finish in-flight.

        Safe to call from a signal-handler thread and idempotent (a
        second signal while draining is a no-op; the first drain's
        timeout still bounds shutdown).  After at most ``timeout``
        seconds the listener stops even if stragglers remain — they run
        on daemon threads and die with the process.
        """
        if not self._drain_once.acquire(blocking=False):
            return
        self.state.begin_drain()
        deadline = time.monotonic() + max(0.0, timeout)
        while (
            self.state.inflight_count() > 0 and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        self.shutdown()


def make_server(
    host: str = "127.0.0.1",
    port: int = 8177,
    cache_dir: Optional[str] = None,
    quiet: bool = False,
    deadline: Optional[float] = None,
    max_inflight: Optional[int] = None,
) -> FuseFlowServer:
    """Build a ready-to-run serve front end (``port=0`` = ephemeral).

    The caller owns the lifecycle: ``server.serve_forever()`` to run,
    ``server.drain()`` (or ``server.shutdown()``) + ``server.server_close()``
    to stop.  ``deadline`` and ``max_inflight`` default to off, which is
    byte-identical to the pre-hardening server.
    """
    return FuseFlowServer(
        (host, port),
        ServerState(cache_dir, deadline=deadline, max_inflight=max_inflight),
        quiet=quiet,
    )
