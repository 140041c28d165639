"""``serve_mix``: a keep-alive HTTP mix against a ``fuseflow serve`` subprocess."""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from harness import (
    ROOT,
    TOLERANCE,
    GuardError,
    Layers,
    Sample,
    Workload,
    child_env,
    data_seed,
    make_session,
    remove_tree,
    scratch_dir,
)
from layers import cli_probe, program_classes_probe
from wl_codegen import SCHEDULES, codegen_loc

CONNECTIONS = 2
#: Requests per round (both connections together); six rounds make the 600
#: the catalogue speaks of.
ROUND_REQUESTS = 100

#: Small models: on the dominant class the compiler and simulator do almost
#: nothing, so the front end is what is measured.
KNOWN_MODELS = {
    "gcn": dict(nodes=48, density=0.1),
    "graphsage": dict(nodes=48, density=0.1),
    "sae": dict(nodes=32),
    "gpt3": dict(seq_len=16, d_model=8, block=4, n_layers=2),
}

#: Traffic shares.  disk (12 first touches) + fresh ~ 10 % of a 600-request
#: run, so p95 falls inside the slow group rather than on its edge.
SHARE_PROGRAM = 0.05
SHARE_FRESH = 0.08
SHARE_BAD = 0.02

#: (rows, features) of the six raw einsum programs sent to /v1/compile.
PROGRAM_SHAPES = ((16, 4), (24, 8), (32, 8), (32, 12), (48, 8), (48, 12))

BAD_BODIES = (
    b"{not json",
    b'{"model": "gcn", "shcedule": "partial"}',
    b'{"model": "resnet"}',
    b'{"model": "gcn", "program": "tensor A(4, 4): csr"}',
    b'{"model": "gcn", "deadline_ms": -5}',
)


@dataclass
class Planned:
    """One request of the seed-determined sequence."""

    kind: str  # known | fresh | program | bad
    path: str
    raw: bytes
    key: str  # identity for first-touch bookkeeping ('' = always first)
    first: Optional[str]  # X-Fuseflow-Cache a first touch must report
    status: int = 200


class CountingConnection(http.client.HTTPConnection):
    """A keep-alive connection that counts how often it had to connect."""

    connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


def check_persistent(connections: List[CountingConnection]) -> None:
    """Guard: every connection was opened exactly once.

    A connection per request takes 1.65 ms where a keep-alive request takes
    44 ms, because the server's two-write reply stalls only on a reused
    socket.  Reconnecting would hide the cost users of a pooled client pay.
    """
    for conn in connections:
        if conn.connects != 1:
            raise GuardError(
                f"a serve_mix connection was opened {conn.connects} times; the "
                "client must stay on persistent connections"
            )


class ServeMix(Workload):
    name = "serve_mix"
    rss_children = True
    #: The mix is 85 % one class: percentiles are over the raw samples.
    equal_classes = False
    #: A known body's first touch (the ``disk`` class) happens once.
    traced_first = True
    # Requests are not calibrated: a keep-alive request waits ~40 ms on a
    # kernel timer (the delayed ACK of the server's two-write reply), which
    # no host speed moves; scaling it would only add the kernel's noise.

    # ------------------------------------------------------------------
    # Set-up: warm directory, oracle, server, connections
    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.comal.machines import MACHINES
        from repro.sweep import SweepPoint, build_bundle

        self.dir = scratch_dir("serve")
        warm_dir = os.path.join(self.dir, "cache")
        session = make_session(
            "columnar", warm_dir, machine=MACHINES["rda"], hierarchy="flat"
        )
        models = KNOWN_MODELS
        if self.quick:
            models = {"sae": KNOWN_MODELS["sae"]}
        self.known: Dict[str, bytes] = {}
        self.oracle: Dict[str, tuple] = {}
        self.program_classes: Dict[str, tuple] = {}
        for index, (model, args) in enumerate(models.items()):
            model_args = {**args, "seed": data_seed(self.seed, index)}
            point = SweepPoint.make(model, model_args=model_args)
            bundle = build_bundle(point)
            for schedule in SCHEDULES[1:] if self.quick else SCHEDULES:
                key = f"{model}.{schedule}"
                # The *write* use of the cache, and the oracle: what the
                # server must answer for this body.
                result = session.run(
                    bundle.program, bundle.binding, bundle.schedule(schedule)
                )
                if not bundle.max_abs_err(result) < TOLERANCE:
                    raise RuntimeError(f"{key}: oracle run disagrees with reference")
                self.oracle[key] = (result.metrics.cycles, result.metrics.dram_bytes)
                self.known[key] = json.dumps(
                    {
                        "model": model,
                        "schedule": schedule,
                        "machine": "rda",
                        "hierarchy": "flat",
                        "backend": "columnar",
                        "model_args": model_args,
                    }
                ).encode()
                self.program_classes[key] = (point, bundle, bundle.schedule(schedule))
        self.programs = {
            f"prog{i}": self._program_body(i, *shape)
            for i, shape in enumerate(PROGRAM_SHAPES)
        }
        self.untouched = self.request_order(list(self.known))
        self.fresh_count = 0
        self.state: Dict[str, str] = {}
        self.lock = threading.Lock()
        self._start_server(warm_dir)

    @staticmethod
    def _program_body(index: int, n: int, f: int) -> bytes:
        text = (
            f"tensor A({n}, {n}): csr\n"
            f"tensor X({n}, {f}): dense\n"
            f"tensor W({f}, {f}): dense\n"
            "T(i, j) = A(i, k) * X(k, j)\n"
            "U(i, m) = T(i, j) * W(j, m)\n"
            "Y(i, m) = relu(U(i, m))\n"
        )
        return json.dumps(
            {
                "program": text,
                "name": f"prog{index}",
                "schedule": ("unfused", "full")[index % 2],
                "backend": "columnar",
            }
        ).encode()

    def _start_server(self, warm_dir: str) -> None:
        self.log = open(os.path.join(self.dir, "server.log"), "wb")
        self.server = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli", "serve",
                "--port", "0", "--cache-dir", warm_dir, "--quiet",
            ],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        ready, _, _ = select.select([self.server.stdout], [], [], 60.0)
        line = self.server.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.teardown()
            raise RuntimeError(f"fuseflow serve did not come up: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.connections = [
            CountingConnection("127.0.0.1", self.port, timeout=120)
            for _ in range(CONNECTIONS)
        ]

    def teardown(self) -> None:
        for conn in getattr(self, "connections", ()):
            conn.close()
        server = getattr(self, "server", None)
        if server is not None:
            if server.poll() is None:
                server.send_signal(signal.SIGTERM)
                try:
                    server.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait()
            server.stdout.close()
            self.server = None
        if getattr(self, "log", None) is not None:
            self.log.close()
            self.log = None
        remove_tree(self.dir)

    # ------------------------------------------------------------------
    # The request sequence: a pure function of the seed
    # ------------------------------------------------------------------
    def plan_round(self, index: int) -> List[Planned]:
        rng = random.Random(self.seed * 1_000_003 + index)
        count = 20 if self.quick else ROUND_REQUESTS
        plan = []
        for _ in range(count):
            draw = rng.random()
            if draw < SHARE_BAD:
                plan.append(
                    Planned("bad", "/v1/simulate", rng.choice(BAD_BODIES), "", None, 400)
                )
            elif draw < SHARE_BAD + SHARE_PROGRAM:
                name = rng.choice(sorted(self.programs))
                plan.append(
                    Planned("program", "/v1/compile", self.programs[name], name, "compiled")
                )
            elif draw < SHARE_BAD + SHARE_PROGRAM + SHARE_FRESH:
                plan.append(self._fresh())
            else:
                # Until every known body has been touched once, take the
                # next untouched one, so all twelve disk reads happen.
                key = self.untouched.pop() if self.untouched else rng.choice(sorted(self.known))
                plan.append(Planned("known", "/v1/simulate", self.known[key], key, "disk"))
        return plan

    def _fresh(self) -> Planned:
        """A simulate body whose program no request has compiled before.

        The compile cache keys on program *shape*, not data, so a new data
        seed alone would be a memory hit: every fresh body gets its own
        (nodes, hidden) pair.  Sizes stay in a narrow band so the class's
        cost does not drift as the run goes on, and model and schedule go
        round in a fixed order so every run compiles the same programs (the
        seed draws their data and where in the sequence they fall).
        """
        count = self.fresh_count
        self.fresh_count += 1
        model = ("gcn", "sae")[count % 2]
        args = {
            "nodes": 16 + count % 24,
            "hidden": 5 + count // 24,
            "seed": data_seed(self.seed, 1000 + count),
        }
        if model == "gcn":
            args["density"] = 0.1
        body = {
            "model": model,
            "schedule": SCHEDULES[count // 2 % 3],
            "backend": "columnar",
            "model_args": args,
        }
        return Planned("fresh", "/v1/simulate", json.dumps(body).encode(), "", "compiled")

    # ------------------------------------------------------------------
    # The client: closed loop, one thread per persistent connection
    # ------------------------------------------------------------------
    def send(self, conn: CountingConnection, planned: Planned, rid: str, out: list) -> None:
        with self.lock:
            seen = self.state.get(planned.key) if planned.key else None
            if planned.key and seen is None:
                self.state[planned.key] = "inflight"
        started = time.perf_counter()
        conn.request(
            "POST", planned.path, body=planned.raw,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        data = response.read()
        ended = time.perf_counter()
        if planned.key:
            with self.lock:
                self.state[planned.key] = "done"
        ms = (ended - started) * 1e3
        cache = response.getheader("X-Fuseflow-Cache")
        payload = json.loads(data)
        why = ""
        # What the cache header must say: a first touch reads the disk (or
        # compiles), a touch after a completed one is a memory hit; while
        # the other connection has the same body in flight either is right.
        allowed = {None: {planned.first}, "inflight": {planned.first, "memory"}, "done": {"memory"}}[seen]
        if response.status != planned.status:
            why = f"HTTP {response.status}, expected {planned.status}"
        elif planned.status == 200 and cache not in allowed:
            why = f"X-Fuseflow-Cache {cache!r}, expected one of {sorted(allowed)}"
        elif planned.path == "/v1/simulate" and planned.status == 200:
            if not payload.get("verified") or not payload["max_abs_err"] < TOLERANCE:
                why = "server result fails verification against the dense reference"
            elif planned.kind == "known":
                got = (payload["metrics"]["cycles"], payload["metrics"]["dram_bytes"])
                if got != self.oracle[planned.key]:
                    why = f"cycles/bytes {got} differ from the oracle {self.oracle[planned.key]}"
        cls = {"known": cache or "memory", "fresh": "compiled"}.get(planned.kind, planned.kind)
        sample = Sample(cls=cls, ok=not why, ms=ms, why=why)
        server_ms = None
        if not why and planned.status == 200:
            server_ms = payload["elapsed_ms"]
            if cache == "compiled":
                # The server's own CPU time: reported at reference speed
                # (sample.speed stays 1, the client's wait is not scaled).
                sample.compile_ms = payload["compile_seconds"] * 1e3 * self.speed
            if planned.kind == "known":
                sample.sim_cls = planned.key
                sample.cycles = payload["metrics"]["cycles"]
                sample.dram_bytes = payload["metrics"]["dram_bytes"]
        if self.tr.enabled:
            root = self.tr.add(
                "request", started, ended, rid, cls=cls, kind=planned.kind, tid=id(conn)
            )
            if server_ms is not None:
                self.tr.add(
                    "serve.server", ended - server_ms / 1e3, ended, rid, parent=root
                )
        out.append((sample, planned, cache, server_ms))

    def drive(self, index: int) -> list:
        """Send one round: each connection walks its half of the plan."""
        plan = self.plan_round(index)
        self.calibrate()
        results: List[list] = [[] for _ in self.connections]
        errors: list = []

        def walk(slot: int) -> None:
            try:
                for position in range(slot, len(plan), CONNECTIONS):
                    rid = f"{self.name}/{index}/{position}"
                    self.send(self.connections[slot], plan[position], rid, results[slot])
            except BaseException as exc:  # re-raised on the main thread below
                errors.append(exc)

        threads = [
            threading.Thread(target=walk, args=(slot,)) for slot in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        check_persistent(self.connections)
        return [item for per_conn in results for item in per_conn]

    def run_round(self, index: int) -> List[Sample]:
        return [item[0] for item in self.drive(index)]

    def traced_round(self, index: int, layers: Layers) -> List[Sample]:
        from repro.core.einsum.parser import parse_program
        from repro.serve.protocol import ServeError, parse_request

        results = self.drive(index)
        for sample, planned, cache, server_ms in results:
            action = planned.path.rsplit("/", 1)[1]
            with self.tr.span("serve.protocol.parse_request") as sp:
                try:
                    parse_request(planned.raw, action)
                except ServeError:
                    pass
            layers.add("serve.protocol.parse_ms", sample.cls, sp.ms)
            if planned.kind == "program":
                text = json.loads(planned.raw)["program"]
                with self.tr.span("core.einsum.parse_program") as sp:
                    parse_program(text, planned.key)
                layers.add("core.einsum.parse_ms", planned.key, sp.ms)
            if server_ms is None:
                continue
            layers.add("serve.transport_ms", sample.cls, sample.ms - server_ms)
            if planned.path == "/v1/simulate":
                layers.add(f"serve.request_ms.{cache}", "", sample.ms)
                layers.add(f"serve.server_ms.{cache}", "", server_ms)
            # Transport is what the client waits beyond the server's own
            # figure, so the two sum to the request by construction.
            self.note_layer_sum(sample.cls, sample.ms, 1.0)
        stats = self._stats()
        layers.set("serve.dedup.followers", stats["deduped"])
        layers.set("serve.shed", stats["shed"])
        layers.set("serve.errors", stats["errors"])
        if index == 0:
            # CPU-bound probes in this process: reported at reference speed,
            # unlike the client-side waits above.
            layers.speed = self.calibrate()
            session = make_session("columnar", False)
            program_classes_probe(
                self.tr, layers, self.program_classes, lambda cls: session
            )
            cli_probe(self.tr, layers)
            layers.speed = 1.0
        return [item[0] for item in results]

    def _stats(self) -> dict:
        conn = self.connections[0]
        conn.request("GET", "/v1/stats")
        return json.loads(conn.getresponse().read())

    def after_window(self) -> Dict[str, float]:
        """Kernel lines codegen would emit for the twelve known bodies."""
        session = make_session("codegen", False)
        total = sum(
            codegen_loc(session.compile(bundle.program, schedule))
            for _point, bundle, schedule in self.program_classes.values()
        )
        return {"codegen_loc_total": float(total)}
