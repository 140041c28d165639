"""Persistent compile cache + Session thread safety (repro.driver.diskcache).

Covers the disk cache's safety contract — atomic writes under concurrent
writer *processes*, torn/corrupt entries degrading to misses, LRU
eviction order, the who-may-write trust check — plus the cache levels
composed: cross-session and cross-process warm starts that skip the pass
pipeline, and the Session compile cache hammered from many threads (the
serve front end's access pattern).
"""

import hashlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.driver import DiskCache, Session
from repro.driver.diskcache import ENTRY_MAGIC, entry_key
from repro.models.gcn import gcn_on_synthetic


@pytest.fixture(scope="module")
def bundle():
    return gcn_on_synthetic(nodes=16, density=0.2, seed=0)


# ----------------------------------------------------------------------
# DiskCache basics
# ----------------------------------------------------------------------


class TestDiskCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("prog", "sched", "pipe")
        entry = {"compiled": [1, 2, 3], "meta": {"name": "x"}}
        assert cache.put(key, entry)
        assert cache.get(key) == entry
        info = cache.info()
        assert info.writes == 1 and info.hits == 1 and info.entries == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert cache.get(entry_key("nope")) is None
        assert cache.info().misses == 1

    def test_entry_key_is_content_addressed(self):
        assert entry_key("a", "b") == entry_key("a", "b")
        assert entry_key("a", "b") != entry_key("a", "c")

    def test_invalid_caps_raise(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            DiskCache(str(tmp_path), max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            DiskCache(str(tmp_path), max_bytes=0)

    def test_torn_entry_is_a_miss_and_removed(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        cache.put(key, {"v": "x" * 256})
        path = cache.path_for(key)
        blob = open(path, "rb").read()
        # A crash mid-write before the rename never produces this (the
        # rename is atomic), but a torn file from e.g. a copied cache
        # directory must read as a miss, not a crash.
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert not os.path.exists(path)
        info = cache.info()
        assert info.corrupt == 1 and info.misses == 1

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        cache.put(key, {"v": 1})
        path = cache.path_for(key)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert cache.get(key) is None
        assert cache.info().corrupt == 1

    def test_foreign_file_is_corrupt(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        with open(cache.path_for(key), "wb") as fh:
            fh.write(b"this is not a cache entry")
        assert cache.get(key) is None
        assert cache.info().corrupt == 1

    def test_wrong_magic_is_corrupt(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        cache.put(key, {"v": 1})
        blob = open(cache.path_for(key), "rb").read()
        with open(cache.path_for(key), "wb") as fh:
            fh.write(b"XXXX0000" + blob[len(ENTRY_MAGIC) :])
        assert cache.get(key) is None

    def test_unpicklable_entry_is_swallowed(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert not cache.put(entry_key("k"), {"fn": lambda: None})
        assert cache.info().writes == 0

    def test_eviction_drops_least_recently_used(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_entries=2)
        ka, kb, kc = entry_key("a"), entry_key("b"), entry_key("c")
        cache.put(ka, {"v": "a"})
        cache.put(kb, {"v": "b"})
        # Pin recency explicitly (mtime is the LRU clock): a is oldest.
        os.utime(cache.path_for(ka), (1000, 1000))
        os.utime(cache.path_for(kb), (2000, 2000))
        cache.put(kc, {"v": "c"})
        assert cache.get(ka) is None  # evicted as LRU
        assert cache.get(kb) == {"v": "b"}
        assert cache.get(kc) == {"v": "c"}
        assert cache.info().evictions == 1

    def test_get_refreshes_recency(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_entries=2)
        ka, kb, kc = entry_key("a"), entry_key("b"), entry_key("c")
        cache.put(ka, {"v": "a"})
        cache.put(kb, {"v": "b"})
        os.utime(cache.path_for(ka), (1000, 1000))
        os.utime(cache.path_for(kb), (2000, 2000))
        # Touch a: the hit refreshes its mtime, so b becomes the LRU.
        assert cache.get(ka) is not None
        cache.put(kc, {"v": "c"})
        assert cache.get(kb) is None
        assert cache.get(ka) is not None

    def test_byte_cap_eviction(self, tmp_path):
        cache = DiskCache(str(tmp_path), max_bytes=2048)
        for i in range(8):
            cache.put(entry_key(str(i)), {"pad": "x" * 512})
        info = cache.info()
        assert info.total_bytes <= 2048
        assert info.evictions > 0

    def test_clear_removes_everything(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        for i in range(3):
            cache.put(entry_key(str(i)), {"i": i})
        assert cache.clear() == 3
        assert cache.info().entries == 0

    # Builds that generated code left marshalled kernels beside the
    # entries; nothing reads them, and no cap counted them.
    @staticmethod
    def _plant_stale_kernel(root):
        stale = root / ("ab" * 32 + ".ffk")
        stale.write_bytes(b"FFKC0001" + b"\0" * 64)
        return stale

    def test_clear_removes_stale_kernel_files(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.put(entry_key("k"), {"v": 1})
        self._plant_stale_kernel(tmp_path)
        assert cache.clear() == 1  # entries; the stale kernel goes uncounted
        assert os.listdir(str(tmp_path)) == []

    def test_eviction_removes_stale_kernel_files(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        stale = self._plant_stale_kernel(tmp_path)
        cache.put(entry_key("k"), {"v": 1})
        assert not stale.exists()
        assert cache.get(entry_key("k")) == {"v": 1}
        assert cache.info().evictions == 0

    def test_previous_format_entry_reads_as_a_miss(self, tmp_path):
        # RegionDiagnostics gained a field, so the magic moved on: a file
        # an older build wrote must not be unpickled into the new classes.
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        payload = pickle.dumps({"v": 1})
        with open(cache.path_for(key), "wb") as fh:
            fh.write(b"FFDC0001" + hashlib.sha256(payload).digest() + payload)
        assert ENTRY_MAGIC != b"FFDC0001"
        assert cache.get(key) is None
        assert cache.info().corrupt == 1


# ----------------------------------------------------------------------
# Who may write the directory: nothing another user could have written
# is unpickled
# ----------------------------------------------------------------------


class _Boom:
    """Unpickling this raises: proof a refused entry was never decoded."""

    def __reduce__(self):
        return (_boom, ())


def _boom():
    raise AssertionError("an untrusted cache file was decoded")


@pytest.mark.skipif(not hasattr(os, "geteuid"), reason="no uid/mode notion")
class TestTrustBoundary:
    def test_world_writable_entry_is_refused_undecoded(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = entry_key("k")
        payload = pickle.dumps({"bomb": _Boom()})
        path = cache.path_for(key)
        with open(path, "wb") as fh:
            fh.write(ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload)
        os.chmod(path, 0o666)
        assert cache.get(key) is None
        assert os.path.exists(path)  # left alone, not "cleaned up"
        info = cache.info()
        assert (info.rejected, info.corrupt, info.misses) == (1, 0, 1)
        # Same bytes, ours alone to write: decoded (and, being a bomb,
        # dropped as corrupt) — the mode is what kept it shut.
        os.chmod(path, 0o600)
        assert cache.get(key) is None
        assert cache.info().corrupt == 1

    def test_entries_and_kernels_are_written_private(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.put(entry_key("e"), {"v": 1})
        assert os.stat(cache.path_for(entry_key("e"))).st_mode & 0o777 == 0o600

    def test_session_recompiles_past_refused_files(self, tmp_path):
        bundle = gcn_on_synthetic(nodes=16, density=0.2, seed=0)
        schedule = bundle.schedule("partial")
        Session(backend="codegen", disk_cache=str(tmp_path)).compile(
            bundle.program, schedule
        )
        (name,) = os.listdir(str(tmp_path))
        path = os.path.join(str(tmp_path), name)
        os.chmod(path, 0o666)
        session = Session(backend="codegen", disk_cache=str(tmp_path))
        exe, source = session.compile_detailed(bundle.program, schedule)
        assert source == "compiled"
        assert session.cache_info().disk_rejected == 1
        assert "rejected" in str(session.cache_info())
        assert bundle.max_abs_err(exe(bundle.binding)) < 1e-9
        # The recompile replaced the refused file with a private one.
        assert os.stat(path).st_mode & 0o777 == 0o600
        _, source = Session(
            backend="codegen", disk_cache=str(tmp_path)
        ).compile_detailed(bundle.program, schedule)
        assert source == "disk"


# ----------------------------------------------------------------------
# Concurrent writer processes
# ----------------------------------------------------------------------


def _hammer_cache(root: str, seed: int, iters: int) -> None:
    cache = DiskCache(root)
    for i in range(iters):
        key = entry_key("shared", str(i % 5))
        cache.put(key, {"writer": seed, "i": i, "pad": "x" * 512})
        entry = cache.get(key)
        # A concurrent writer may have replaced the entry, but a reader
        # must only ever observe a whole one (or a miss), never garbage.
        assert entry is None or (
            isinstance(entry, dict) and len(entry["pad"]) == 512
        )


class TestConcurrentWriters:
    def test_two_processes_never_corrupt_entries(self, tmp_path):
        root = str(tmp_path)
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_cache, args=(root, seed, 200))
            for seed in (1, 2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        # Every surviving entry decodes cleanly; no torn files, no strays.
        cache = DiskCache(root)
        for i in range(5):
            entry = cache.get(entry_key("shared", str(i)))
            assert isinstance(entry, dict) and entry["writer"] in (1, 2)
        assert cache.info().corrupt == 0
        leftovers = [n for n in os.listdir(root) if n.startswith(".tmp-")]
        assert leftovers == []


# ----------------------------------------------------------------------
# The two cache levels composed: Session + DiskCache
# ----------------------------------------------------------------------


def _compile_in_child(cache_dir: str, queue) -> None:
    bundle = gcn_on_synthetic(nodes=16, density=0.2, seed=0)
    session = Session(disk_cache=cache_dir)
    exe, source = session.compile_detailed(
        bundle.program, bundle.schedule("partial")
    )
    result = exe(bundle.binding)
    queue.put(
        {
            "source": source,
            "cycles": result.metrics.cycles,
            "err": bundle.max_abs_err(result),
        }
    )


class TestSessionDiskCache:
    def test_cross_session_warm_start_is_bit_exact(self, bundle, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = Session(disk_cache=cache_dir)
        exe1, source1 = cold.compile_detailed(
            bundle.program, bundle.schedule("partial")
        )
        assert source1 == "compiled"
        assert cold.cache_info().disk_misses == 1
        result1 = exe1(bundle.binding)

        warm = Session(disk_cache=cache_dir)  # fresh in-memory cache
        exe2, source2 = warm.compile_detailed(
            bundle.program, bundle.schedule("partial")
        )
        assert source2 == "disk"
        assert warm.cache_info().disk_hits == 1
        result2 = exe2(bundle.binding)
        assert result2.metrics.cycles == result1.metrics.cycles
        for name, tensor in result1.tensors.items():
            assert np.array_equal(
                tensor.to_dense(), result2.tensors[name].to_dense()
            ), name

    def test_cross_process_warm_start(self, bundle, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        # Child one: cold cache, compiles and writes the entry.
        p = ctx.Process(target=_compile_in_child, args=(cache_dir, queue))
        p.start()
        first = queue.get(timeout=120)
        p.join(timeout=120)
        assert p.exitcode == 0 and first["source"] == "compiled"
        # Child two: a genuinely cold *process* served from disk.
        p = ctx.Process(target=_compile_in_child, args=(cache_dir, queue))
        p.start()
        second = queue.get(timeout=120)
        p.join(timeout=120)
        assert p.exitcode == 0 and second["source"] == "disk"
        assert second["cycles"] == first["cycles"]
        assert second["err"] < 1e-6

    def test_memory_hit_shadows_disk(self, bundle, tmp_path):
        session = Session(disk_cache=str(tmp_path / "cache"))
        schedule = bundle.schedule("unfused")
        _, first = session.compile_detailed(bundle.program, schedule)
        _, second = session.compile_detailed(bundle.program, schedule)
        assert (first, second) == ("compiled", "memory")
        info = session.cache_info()
        assert (info.disk_hits, info.disk_misses) == (0, 1)
        assert "disk 0/1" in str(info)

    def test_environment_names_no_disk_cache(self, tmp_path, monkeypatch):
        # ``disk_cache=`` / ``cache_dir=`` is the one way to name a cache
        # directory: no environment variable names one.
        from repro.serve.app import ServerState

        monkeypatch.setenv("FUSEFLOW_CACHE_DIR", str(tmp_path / "envcache"))
        assert Session().disk_cache is None
        assert ServerState().disk_cache is None
        assert not (tmp_path / "envcache").exists()
        named = Session(disk_cache=str(tmp_path / "named")).disk_cache
        assert named.root == os.path.abspath(tmp_path / "named")

    @pytest.mark.parametrize(
        "entry",
        [
            {"compiled": None, "diagnostics": None},
            {"diagnostics": "x"},
            {"compiled": [1, 2, 3], "meta": {}},
            {},
        ],
        ids=["wrong-types", "no-compiled", "no-diagnostics", "empty"],
    )
    def test_malformed_entry_is_a_corrupt_miss(self, bundle, tmp_path, entry):
        # A digest vouches for the bytes, not for what they hold: a dict
        # that is not a compile entry must recompile, not raise.
        session = Session(disk_cache=str(tmp_path))
        schedule = bundle.schedule("partial")
        dkey = session._disk_key(session.cache_key(bundle.program, schedule))
        assert session.disk_cache.put(dkey, entry)
        exe, source = session.compile_detailed(bundle.program, schedule)
        assert source == "compiled"
        assert bundle.max_abs_err(exe(bundle.binding)) < 1e-9
        info = session.disk_cache.info()
        assert (info.corrupt, info.hits, info.entries) == (1, 0, 1)
        assert session.cache_info().disk_misses == 1
        # ...and the entry was rewritten whole.
        _, source = Session(disk_cache=str(tmp_path)).compile_detailed(
            bundle.program, schedule
        )
        assert source == "disk"

    def test_hierarchy_partitions_disk_entries(self, bundle, tmp_path):
        # Two sessions over one directory but different hierarchies must
        # not serve each other's entries (the timed engine differs).
        cache_dir = str(tmp_path / "cache")
        flat = Session(disk_cache=cache_dir)
        flat.compile(bundle.program, bundle.schedule("partial"))
        sram = Session(disk_cache=cache_dir, hierarchy="fpga-small")
        _, source = sram.compile_detailed(
            bundle.program, bundle.schedule("partial")
        )
        assert source == "compiled"


# ----------------------------------------------------------------------
# The restart, on purpose: a fresh interpreter over a warm directory is
# served every compile from disk, and no process ever calls compile() on
# generated source
# ----------------------------------------------------------------------

_RESTART_SCRIPT = r"""
import builtins, json, sys

compiled = []
real_compile = builtins.compile

def counting(source, filename, *args, **kwargs):
    if str(filename).startswith("<fuseflow-codegen "):
        compiled.append(filename)
    return real_compile(source, filename, *args, **kwargs)

builtins.compile = counting

from repro.driver import Session
from repro.sweep import SweepPoint, build_bundle

cache_dir, classes = sys.argv[1], json.loads(sys.argv[2])
session = Session(backend="codegen", disk_cache=cache_dir)
rows = []
for model, args, granularity in classes:
    bundle = build_bundle(SweepPoint.make(model, model_args=args))
    exe, source = session.compile_detailed(
        bundle.program, bundle.schedule(granularity)
    )
    rows.append({
        "source": source,
        "err": bundle.max_abs_err(exe(bundle.binding)),
        "loc": sum(r.codegen_loc for r in exe.diagnostics.regions),
    })
print(json.dumps({
    "rows": rows,
    "compile_calls": len(compiled),
    "disk": str(session.cache_info()),
}))
"""

#: Small stand-ins for the bench's classes: every model, the three
#: granularities, blocked (gpt3) and sub-cutoff (sae) regions included.
_RESTART_CLASSES = [
    (model, args, granularity)
    for model, args in (
        ("gcn", {"nodes": 24, "density": 0.1, "seed": 0}),
        ("graphsage", {"nodes": 24, "density": 0.1, "seed": 0}),
        ("sae", {"nodes": 16, "seed": 0}),
        ("gpt3", {"seq_len": 16, "d_model": 8, "block": 4, "n_layers": 2,
                  "seed": 0}),
    )
    for granularity in ("unfused", "partial", "full")
]


def _fresh_process(cache_dir, classes):
    env = {
        k: v for k, v in os.environ.items() if not k.startswith("FUSEFLOW_")
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _RESTART_SCRIPT, cache_dir, json.dumps(classes)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestRestart:
    def test_fresh_process_never_compiles_a_kernel(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = _fresh_process(cache_dir, _RESTART_CLASSES)
        assert {row["source"] for row in cold["rows"]} == {"compiled"}
        names = os.listdir(cache_dir)
        assert len(names) == len(_RESTART_CLASSES)
        assert all(name.endswith(".ffc") for name in names)

        warm = _fresh_process(cache_dir, _RESTART_CLASSES)
        for process in (cold, warm):
            assert process["compile_calls"] == 0
            assert {row["loc"] for row in process["rows"]} == {0}
        assert f"disk {len(_RESTART_CLASSES)}/{len(_RESTART_CLASSES)}" in (
            warm["disk"]
        )
        for row, cold_row in zip(warm["rows"], cold["rows"]):
            assert row["source"] == "disk"
            assert row["err"] < 1e-9 and row["err"] == cold_row["err"]


def _compile_gpt3_into(cache_dir: str, barrier, queue) -> None:
    from repro.sweep import SweepPoint, build_bundle

    bundle = build_bundle(
        SweepPoint.make(
            "gpt3",
            model_args={"seq_len": 16, "d_model": 8, "block": 4,
                        "n_layers": 2, "seed": 0},
        )
    )
    session = Session(backend="codegen", disk_cache=cache_dir)
    barrier.wait(timeout=120)
    exe = session.compile(bundle.program, bundle.schedule("unfused"))
    result = exe(bundle.binding)
    queue.put(
        {
            "err": bundle.max_abs_err(result),
            "cycles": result.metrics.cycles,
        }
    )


class TestConcurrentKernelWriters:
    def test_two_processes_fill_one_empty_directory(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        barrier, queue = ctx.Barrier(2), ctx.Queue()
        procs = [
            ctx.Process(
                target=_compile_gpt3_into, args=(cache_dir, barrier, queue)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        reports = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert reports[0] == reports[1] and reports[0]["err"] < 1e-9
        # One whole entry, whoever won the rename; no strays.
        (name,) = os.listdir(cache_dir)
        assert name.endswith(".ffc")
        cache = DiskCache(cache_dir)
        assert cache.get(name[: -len(".ffc")]) is not None
        assert cache.info().corrupt == 0


# ----------------------------------------------------------------------
# Session compile cache under threads (the serve access pattern)
# ----------------------------------------------------------------------


class TestSessionThreadSafety:
    def test_threaded_compile_hammer(self, bundle):
        session = Session(cache_size=8)
        schedules = [
            bundle.schedule(g) for g in ("unfused", "partial", "full")
        ]
        n_threads, iters = 8, 24
        barrier = threading.Barrier(n_threads)
        errors = []
        seen = [dict() for _ in range(n_threads)]

        def worker(tid: int) -> None:
            barrier.wait()
            for i in range(iters):
                schedule = schedules[(tid + i) % len(schedules)]
                try:
                    exe = session.compile(bundle.program, schedule)
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)
                    return
                seen[tid].setdefault(schedule.name, set()).add(id(exe))

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert errors == []
        # Every thread observed the *same* executable per schedule: the
        # post-compile re-check keeps the cache single-valued even when
        # several threads compiled the same key simultaneously.
        merged: dict = {}
        for per_thread in seen:
            for name, ids in per_thread.items():
                merged.setdefault(name, set()).update(ids)
        assert all(len(ids) == 1 for ids in merged.values()), merged
        # Counters never tear: every call is exactly one hit or miss.
        info = session.cache_info()
        assert info.hits + info.misses == n_threads * iters
        assert info.entries == len(schedules)
