"""The native library's loader, cache and C-boundary safety.

Bit-identity with the numpy kernel and the reference loop is proved in
``test_objective_kernels.py``, and the JSON scanner's agreement with
``json.loads`` in ``test_serialize_loads.py``; this file covers what
surrounds them: every way the loader can fail falls back to the numpy
kernel and ``json.loads`` with identical answers and one warning, the
build cache is safe to share, and nothing unchecked or unowned reaches C.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import logging
import os
import pickle
import shutil
import stat
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core import native
from repro.core.greedy import UC, lazy_greedy, main_algorithm
from repro.core.instance import IncidenceCSR, PARInstance
from repro.core.objective import CoverageState
from repro.core.parallel import SharedInstance
from repro.core.serialize import loads
from repro.sparsify.threshold import threshold_sparsify
from tests.conftest import random_instance
from tests.oracles.coverage import ReferenceCoverageState

SRC = Path(__file__).resolve().parents[2] / "src"

HAS_CFFI = importlib.util.find_spec("cffi") is not None

needs_kernel = pytest.mark.skipif(
    native.kernel() is None, reason="the compiled kernel cannot load here"
)
needs_toolchain = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="no gcc to build the kernel with"
)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader as a new process sees it, caching into an empty dir."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(native, "_loaded", native._UNSET)
    monkeypatch.setattr(native, "_cache_dir", lambda: cache)
    return cache


BODY = json.dumps(
    {"a": [1.5, -2.5e-3], "b": [[0.1, 0.2], [3]], "c": float("nan"), "d": "[4.5]"}
).encode()


def _falls_back(caplog, scanner: bool = False) -> str:
    """Two kernel states run on numpy with the reference's answers,
    ``loads`` parses as ``json.loads`` does (natively only if ``scanner``),
    and the loader warned exactly once; returns the warning."""
    inst = random_instance(3, n_photos=20, n_subsets=5)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        states = [CoverageState(inst), CoverageState(inst)]
        assert (native.scan_json(BODY) is not None) == scanner
        assert repr(loads(BODY)) == repr(json.loads(BODY.decode()))
    warnings = [r for r in caplog.records if r.name == native.__name__]
    assert len(warnings) == 1
    assert all(s._native is None for s in states)
    run = lazy_greedy(inst, UC, state=states[0])
    oracle = lazy_greedy(inst, UC, state=ReferenceCoverageState(inst))
    assert (run.selection, run.value, run.picks) == (
        oracle.selection, oracle.value, oracle.picks,
    )
    return warnings[0].getMessage()


class TestLoaderFallback:
    @pytest.mark.skipif(not HAS_CFFI, reason="needs cffi")
    @needs_toolchain
    def test_compiled_kernel_loads_when_cffi_and_gcc_are_present(self):
        assert native.kernel() is not None
        assert CoverageState(random_instance(0))._native is not None

    def test_cffi_not_importable(self, fresh_loader, monkeypatch, caplog):
        monkeypatch.setitem(sys.modules, "cffi", None)
        monkeypatch.setitem(sys.modules, "_cffi_backend", None)
        assert "cffi" in _falls_back(caplog)

    def test_gcc_missing(self, fresh_loader, monkeypatch, tmp_path, caplog):
        pytest.importorskip("cffi")
        monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
        assert "gcc" in _falls_back(caplog)

    def test_cache_not_writable(self, fresh_loader, monkeypatch, tmp_path, caplog):
        pytest.importorskip("cffi")
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setattr(native, "_cache_dir", lambda: blocker / "cache")
        assert "not writable" in _falls_back(caplog)

    @needs_toolchain
    def test_no_blas_ddot(self, fresh_loader, monkeypatch, caplog):
        pytest.importorskip("cffi")
        monkeypatch.setattr(native, "_blas_candidates", lambda: [])
        assert "no BLAS ddot" in _falls_back(caplog, scanner=True)

    @needs_toolchain
    def test_ddot_self_check_fails(self, fresh_loader, monkeypatch, caplog):
        pytest.importorskip("cffi")
        # A sequential sum is what a hand-written C loop would compute.
        monkeypatch.setattr(
            native, "_numpy_dot", lambda a, b: float(sum(x * y for x, y in zip(a, b)))
        )
        assert "disagrees with np.dot" in _falls_back(caplog, scanner=True)

    @needs_toolchain
    def test_cache_not_owned_by_this_user(self, fresh_loader, monkeypatch, caplog):
        pytest.importorskip("cffi")
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        assert "not by this user" in _falls_back(caplog)

    @needs_toolchain
    @pytest.mark.skipif(os.getuid() != 0, reason="chown needs root")
    def test_library_not_owned_by_this_user(self, fresh_loader, monkeypatch, caplog):
        pytest.importorskip("cffi")
        assert native.kernel() is not None  # builds into the fresh cache
        (library,) = fresh_loader.glob("*.so")
        os.chown(library, 65534, 65534)
        monkeypatch.setattr(native, "_loaded", native._UNSET)
        assert "not by this user" in _falls_back(caplog)


class TestBuildCache:
    @needs_toolchain
    def test_one_library_serves_the_kernel_and_the_scanner(self, fresh_loader):
        pytest.importorskip("cffi")
        assert native.kernel().lib is native.library().lib
        assert native.scan_json(BODY) is not None
        (library,) = fresh_loader.glob("*.so")
        assert library.name.startswith("native-")

    @needs_toolchain
    def test_cache_key_covers_both_sources(self, fresh_loader, monkeypatch, tmp_path):
        pytest.importorskip("cffi")
        assert native.library() is not None
        sources = native._SOURCES
        for k, source in enumerate(sources):
            edited = tmp_path / source.name
            edited.write_text(source.read_text() + "\n/* edited */\n")
            monkeypatch.setattr(
                native, "_SOURCES", (*sources[:k], edited, *sources[k + 1 :])
            )
            monkeypatch.setattr(native, "_loaded", native._UNSET)
            assert native.library() is not None
            assert len(list(fresh_loader.glob("*.so"))) == k + 2

    @needs_toolchain
    def test_fresh_cache_is_private_and_holds_only_finished_files(self, fresh_loader):
        pytest.importorskip("cffi")
        assert native.kernel() is not None
        assert stat.S_IMODE(os.stat(fresh_loader).st_mode) == 0o700
        names = sorted(os.listdir(fresh_loader))
        assert len(names) == 2 and not any(n.startswith(".build-") for n in names)

    @needs_toolchain
    def test_concurrent_builds_both_load_a_complete_library(self, tmp_path):
        pytest.importorskip("cffi")
        cache, go = tmp_path / "cache", tmp_path / "go"
        script = (
            "import sys, time, pathlib\n"
            "from repro.core import native\n"
            "ready, go, cache = (pathlib.Path(a) for a in sys.argv[1:])\n"
            "ready.touch()\n"
            "while not go.exists():\n"
            "    time.sleep(0.002)\n"
            "native._load(cache)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        ready = [tmp_path / f"ready{i}" for i in range(2)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(r), str(go), str(cache)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for r in ready
        ]
        try:
            deadline = time.monotonic() + 120
            while not all(r.exists() for r in ready):
                assert time.monotonic() < deadline, "builders never started"
                time.sleep(0.01)
            go.touch()
            outcomes = [p.communicate(timeout=120) for p in procs]
        finally:
            for p in procs:
                p.kill()
        for p, (_, err) in zip(procs, outcomes):
            assert p.returncode == 0, err
        names = sorted(os.listdir(cache))
        assert len(names) == 2 and not any(n.startswith(".build-") for n in names)


def _broken(inst: PARInstance, **arrays) -> PARInstance:
    """``inst`` over a copy of its incidence with ``arrays`` replaced."""
    inc = inst.incidence
    parts = {
        name: getattr(inc, name).copy()
        for name in (
            "subset_offsets", "photo_member_indptr", "member_entry_indptr",
            "entry_indptr", "slots", "sims", "slot_wrel",
        )
    }
    parts.update(arrays)
    return PARInstance.from_photos(
        inst.photos, inst.subsets, inst.budget, inst.retained,
        incidence=IncidenceCSR(**parts),
    )


class TestBoundary:
    @needs_kernel
    def test_layout_is_checked_once_per_incidence(self, monkeypatch):
        inst = random_instance(1, n_photos=16, n_subsets=4)
        calls = []
        check = native._check_layout
        monkeypatch.setattr(
            native, "_check_layout", lambda *a: calls.append(1) or check(*a)
        )
        state = CoverageState(inst, [0])
        state.copy()
        CoverageState(inst.with_budget(inst.budget * 0.5))
        assert len(calls) == 1

    def test_solved_instance_still_pickles(self):
        # The cached layout holds C pointers; pickling leaves it behind.
        inst = random_instance(5, n_photos=16, n_subsets=4)
        want = main_algorithm(inst)
        back = pickle.loads(pickle.dumps(inst))
        assert back.incidence._native is None
        run = main_algorithm(back)
        assert (run.selection, run.value) == (want.selection, want.value)

    @needs_kernel
    @pytest.mark.parametrize(
        "case",
        [
            "slot_too_big",
            "slot_negative",
            "indptr_decreasing",
            "indptr_short",
            "slot_wrel_short",
        ],
    )
    def test_broken_invariant_raises_index_error_before_c(self, case):
        inst, _ = threshold_sparsify(random_instance(2, n_photos=16, n_subsets=4), 0.3)
        inc = inst.incidence
        slots = inc.slots.copy()
        me = inc.member_entry_indptr.copy()
        pm = inc.photo_member_indptr.copy()
        if case == "slot_too_big":
            slots[-1] = inc.total_slots
            bad = _broken(inst, slots=slots)
        elif case == "slot_negative":
            slots[0] = -1
            bad = _broken(inst, slots=slots)
        elif case == "indptr_decreasing":
            me[1] = me[2] + 1
            bad = _broken(inst, member_entry_indptr=me)
        elif case == "slot_wrel_short":
            # One weight per slot: a short array would read past its end.
            bad = _broken(inst, slot_wrel=inc.slot_wrel[:-1].copy())
        else:
            pm[-1] -= 1
            bad = _broken(inst, photo_member_indptr=pm)
        with pytest.raises(IndexError):
            CoverageState(bad)

    def test_out_of_range_slot_raises_like_numpy_indexing(self, monkeypatch):
        inst, _ = threshold_sparsify(random_instance(2, n_photos=16, n_subsets=4), 0.3)
        slots = inst.incidence.slots.copy()
        slots[-1] = inst.incidence.total_slots
        bad = _broken(inst, slots=slots)
        # The photo whose entry range holds the broken last entry.
        last = int(np.searchsorted(inst.incidence.entry_indptr, slots.size - 1, "right"))
        last -= 1
        with monkeypatch.context() as patch:
            patch.setattr(native, "bind", lambda inc, best: None)
            with pytest.raises(IndexError) as numpy_error:
                CoverageState(bad).gain(last)
        if native.kernel() is not None:
            with pytest.raises(IndexError) as native_error:
                CoverageState(bad)
            assert str(numpy_error.value) in str(native_error.value)

    @needs_kernel
    def test_handle_holds_every_array_it_points_into(self):
        # A shared-memory view instance: its arrays are windows on the
        # segment's mapping, which lives while any of them does.
        inst, _ = threshold_sparsify(random_instance(4, n_photos=20, n_subsets=5), 0.3)
        with SharedInstance(inst) as shared:
            view = shared.materialize()
            state = CoverageState(view, [1])
            handle = state._native
            inc = view.incidence
            arrays = [
                inc.photo_member_indptr, inc.member_entry_indptr,
                inc.slots, inc.sims, inc.slot_wrel, state._best_flat,
            ]
            refs = [weakref.ref(a) for a in arrays]
            expected = [state.gain(p) for p in range(view.n)]
            del state, view, inc, arrays
            gc.collect()
            assert all(r() is not None for r in refs)
            assert [handle.gain(p, 1.0) for p in range(inst.n)] == expected
            del handle
            gc.collect()
            assert all(r() is None for r in refs)

    def test_concurrent_solves_match_serial_answers(self):
        # More threads than cores, each solving its own instance, with a
        # short switch interval so the GIL changes hands mid-pass; every
        # answer must equal the serial one.
        instances = [
            threshold_sparsify(random_instance(s, n_photos=60, n_subsets=8), 0.2)[0]
            for s in (10, 11, 12, 13)
        ]
        serial = [main_algorithm(inst) for inst in instances]
        barrier = threading.Barrier(len(instances))
        results = [[] for _ in instances]

        def solve(i):
            barrier.wait(timeout=60)
            for _ in range(3):
                results[i].append(main_algorithm(instances[i]))

        threads = [
            threading.Thread(target=solve, args=(i,)) for i in range(len(instances))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, runs in zip(serial, results):
            assert len(runs) == 3
            for run in runs:
                assert (run.selection, run.value, run.picks) == (
                    want.selection, want.value, want.picks,
                )
