"""Native coverage kernel: ``CoverageState.gain``/``add`` compiled to C.

:class:`~repro.core.objective.CoverageState` with ``backend="kernel"``
runs its per-evaluation work here whenever this module can serve it, and
on its numpy kernel otherwise.  The C source (``native_coverage.c``) is
compiled once per machine with the system ``gcc`` into a per-user cache
and loaded through cffi's out-of-line ABI mode, lazily, on the first
kernel-backed state — ``import repro`` never pays for it.

Answers are bit-identical to the numpy kernel.  Its masked dot products
are numpy's ``a @ b``, which calls the ``cblas_ddot`` of the BLAS numpy
links; a hand-written loop would sum in a different order, so the C
kernel borrows that very function, found among the shared objects the
process has mapped, and checks it bitwise against ``np.dot`` before use.

The loader falls back to the numpy kernel, with one logged warning per
process, when cffi is missing, ``gcc`` is missing or fails, the cache
cannot be written, no BLAS ddot is found, or the ddot self-check fails.
Cache rules: the directory is created with mode 0700, builds go to a
temporary file that is ``os.replace``-d into place (concurrent builders
never expose a partial library), and a file the current user does not
own is never loaded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import logging
import os
import random
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.core.instance import IncidenceCSR

__all__ = ["NativeCoverage", "bind", "kernel"]

_log = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("native_coverage.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# cblas_ddot spellings, most specific first; a ``64_`` suffix marks the
# ILP64 (int64 lengths and strides) interface.
_DDOT_SYMBOLS = ("scipy_cblas_ddot64_", "cblas_ddot64_", "scipy_cblas_ddot", "cblas_ddot")
_SELF_CHECK_LENGTHS = range(1, 258)


class KernelUnavailable(RuntimeError):
    """The native kernel cannot be used in this process (reason attached)."""


class _Kernel:
    """The loaded library plus the borrowed ddot it calls."""

    __slots__ = ("ffi", "lib", "ddot", "ilp64", "_blas")

    def __init__(self, ffi, lib, blas, symbol: str) -> None:
        self.ffi = ffi
        self.lib = lib
        self._blas = blas  # keeps the BLAS handle open
        self.ddot = ffi.cast("void *", getattr(blas, symbol))
        self.ilp64 = symbol.endswith("64_")


_UNSET = object()
_loaded: object = _UNSET
_load_lock = threading.Lock()


def kernel() -> Optional[_Kernel]:
    """The process-wide native kernel, or ``None`` when it is unavailable.

    The first call builds or loads the library and runs the self-check;
    a failure is logged once and remembered, so every later state goes
    straight to the numpy kernel.
    """
    global _loaded
    if _loaded is _UNSET:
        with _load_lock:
            if _loaded is _UNSET:
                try:
                    _loaded = _load(_cache_dir())
                except KernelUnavailable as exc:
                    _log.warning(
                        "native coverage kernel unavailable (%s); "
                        "using the numpy kernel", exc,
                    )
                    _loaded = None
    return _loaded  # type: ignore[return-value]


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    try:
        base = Path(root) if root else Path.home() / ".cache"
    except RuntimeError as exc:  # no home directory
        raise KernelUnavailable(f"no cache directory: {exc}") from None
    return base / "phocus"


def _load(cache_dir: Path) -> _Kernel:
    ffi, lib = _load_library(cache_dir)
    blas, symbol = _find_ddot(ffi)
    loaded = _Kernel(ffi, lib, blas, symbol)
    _self_check(loaded, symbol)
    return loaded


# ---------------------------------------------------------------- build


def _cdef(source: str) -> str:
    """The C declarations cffi needs: the source's marked header block
    plus every ddot spelling the loader may look up."""
    header = source.split("/* cdef-begin */", 1)[1].split("/* cdef-end */", 1)[0]
    for name in _DDOT_SYMBOLS:
        n = "int64_t" if name.endswith("64_") else "int"
        header += f"double {name}({n}, const double *, {n}, const double *, {n});\n"
    return header


def _load_library(cache_dir: Path):
    try:
        import _cffi_backend
    except ImportError as exc:
        raise KernelUnavailable(f"cffi is not importable: {exc}") from None
    source = _SOURCE.read_text()
    cdef = _cdef(source)
    key = hashlib.sha256(
        "\0".join((source, cdef, " ".join(_CFLAGS), _cffi_backend.__version__)).encode()
    ).hexdigest()[:16]
    so_path = cache_dir / f"coverage-{key}.so"
    ffi_path = cache_dir / f"coverage-{key}_ffi.py"
    _prepare_cache(cache_dir)
    if not (so_path.exists() and ffi_path.exists()):
        _build(cache_dir, cdef, so_path, ffi_path)
    for path in (so_path, ffi_path):
        _check_owner(path)
    spec = importlib.util.spec_from_file_location("_phocus_coverage_ffi", ffi_path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        return module.ffi, module.ffi.dlopen(str(so_path))
    except (OSError, ImportError, SyntaxError) as exc:
        raise KernelUnavailable(f"cannot load {so_path}: {exc}") from None


def _prepare_cache(cache_dir: Path) -> None:
    try:
        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        _check_owner(cache_dir)
        if os.stat(cache_dir).st_mode & 0o077:
            os.chmod(cache_dir, 0o700)
    except OSError as exc:
        raise KernelUnavailable(f"cache {cache_dir} is not writable: {exc}") from None


def _check_owner(path: Path) -> None:
    try:
        owner = os.stat(path).st_uid
    except OSError as exc:
        raise KernelUnavailable(f"cannot stat {path}: {exc}") from None
    if owner != os.getuid():
        raise KernelUnavailable(f"{path} is owned by uid {owner}, not by this user")


def _build(cache_dir: Path, cdef: str, so_path: Path, ffi_path: Path) -> None:
    try:
        import cffi
        from cffi.recompiler import make_py_source
    except ImportError as exc:
        raise KernelUnavailable(f"cffi is not importable: {exc}") from None
    gcc = shutil.which("gcc")
    if gcc is None:
        raise KernelUnavailable("gcc not found on PATH")
    temps: List[str] = []
    try:
        for suffix in (".so", ".py"):
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".build-", suffix=suffix)
            os.close(fd)
            temps.append(tmp)
        tmp_so, tmp_py = temps
        done = subprocess.run(
            [gcc, *_CFLAGS, "-o", tmp_so, str(_SOURCE)],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise KernelUnavailable(f"gcc failed: {done.stderr.strip()[-500:]}")
        builder = cffi.FFI()
        builder.cdef(cdef)
        make_py_source(builder, "_phocus_coverage_ffi", tmp_py)  # quiet
        # The library first: a reader that finds the ffi module also
        # finds a complete library beside it.
        os.replace(tmp_so, so_path)
        os.replace(tmp_py, ffi_path)
    except OSError as exc:
        raise KernelUnavailable(f"cannot build into {cache_dir}: {exc}") from None
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


# ----------------------------------------------------------- borrowed ddot


def _blas_candidates() -> List[str]:
    """Mapped shared objects that look like a BLAS, numpy's own first."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "/" in line}
    except OSError:
        return []
    libs = [p for p in paths if "blas" in os.path.basename(p).lower() and ".so" in p]
    package = os.path.dirname(os.path.realpath(np.__file__))
    numpy_dirs = (package + ".libs" + os.sep, package + os.sep)
    return sorted(libs, key=lambda p: (not p.startswith(numpy_dirs), p))


def _find_ddot(ffi) -> Tuple[object, str]:
    for path in _blas_candidates():
        try:
            blas = ffi.dlopen(path)
        except OSError:
            continue
        for symbol in _DDOT_SYMBOLS:
            try:
                getattr(blas, symbol)
            except AttributeError:
                continue
            return blas, symbol
    raise KernelUnavailable("no BLAS ddot found among the mapped libraries")


def _numpy_dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


def _self_check(loaded: _Kernel, symbol: str) -> None:
    """Compare the borrowed ddot bitwise with ``np.dot`` on lengths 1–257."""
    ffi = loaded.ffi
    kind = "phocus_ddot_ilp64" if loaded.ilp64 else "phocus_ddot_lp64"
    ddot = ffi.cast(kind, loaded.ddot)
    rng = random.Random(0)  # spares a numpy.random import
    a = np.array([rng.random() for _ in _SELF_CHECK_LENGTHS])
    b = np.array([rng.random() for _ in _SELF_CHECK_LENGTHS])
    a_ptr, b_ptr = ffi.from_buffer("double[]", a), ffi.from_buffer("double[]", b)
    for n in _SELF_CHECK_LENGTHS:
        got = ddot(n, a_ptr, 1, b_ptr, 1)
        want = _numpy_dot(a[:n], b[:n])
        if got.hex() != want.hex():
            raise KernelUnavailable(
                f"{symbol} disagrees with np.dot at length {n}: "
                f"{got.hex()} != {want.hex()}"
            )


# --------------------------------------------------------------- binding


class _Layout:
    """One incidence CSR, checked for everything the C loop trusts.

    ``pointers`` are cffi buffers over the CSR arrays; each holds a
    reference to its array, so the memory stays valid while they live.
    """

    __slots__ = ("n", "max_entries", "pointers")

    def __init__(self, ffi, arrays: Tuple[np.ndarray, ...]) -> None:
        pm, me = arrays[:2]
        self.n = pm.size - 1
        self.max_entries = int(np.max(me[pm[1:]] - me[pm[:-1]], initial=0))
        kinds = ("int64_t[]",) * 3 + ("double[]",) * 2
        self.pointers = tuple(ffi.from_buffer(k, a) for k, a in zip(kinds, arrays))


def _layout(ffi, inc: IncidenceCSR) -> Optional[_Layout]:
    """The checked layout of ``inc``, or ``None`` for the numpy kernel.

    Cached on the incidence, so the O(nnz) checks run once per CSR, not
    once per state.
    """
    if inc._native is None:
        inc._native = _check_layout(ffi, inc)
    return inc._native or None


def _check_layout(ffi, inc: IncidenceCSR):
    """A :class:`_Layout`, or ``False`` when numpy must serve ``inc``.

    Arrays that are not contiguous int64/float64 go to the numpy kernel;
    that includes float32 similarities, whose ``phi * sims`` numpy rounds
    in float32 (NEP 50).  A broken index invariant raises ``IndexError``,
    as numpy's indexing would, before any pointer reaches C.
    """
    arrays = (
        inc.photo_member_indptr, inc.member_entry_indptr,
        inc.slots, inc.sims, inc.wrel,
    )
    dtypes = (np.int64, np.int64, np.int64, np.float64, np.float64)
    for a, dtype in zip(arrays, dtypes):
        if a.dtype != dtype or a.ndim != 1 or not a.flags.c_contiguous:
            return False
    pm, me, slots, sims, wrel = arrays
    for name, ptr, size in (
        ("member_entry_indptr", me, slots.size),
        ("photo_member_indptr", pm, me.size - 1),
    ):
        if ptr.size == 0 or ptr[0] != 0 or ptr[-1] != size or np.any(ptr[1:] < ptr[:-1]):
            raise IndexError(f"{name} does not span its {size} entries in order")
    if not sims.size == wrel.size == slots.size:
        raise IndexError("incidence slots, sims and wrel differ in length")
    if slots.size:
        for bad in (int(slots.min()), int(slots.max())):
            if not 0 <= bad < inc.total_slots:
                raise IndexError(
                    f"index {bad} is out of bounds for axis 0 with size {inc.total_slots}"
                )
    if not np.array_equal(inc.entry_indptr, me[pm]):
        return False  # the numpy kernel reads entry_indptr; keep its answers
    return _Layout(ffi, arrays)


class NativeCoverage:
    """One state's handle on the compiled kernel.

    Holds its own context and scratch buffers (so states on different
    threads never share memory they write) and a reference to every
    array the context points into, so shared-memory instances stay
    mapped while the state lives.  ``gain(p, phi)`` leaves the coverage
    writes it implies pending; ``commit()`` applies them (the CELF select
    step), and ``add(p, phi)`` evaluates and commits at once.
    """

    __slots__ = ("n", "gain", "add", "commit", "_keep")

    def __init__(self, loaded: _Kernel, layout: _Layout, best: np.ndarray) -> None:
        ffi, lib = loaded.ffi, loaded.lib
        ctx = ffi.new("phocus_coverage *")
        size = max(layout.max_entries, 1)
        best_ptr = ffi.from_buffer("double[]", best, require_writable=True)
        scratch = (
            ffi.new("double[]", size),
            ffi.new("double[]", size),
            ffi.new("int64_t[]", size),
            ffi.new("double[]", size),
        )
        (
            ctx.photo_member_indptr,
            ctx.member_entry_indptr,
            ctx.slots,
            ctx.sims,
            ctx.wrel,
        ) = layout.pointers
        ctx.best = best_ptr
        ctx.dot_w, ctx.dot_d, ctx.pending_slots, ctx.pending_sims = scratch
        ctx.ddot = loaded.ddot
        ctx.ilp64 = loaded.ilp64
        self.n = layout.n
        self.gain = functools.partial(lib.phocus_gain, ctx)
        self.add = functools.partial(lib.phocus_add, ctx)
        self.commit = functools.partial(lib.phocus_commit, ctx)
        self._keep = (loaded, layout, best_ptr, scratch)


def bind(inc: IncidenceCSR, best: np.ndarray) -> Optional[NativeCoverage]:
    """A native handle over ``inc`` writing into ``best``, or ``None``
    when the numpy kernel must serve (no kernel, or a non-float64 CSR)."""
    if best.shape != (inc.total_slots,) or best.dtype != np.float64:
        raise ValueError("best must be a float64 vector over the incidence's slots")
    loaded = kernel()
    if loaded is None:
        return None
    layout = _layout(loaded.ffi, inc)
    if layout is None:
        return None
    return NativeCoverage(loaded, layout, best)
