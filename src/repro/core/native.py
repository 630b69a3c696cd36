"""Native kernels: the coverage kernel, the JSON float-array scanner, the
LSH candidate emitter and the candidate verifier.

Three C sources build into one shared library, compiled once per machine
with the system ``gcc`` into a per-user cache and loaded through cffi's
out-of-line ABI mode, lazily, on first use — ``import repro`` never pays
for it.

* ``native_coverage.c`` runs :class:`~repro.core.objective.CoverageState`'s
  per-evaluation work whenever this module can serve it, and the numpy
  kernel serves otherwise.  Answers are
  bit-identical to the numpy kernel.  Its masked dot products are
  numpy's ``a @ b``, which calls the ``cblas_ddot`` of the BLAS numpy
  links; a hand-written loop would sum in a different order, so the C
  kernel borrows that very function, found among the shared objects the
  process has mapped, and checks it bitwise against ``np.dot`` before
  use.  It reads each membership as its base range followed by its tail
  range (a grown live archive's incidence), replays a whole selection in
  one call (:meth:`NativeCoverage.replay`), and computes every photo's
  gain (:meth:`NativeCoverage.all_gains`) as numpy's ``np.maximum`` +
  ``np.add.reduceat`` pass does: the first product plus numpy's pairwise
  sum of the rest.  That pass serves only after its bits equal
  :func:`reduceat_gains`' on a seeded incidence in this process.
* ``native_json.c`` finds and converts the flat float arrays and float
  matrices of a JSON text for :func:`repro.core.serialize.loads`
  (:func:`scan_json`), reading eight digits per step where it can; a tag
  per find carries the array's shape.  ``loads`` parses with
  ``json.loads`` alone when the library is unavailable.
* ``native_lsh.c`` sorts each LSH band's bucket keys, emits every
  bucket's pairs and dedups them across bands for
  :func:`repro.scale.lsh_candidate_keys` (:func:`candidate_emitter`),
  which runs its numpy emitter when the library is unavailable; both
  return the same keys, byte for byte.  It also computes each candidate
  pair's exact cosine for
  :func:`repro.sparsify.simhash.verify_candidate_pairs`
  (:func:`pair_verifier`), reading the unit rows in place.  That dot
  product is floating point but borrows no ddot: it sums in the order of
  numpy's ``einsum("ij,ij->i")`` on a two-lane, unfused multiply-add
  build (SSE2), and serves a width only after its bits equal
  ``np.einsum``'s on seeded rows of that width in this process.

The library is unavailable, with one logged warning per process, when
cffi is missing, ``gcc`` is missing or fails, or the cache cannot be
written or is not this user's.  The coverage kernel alone also falls
back, with its own warning, when no BLAS ddot is found or the ddot
self-check fails; the scanner and the emitter do no floating point and
need no ddot.  A failed all-gains self-check logs one warning per
process and leaves ``all_gains`` to numpy, the rest of the kernel
serving.  The verifier falls back, with one warning per width, when
its own self-check fails, as it would against a numpy built for another
baseline (AVX2 with FMA sums in another order).  Cache rules: the
directory is created with mode 0700, builds go to a temporary file that
is ``os.replace``-d into place (concurrent builders never expose a
partial library), and a file the current user does not own is never
loaded.
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
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.instance import IncidenceCSR

__all__ = [
    "CandidateEmitter",
    "NativeCoverage",
    "bind",
    "candidate_emitter",
    "kernel",
    "pair_verifier",
    "scan_json",
]

_log = logging.getLogger(__name__)

_SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("native_coverage.c", "native_json.c", "native_lsh.c")
)
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# cblas_ddot spellings, most specific first; a ``64_`` suffix marks the
# ILP64 (int64 lengths and strides) interface.
_DDOT_SYMBOLS = ("scipy_cblas_ddot64_", "cblas_ddot64_", "scipy_cblas_ddot", "cblas_ddot")
_SELF_CHECK_LENGTHS = range(1, 258)
#: Members per BLAS dot product, in both coverage kernels and in
#: ``CoverageState.subset_value``.  A threaded BLAS sums a longer
#: ``ddot`` in an order that depends on its thread count; a dot of at
#: most this many members runs as one call and keeps its bits.
DOT_CHUNK = 10_000


class KernelUnavailable(RuntimeError):
    """The native library or kernel cannot be used here (reason attached)."""


class _Kernel:
    """The loaded library plus the borrowed ddot it calls."""

    __slots__ = ("ffi", "lib", "ddot", "ilp64", "_blas", "_sums")

    def __init__(self, ffi, lib, blas, symbol: str) -> None:
        self.ffi = ffi
        self.lib = lib
        self._blas = blas  # keeps the BLAS handle open
        self.ddot = ffi.cast("void *", getattr(blas, symbol))
        self.ilp64 = symbol.endswith("64_")
        self._sums: Optional[bool] = None

    def sums_like_reduceat(self) -> bool:
        """Whether ``phocus_all_gains`` sums exactly as ``np.add.reduceat``
        does in this process (self-checked once, on first use)."""
        if self._sums is None:
            with _load_lock:
                if self._sums is None:
                    self._sums = False  # the check's own handle binds no pass
                    self._sums = _all_gains_self_check(self)
        return self._sums


_UNSET = object()
_loaded: object = _UNSET
_load_lock = threading.Lock()


class _Library:
    """The loaded shared library and what its users need from it.

    Each user's own set-up runs on its first call, so a process that
    only solves never builds the scanner's table, and one that only
    parses or builds never looks for a BLAS ddot.
    """

    __slots__ = ("ffi", "lib", "_coverage", "_scanner", "_verify_widths")

    def __init__(self, ffi, lib) -> None:
        self.ffi = ffi
        self.lib = lib
        self._coverage: object = _UNSET
        self._scanner: Optional[Tuple[object, object]] = None
        self._verify_widths: Dict[int, bool] = {}

    def coverage(self) -> Optional[_Kernel]:
        """The coverage kernel: the borrowed ddot, self-checked."""
        if self._coverage is _UNSET:
            with _load_lock:
                if self._coverage is _UNSET:
                    try:
                        blas, symbol = _find_ddot(self.ffi)
                        loaded = _Kernel(self.ffi, self.lib, blas, symbol)
                        _self_check(loaded, symbol)
                        self._coverage = loaded
                    except KernelUnavailable as exc:
                        _log.warning(
                            "native coverage kernel unavailable (%s); "
                            "using the numpy kernel", exc,
                        )
                        self._coverage = None
        return self._coverage  # type: ignore[return-value]

    def scanner(self) -> Tuple[object, object]:
        """The scan's read-only inputs: the powers-of-ten table and a C
        locale for strtod_l."""
        if self._scanner is None:
            with _load_lock:
                if self._scanner is None:
                    locale = self.lib.phocus_json_c_locale()
                    if locale == self.ffi.NULL:  # newlocale fails only on ENOMEM
                        raise MemoryError("cannot allocate a C locale")
                    powers = self.ffi.from_buffer("uint64_t[]", _powers_of_ten())
                    self._scanner = (powers, locale)
        return self._scanner

    def verifies(self, d: int) -> bool:
        """Whether ``phocus_verify`` sums width-``d`` dots exactly as
        ``np.einsum`` does in this process (self-checked once per width)."""
        ok = self._verify_widths.get(d)
        if ok is None:
            with _load_lock:
                ok = self._verify_widths.get(d)
                if ok is None:
                    ok = self._verify_widths[d] = _verify_self_check(self, d)
        return ok


def library() -> Optional[_Library]:
    """The process-wide native library, or ``None`` when it is unavailable.

    The first call builds or loads it; a failure is logged once and
    remembered, so every later caller goes straight to its fallback.
    """
    global _loaded
    if _loaded is _UNSET:
        with _load_lock:
            if _loaded is _UNSET:
                try:
                    _loaded = _load(_cache_dir())
                except KernelUnavailable as exc:
                    _log.warning(
                        "native library unavailable (%s); "
                        "using the numpy kernel and json.loads", exc,
                    )
                    _loaded = None
    return _loaded  # type: ignore[return-value]


def kernel() -> Optional[_Kernel]:
    """The native coverage kernel, or ``None`` when numpy must serve."""
    loaded = library()
    return loaded.coverage() if loaded is not None else None


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    try:
        base = Path(root) if root else Path.home() / ".cache"
    except RuntimeError as exc:  # no home directory
        raise KernelUnavailable(f"no cache directory: {exc}") from None
    return base / "phocus"


def _load(cache_dir: Path) -> _Library:
    return _Library(*_load_library(cache_dir))


# ---------------------------------------------------------------- build


def _cdef(sources: List[str]) -> str:
    """The C declarations cffi needs: each source's marked header block
    plus every ddot spelling the loader may look up."""
    header = "".join(
        s.split("/* cdef-begin */", 1)[1].split("/* cdef-end */", 1)[0] for s in sources
    )
    for name in _DDOT_SYMBOLS:
        n = "int64_t" if name.endswith("64_") else "int"
        header += f"double {name}({n}, const double *, {n}, const double *, {n});\n"
    return header


def _load_library(cache_dir: Path):
    try:
        import _cffi_backend
    except ImportError as exc:
        raise KernelUnavailable(f"cffi is not importable: {exc}") from None
    sources = [path.read_text() for path in _SOURCES]
    cdef = _cdef(sources)
    key = hashlib.sha256(
        "\0".join((*sources, cdef, " ".join(_CFLAGS), _cffi_backend.__version__)).encode()
    ).hexdigest()[:16]
    so_path = cache_dir / f"native-{key}.so"
    ffi_path = cache_dir / f"native-{key}_ffi.py"
    _prepare_cache(cache_dir)
    if not (so_path.exists() and ffi_path.exists()):
        _build(cache_dir, cdef, so_path, ffi_path)
    for path in (so_path, ffi_path):
        _check_owner(path)
    spec = importlib.util.spec_from_file_location("_phocus_native_ffi", ffi_path)
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
            [gcc, *_CFLAGS, "-o", tmp_so, *map(str, _SOURCES)],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise KernelUnavailable(f"gcc failed: {done.stderr.strip()[-500:]}")
        builder = cffi.FFI()
        builder.cdef(cdef)
        make_py_source(builder, "_phocus_native_ffi", tmp_py)  # quiet
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


# ---------------------------------------------------------- JSON scanner

# The exponent range of the Eisel-Lemire table; literals outside it go
# to strtod_l.
_MIN_EXP10, _MAX_EXP10 = -348, 347
# native_json.c's return codes and constant-token tags; a positive tag
# is a float array's shape, ``rows << SHAPE_BITS | columns`` (rows 0 for
# a flat array).
_SCAN_TOO_DEEP, _SCAN_FULL = 1, 2
CONSTANT_TOKENS = {0: "NaN", -1: "Infinity", -2: "-Infinity"}
SHAPE_BITS = 32


def _powers_of_ten() -> np.ndarray:
    """10^e for e in the table's range as (hi, lo) uint64 pairs: the
    128 leading bits of its binary expansion, truncated, top bit set.

    Exact integers throughout: 10^e = 5^e · 2^e, and the factor 2^e
    only moves the binary point, which the C side recomputes.
    """
    words = []
    for e in range(_MIN_EXP10, _MAX_EXP10 + 1):
        if e >= 0:
            five = 5**e
            shift = five.bit_length() - 128
            m = five >> shift if shift > 0 else five << -shift
        else:
            five = 5**-e
            m = (1 << (five.bit_length() + 127)) // five
        words += (m >> 64, m & 0xFFFF_FFFF_FFFF_FFFF)
    return np.array(words, dtype=np.uint64)


def scan_json(raw: bytes) -> Optional[Tuple[memoryview, List[int], np.ndarray]]:
    """The skeleton of the JSON text ``raw`` and what its ``NaN`` tokens hide.

    Returns ``(skeleton, tags, values)``.  ``skeleton`` is ``raw`` with
    each flat array of float literals, and each *float matrix* (an array
    of such arrays, all of one length), replaced by ``NaN``.  ``tags``
    holds one tag per such array or constant token of ``raw``, in
    document order: the array's shape (> 0), ``rows << SHAPE_BITS |
    columns`` with ``rows`` 0 for a flat array, or a key of
    :data:`CONSTANT_TOKENS`.  A ragged array of float arrays is no
    matrix; each of its float rows has its own tag.  ``values`` is one
    float64 array holding every array's floats in the same order, a
    matrix's row after row.  ``None`` when ``raw`` has no such array, the
    library is unavailable, or ``raw`` nests too deep to scan.  Nothing
    here says ``raw`` is valid JSON.
    """
    loaded = library()
    if loaded is None:
        return None
    ffi = loaded.ffi
    powers, locale = loaded.scanner()
    n = len(raw)
    text = ffi.from_buffer("char[]", raw)
    skeleton = np.empty(n, dtype=np.uint8)
    scan = ffi.new("phocus_json_scan *")
    scan.text, scan.size, scan.locale = text, n, locale
    scan.powers, scan.min_exp10, scan.max_exp10 = powers, _MIN_EXP10, _MAX_EXP10
    scan.skeleton = ffi.from_buffer("char[]", skeleton, require_writable=True)
    # Buffers sized for ordinary documents (a float per 8 bytes, a tag per
    # 24), then, if one fills, for the densest text possible: a float per
    # four bytes ("0e0,"), a tag per three ("NaN").
    for max_tags, max_values in ((n // 24 + 1, n // 8 + 1), (n // 3 + 1, n // 4 + 1)):
        tags = np.empty(max_tags, dtype=np.int64)
        values = np.empty(max_values, dtype=np.float64)
        scan.tags = ffi.from_buffer("int64_t[]", tags, require_writable=True)
        scan.values = ffi.from_buffer("double[]", values, require_writable=True)
        scan.max_tags, scan.max_values = max_tags, max_values
        status = loaded.lib.phocus_json_scan_text(scan)
        if status != _SCAN_FULL:
            break
    if status == _SCAN_TOO_DEEP or scan.skeleton_size == n:
        return None  # too deep, or nothing replaced: raw is its own skeleton
    return (
        memoryview(skeleton[: scan.skeleton_size]),
        tags[: scan.n_tags].tolist(),
        values[: scan.n_values],
    )


# ------------------------------------------------------ candidate emitter


def _c_array(a: np.ndarray, dtype, shape: Tuple[int, ...], what: str) -> None:
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(
            f"{what} must be a C-contiguous {np.dtype(dtype).name} array "
            f"of shape {shape}"
        )


class CandidateEmitter:
    """One native emitter pass over the bands of ``n`` photos.

    Feed it every band's bucket keys in band order with :meth:`add_band`,
    then take the candidate keys with :meth:`pair_keys`.  After each
    :meth:`add_band`, ``order[b]`` holds the band's photo ids in stable
    key order (``np.argsort(keys, kind="stable")``) and ``sorted_keys``
    the band's keys in that order, until the next band overwrites it.
    Every array the C code reads or writes is allocated or checked here.
    """

    __slots__ = (
        "n", "bands", "order", "sorted_keys", "_lib", "_ffi", "_ctx", "_keep", "_added",
    )

    def __init__(
        self, loaded: _Library, n: int, bands: int, order: Optional[np.ndarray]
    ) -> None:
        if order is None:
            order = np.empty((bands, n), dtype=np.int32)
        _c_array(order, np.int32, (bands, n), "order")
        if not order.flags.writeable:
            raise ValueError("order must be writable")
        ffi = loaded.ffi
        self.n, self.bands, self.order = n, bands, order
        self.sorted_keys = np.empty(n, dtype=np.uint64)
        # Zeroed, so a band's spans are empty until its keys arrive.
        spans = np.zeros((bands, n, 2), dtype=np.int32)
        arrays = (
            (order, "int32_t[]"),
            (spans, "int32_t[]"),
            (self.sorted_keys, "uint64_t[]"),
            (np.empty(n, dtype=np.uint64), "uint64_t[]"),
            (np.empty(n, dtype=np.int32), "int32_t[]"),
            (np.empty(1 << 16, dtype=np.int32), "int32_t[]"),
            (np.zeros((n + 63) // 64, dtype=np.uint64), "uint64_t[]"),
        )
        pointers = tuple(
            ffi.from_buffer(kind, a, require_writable=True) for a, kind in arrays
        )
        ctx = ffi.new("phocus_lsh *")
        ctx.n, ctx.bands = n, bands
        (
            ctx.order,
            ctx.spans,
            ctx.sorted_keys,
            ctx.tmp_keys,
            ctx.tmp_order,
            ctx.counts,
            ctx.bits,
        ) = pointers
        self._lib, self._ffi, self._ctx = loaded.lib, ffi, ctx
        self._keep = pointers  # each keeps its array alive
        self._added = 0

    def add_band(self, keys: np.ndarray, bound: int) -> None:
        """Sort the next band's ``keys`` (``n`` integers in ``[0, bound)``)."""
        if self._added == self.bands:
            raise ValueError(f"all {self.bands} bands were already added")
        if keys.dtype not in (np.uint64, np.int64):
            raise ValueError(f"band keys must be 64-bit integers, got {keys.dtype}")
        _c_array(keys, keys.dtype, (self.n,), "band keys")
        if not 1 <= bound <= 1 << 64:
            raise ValueError(f"key bound {bound} is outside [1, 2**64]")
        negative = keys.dtype == np.int64 and keys.size and int(keys.min()) < 0
        if negative or (keys.size and int(keys.max()) >= bound):
            raise ValueError(f"band keys must lie in [0, {bound})")
        keys_ptr = self._ffi.from_buffer("uint64_t[]", keys.view(np.uint64))
        key_bits = (bound - 1).bit_length()
        self._lib.phocus_lsh_band(self._ctx, self._added, keys_ptr, key_bits)
        self._added += 1

    def pair_keys(
        self, chunk_pairs: int, on_batch: Optional[Callable[[int], None]] = None
    ) -> np.ndarray:
        """Every band's pairs ``i * n + j`` (``i < j``), sorted and unique.

        One walk counts each row's pairs, so the result is allocated at
        its exact size.  A second writes the rows in blocks of about
        ``chunk_pairs`` emitted pairs (``on_batch(count)`` fires before
        each); every pair two bands share is emitted twice but kept once.
        """
        if self._added != self.bands:
            raise ValueError(f"{self._added} of {self.bands} bands were added")
        ffi, lib, n = self._ffi, self._lib, self.n
        emitted = np.empty(n, dtype=np.int64)
        total = lib.phocus_lsh_count(
            self._ctx, ffi.from_buffer("int64_t[]", emitted, require_writable=True)
        )
        keys = np.empty(total, dtype=np.int64)
        out = ffi.from_buffer("int64_t[]", keys, require_writable=True)
        # Row i opens block (pairs emitted before it) // chunk_pairs.
        first = np.cumsum(emitted) - emitted
        block = first // max(int(chunk_pairs), 1)
        edges = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1).tolist(), n]
        written = 0
        for r0, r1 in zip(edges[:-1], edges[1:]):
            count = int(emitted[r0:r1].sum())
            if count == 0:
                continue
            if on_batch is not None:
                on_batch(count)
            written += lib.phocus_lsh_emit(
                self._ctx, r0, r1, out + written, max(total - written, 0)
            )
        if written != total:
            raise RuntimeError(f"emitted {written} candidate keys, counted {total}")
        return keys


def candidate_emitter(
    n: int, bands: int, order: Optional[np.ndarray] = None
) -> Optional[CandidateEmitter]:
    """A native :class:`CandidateEmitter` for ``bands`` bands of ``n``
    photos, or ``None`` when the numpy emitter must serve (no library, or
    too many photos for its int32 ids).

    ``order``, when given, is the ``(bands, n)`` int32 array that receives
    each band's stable order.
    """
    if not 0 <= n < 1 << 31 or bands < 0:
        return None
    loaded = library()
    if loaded is None:
        return None
    return CandidateEmitter(loaded, n, bands, order)


# ------------------------------------------------------ candidate verifier

#: Rows of the per-width self-check; every ordered pair of them is a key.
_VERIFY_CHECK_ROWS = 16


def _einsum_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _check_pair_keys(unit: np.ndarray, keys: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``unit`` is a C-contiguous 2-D float64
    array and ``keys`` a contiguous int64 vector of keys ``i * m + j`` in
    ``[0, m²)``, where ``m`` is the number of rows of ``unit``."""
    if unit.dtype != np.float64 or unit.ndim != 2 or not unit.flags.c_contiguous:
        raise ValueError("unit must be a C-contiguous 2-D float64 array")
    if keys.dtype != np.int64 or keys.ndim != 1 or not keys.flags.c_contiguous:
        raise ValueError("candidate keys must be a contiguous int64 vector")
    bound = unit.shape[0] ** 2
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >= bound):
        raise ValueError(f"candidate keys must lie in [0, {bound})")


def _native_verifier(
    loaded: _Library, unit: np.ndarray, keys: np.ndarray, tau: float, chunk: int
) -> Callable[[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The native check of one call's candidate keys, a chunk at a time.

    ``verify(start, end)`` checks ``keys[start:end]`` (at most ``chunk`` of
    them) and returns fresh ``(kept_i, kept_j, kept_vals)`` arrays: the
    pairs whose exact cosine ``s`` reaches ``tau``, valued ``min(1, s)``,
    in key order.  The output buffers are allocated once.  ``unit`` and
    ``keys`` must have passed :func:`_check_pair_keys`.
    """
    ffi = loaded.ffi
    m, d = unit.shape
    size = max(1, min(int(chunk), keys.size))
    out = (
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.int64),
        np.empty(size, dtype=np.float64),
    )
    # Each cffi buffer keeps its array alive while the closure holds it.
    out_ptrs = tuple(
        ffi.from_buffer(kind, a, require_writable=True)
        for kind, a in zip(("int64_t[]", "int64_t[]", "double[]"), out)
    )
    unit_ptr = ffi.from_buffer("double[]", unit)
    keys_ptr = ffi.from_buffer("int64_t[]", keys)
    phocus_verify = loaded.lib.phocus_verify

    def verify(start: int, end: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not 0 <= start <= end <= min(start + size, keys.size):
            raise ValueError(
                f"chunk [{start}, {end}) is not a slice of at most {size} "
                f"of the {keys.size} keys"
            )
        kept = phocus_verify(
            unit_ptr, m, d, keys_ptr + start, end - start, float(tau), *out_ptrs
        )
        return tuple(a[:kept].copy() for a in out)

    return verify


def pair_verifier(
    unit: np.ndarray, keys: np.ndarray, tau: float, chunk: int
) -> Optional[Callable[[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The native ``verify(start, end)`` of ``keys`` over the rows of
    ``unit`` (see :func:`_native_verifier`), or ``None`` when numpy must
    verify them: no library, 2³¹ rows or more (the emitter's limit too),
    or a C dot whose bits differ from ``np.einsum``'s at this width.

    The arrays are checked (:func:`_check_pair_keys`) before anything
    else, so a numpy verifier that serves instead reads checked keys.
    """
    _check_pair_keys(unit, keys)
    m, d = unit.shape
    if m >= 1 << 31:
        return None
    loaded = library()
    if loaded is None or not loaded.verifies(d):
        return None
    return _native_verifier(loaded, unit, keys, tau, chunk)


def _verify_self_check(loaded: _Library, d: int) -> bool:
    """Compare ``phocus_verify``'s dots bitwise with ``np.einsum``'s on
    seeded rows of width ``d``; on a mismatch, log it and return False."""
    rows = _VERIFY_CHECK_ROWS
    rng = random.Random(d)  # spares a numpy.random import
    # |x| < 1/d keeps every dot below 1, so no value is clipped.
    scale = 1.0 / max(d, 1)
    unit = np.array(
        [(2.0 * rng.random() - 1.0) * scale for _ in range(rows * d)], dtype=np.float64
    ).reshape(rows, d)
    keys = np.arange(rows * rows, dtype=np.int64)
    i, j = np.divmod(keys, rows)
    want = _einsum_dots(unit[i], unit[j])
    got = _native_verifier(loaded, unit, keys, float("-inf"), keys.size)(0, keys.size)
    if got[2].tobytes() == want.tobytes():
        return True
    _log.warning(
        "native pair verify sums width-%d dot products unlike np.einsum; "
        "using the numpy verify for that width", d,
    )
    return False


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

    ``pointers`` are cffi buffers over the CSR arrays (the tail's are
    ``NULL`` without a tail); each holds a reference to its array, so the
    memory stays valid while they live.
    """

    __slots__ = ("n", "max_entries", "pointers")

    def __init__(self, ffi, arrays: Tuple[np.ndarray, ...], tail) -> None:
        pm, me = arrays[:2]
        self.n = pm.size - 1
        entries = me[pm[1:]] - me[pm[:-1]]
        if tail is not None:
            entries = entries + tail[0][pm[1:]] - tail[0][pm[:-1]]
        self.max_entries = int(np.max(entries, initial=0))
        kinds = ("int64_t[]",) * 3 + ("double[]",) * 2
        base = tuple(ffi.from_buffer(k, a) for k, a in zip(kinds, arrays))
        if tail is None:
            extra = (ffi.NULL,) * 3
        else:
            extra = tuple(
                ffi.from_buffer(k, a)
                for k, a in zip(("int64_t[]", "int64_t[]", "double[]"), tail)
            )
        self.pointers = base + extra


def _layout(ffi, inc: IncidenceCSR) -> Optional[_Layout]:
    """The checked layout of ``inc``, or ``None`` for the numpy kernel.

    Cached on the incidence, so the checks run once per CSR, not once
    per state.
    """
    if inc._native is None:
        inc._native = _check_layout(ffi, inc)
    return inc._native or None


#: ``id(array) -> (weakref, min, max)`` of read-only slot arrays already
#: scanned; an entry leaves with its array.
_SLOT_RANGES: Dict[int, Tuple[weakref.ref, int, int]] = {}


def _slot_range(slots: np.ndarray) -> Tuple[int, int]:
    """``(min, max)`` of a non-empty slot array.

    A read-only array is scanned once per process: a live archive's base
    is frozen when it is first shared and then serves every upload until
    the tail merges, so each upload scans only its own tail.
    """
    if slots.flags.writeable:
        return int(slots.min()), int(slots.max())
    key = id(slots)
    hit = _SLOT_RANGES.get(key)
    if hit is not None and hit[0]() is slots:
        return hit[1], hit[2]
    lo, hi = int(slots.min()), int(slots.max())
    ref = weakref.ref(slots, lambda _, key=key: _SLOT_RANGES.pop(key, None))
    _SLOT_RANGES[key] = (ref, lo, hi)
    return lo, hi


def _check_spans(name: str, ptr: np.ndarray, size: int) -> None:
    if ptr.size == 0 or ptr[0] != 0 or ptr[-1] != size or np.any(ptr[1:] < ptr[:-1]):
        raise IndexError(f"{name} does not span its {size} entries in order")


def _check_slots(slots: np.ndarray, total_slots: int) -> None:
    if slots.size:
        for bad in _slot_range(slots):
            if not 0 <= bad < total_slots:
                raise IndexError(
                    f"index {bad} is out of bounds for axis 0 with size {total_slots}"
                )


def _check_layout(ffi, inc: IncidenceCSR):
    """A :class:`_Layout`, or ``False`` when numpy must serve ``inc``.

    Arrays that are not contiguous int64/float64 go to the numpy kernel;
    that includes float32 similarities, whose ``phi * sims`` numpy rounds
    in float32 (NEP 50).  A broken index invariant, in the base arrays or
    the tail's, raises ``IndexError``, as numpy's indexing would, before
    any pointer reaches C.
    """
    arrays = (
        inc.photo_member_indptr, inc.member_entry_indptr,
        inc.slots, inc.sims, inc.slot_wrel,
    )
    dtypes = [np.int64, np.int64, np.int64, np.float64, np.float64]
    tail = inc.tail
    if tail is not None:
        dtypes += [np.int64, np.int64, np.float64]
    for a, dtype in zip(arrays + tuple(tail or ()), dtypes):
        if a.dtype != dtype or a.ndim != 1 or not a.flags.c_contiguous:
            return False
    pm, me, slots, sims, slot_wrel = arrays
    _check_spans("member_entry_indptr", me, slots.size)
    _check_spans("photo_member_indptr", pm, me.size - 1)
    if sims.size != slots.size:
        raise IndexError("incidence slots and sims differ in length")
    if slot_wrel.size != inc.total_slots:
        raise IndexError(
            f"slot_wrel holds {slot_wrel.size} weights for {inc.total_slots} slots"
        )
    _check_slots(slots, inc.total_slots)
    if tail is not None:
        tail_indptr, tail_slots, tail_sims = tail
        if tail_indptr.size != me.size:
            raise IndexError(
                f"the tail has {tail_indptr.size - 1} ranges for {me.size - 1} memberships"
            )
        _check_spans("the tail's indptr", tail_indptr, tail_slots.size)
        if tail_sims.size != tail_slots.size:
            raise IndexError("tail slots and sims differ in length")
        _check_slots(tail_slots, inc.total_slots)
    if not np.array_equal(inc.entry_indptr, me[pm]):
        return False  # the numpy kernel reads entry_indptr; keep its answers
    return _Layout(ffi, arrays, tail)


class NativeCoverage:
    """One state's handle on the compiled kernel.

    Holds its own context and scratch buffers (so states on different
    threads never share memory they write) and a reference to every
    array the context points into, so shared-memory instances stay
    mapped while the state lives.  ``gain(p, phi)`` leaves the coverage
    writes it implies pending; ``commit()`` applies them (the CELF select
    step), and ``add(p, phi)`` evaluates and commits at once.
    :meth:`replay` adds a whole selection in one call, and
    :meth:`all_gains` computes every photo's gain, which callers use only
    when ``sums_like_reduceat`` (the summation self-check passed).
    """

    __slots__ = (
        "n", "gain", "add", "commit", "sums_like_reduceat", "_ffi", "_lib", "_ctx", "_keep",
    )

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
        ctx.n = layout.n
        (
            ctx.photo_member_indptr,
            ctx.member_entry_indptr,
            ctx.slots,
            ctx.sims,
            ctx.slot_wrel,
            ctx.tail_indptr,
            ctx.tail_slots,
            ctx.tail_sims,
        ) = layout.pointers
        ctx.best = best_ptr
        ctx.dot_w, ctx.dot_d, ctx.pending_slots, ctx.pending_sims = scratch
        ctx.dot_chunk = DOT_CHUNK
        ctx.ddot = loaded.ddot
        ctx.ilp64 = loaded.ilp64
        self.n = layout.n
        self.gain = functools.partial(lib.phocus_gain, ctx)
        self.add = functools.partial(lib.phocus_add, ctx)
        self.commit = functools.partial(lib.phocus_commit, ctx)
        self.sums_like_reduceat = loaded.sums_like_reduceat()
        self._ffi, self._lib, self._ctx = ffi, lib, ctx
        self._keep = (loaded, layout, best_ptr, scratch)

    def replay(self, ids: np.ndarray) -> float:
        """Add the distinct photos ``ids`` (int64, each in ``[0, n)``) in
        order at full fidelity; return their realised gains summed in that
        order from a zero."""
        if ids.dtype != np.int64 or ids.ndim != 1 or not ids.flags.c_contiguous:
            raise ValueError("replay ids must be a contiguous int64 vector")
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self.n):
            raise ValueError(f"replay ids must lie in [0, {self.n})")
        return self._lib.phocus_replay(
            self._ctx, self._ffi.from_buffer("int64_t[]", ids), ids.size
        )

    def all_gains(self) -> np.ndarray:
        """``phocus_all_gains`` of every photo (selected ones included)."""
        gains = np.empty(self.n, dtype=np.float64)
        self._lib.phocus_all_gains(
            self._ctx, self._ffi.from_buffer("double[]", gains, require_writable=True)
        )
        return gains


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


# ------------------------------------------------------------ all gains


def reduceat_gains(
    entry_indptr: np.ndarray,
    slots: np.ndarray,
    sims: np.ndarray,
    slot_wrel: np.ndarray,
    best: np.ndarray,
) -> np.ndarray:
    """Every photo's gain by numpy: the products ``max(sim − best, 0) ·
    wrel`` of its entry range (``entry_indptr``) summed by one
    ``np.add.reduceat`` pass — the numpy kernel's ``all_gains`` and the
    reference :func:`_all_gains_self_check` holds the C pass to."""
    gains = np.zeros(entry_indptr.size - 1, dtype=np.float64)
    delta = sims - best[slots]
    np.maximum(delta, 0.0, out=delta)
    delta *= slot_wrel[slots]
    starts = entry_indptr[:-1]
    nonempty = starts < entry_indptr[1:]
    # reduceat over the nonempty per-photo ranges: consecutive nonempty
    # starts abut (empty ranges have zero width), so each segment ends
    # exactly at the next start.
    if nonempty.any():
        gains[nonempty] = np.add.reduceat(delta, starts[nonempty])
    return gains


#: Entries per photo in the self-check: every summation branch (1, under
#: 8, eight accumulators, the 128 boundary, halving, an odd tail).
_ALL_GAINS_CHECK_LENGTHS = (0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 257, 1000)


def _all_gains_self_check(loaded: _Kernel) -> bool:
    """Compare ``phocus_all_gains`` bitwise with :func:`reduceat_gains`
    on a seeded incidence with a tail, signed zeros and negative deltas;
    on a mismatch, log it and return False."""
    rng = random.Random(7)  # spares a numpy.random import
    lengths = _ALL_GAINS_CHECK_LENGTHS
    n = len(lengths)
    total = sum(lengths)
    slot_wrel = np.array([rng.random() for _ in range(total)])
    sims = np.array([rng.choice((rng.random(), 0.5, -0.0)) for _ in range(total)])
    best = np.array([rng.choice((rng.random(), 0.5, 0.0)) for _ in range(total)])
    slots = np.array([rng.randrange(total) for _ in range(total)], dtype=np.int64)
    # The two-entry photo's products are both -0.0: numpy sums from -0.0.
    slot_wrel[:2] = -0.0
    best[:2] = 0.25
    slots[1:3] = (0, 1)
    sims[1:3] = 0.75
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    # Each photo's last third of entries moves to the tail.
    base_len = np.array([m - m // 3 for m in lengths], dtype=np.int64)
    base_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(base_len, out=base_indptr[1:])
    tail_indptr = indptr - base_indptr
    in_base = np.arange(total) - np.repeat(indptr[:-1], lengths) < np.repeat(base_len, lengths)
    pm = np.arange(n + 1, dtype=np.int64)
    inc = IncidenceCSR(
        np.array([0, total], dtype=np.int64), pm, base_indptr, base_indptr,
        slots[in_base], sims[in_base], slot_wrel,
        (tail_indptr, slots[~in_base], sims[~in_base]),
    )
    got = NativeCoverage(loaded, _check_layout(loaded.ffi, inc), best.copy()).all_gains()
    want = reduceat_gains(indptr, slots, sims, slot_wrel, best)
    if got.tobytes() == want.tobytes():
        return True
    _log.warning(
        "native all_gains sums unlike np.add.reduceat; using the numpy pass"
    )
    return False
