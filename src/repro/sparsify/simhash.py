"""SimHash locality-sensitive hashing for cosine similarity (Charikar [6]).

The paper sparsifies large instances without computing all pairwise
similarities: each embedding is hashed a constant number of times with
random-hyperplane signatures, and only pairs colliding in some band are
considered similar-pair candidates.  With properly tuned parameters this
finds, with probability arbitrarily close to 1, (almost) all pairs of
cosine similarity at least τ in roughly linear time.

Maths used for tuning:

* a single random hyperplane separates two vectors at angle θ with
  probability ``θ / π``, so one signature *bit* agrees with probability
  ``p(s) = 1 − arccos(s) / π`` for cosine similarity ``s``;
* with ``b`` bands of ``r`` rows each, a pair becomes a candidate with
  probability ``1 − (1 − p^r)^b`` — the classic LSH S-curve.

:func:`tune_bands` inverts the S-curve to pick ``(b, r)`` achieving a
target recall at τ while keeping ``r`` as large as possible (fewer spurious
candidates).  The banded candidate pairs themselves come from
:func:`repro.scale.lsh_candidate_keys`, the one pair emitter.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import native
from repro.errors import ConfigurationError

__all__ = [
    "bit_agreement_probability",
    "candidate_probability",
    "recommended_bits",
    "tune_bands",
    "SimHasher",
    "unit_normalize",
    "verify_candidate_pairs",
]

#: Default number of candidate pairs verified per chunk.  The native
#: verifier reads the rows in place and holds ``24 * chunk`` bytes of
#: kept pairs (3 MB); only the numpy fallback gathers, into two
#: ``(chunk, d)`` float64 buffers allocated once per call (~34 MB at
#: d=16), independent of the total candidate count.
DEFAULT_VERIFY_CHUNK = 1 << 17


def bit_agreement_probability(cosine_sim: float) -> float:
    """Probability one random-hyperplane bit agrees for a pair at ``s``.

    ``p(s) = 1 − arccos(s) / π``; clipped to the valid cosine range.
    """
    s = min(1.0, max(-1.0, float(cosine_sim)))
    return 1.0 - np.arccos(s) / np.pi


def candidate_probability(cosine_sim: float, bands: int, rows: int) -> float:
    """Probability a pair at similarity ``s`` collides in at least one band."""
    p = bit_agreement_probability(cosine_sim)
    return 1.0 - (1.0 - p**rows) ** bands


def recommended_bits(
    n: int,
    tau: float,
    target_recall: float = 0.95,
) -> int:
    """Signature width for near-linear candidate counts at scale ``n``.

    Banded LSH admits a random (dissimilar) pair into the candidate set
    with probability ``≈ bands · 0.5^rows`` — with the classic 64-bit
    default the bands are so short that candidates grow as O(n²) once the
    archive passes ~10^4 photos.  The standard cure (Indyk–Motwani) is
    ``rows ≈ log2(n)`` so each band's false-collision rate is ~1/n, then
    as many bands as the recall target needs.  The resulting candidate
    count scales as ``n^(1+ρ)`` with ``ρ = ln(1/p₁)/ln 2 < 1`` —
    sub-quadratic, at the price of a wider (but still O(n·bits) ≪ O(n²))
    signature.

    Returns an ``n_bits`` for which :func:`tune_bands` recovers exactly
    this (bands, rows) split.
    """
    if n < 1:
        raise ConfigurationError("n must be positive")
    if not (0.0 < tau <= 1.0):
        raise ConfigurationError(f"tau must lie in (0, 1], got {tau}")
    if not (0.0 < target_recall < 1.0):
        raise ConfigurationError("target_recall must lie in (0, 1)")
    rows = max(4, int(np.ceil(np.log2(max(n, 2)))))
    p_tau = bit_agreement_probability(tau) ** rows
    if p_tau <= 0.0:
        raise ConfigurationError("tau too low for banded LSH at this scale")
    bands = int(np.ceil(np.log(1.0 - target_recall) / np.log(1.0 - p_tau)))
    return max(1, bands) * rows


def tune_bands(
    tau: float,
    n_bits: int,
    target_recall: float = 0.95,
) -> Tuple[int, int]:
    """Choose ``(bands, rows)`` with ``bands · rows ≤ n_bits``.

    Picks the largest ``rows`` (sharpest S-curve, fewest false candidates)
    whose full-width banding still reaches ``target_recall`` at similarity
    ``τ``.  Falls back to ``rows = 1`` when even that cannot reach the
    target with the given number of bits.
    """
    if not (0.0 < tau <= 1.0):
        raise ConfigurationError(f"tau must lie in (0, 1], got {tau}")
    if not (0.0 < target_recall < 1.0):
        raise ConfigurationError("target_recall must lie in (0, 1)")
    if n_bits < 1:
        raise ConfigurationError("n_bits must be at least 1")
    for rows in range(n_bits, 0, -1):
        bands = n_bits // rows
        if candidate_probability(tau, bands, rows) >= target_recall:
            return bands, rows
    return n_bits, 1


class SimHasher:
    """Random-hyperplane signature generator.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    n_bits:
        Signature length (``bands · rows`` bits are used by banding).
    rng:
        Randomness source; pass a seeded generator for reproducibility.
    """

    def __init__(
        self,
        dim: int,
        n_bits: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if dim < 1 or n_bits < 1:
            raise ConfigurationError("dim and n_bits must be positive")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.n_bits = n_bits
        # Hyperplane normals; rows are independent standard Gaussians, which
        # makes the sign pattern uniform over directions.
        self.planes = rng.standard_normal((n_bits, dim))

    def signatures(self, vectors: np.ndarray) -> np.ndarray:
        """Boolean signature matrix of shape ``(n_vectors, n_bits)``."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ConfigurationError(
                f"expected vectors of shape (n, {self.dim}), got {vectors.shape}"
            )
        return (vectors @ self.planes.T) >= 0.0


def unit_normalize(vectors: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm (zero rows pass through unchanged)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    norms[norms == 0] = 1.0
    return vectors / norms[:, None]


def verify_candidate_pairs(
    unit: np.ndarray,
    keys: np.ndarray,
    tau: float,
    *,
    chunk: int = DEFAULT_VERIFY_CHUNK,
    on_chunk: Optional[Callable[[int, int], None]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact-cosine verification of candidate pairs, in bounded chunks.

    ``keys`` holds one int64 key ``i * m + j`` per candidate pair, where
    ``m`` is the number of rows of ``unit``, which must be unit-normalised
    (:func:`unit_normalize`).  Pairs with raw cosine ≥ τ are kept, their
    stored value clipped to ``min(1, s)``, in key order.  Each pair's dot
    product sums in ``np.einsum("ij,ij->i")``'s order, so the value for a
    given ``(i, j)`` is bit-identical regardless of chunk size or
    position — the fused streamed builder (:mod:`repro.scale`), live
    uploads and the unfused oracle of ``tests/oracles/lsh.py`` share this
    function precisely so their surviving pairs and values match bit for
    bit.

    The native verifier (``native_lsh.c``) reads the rows in place
    whenever the library loads and its dot matches ``np.einsum`` at this
    width; otherwise numpy gathers each chunk's rows into two buffers and
    runs the ``einsum`` itself.  Both return the same arrays, byte for
    byte.  Keys outside ``[0, m²)`` raise ``ValueError``.

    ``on_chunk(start, end)`` fires before each chunk (probes/faults hook).
    Returns ``(kept_ii, kept_jj, kept_vals)``.
    """
    if chunk < 1:
        raise ConfigurationError("verify chunk must be positive")
    unit = np.ascontiguousarray(unit, dtype=np.float64)
    keys = np.ascontiguousarray(keys, dtype=np.int64).ravel()
    verify = native.pair_verifier(unit, keys, tau, chunk) or _numpy_verifier(
        unit, keys, tau, chunk
    )
    kept: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for start in range(0, keys.size, chunk):
        end = min(start + chunk, keys.size)
        if on_chunk is not None:
            on_chunk(start, end)
        kept.append(verify(start, end))
    if not kept:
        empty_idx = np.zeros(0, dtype=np.int64)
        return empty_idx, empty_idx.copy(), np.zeros(0, dtype=np.float64)
    kept_i, kept_j, kept_v = zip(*kept)
    return np.concatenate(kept_i), np.concatenate(kept_j), np.concatenate(kept_v)


def _numpy_verifier(
    unit: np.ndarray, keys: np.ndarray, tau: float, chunk: int
) -> Callable[[int, int], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The numpy check of ``keys[start:end]``, for when the native one
    cannot serve.  Its gather buffers are allocated once per call, so its
    time does not depend on what the allocator holds."""
    m, d = unit.shape
    size = min(chunk, keys.size)
    ids = np.empty((2, size), dtype=np.int64)
    # Two blocks, not one of twice the size: at the default chunk and
    # d=16 each is 16.8 MB, and freeing it raises glibc's mmap threshold
    # (capped at 32 MiB) so that a live archive's later uploads keep
    # their multi-MB arrays on the heap.
    rows = (np.empty((size, d)), np.empty((size, d)))

    def verify(start: int, end: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = end - start
        ci, cj = np.divmod(keys[start:end], m, out=(ids[0, :c], ids[1, :c]))
        # mode="clip" gathers straight into the buffers ("raise" would
        # buffer internally); the keys were checked to lie in range.
        s = np.einsum(
            "ij,ij->i",
            np.take(unit, ci, axis=0, out=rows[0][:c], mode="clip"),
            np.take(unit, cj, axis=0, out=rows[1][:c], mode="clip"),
        )
        keep = s >= tau
        return ci[keep], cj[keep], np.minimum(1.0, s[keep])

    return verify
