"""The LSH candidate emitter: native keys, numpy keys and the oracle agree.

:func:`repro.scale.lsh_candidate_keys` sends each band's bucket keys to
the native emitter (``native_lsh.c``) whenever the library loads, and to
its numpy emitter otherwise.  Both must return the very keys of the
set-based oracle in ``tests/oracles/lsh.py``, byte for byte, and leave
the same bucket index.  Signatures are drawn directly: with the identity
as hyperplanes, embedding ``2·bits − 1`` hashes to ``bits``, so every
bucket shape (one bucket for all, one per photo, rows of 1 to past a
machine word) is reachable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.scale import builder, lsh_candidate_keys
from tests.oracles.lsh import candidate_pairs

needs_library = pytest.mark.skipif(
    native.library() is None, reason="the native library cannot load here"
)


def _keys(sigs: np.ndarray, bands: int, rows: int, *, numpy: bool, **kw):
    """``lsh_candidate_keys`` of the signatures ``sigs`` on one emitter,
    plus the bucket index it filled and the counts ``on_pair_batch`` saw."""
    n = sigs.shape[0]
    index = (
        np.zeros((bands, n), dtype=np.uint64 if rows <= 64 else np.int64),
        np.zeros((bands, n), dtype=np.int32),
    )
    batches = []
    with pytest.MonkeyPatch.context() as patch:
        if numpy:
            patch.setattr(native, "candidate_emitter", lambda *args: None)
        keys, _ = lsh_candidate_keys(
            2.0 * sigs - 1.0,
            np.eye(bands * rows),
            bands,
            rows,
            on_pair_batch=batches.append,
            _bucket_index=index,
            **kw,
        )
    return keys, index, batches


def _oracle(sigs: np.ndarray, bands: int, rows: int) -> np.ndarray:
    n = sigs.shape[0]
    pairs = sorted(candidate_pairs(sigs, bands, rows))
    return np.array([i * n + j for i, j in pairs], dtype=np.int64)


@st.composite
def signatures(draw):
    n = draw(st.integers(1, 40))
    rows = draw(st.sampled_from([1, 2, 5, 16, 17, 33, 64, 65, 80]))
    bands = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["random", "one bucket", "own bucket"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "one bucket":
        sigs = np.repeat(rng.random((1, bands * rows)) < 0.5, n, axis=0)
    elif shape == "own bucket":
        # Each band's first bits spell a permutation of the ids.
        n = min(n, 2**rows)
        width = min(rows, 6)  # 2**6 > 40 photos
        sigs = rng.random((n, bands * rows)) < 0.5
        for b in range(bands):
            ids = rng.permutation(n)[:, None]
            sigs[:, b * rows : b * rows + width] = (ids >> np.arange(width)) & 1
    else:
        # Few distinct rows, so buckets hold several photos in every band.
        pool = rng.random((draw(st.integers(1, 6)), bands * rows)) < 0.5
        sigs = pool[rng.integers(0, len(pool), n)]
        flips = rng.random(sigs.shape) < draw(st.sampled_from([0.0, 0.02, 0.3]))
        sigs = sigs ^ flips
    return sigs, bands, rows


@settings(max_examples=120, deadline=None)
@given(
    case=signatures(),
    chunk_pairs=st.sampled_from([1, 777, 1 << 17]),
    signature_chunk=st.integers(1, 64),
)
@example(case=(np.zeros((1, 3), dtype=bool), 1, 3), chunk_pairs=1, signature_chunk=1)
@example(case=(np.zeros((2, 3), dtype=bool), 3, 1), chunk_pairs=1, signature_chunk=1)
@example(
    case=(np.array([[0, 1], [1, 0]], dtype=bool), 1, 2), chunk_pairs=777, signature_chunk=1
)
def test_native_keys_equal_numpy_keys_and_the_oracle(case, chunk_pairs, signature_chunk):
    sigs, bands, rows = case
    kw = dict(chunk_pairs=chunk_pairs, signature_chunk=signature_chunk)
    want = _oracle(sigs, bands, rows)
    numpy_keys, numpy_index, numpy_batches = _keys(sigs, bands, rows, numpy=True, **kw)
    assert numpy_keys.dtype == np.int64
    assert numpy_keys.tobytes() == want.tobytes()
    for b in range(bands):
        keys = builder._band_keys(sigs[:, b * rows : (b + 1) * rows])
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(numpy_index[1][b], order)
        assert np.array_equal(numpy_index[0][b], keys[order])
    if native.library() is None:
        return
    native_keys, native_index, native_batches = _keys(
        sigs, bands, rows, numpy=False, **kw
    )
    assert native_keys.dtype == np.int64
    assert native_keys.tobytes() == want.tobytes()
    for got, expected in zip(native_index, numpy_index):
        assert np.array_equal(got, expected)
    # Both emitters report every within-bucket pair of every band once.
    assert sum(native_batches) == sum(numpy_batches)
    assert all(count > 0 for count in native_batches)


@needs_library
def test_the_native_emitter_serves_whenever_the_library_loads(monkeypatch):
    def numpy_path(*args, **kwargs):
        raise AssertionError("the numpy emitter ran while the library loads")

    monkeypatch.setattr(builder, "_emit_band_pairs", numpy_path)
    monkeypatch.setattr(builder, "_sorted_dedup", numpy_path)
    rng = np.random.default_rng(3)
    sigs = rng.random((300, 24)) < 0.5
    sigs[150:] = sigs[:150]
    keys, _, _ = _keys(sigs, 3, 8, numpy=False)
    assert keys.tobytes() == _oracle(sigs, 3, 8).tobytes()


@needs_library
class TestChecksBeforeC:
    """Nothing unchecked reaches the C emitter."""

    def test_keys_must_lie_below_their_bound(self):
        emitter = native.candidate_emitter(4, 1)
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            emitter.add_band(np.array([0, 1, 2, 8], dtype=np.uint64), 8)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            emitter.add_band(np.array([0, -1, 2, 3], dtype=np.int64), 4)

    @pytest.mark.parametrize(
        "keys",
        [
            np.zeros(4, dtype=np.int32),
            np.zeros(5, dtype=np.uint64),
            np.zeros(8, dtype=np.uint64)[::2],
            np.zeros((4, 1), dtype=np.uint64),
        ],
        ids=["int32", "wrong length", "strided", "2-d"],
    )
    def test_keys_must_be_a_contiguous_int64_vector_of_n(self, keys):
        with pytest.raises(ValueError):
            native.candidate_emitter(4, 1).add_band(keys, 8)

    def test_order_must_be_a_contiguous_int32_bands_by_n_array(self):
        for order in (
            np.zeros((2, 4), dtype=np.int64),
            np.zeros((2, 5), dtype=np.int32),
            np.zeros((4, 2), dtype=np.int32).T,
        ):
            with pytest.raises(ValueError):
                native.candidate_emitter(4, 2, order)

    def test_every_band_once_before_the_pairs(self):
        emitter = native.candidate_emitter(3, 2)
        keys = np.zeros(3, dtype=np.uint64)
        emitter.add_band(keys, 2)
        with pytest.raises(ValueError, match="1 of 2 bands"):
            emitter.pair_keys(10)
        emitter.add_band(keys, 2)
        with pytest.raises(ValueError, match="already added"):
            emitter.add_band(keys, 2)
        assert emitter.pair_keys(10).tolist() == [1, 2, 5]

    def test_too_many_photos_for_int32_ids_go_to_numpy(self):
        assert native.candidate_emitter(1 << 31, 1) is None
