"""Candidate verification: the native verifier and numpy agree byte for byte.

:func:`repro.sparsify.simhash.verify_candidate_pairs` checks each
candidate key ``i * m + j`` in C (``native_lsh.c``) whenever the library
loads and its dot product matches ``np.einsum`` at the rows' width, and
with numpy's gather-and-``einsum`` otherwise.  Both must keep the same
pairs, with the same values and dtypes, and fire ``on_chunk`` at the same
slices; nothing unchecked may reach C.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.sparsify import simhash
from repro.sparsify.simhash import unit_normalize, verify_candidate_pairs

needs_library = pytest.mark.skipif(
    native.library() is None, reason="the native library cannot load here"
)


def _verify(unit, keys, tau, chunk, *, numpy: bool):
    """``verify_candidate_pairs`` on one path, plus its ``on_chunk`` calls."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        if numpy:
            patch.setattr(native, "library", lambda: None)
        kept = verify_candidate_pairs(
            unit, keys, tau, chunk=chunk, on_chunk=lambda *span: calls.append(span)
        )
    return kept, calls


def _assert_same(got, want) -> None:
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@st.composite
def candidates(draw):
    """Unit rows (some zero, some repeated), keys into them and a τ that
    some pair's cosine meets exactly."""
    d = draw(st.one_of(st.integers(1, 40), st.just(130)))
    m = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = unit_normalize(rng.standard_normal((m, d)))
    # Repeated rows give cosines at or just past 1, which clip to 1.
    unit = unit[rng.integers(0, m, m)] if draw(st.booleans()) else unit
    unit[rng.random(m) < draw(st.sampled_from([0.0, 0.25]))] = 0.0
    keys = rng.integers(0, m * m, draw(st.integers(0, 4 * m * m)))
    if draw(st.booleans()):
        keys = np.sort(keys)
    if keys.size and draw(st.booleans()):
        i, j = divmod(int(keys[rng.integers(keys.size)]), m)
        tau = float(np.einsum("ij,ij->i", unit[[i]], unit[[j]])[0])
    else:
        tau = draw(st.sampled_from([-1.0, 0.0, 0.3, 0.8, 1.0]))
    return unit, keys, tau


@settings(max_examples=150, deadline=None)
@given(case=candidates(), chunk=st.sampled_from([1, 777, 1 << 17]))
def test_native_verify_equals_numpy_verify(case, chunk):
    unit, keys, tau = case
    want, want_calls = _verify(unit, keys, tau, chunk, numpy=True)
    got, got_calls = _verify(unit, keys, tau, chunk, numpy=False)
    _assert_same(got, want)
    assert got_calls == want_calls
    assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
    i, j = np.divmod(keys, unit.shape[0])
    s = np.einsum("ij,ij->i", unit[i], unit[j])
    keep = s >= tau
    _assert_same(got, (i[keep], j[keep], np.minimum(1.0, s[keep])))


@pytest.mark.parametrize(
    "m, keys",
    [(1, []), (1, [0, 0]), (2, []), (2, [0, 1, 2, 3, 1]), (0, [])],
    ids=["m=1, no keys", "m=1", "m=2, no keys", "m=2", "no rows"],
)
def test_the_smallest_inputs(m, keys):
    unit = unit_normalize(np.arange(1.0, 2 * m + 1).reshape(m, 2))
    keys = np.array(keys, dtype=np.int64)
    want, want_calls = _verify(unit, keys, 0.5, 777, numpy=True)
    got, got_calls = _verify(unit, keys, 0.5, 777, numpy=False)
    _assert_same(got, want)
    assert got_calls == want_calls == ([(0, keys.size)] if keys.size else [])
    assert got[0].size == keys.size  # every pair of these rows clears 0.5


@needs_library
def test_the_native_verify_serves_whenever_the_library_loads(monkeypatch):
    def numpy_path(*args, **kwargs):
        raise AssertionError("the numpy verify ran while the library loads")

    monkeypatch.setattr(simhash, "_numpy_verifier", numpy_path)
    rng = np.random.default_rng(5)
    unit = unit_normalize(rng.standard_normal((200, 16)))
    ki, kj, vals = verify_candidate_pairs(unit, np.arange(200 * 200), -1.0, chunk=999)
    assert ki.size == 200 * 200 and vals.max() == 1.0


@needs_library
def test_a_failed_self_check_falls_back_with_one_warning(monkeypatch, caplog):
    # A sequential sum is what a plain C loop would compute.
    monkeypatch.setattr(
        native, "_einsum_dots", lambda a, b: np.array([sum(x * y) for x, y in zip(a, b)])
    )
    monkeypatch.setattr(native.library(), "_verify_widths", {})
    served = []
    numpy_verifier = simhash._numpy_verifier
    monkeypatch.setattr(
        simhash,
        "_numpy_verifier",
        lambda *args: served.append(args[0].shape[1]) or numpy_verifier(*args),
    )
    rng = np.random.default_rng(6)
    unit = unit_normalize(rng.standard_normal((50, 24)))
    keys = np.arange(50 * 50)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        first = verify_candidate_pairs(unit, keys, 0.1)
        second = verify_candidate_pairs(unit, keys, 0.1)
    warnings = [r for r in caplog.records if r.name == native.__name__]
    assert len(warnings) == 1 and "width-24" in warnings[0].getMessage()
    assert served == [24, 24]
    want, _ = _verify(unit, keys, 0.1, simhash.DEFAULT_VERIFY_CHUNK, numpy=True)
    _assert_same(first, want)
    _assert_same(second, want)


class TestChecksBeforeC:
    """Nothing unchecked reaches the C verifier (or the numpy one)."""

    unit = unit_normalize(np.random.default_rng(7).standard_normal((4, 3)))

    @pytest.mark.parametrize("keys", [[0, -1], [0, 16], [15, 1 << 40]])
    def test_keys_must_lie_in_the_square(self, keys):
        keys = np.array(keys, dtype=np.int64)
        with pytest.raises(ValueError, match=r"\[0, 16\)"):
            native.pair_verifier(self.unit, keys, 0.5, 8)
        for numpy in (False, True):
            with pytest.raises(ValueError, match=r"\[0, 16\)"):
                _verify(self.unit, keys, 0.5, 8, numpy=numpy)

    @pytest.mark.parametrize(
        "keys",
        [
            np.zeros(4, dtype=np.int32),
            np.zeros(4, dtype=np.uint64),
            np.zeros(8, dtype=np.int64)[::2],
            np.zeros((2, 2), dtype=np.int64),
        ],
        ids=["int32", "uint64", "strided", "2-d"],
    )
    def test_keys_must_be_a_contiguous_int64_vector(self, keys):
        with pytest.raises(ValueError, match="int64 vector"):
            native.pair_verifier(self.unit, keys, 0.5, 8)

    @pytest.mark.parametrize(
        "unit",
        [
            unit.astype(np.float32),
            np.asfortranarray(unit),
            np.repeat(unit, 2, axis=1)[:, ::2],
            unit.ravel(),
        ],
        ids=["float32", "fortran", "strided", "1-d"],
    )
    def test_unit_must_be_a_c_contiguous_2d_float64_array(self, unit):
        with pytest.raises(ValueError, match="unit must be"):
            native.pair_verifier(unit, np.zeros(2, dtype=np.int64), 0.5, 8)

    @needs_library
    def test_a_chunk_is_a_slice_of_the_keys_within_the_buffers(self):
        keys = np.arange(16, dtype=np.int64)
        verify = native.pair_verifier(self.unit, keys, 0.5, 8)
        for start, end in ((0, 9), (-1, 4), (4, 3), (12, 17)):
            with pytest.raises(ValueError, match="not a slice"):
                verify(start, end)
        assert set(verify(8, 16)[0].tolist()) == {2, 3}  # rows 2, 3 meet themselves

    def test_too_many_rows_for_int32_ids_go_to_numpy(self):
        wide = np.empty((1 << 31, 0))  # C-contiguous, and no bytes
        assert native.pair_verifier(wide, np.zeros(0, dtype=np.int64), 0.5, 8) is None
