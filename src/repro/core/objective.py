"""The PAR objective ``G`` and its incremental evaluation.

The score of a solution ``S`` (Section 3.1) is

    G(S) = Σ_{q ∈ Q} W(q) · Σ_{p ∈ q} R(q, p) · SIM(q, p, NN(q, p, S))

where ``NN(q, p, S)`` is the most similar photo to ``p`` among ``S ∩ q``.
Because SIM is 0 across subset boundaries and 1 on the diagonal, the inner
sum only needs, for every member ``p`` of ``q``, the *best similarity seen so
far* to any selected member.  :class:`CoverageState` maintains exactly that
array per subset, which makes

* a marginal-gain query ``gain(p)`` cost ``O(Σ_{q ∋ p} |q|)`` (dense) or the
  size of ``p``'s neighbour lists (sparse), and
* an update ``add(p)`` the same.

The state runs on the flat incidence CSR precomputed by
:class:`~repro.core.instance.PARInstance`
(:class:`~repro.core.instance.IncidenceCSR`): per-photo contiguous slices
of (slot, similarity, weighted relevance).  ``gain``/``add`` run in C
(:mod:`repro.core.native`) whenever the compiled kernel loads, and
otherwise as a handful of vectorised numpy slice ops per membership (the
numpy kernel).  A state built over a selection replays it in one native
call.  ``all_gains`` is one C pass that sums as ``np.add.reduceat``
does, or numpy's ``np.maximum`` + ``np.add.reduceat`` pass over the
whole entry array, or one BLAS product per subset when every subset is
dense.

Both kernels accumulate floats in the *same order* as the seed's
per-subset ``neighbors()`` loop (per membership, in ascending subset
order, with identical masked dot products), so states fed the same add
order agree bit for bit on ``value`` and the coverage vectors — which is
what keeps the checkpoint resume proofs of :mod:`repro.core.checkpoint`
valid on either kernel.  That loop survives as the test oracle
``tests/oracles/coverage.py``, which proves the agreement.

All solvers in :mod:`repro.core` are built on this structure, and it is
also the one evaluator of a finished selection: :meth:`CoverageState.score`
sums the exact per-subset terms ``W(q)·(R(q)·best(q))`` in subset order,
and :func:`score` and :func:`score_breakdown` read them from one state.
``best`` is a max, so that value does not depend on the add order, and
each dot runs in fixed chunks of :data:`DOT_CHUNK` members, so it does
not depend on the BLAS thread count either.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core import native as _native
from repro.core.instance import PARInstance
from repro.errors import ValidationError
from repro.obs import probes as _obs_probes

__all__ = [
    "CoverageState",
    "DOT_CHUNK",
    "score",
    "score_breakdown",
    "max_score",
]

#: Members per dot product in :meth:`CoverageState.subset_value` and in
#: each membership's gain, on either kernel.  A threaded BLAS sums a
#: longer ``ddot`` in an order that depends on its thread count; a dot of
#: at most this many members runs as one call, as before, and keeps its
#: bits.
DOT_CHUNK = _native.DOT_CHUNK


def _chunked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` summed over consecutive :data:`DOT_CHUNK`-member chunks,
    in order, from a zero (one plain call up to ``DOT_CHUNK`` members)."""
    if a.size <= DOT_CHUNK:
        return float(a @ b)
    dot = 0.0
    for s in range(0, a.size, DOT_CHUNK):
        dot += a[s : s + DOT_CHUNK] @ b[s : s + DOT_CHUNK]
    return float(dot)


class CoverageState:
    """Incremental tracker of ``G`` under element insertions.

    The state holds, for every subset ``q`` and member position ``j``, the
    similarity of member ``j`` to its current nearest neighbour in the
    selection (0 when the selection contains no member of ``q``).  The total
    objective value is maintained as selections are added, and marginal
    gains are evaluated without mutating the state.

    A ``gain(p)`` query memoises its intermediate masks; an ``add(p)`` at
    the same selection size reuses them instead of recomputing the deltas
    (the CELF select step always adds the photo it just refreshed), at no
    extra cost to queries that are never followed by an add.

    Parameters
    ----------
    instance:
        The PAR instance whose objective is tracked.
    selection:
        Optional initial selection (e.g. the retention set ``S0``).
    """

    def __init__(self, instance: PARInstance, selection: Iterable[int] = ()) -> None:
        self.instance = instance
        self._has_sparse = any(q.similarity.is_sparse for q in instance.subsets)
        self._weighted_rel: List[np.ndarray] = [
            q.weight * q.relevance for q in instance.subsets
        ]
        inc = instance.incidence
        self._best_flat = np.zeros(inc.total_slots, dtype=np.float64)
        # best[qi][j] = max similarity of member j of subset qi to the
        # selection — views into the flat slot vector, so kernel writes
        # and the per-subset accessors always agree.
        self._best = self._subset_views(self._best_flat)
        # The compiled gain/add, writing into _best_flat; None when the
        # numpy kernel serves (no compiled kernel, or a float32 CSR).
        self._native = _native.bind(inc, self._best_flat)
        _obs = _obs_probes.active()
        if _obs is not None:
            # What actually serves the workload — construction-time only,
            # so gain()/add() stay probe-free.
            _obs.objective_states.labels(backend=self.served_by).inc()
        self._value = 0.0
        self._selected: set = set()
        # Fidelity of every photo inserted below 1 (multi-fidelity solves);
        # photos absent from it are held at full fidelity.
        self._fidelity: Dict[int, float] = {}
        # Insertion order of every add(); for a full-fidelity state, replaying
        # it on a fresh state reproduces _best and _value bit-for-bit (float
        # additions are order-sensitive), which plain checkpoints rely on.
        # It records no phi, so multi-fidelity checkpoints replay variant ids.
        self._order: List[int] = []
        # (photo, phi, stamp, total, segments) of the most recent gain()
        # query; segments hold the already-computed masks an add() can
        # replay (None: the native context holds them).
        self._gain_cache: Optional[Tuple[int, float, int, float, list]] = None
        self._replay(selection)

    # ------------------------------------------------------------------

    @property
    def value(self) -> float:
        """Current objective value ``G(S)``, as the running sum of the
        realised gains (so its last bits follow the add order; see
        :meth:`score`)."""
        return self._value

    @property
    def selected(self) -> frozenset:
        """The photos added so far (a fresh frozenset — use ``in state`` /
        ``state.size`` in hot loops)."""
        return frozenset(self._selected)

    @property
    def size(self) -> int:
        """Number of photos selected (O(1), no copy)."""
        return len(self._selected)

    @property
    def served_by(self) -> str:
        """What runs ``gain``/``add``: ``"native"`` (the compiled kernel)
        or ``"kernel"`` (the numpy kernel)."""
        return "native" if self._native is not None else "kernel"

    @property
    def order(self) -> List[int]:
        """The photos in the exact order they were added (copy); replayable
        bit for bit only if every insertion was at full fidelity."""
        return list(self._order)

    def __contains__(self, photo_id: int) -> bool:
        return int(photo_id) in self._selected

    def gain(self, photo_id: int, phi: float = 1.0) -> float:
        """Marginal gain ``G(S ∪ {p}) − G(S)`` without changing the state.

        ``phi`` inserts the photo at that fidelity: it covers every slot
        at ``phi ·`` the stored similarity.  For a photo already held at
        a lower fidelity this is the exact upgrade gain — raising ``phi``
        is monotone, so each slot simply moves to ``max(best, phi·sim)``.
        """
        p = int(photo_id)
        if p in self._selected and self._fidelity.get(p, 1.0) >= phi:
            return 0.0
        native = self._native
        if native is not None and 0 <= p < native.n:
            # segments=None: the coverage writes wait inside the native
            # context for add() to commit.
            total, segments = native.gain(p, phi), None
        else:
            total, segments = self._evaluate(p, phi)
        self._gain_cache = (p, phi, len(self._order), total, segments)
        return total

    def add(self, photo_id: int, phi: float = 1.0) -> float:
        """Add a photo (or upgrade it to ``phi``); return the realised gain."""
        p = int(photo_id)
        if p in self._selected and self._fidelity.get(p, 1.0) >= phi:
            return 0.0
        cache = self._gain_cache
        native = self._native
        if (
            cache is not None
            and cache[0] == p
            and cache[1] == phi
            and cache[2] == len(self._order)
        ):
            # The preceding gain(p) already computed the deltas and masks
            # at this exact selection — replay them instead of recomputing.
            realized, segments = cache[3], cache[4]
            if segments is None:
                native.commit()
        elif native is not None and 0 <= p < native.n:
            realized, segments = native.add(p, phi), None
        else:
            realized, segments = self._evaluate(p, phi)
        if segments is not None:  # else the native kernel has written them
            best = self._best_flat
            for slots, sims, positive in segments:
                best[slots[positive]] = sims[positive]
        self._gain_cache = None
        self._selected.add(p)
        if phi != 1.0:
            self._fidelity[p] = phi
        elif self._fidelity:  # plain solves never touch the dict
            self._fidelity.pop(p, None)
        self._order.append(p)
        self._value += realized
        return realized

    # ----------------------------------------------------------- kernels

    def _evaluate(self, p: int, phi: float) -> Tuple[float, list]:
        """Marginal gain of ``p`` on the flat CSR plus replayable segments
        ``(slots, sims, positive)``: ``add`` writes ``sims[positive]`` into
        ``_best_flat[slots[positive]]``.

        One gather/subtract/compare pass over the photo's whole entry
        range, then one masked dot per membership.  Accumulation matches
        the per-subset ``neighbors()`` loop bit for bit: delta values are
        elementwise identical however the range is sliced, each dot runs
        on the same extracted operands in the same (ascending-subset)
        order, and all-zero segments contribute exactly nothing either
        way.  At
        ``phi == 1`` the stored similarities are used unscaled, so full
        fidelity accumulates the very same floats as a plain insertion.
        """
        inc = self.instance.incidence
        slots, sims, bounds = inc.photo_entries(p)
        if slots.size == 0:
            return 0.0, []
        if phi != 1.0:
            sims = phi * sims
        delta = sims - self._best_flat[slots]
        positive = delta > 0
        if not positive.any():
            return 0.0, []
        slot_wrel = inc.slot_wrel
        if bounds is None:
            return (
                _chunked_dot(slot_wrel[slots[positive]], delta[positive]),
                [(slots, sims, positive)],
            )
        total = 0.0
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            pseg = positive[s:e]
            dsel = delta[s:e][pseg]
            if dsel.size:
                total += _chunked_dot(slot_wrel[slots[s:e][pseg]], dsel)
        # The add-replay segment covers the whole entry range at once:
        # memberships live in disjoint subsets, so their slots never
        # collide and one masked assignment equals the per-segment writes.
        return total, [(slots, sims, positive)]

    def all_gains(self) -> np.ndarray:
        """Marginal gains of every photo at once (vectorised).

        Equivalent to ``[self.gain(p) for p in range(n)]`` but computed in
        bulk, which is substantially faster when many candidates must be
        ranked (online bounds, branch-and-bound root ordering, batch
        heuristics).  One masked multiply + ``np.add.reduceat`` pass over
        the flat entry array (a tail merged in, :meth:`IncidenceCSR.merged`)
        serves every instance with a sparse subset, run in C with the same
        bits when the kernel loads; all-dense instances take one BLAS
        product per subset instead.  Selected photos report 0.
        """
        inc = self.instance.incidence
        native = self._native
        if inc.nnz == 0:
            gains = np.zeros(self.instance.n, dtype=np.float64)
        elif not self._has_sparse:
            gains = self._all_gains_dense()
        elif native is not None and native.sums_like_reduceat:
            gains = native.all_gains()
        else:
            gains = _native.reduceat_gains(
                *inc.merged(), inc.slot_wrel, self._best_flat
            )
        if self._selected:
            gains[list(self._selected)] = 0.0
        return gains

    def _all_gains_dense(self) -> np.ndarray:
        # The per-subset BLAS matmul beats the flat gather+reduceat pass
        # (contiguous SIMD vs indexed loads) when every subset is dense.
        gains = np.zeros(self.instance.n, dtype=np.float64)
        for qi, subset in enumerate(self.instance.subsets):
            delta = subset.similarity.matrix - self._best[qi][None, :]
            np.maximum(delta, 0.0, out=delta)
            np.add.at(gains, subset.members, delta @ self._weighted_rel[qi])
        return gains

    # ------------------------------------------------------------------

    def _replay(self, selection: Iterable[int]) -> None:
        """Add ``selection`` in order, as repeated :meth:`add` calls would.

        With the compiled kernel and in-range integer ids, the distinct
        ids (first occurrences, in order) go to C in one call, which adds
        them one by one and sums their realised gains in the same order,
        so ``_best_flat`` and ``value`` keep their bits.
        """
        native = self._native
        if native is not None:
            ids = selection if isinstance(selection, np.ndarray) else list(selection)
            ids = np.asarray(ids)
            if ids.ndim == 1 and (ids.dtype.kind in "iu" or ids.size == 0):
                ids = first_occurrences(ids.astype(np.int64))
                if ids.size == 0 or (ids.min() >= 0 and ids.max() < native.n):
                    self._value = native.replay(ids)
                    self._order = ids.tolist()
                    self._selected = set(self._order)
                    return
            selection = ids.tolist()
        for p in selection:
            self.add(int(p))

    def copy(self) -> "CoverageState":
        """Deep copy (shares the immutable instance, copies mutable state)."""
        clone = type(self).__new__(type(self))
        clone.instance = self.instance
        clone._has_sparse = self._has_sparse
        clone._weighted_rel = self._weighted_rel
        clone._best_flat = self._best_flat.copy()
        clone._best = self._subset_views(clone._best_flat)
        clone._native = (
            None
            if self._native is None
            else _native.bind(self.instance.incidence, clone._best_flat)
        )
        clone._value = self._value
        clone._selected = set(self._selected)
        clone._fidelity = dict(self._fidelity)
        clone._order = list(self._order)
        clone._gain_cache = None
        return clone

    def _subset_views(self, flat: np.ndarray) -> List[np.ndarray]:
        off = self.instance.incidence.subset_offsets
        return [flat[off[q] : off[q + 1]] for q in range(len(self.instance.subsets))]

    def subset_value(self, qi: int) -> float:
        """Weighted score contribution ``W(q) · (R(q) · best(q))`` of subset
        ``qi``, its dot summed over consecutive :data:`DOT_CHUNK`-member
        chunks."""
        subset = self.instance.subsets[qi]
        return float(subset.weight * _chunked_dot(subset.relevance, self._best[qi]))

    def score(self) -> float:
        """``G(S)``: the :meth:`subset_value` terms summed in subset order.

        Unlike :attr:`value`, the running sum of realised gains, this is
        the same float whatever order the selection was added in.
        """
        total = 0.0
        for qi in range(len(self.instance.subsets)):
            total += self.subset_value(qi)
        return total

    def coverage_of(self, qi: int) -> np.ndarray:
        """Per-member nearest-neighbour similarities for subset ``qi`` (copy)."""
        return self._best[qi].copy()


def first_occurrences(ids: np.ndarray) -> np.ndarray:
    """``ids`` without the repeats of an id after its first occurrence,
    in order (``ids`` itself when nothing repeats)."""
    if ids.size > 1:
        first = np.unique(ids, return_index=True)[1]
        if first.size < ids.size:
            return ids[np.sort(first)]
    return ids


def score(instance: PARInstance, selection: Iterable[int]) -> float:
    """``G(S)`` of a selection of photo ids in ``0..n-1`` (repeats count
    once): :meth:`CoverageState.score` of one state over it."""
    return _state_over(instance, selection).score()


def score_breakdown(
    instance: PARInstance, selection: Iterable[int]
) -> Dict[str, float]:
    """Per-subset weighted contributions ``{subset_id: W(q) · G(q, S)}``."""
    state = _state_over(instance, selection)
    return {
        q.subset_id: state.subset_value(qi) for qi, q in enumerate(instance.subsets)
    }


def max_score(instance: PARInstance) -> float:
    """The maximum attainable score ``G(P) = Σ_q W(q)``.

    Selecting every photo gives each member a nearest neighbour of
    similarity 1 (itself), so each subset scores exactly its weight.
    """
    return float(sum(q.weight for q in instance.subsets))


def _state_over(instance: PARInstance, selection: Iterable[int]) -> CoverageState:
    ids = sorted(set(int(p) for p in selection))
    if ids and not (0 <= ids[0] and ids[-1] < instance.n):
        raise ValidationError(f"photo ids must lie in 0..{instance.n - 1}")
    return CoverageState(instance, ids)
