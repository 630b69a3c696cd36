"""The variant catalog: per-photo (cost, fidelity) renditions.

Multi-fidelity PAR (ROADMAP item 3) generalises the archive decision
from *keep or drop* to *keep at which rendition*.  Each photo offers a
short menu of variants — the original plus recompressed tiers (and, for
delta-encoded storage, a delta-vs-similar rendition) — and the exclusive
solver (:mod:`repro.fidelity.solver`) picks **at most one** variant per
photo under the byte budget.  "Dropped" is the implicit null action, not
a stored variant.

A :class:`VariantCatalog` is CSR-shaped: three flat arrays (``cost``,
``fidelity``, ``tier``) indexed by a per-photo ``indptr``, mirroring the
layout of :class:`repro.core.instance.SparseSimilarity` so catalogs ride
along with sparse streamed builds (:mod:`repro.scale`) and live ingest
(:mod:`repro.live`) without densification.  Within a photo, variants are
stored best-first: strictly decreasing fidelity *and* strictly
decreasing cost, with the original (fidelity 1) in slot 0.  Dominated
variants (cheaper-or-equal fidelity at equal-or-higher cost) are
rejected at build time — the solver's upgrade pass relies on "higher
fidelity costs strictly more".

The semantics a variant carries (see docs/multi_fidelity.md): keeping
photo ``p`` at fidelity ``φ`` covers every slot the original would
cover, at ``φ ·`` the original similarity.  A fidelity-1 catalog is
therefore *exactly* the discard-only problem, which is what lets
:func:`VariantCatalog.trivial` reproduce ``lazy_greedy`` bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.faults import check as _fault_check

__all__ = ["VariantCatalog", "DEFAULT_TIERS"]

_FORMAT = 1

#: The default recompression menu: (tier label, fidelity, size factor).
#: Factors follow the JPEG re-encode measurements of the recompression
#: papers cited in PAPERS.md — a quality-85 re-encode keeps ~85% of
#: perceptual similarity at ~45% of the bytes, a thumbnail-grade tier
#: keeps ~60% at ~22%.
DEFAULT_TIERS: Tuple[Tuple[str, float, float], ...] = (
    ("q85", 0.85, 0.45),
    ("q60", 0.60, 0.22),
)


class VariantCatalog:
    """Flat per-photo variant menus (CSR layout).

    Attributes
    ----------
    indptr:
        ``int64[n_photos + 1]`` — photo ``p``'s variants occupy the
        global variant-id range ``indptr[p]:indptr[p + 1]``.
    cost:
        ``float64[n_variants]`` — byte cost of each variant.
    fidelity:
        ``float64[n_variants]`` — quality retained, in ``(0, 1]``;
        slot 0 of every photo is the original at fidelity 1.
    tier:
        One label per variant (``"original"``, ``"q85"``, ...), used in
        quality reports and the ``phocus_fidelity_*`` metrics.
    photo_of:
        ``int64[n_variants]`` — the owning photo of each variant id.
    """

    __slots__ = ("indptr", "cost", "fidelity", "tier", "photo_of")

    def __init__(
        self,
        indptr: np.ndarray,
        cost: np.ndarray,
        fidelity: np.ndarray,
        tier: Sequence[str],
    ) -> None:
        _fault_check("fidelity.catalog")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        cost = np.ascontiguousarray(cost, dtype=np.float64)
        fidelity = np.ascontiguousarray(fidelity, dtype=np.float64)
        tier = list(tier)
        if indptr.ndim != 1 or indptr.size < 2 or int(indptr[0]) != 0:
            raise ValidationError("variant catalog: malformed indptr")
        if np.any(np.diff(indptr) < 1):
            raise ValidationError(
                "variant catalog: every photo needs at least one variant"
            )
        nv = int(indptr[-1])
        if cost.shape != (nv,) or fidelity.shape != (nv,) or len(tier) != nv:
            raise ValidationError(
                "variant catalog: cost/fidelity/tier must have one entry "
                "per variant"
            )
        if not np.all(np.isfinite(cost) & (cost > 0)):
            raise ValidationError(
                "variant catalog: costs must be positive and finite"
            )
        if not np.all((fidelity > 0) & (fidelity <= 1)):
            raise ValidationError(
                "variant catalog: fidelity must lie in (0, 1]"
            )
        starts = indptr[:-1]
        if not np.all(fidelity[starts] == 1.0):
            raise ValidationError(
                "variant catalog: slot 0 of every photo must be the "
                "original at fidelity 1"
            )
        # Best-first within a photo: strictly decreasing fidelity and cost
        # (equal boundary entries belong to the *next* photo's slot 0).
        interior = np.ones(nv, dtype=bool)
        interior[starts] = False
        interior = interior[1:]
        if np.any((np.diff(fidelity) >= 0) & interior):
            raise ValidationError(
                "variant catalog: per-photo fidelity must strictly decrease"
            )
        if np.any((np.diff(cost) >= 0) & interior):
            raise ValidationError(
                "variant catalog: per-photo cost must strictly decrease "
                "(a lower-fidelity variant that is not cheaper is dominated)"
            )
        self.indptr = indptr
        self.cost = cost
        self.fidelity = fidelity
        self.tier = tier
        self.photo_of = np.repeat(
            np.arange(self.n_photos, dtype=np.int64), np.diff(indptr)
        )

    # ------------------------------------------------------------ queries

    @property
    def n_photos(self) -> int:
        return self.indptr.size - 1

    @property
    def n_variants(self) -> int:
        return int(self.indptr[-1])

    def variants_of(self, photo_id: int) -> range:
        """Global variant ids of one photo (slot 0 is the original)."""
        return range(int(self.indptr[photo_id]), int(self.indptr[photo_id + 1]))

    def original_of(self, photo_id: int) -> int:
        """Variant id of the fidelity-1 original of ``photo_id``."""
        return int(self.indptr[photo_id])

    def is_trivial(self) -> bool:
        """True when every photo offers only its original."""
        return self.n_variants == self.n_photos

    def max_variants_per_photo(self) -> int:
        return int(np.diff(self.indptr).max())

    # ------------------------------------------------------- constructors

    @classmethod
    def trivial(cls, costs: Sequence[float]) -> "VariantCatalog":
        """One fidelity-1 variant per photo — the discard-only problem.

        The exclusive solver run on a trivial catalog reproduces
        ``lazy_greedy``'s picks, value, and evaluation count bit for bit
        (asserted by tests/test_fidelity.py).
        """
        costs = np.asarray(costs, dtype=np.float64)
        n = costs.size
        return cls(
            np.arange(n + 1, dtype=np.int64),
            costs,
            np.ones(n, dtype=np.float64),
            ["original"] * n,
        )

    @classmethod
    def from_levels(
        cls,
        costs: Sequence[float],
        levels: Sequence[Tuple[float, float]] = (),
        *,
        tiers: Optional[Sequence[str]] = None,
    ) -> "VariantCatalog":
        """Uniform recompression menu: every photo gets the same tiers.

        ``levels`` is a sequence of ``(fidelity, size_factor)`` pairs,
        both in ``(0, 1)`` — e.g. ``[(0.85, 0.45), (0.6, 0.22)]`` — the
        same encoding the tests' flat-expansion oracle
        (``tests/oracles/compression.py``) uses, so a flat expansion and
        a catalog built from the same levels describe the identical
        decision space.  Pairs may arrive in any order; they are sorted
        best-first per photo.
        """
        costs = np.asarray(costs, dtype=np.float64)
        n = costs.size
        if n == 0:
            raise ValidationError("variant catalog: no photos")
        pairs = [(float(f), float(s)) for f, s in levels]
        for f, s in pairs:
            if not (0.0 < f < 1.0):
                raise ValidationError(
                    f"compression level fidelity must lie in (0, 1), got {f!r}"
                )
            if not (0.0 < s < 1.0):
                raise ValidationError(
                    f"compression level size factor must lie in (0, 1), got {s!r}"
                )
        if tiers is None:
            tier_names = [f"c{f:g}x{s:g}" for f, s in pairs]
        else:
            tier_names = [str(t) for t in tiers]
            if len(tier_names) != len(pairs):
                raise ValidationError("one tier label required per level")
        order = sorted(range(len(pairs)), key=lambda i: -pairs[i][0])
        k = 1 + len(pairs)
        fid_row = np.array([1.0] + [pairs[i][0] for i in order])
        factor_row = np.array([1.0] + [pairs[i][1] for i in order])
        labels_row = ["original"] + [tier_names[i] for i in order]
        return cls(
            np.arange(0, (n + 1) * k, k, dtype=np.int64),
            (costs[:, None] * factor_row[None, :]).ravel(),
            np.tile(fid_row, n),
            labels_row * n,
        )

    @classmethod
    def default(cls, costs: Sequence[float]) -> "VariantCatalog":
        """The :data:`DEFAULT_TIERS` recompression menu."""
        return cls.from_levels(
            costs,
            [(f, s) for _, f, s in DEFAULT_TIERS],
            tiers=[t for t, _, _ in DEFAULT_TIERS],
        )

    # ------------------------------------------------------------- wire

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": _FORMAT,
            "indptr": self.indptr.tolist(),
            "cost": self.cost.tolist(),
            "fidelity": self.fidelity.tolist(),
            "tier": list(self.tier),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "VariantCatalog":
        if not isinstance(doc, dict):
            raise ValidationError("variant catalog document must be an object")
        if doc.get("format") != _FORMAT:
            raise ValidationError(
                f"unsupported variant catalog format {doc.get('format')!r}"
            )
        try:
            return cls(
                np.array(doc["indptr"], dtype=np.int64),
                np.array(doc["cost"], dtype=np.float64),
                np.array(doc["fidelity"], dtype=np.float64),
                [str(t) for t in doc["tier"]],
            )
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(
                f"malformed variant catalog document: {exc!r}"
            ) from exc

    # ------------------------------------------------------------ reports

    def describe_selection(
        self, chosen: Dict[int, int]
    ) -> Dict[str, Any]:
        """Quality report for ``{photo_id: variant_id}`` choices.

        ``dropped`` counts photos with no chosen variant;
        ``mean_fidelity`` averages over *all* photos with dropped photos
        contributing 0, so it reads as "fraction of archive quality
        retained".
        """
        by_tier: Dict[str, int] = {}
        fid_sum = 0.0
        for p, vid in chosen.items():
            if not self.indptr[p] <= vid < self.indptr[p + 1]:
                raise ValidationError(
                    f"variant {vid} does not belong to photo {p}"
                )
            by_tier[self.tier[vid]] = by_tier.get(self.tier[vid], 0) + 1
            fid_sum += float(self.fidelity[vid])
        n = self.n_photos
        return {
            "photos": n,
            "kept": len(chosen),
            "dropped": n - len(chosen),
            "kept_original": by_tier.get("original", 0),
            "recompressed": len(chosen) - by_tier.get("original", 0),
            "by_tier": dict(sorted(by_tier.items())),
            "mean_fidelity": fid_sum / n if n else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VariantCatalog(photos={self.n_photos}, "
            f"variants={self.n_variants})"
        )
