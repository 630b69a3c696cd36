"""The end-to-end PHOcus system (Figure 4).

Mirrors the paper's architecture: a **Data Representation Module** that
turns raw user input into a validated PAR instance, and a **Solver** that
runs the optimisation.  The three input modes of Section 5.1 are all
supported:

1. **direct** — photos arrive already tagged with their subsets (plus
   optional per-photo relevance adjustments);
2. **queries** — the user supplies weighted natural-language queries and
   per-photo descriptive text; the internal search engine computes the
   subsets and relevance scores;
3. **automatic** — subsets are derived from photo metadata by automatic
   tagging (label lists, EXIF date/place buckets).

The solver stage applies optional τ-sparsification (exact or LSH), runs a
registered algorithm (Algorithm 1 by default), and reports the solution
together with the data-dependent certificates of Section 4.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import certify, sparsification_bound
from repro.core.instance import PARInstance, Photo, SubsetSpec
from repro.core.objective import score_breakdown
from repro.core.solver import Solution, solve
from repro.errors import ConfigurationError, ValidationError
from repro.images.exif import ExifRecord, geo_bucket, time_bucket
from repro.search.engine import SearchEngine
from repro.similarity.contextual import ContextualSimilarity
from repro.sparsify.pipeline import SparsifyReport, sparsify_instance

__all__ = ["PhocusConfig", "ArchiveReport", "DataRepresentationModule", "PHOcus"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PhocusConfig:
    """Solver-stage configuration.

    ``tau = 0`` disables sparsification (the PHOcus-NS variant);
    ``sparsify_method`` selects exact thresholding or SimHash LSH.
    """

    algorithm: str = "phocus"
    tau: float = 0.0
    sparsify_method: str = "exact"
    lsh_bits: int = 64
    lsh_target_recall: float = 0.95
    contextual_mode: str = "reweight+normalise"
    certificate: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau <= 1.0):
            raise ConfigurationError("tau must lie in [0, 1]")


@dataclass
class ArchiveReport:
    """Everything PHOcus tells the analyst after a run."""

    solution: Solution
    retained_count: int
    archived_count: int
    budget_utilisation: float
    subset_scores: Dict[str, float]
    sparsify: Optional[SparsifyReport] = None
    sparsification_guarantee: Optional[float] = None
    optimum_upper_bound: Optional[float] = None
    prep_seconds: float = 0.0

    @property
    def worst_covered_subsets(self) -> List[Tuple[str, float]]:
        """Subsets with the lowest achieved score — where quality was paid."""
        return sorted(self.subset_scores.items(), key=lambda kv: kv[1])[:5]


class DataRepresentationModule:
    """Figure 4's left box: raw input → validated :class:`PARInstance`."""

    def __init__(self, contextual_mode: str = "reweight+normalise") -> None:
        self.contextual_mode = contextual_mode

    def _build(
        self,
        photos: Sequence[Photo],
        specs: Sequence[SubsetSpec],
        embeddings: np.ndarray,
        budget: float,
        retained: Iterable[int],
    ) -> PARInstance:
        if not specs:
            raise ValidationError("input produced no pre-defined subsets")
        return PARInstance.build(
            photos,
            specs,
            budget,
            retained=retained,
            embeddings=embeddings,
            similarity_fn=ContextualSimilarity(self.contextual_mode),
        )

    def from_tags(
        self,
        photos: Sequence[Photo],
        embeddings: np.ndarray,
        tags: Mapping[str, Sequence[int]],
        budget: float,
        *,
        weights: Optional[Mapping[str, float]] = None,
        relevance: Optional[Mapping[str, Sequence[float]]] = None,
        retained: Iterable[int] = (),
    ) -> PARInstance:
        """Input mode 1 (direct): subsets given as tag → photo-id lists.

        Relevance defaults to uniform within each subset (as the paper
        specifies) and may be adjusted per tag; weights default to 1.
        """
        specs = []
        for tag, members in tags.items():
            if not len(members):
                continue
            rel = (
                list(relevance[tag])
                if relevance and tag in relevance
                else [1.0] * len(members)
            )
            weight = float(weights.get(tag, 1.0)) if weights else 1.0
            specs.append(SubsetSpec(tag, weight, list(members), rel))
        return self._build(photos, specs, embeddings, budget, retained)

    def from_queries(
        self,
        photos: Sequence[Photo],
        embeddings: np.ndarray,
        photo_texts: Mapping[int, str],
        weighted_queries: Sequence[Tuple[str, float]],
        budget: float,
        *,
        top_k: Optional[int] = None,
        retained: Iterable[int] = (),
    ) -> PARInstance:
        """Input mode 2 (queries): subsets computed by the search engine."""
        engine = SearchEngine()
        for photo in photos:
            text = photo_texts.get(photo.photo_id, photo.label)
            if text and text.strip():
                engine.add_photo(photo.photo_id, text)
        specs = engine.subsets_for_queries(weighted_queries, top_k=top_k)
        return self._build(photos, specs, embeddings, budget, retained)

    def from_metadata(
        self,
        photos: Sequence[Photo],
        embeddings: np.ndarray,
        budget: float,
        *,
        retained: Iterable[int] = (),
        min_subset_size: int = 2,
    ) -> PARInstance:
        """Input mode 3 (automatic tagging): subsets from photo metadata.

        Derives tags from ``metadata['labels']`` lists and — when an
        ``metadata['exif']`` block is present — from day and coarse-place
        buckets, the way image-tagging software organises personal photos
        (Section 1).
        """
        tags: Dict[str, List[int]] = {}
        for photo in photos:
            for label in photo.metadata.get("labels", ()) or ():
                tags.setdefault(str(label), []).append(photo.photo_id)
            exif = photo.metadata.get("exif")
            if isinstance(exif, ExifRecord):
                tags.setdefault(time_bucket(exif), []).append(photo.photo_id)
                tags.setdefault(geo_bucket(exif), []).append(photo.photo_id)
            elif isinstance(exif, Mapping) and "timestamp" in exif:
                day = str(exif["timestamp"])[:10]
                tags.setdefault(day, []).append(photo.photo_id)
        tags = {t: ms for t, ms in tags.items() if len(ms) >= min_subset_size}
        # Weight automatic tags by how many photos they organise.
        weights = {t: float(len(ms)) for t, ms in tags.items()}
        return self.from_tags(
            photos, embeddings, tags, budget, weights=weights, retained=retained
        )


class PHOcus:
    """Figure 4's full pipeline: representation module + solver + report."""

    def __init__(self, config: PhocusConfig = PhocusConfig()) -> None:
        self.config = config
        self.representation = DataRepresentationModule(config.contextual_mode)

    def run(self, instance: PARInstance) -> ArchiveReport:
        """Solve a prepared instance and assemble the analyst report."""
        config = self.config
        rng = np.random.default_rng(config.seed)

        logger.info(
            "PHOcus run: n=%d subsets=%d budget=%.0f algorithm=%s tau=%.2f",
            instance.n, len(instance.subsets), instance.budget,
            config.algorithm, config.tau,
        )
        prep_start = time.perf_counter()
        sparsify_report: Optional[SparsifyReport] = None
        guarantee: Optional[float] = None
        solver_instance = instance
        if config.tau > 0.0:
            solver_instance, sparsify_report = sparsify_instance(
                instance,
                config.tau,
                method=config.sparsify_method,
                n_bits=config.lsh_bits,
                target_recall=config.lsh_target_recall,
                rng=rng,
            )
            guarantee = sparsification_bound(instance, config.tau).factor
        prep_seconds = time.perf_counter() - prep_start

        solution = solve(solver_instance, config.algorithm, rng=rng)
        # Always report the TRUE (non-sparsified) objective and certificates.
        report = certify(instance, solution.selection, bound=config.certificate)
        solution.value, solution.ratio_certificate = report.value, report.ratio
        logger.info(
            "PHOcus done: kept=%d value=%.4f cost=%.0f/%.0f solve=%.2fs",
            len(solution.selection), solution.value, solution.cost,
            instance.budget, solution.elapsed_seconds,
        )
        return ArchiveReport(
            solution=solution,
            retained_count=len(solution.selection),
            archived_count=instance.n - len(solution.selection),
            budget_utilisation=solution.budget_utilisation,
            subset_scores=score_breakdown(instance, solution.selection),
            sparsify=sparsify_report,
            sparsification_guarantee=guarantee,
            optimum_upper_bound=report.bound,
            prep_seconds=prep_seconds,
        )
