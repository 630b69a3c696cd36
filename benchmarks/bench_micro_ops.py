"""Micro-benchmarks of the hot-path primitives.

Unlike the figure benches (single-shot experiment harnesses), these use
pytest-benchmark's statistical timing to track the cost of the operations
everything else is built from: marginal-gain queries, state updates,
batch gain evaluation, full scoring, and one complete lazy-greedy solve.
Useful for catching performance regressions in the incremental evaluator.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.greedy import CB, lazy_greedy
from repro.core.objective import CoverageState, score
from repro.sparsify.threshold import threshold_sparsify

# The reference evaluation is a test oracle; it lives under tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles.coverage import ReferenceCoverageState  # noqa: E402


@pytest.fixture(scope="module")
def micro_instance(p1k):
    return p1k.instance(p1k.total_cost() * 0.3)


@pytest.fixture(scope="module")
def seeded_state(micro_instance):
    return CoverageState(micro_instance, range(0, micro_instance.n, 7))


def test_micro_gain_query(benchmark, micro_instance, seeded_state):
    """One marginal-gain evaluation (the CELF inner loop)."""
    photo = micro_instance.n // 2
    benchmark(seeded_state.gain, photo)


def test_micro_all_gains(benchmark, micro_instance, seeded_state):
    """Vectorised batch gain evaluation over every photo."""
    benchmark(seeded_state.all_gains)


def test_micro_state_add(benchmark, micro_instance):
    """A selection update, including the state copy it needs to repeat."""

    def add_one():
        state = CoverageState(micro_instance, [0, 5, 9])
        state.add(micro_instance.n - 1)

    benchmark(add_one)


def test_micro_score_from_scratch(benchmark, micro_instance):
    """The reference (non-incremental) objective evaluation."""
    selection = list(range(0, micro_instance.n, 4))
    benchmark(score, micro_instance, selection)


def test_micro_lazy_greedy_solve(benchmark, micro_instance):
    """A complete Algorithm 2 (CB) run."""
    benchmark(lazy_greedy, micro_instance, CB)


def test_micro_sparsified_solve(benchmark, micro_instance):
    """Algorithm 2 on the τ-sparsified instance (the production path)."""
    sparse, _ = threshold_sparsify(micro_instance, 0.5)
    benchmark(lazy_greedy, sparse, CB)


def test_micro_sparse_all_gains_kernel_vs_reference(benchmark, micro_instance):
    """Flat-CSR kernel vs per-subset reference all_gains on a sparse instance.

    The benchmark fixture times the kernel path (so regressions show in the
    tracked stats); the reference path is timed inline and the old-vs-new
    speedup ratio is recorded in ``extra_info`` — it lands in the saved
    JSON next to the timing columns.
    """
    import time

    sparse, _ = threshold_sparsify(micro_instance, 0.5)
    seeded = range(0, sparse.n, 7)
    kernel = CoverageState(sparse, seeded)
    reference = ReferenceCoverageState(sparse, seeded)

    benchmark(kernel.all_gains)

    repeats = 5
    ref_best = min(
        (lambda t0: (reference.all_gains(), time.perf_counter() - t0))(
            time.perf_counter()
        )[1]
        for _ in range(repeats)
    )
    kernel_best = benchmark.stats.stats.min
    benchmark.extra_info["reference_seconds"] = ref_best
    benchmark.extra_info["kernel_seconds"] = kernel_best
    benchmark.extra_info["speedup_old_over_new"] = ref_best / kernel_best
    assert kernel_best > 0 and ref_best > 0
