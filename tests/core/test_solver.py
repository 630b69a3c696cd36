"""Tests for the solve() facade and Solution reporting."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.solver import Solution, available_algorithms, solve
from repro.errors import ConfigurationError

from tests.conftest import random_instance
from tests.oracles.coverage import reference_score

SRC = Path(__file__).resolve().parents[2] / "src"


class TestRegistry:
    def test_expected_algorithms_registered(self):
        names = available_algorithms()
        for expected in (
            "phocus", "lazy-uc", "lazy-cb", "naive-greedy", "sviridenko",
            "bruteforce", "rand-a", "rand-d", "greedy-nr", "greedy-ncs",
        ):
            assert expected in names

    def test_unknown_algorithm_raises(self, figure1):
        with pytest.raises(ConfigurationError):
            solve(figure1, "does-not-exist")


class TestSolve:
    @pytest.mark.parametrize(
        "algorithm",
        ["phocus", "lazy-uc", "lazy-cb", "naive-greedy", "sviridenko", "bruteforce",
         "rand-a", "rand-d", "greedy-nr"],
    )
    def test_every_algorithm_returns_feasible_solution(self, figure1, algorithm):
        sol = solve(figure1, algorithm, rng=np.random.default_rng(0))
        assert figure1.feasible(sol.selection)
        assert sol.value == pytest.approx(reference_score(figure1, sol.selection))
        assert sol.cost <= figure1.budget
        assert sol.algorithm == algorithm
        assert sol.elapsed_seconds >= 0.0

    def test_greedy_ncs_needs_embeddings(self, small_instance):
        sol = solve(small_instance, "greedy-ncs")
        assert small_instance.feasible(sol.selection)

    def test_selection_is_sorted_and_unique(self, figure1):
        sol = solve(figure1, "phocus")
        assert sol.selection == sorted(set(sol.selection))

    def test_retained_always_included(self):
        inst = random_instance(seed=7, retained=2)
        for algorithm in ("phocus", "rand-a", "greedy-nr"):
            sol = solve(inst, algorithm, rng=np.random.default_rng(1))
            assert inst.retained.issubset(set(sol.selection))

    def test_certificate_requested(self, small_instance):
        sol = solve(small_instance, "phocus", certificate=True)
        assert sol.ratio_certificate is not None
        assert 0.0 < sol.ratio_certificate <= 1.0

    def test_certificate_not_computed_by_default(self, small_instance):
        assert solve(small_instance, "phocus").ratio_certificate is None

    def test_budget_utilisation(self, figure1):
        sol = solve(figure1, "phocus")
        assert sol.budget_utilisation == pytest.approx(sol.cost / figure1.budget)

    def test_phocus_dominates_random(self, small_instance):
        phocus = solve(small_instance, "phocus")
        rand = solve(small_instance, "rand-a", rng=np.random.default_rng(0))
        assert phocus.value >= rand.value - 1e-9

    def test_bruteforce_dominates_phocus(self, small_instance):
        exact = solve(small_instance, "bruteforce")
        phocus = solve(small_instance, "phocus")
        assert exact.value >= phocus.value - 1e-9

    def test_extras_populated(self, figure1):
        sol = solve(figure1, "phocus")
        assert "mode" in sol.extras and "evaluations" in sol.extras
        exact = solve(figure1, "bruteforce")
        assert exact.extras.get("exact") is True


#: A 12,000-member sparse chain, one subset: past 10,000 elements a
#: threaded BLAS sums one ``ddot`` in a thread-count-dependent order.
_CHAIN_SOLVE = """
import json
import numpy as np
from repro.core.instance import PARInstance, PredefinedSubset, SparseSimilarity
from repro.core.solver import solve

n = 12_000
rng = np.random.default_rng(0)
costs = rng.uniform(0.5, 2.0, size=n)
ids = np.arange(n)
sim = SparseSimilarity.from_pairs(n, ids[:-1], ids[1:], rng.uniform(0.2, 0.9, n - 1))
chain = PredefinedSubset("chain", 1.0, ids, rng.uniform(0.1, 1.0, size=n), sim)
sol = solve(PARInstance(costs, [chain], float(costs.sum()) * 0.3), certificate=True)
print(json.dumps([sol.selection, sol.value.hex(), sol.ratio_certificate.hex()]))
"""


def _answers_per_blas_thread_count(script: str):
    answers = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        answers.append(json.loads(done.stdout))
    return answers


def test_reported_value_does_not_depend_on_the_blas_thread_count():
    answers = _answers_per_blas_thread_count(_CHAIN_SOLVE)
    assert answers[0] == answers[1]


#: A hub photo similar (above τ) to 12,499 others, one subset: its gain
#: is one membership's dot over 12,500 positive entries.  Printed per
#: kernel (native when it loads, then numpy): the hub's gain on an empty
#: state, and the solve's selection and value.
_HUB_SOLVE = """
import json
import numpy as np
from repro.core import native
from repro.core.instance import PARInstance, PredefinedSubset, SparseSimilarity
from repro.core.objective import CoverageState
from repro.core.solver import solve

n = 12_500
rng = np.random.default_rng(1)
costs = rng.uniform(0.5, 2.0, size=n)
costs[0] = 3.0
others = np.arange(1, n)
sim = SparseSimilarity.from_pairs(
    n, np.zeros(n - 1, dtype=np.int64), others, rng.uniform(0.6, 0.95, n - 1)
)
hub = PredefinedSubset("hub", 2.0, np.arange(n), rng.uniform(0.1, 1.0, size=n), sim)
instance = PARInstance(costs, [hub], float(costs.sum()) * 0.2)
out = {}
for kernel in ("native", "numpy"):
    if kernel == "numpy":
        native.bind = lambda inc, best: None
    elif native.kernel() is None:
        continue
    state = CoverageState(instance)
    assert (state._native is not None) == (kernel == "native")
    sol = solve(instance)
    out[kernel] = [state.gain(0).hex(), sol.selection, sol.value.hex()]
print(json.dumps(out))
"""


def test_a_long_membership_gain_does_not_depend_on_the_blas_thread_count():
    one, two = _answers_per_blas_thread_count(_HUB_SOLVE)
    assert one == two
    assert len({json.dumps(answer) for answer in one.values()}) == 1
    assert 0 in one["numpy"][1]
