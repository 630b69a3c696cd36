"""Cross-module integration tests: the full pipelines end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import max_score, score
from repro.core.solver import solve
from repro.datasets.public import generate_public_dataset
from repro.datasets.ecommerce import generate_ecommerce_dataset
from repro.sparsify.pipeline import sparsify_instance
from repro.storage.policy import brand_contract_policy, derive_retained
from repro.storage.workload import replay_page_workload
from repro.study.manual import simulated_analyst
from repro.system.phocus import PHOcus, PhocusConfig

from tests.oracles.coverage import reference_score


@pytest.fixture(scope="module")
def public_dataset():
    return generate_public_dataset(150, 25, name="int-P", seed=11)


@pytest.fixture(scope="module")
def ec_dataset():
    return generate_ecommerce_dataset("Electronics", 80, n_queries=20, seed=11)


class TestPublicPipeline:
    def test_phocus_beats_all_baselines(self, public_dataset):
        """The Figure 5a ordering on a generated instance."""
        inst = public_dataset.instance(public_dataset.total_cost() * 0.15)
        values = {
            alg: solve(inst, alg, rng=np.random.default_rng(0)).value
            for alg in ("phocus", "greedy-ncs", "greedy-nr", "rand-a")
        }
        assert values["phocus"] >= values["greedy-ncs"] - 1e-9
        assert values["phocus"] > values["greedy-nr"]
        assert values["phocus"] > values["rand-a"]

    def test_quality_monotone_in_budget(self, public_dataset):
        fractions = (0.05, 0.15, 0.4, 1.0)
        values = []
        for f in fractions:
            inst = public_dataset.instance(public_dataset.total_cost() * f)
            values.append(solve(inst, "phocus").value)
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-9
        # Full budget reaches the ceiling.
        inst_full = public_dataset.instance(public_dataset.total_cost())
        assert values[-1] == pytest.approx(max_score(inst_full))

    def test_sparsified_pipeline_close_to_dense(self, public_dataset):
        inst = public_dataset.instance(public_dataset.total_cost() * 0.2)
        dense = PHOcus(PhocusConfig(certificate=False)).run(inst)
        sparse = PHOcus(PhocusConfig(tau=0.5, certificate=False, seed=0)).run(inst)
        assert sparse.solution.value >= 0.9 * dense.solution.value
        assert sparse.sparsify.kept_fraction < 1.0

    def test_lsh_pipeline_end_to_end(self, public_dataset):
        inst = public_dataset.instance(public_dataset.total_cost() * 0.2)
        report = PHOcus(
            PhocusConfig(tau=0.6, sparsify_method="lsh", certificate=True, seed=2)
        ).run(inst)
        assert inst.feasible(report.solution.selection)
        assert report.solution.ratio_certificate > 0.3
        assert report.sparsify.checked_fraction <= 1.0


class TestEcommercePipeline:
    def test_contract_photos_survive_archival(self, ec_dataset):
        inst = ec_dataset.instance(ec_dataset.total_cost() * 0.1)
        report = PHOcus(PhocusConfig(certificate=False)).run(inst)
        assert set(ec_dataset.retained).issubset(set(report.solution.selection))

    def test_policy_engine_matches_generator_contracts(self, ec_dataset):
        policy = brand_contract_policy(ec_dataset.extras["contract_brands"])
        pinned = derive_retained(ec_dataset.photos, [policy])
        # Generator pins a (capped) subset of the contract-brand photos.
        assert set(ec_dataset.retained).issubset(set(pinned))

    def test_selection_improves_operational_metrics(self, ec_dataset):
        inst = ec_dataset.instance(ec_dataset.total_cost() * 0.15)
        phocus_sel = solve(inst, "phocus").selection
        rand_sel = solve(inst, "rand-a", rng=np.random.default_rng(3)).selection
        phocus_ops = replay_page_workload(
            inst, phocus_sel, n_visits=200, rng=np.random.default_rng(5)
        )
        rand_ops = replay_page_workload(
            inst, rand_sel, n_visits=200, rng=np.random.default_rng(5)
        )
        assert phocus_ops.hit_rate >= rand_ops.hit_rate

    def test_analyst_vs_phocus_study_shape(self, ec_dataset):
        """Figure 5g/5h shape: PHOcus at least as good, vastly faster."""
        inst = ec_dataset.instance(ec_dataset.total_cost() * 0.15)
        manual = simulated_analyst(inst, rng=np.random.default_rng(0))
        auto = solve(inst, "phocus")
        assert auto.value >= score(inst, manual.selection) * 0.95
        # The simulated manual hours dwarf the actual solver seconds.
        assert manual.seconds > auto.elapsed_seconds * 100


class TestServiceRoundTrip:
    def test_dataset_to_service_to_report(self, public_dataset):
        """The full deployment loop: generate → serialise → HTTP solve →
        verify locally → render the analyst report."""
        import json
        import urllib.request

        from repro.core.serialize import instance_to_dict
        from repro.system.report_html import render_report_html
        from repro.system.service import PhocusService

        inst = public_dataset.instance(public_dataset.total_cost() * 0.2)
        with PhocusService() as service:
            req = urllib.request.Request(
                f"http://{service.address}/solve",
                data=json.dumps(
                    {"instance": instance_to_dict(inst), "tau": 0.5,
                     "seed": 0, "certificate": True}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(req) as resp:
                remote = json.loads(resp.read())
        assert inst.feasible(remote["selection"])
        assert remote["value"] == pytest.approx(
            reference_score(inst, remote["selection"])
        )
        # The remote result feeds straight into the analyst report.
        report = PHOcus(PhocusConfig(certificate=False)).run(inst)
        page = render_report_html(report, inst)
        assert "Coverage by pre-defined subset" in page


class TestWeightAdjustmentWorkflow:
    def test_boost_changes_archival_outcome(self, ec_dataset):
        """An analyst boosting a neglected page gets it covered."""
        inst = ec_dataset.instance(ec_dataset.total_cost() * 0.05)
        base = PHOcus(PhocusConfig(certificate=False)).run(inst)
        # Find the least-covered page and boost it hard.
        worst_page, worst_value = base.worst_covered_subsets[0]
        boosted = inst.with_adjusted_weights({worst_page: 50.0})
        after = PHOcus(PhocusConfig(certificate=False)).run(boosted)
        weight = next(
            q.weight for q in inst.subsets if q.subset_id == worst_page
        )
        base_cov = base.subset_scores[worst_page] / weight
        after_cov = after.subset_scores[worst_page] / (weight * 50.0)
        assert after_cov >= base_cov - 1e-9


class TestRestrictionWorkflow:
    def test_subsample_solve_round_trip(self, public_dataset):
        """The user-study protocol: restrict to 40 photos, solve, verify."""
        inst = public_dataset.instance(public_dataset.total_cost())
        rng = np.random.default_rng(4)
        ids = sorted(int(p) for p in rng.choice(inst.n, size=40, replace=False))
        sub = inst.restricted(ids, budget=1.0)
        sub = sub.with_budget(sub.total_cost() * 0.3)
        sol = solve(sub, "phocus")
        assert sub.feasible(sol.selection)
        assert 0 < sol.value <= max_score(sub) + 1e-9
