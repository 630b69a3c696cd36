#!/usr/bin/env python
"""Multi-fidelity budget-vs-quality frontier vs discard-only PHOcus.

A standalone script (``make bench-fidelity``), not a pytest-benchmark
target: it sweeps byte budgets over one τ-thresholded synthetic archive
and, at every budget, runs the multi-fidelity solve
(:func:`repro.fidelity.solver.fidelity_main`, the CELF driver over the
:data:`~repro.fidelity.catalog.DEFAULT_TIERS` recompression menu)
against the discard-only baseline
(:func:`repro.core.greedy.main_algorithm`) on the *same* instance, and
writes the machine-readable document to ``BENCH_fidelity.json`` at the
repo root:

* ``runs`` — per budget fraction: both objective values, wall-clock
  (median of repeats), evaluation counts, the quality report (kept /
  recompressed / by-tier / mean fidelity), the applied upgrade count,
  the per-point dominance verdict, and the deterministic selection hash
  of the chosen ``(photo, variant)`` pairs;
* ``checks`` — the gates CI enforces: the multi-fidelity value
  **weakly dominates** discard-only at every matched budget and
  **strictly** at one or more; aggregate solve-time overhead (summed
  fidelity seconds over summed discard seconds) stays **<= 2x**; and a
  trivial (originals-only) catalog reproduces the discard-only picks
  **bit for bit**.

``--smoke`` mode (the CI ``fidelity-smoke`` job) re-runs the sweep and
gates dominance, overhead, and the degradation contract against the
committed ``BENCH_fidelity.json`` (selection hashes must match — the
solver is deterministic at a fixed seed; wall-clock gets generous
headroom for slower runners).

The JSON is validated against the expected schema before it is written;
a malformed document also exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_fidelity.json"

PHOTOS = 2_000
DIM = 16
NOISE = 0.8
TAU = 0.8
SEED = 7
#: Matched-budget sweep, as fractions of the archive's total bytes.
BUDGET_FRACTIONS = (0.1, 0.2, 0.35, 0.5)
REPEATS = 3
#: Aggregate solve-time overhead gate: Σ fidelity seconds / Σ discard
#: seconds (per-point ratios are too noisy at tight-budget denominators).
OVERHEAD_GATE = 2.0
#: Wall-clock headroom the smoke gate allows over the committed numbers.
SMOKE_SECONDS_HEADROOM = 8.0


def _selection_sha(chosen: Dict[int, int]) -> str:
    """Deterministic hash of the chosen ``(photo, variant)`` pairs."""
    pairs = sorted((int(p), int(v)) for p, v in chosen.items())
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def _median_seconds(fn, repeats: int):
    """``(median_seconds, last_result)`` of ``repeats`` runs of ``fn``.

    Both solvers are deterministic and read-only on the instance, so
    repetition is safe and the median discards allocator warm-up noise.
    """
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2], result


def build_archive():
    """The locked bench geometry: one sparse, singleton-heavy archive.

    ``noise=0.8`` at ``tau=0.8`` yields many photos with no above-τ
    neighbour — exactly the regime where discarding is expensive (each
    drop forfeits a photo's entire relevance) and recompression shines.
    """
    from repro.fidelity import VariantCatalog
    from repro.scale import build_streamed_instance, synthetic_archive

    costs, embeddings = synthetic_archive(
        PHOTOS, dim=DIM, noise=NOISE, seed=SEED
    )
    total = float(costs.sum())
    instance, build = build_streamed_instance(
        costs, embeddings, total, tau=TAU, rng=SEED
    )
    catalog = VariantCatalog.default(instance.costs)
    return instance, catalog, total, build


def measure_point(instance, catalog, total: float, fraction: float):
    from repro.core.greedy import main_algorithm
    from repro.fidelity import fidelity_main

    budget = total * fraction
    inst_b = instance.with_budget(budget)

    fidelity_seconds, frun = _median_seconds(
        lambda: fidelity_main(inst_b, catalog), REPEATS
    )
    discard_seconds, drun = _median_seconds(
        lambda: main_algorithm(inst_b), REPEATS
    )
    quality = catalog.describe_selection(frun.chosen)

    tol = 1e-9 * max(1.0, abs(drun.value))
    return {
        "budget_fraction": fraction,
        "budget": budget,
        "fidelity_value": frun.value,
        "fidelity_cost": frun.cost,
        "fidelity_mode": frun.mode,
        "fidelity_seconds": fidelity_seconds,
        "fidelity_evaluations": frun.evaluations,
        "upgrades": len(frun.upgrades),
        "kept": quality["kept"],
        "kept_original": quality["kept_original"],
        "recompressed": quality["recompressed"],
        "by_tier": quality["by_tier"],
        "mean_fidelity": quality["mean_fidelity"],
        "discard_value": drun.value,
        "discard_cost": drun.cost,
        "discard_mode": drun.mode,
        "discard_seconds": discard_seconds,
        "discard_evaluations": drun.evaluations,
        "discard_kept": len(drun.selection),
        "weakly_dominates": bool(frun.value >= drun.value - tol),
        "strictly_dominates": bool(frun.value > drun.value + tol),
        "fidelity_selection_sha256": _selection_sha(frun.chosen),
        "discard_selection_sha256": _selection_sha(
            {int(p): 0 for p in drun.selection}
        ),
    }


def check_trivial_contract(instance, total: float) -> bool:
    """``catalog=None`` and an originals-only catalog agree bit for bit."""
    from repro.core.greedy import CB, UC, lazy_greedy
    from repro.fidelity import VariantCatalog

    catalog = VariantCatalog.trivial(instance.costs)
    inst_b = instance.with_budget(total * BUDGET_FRACTIONS[0])
    for mode in (UC, CB):
        base = lazy_greedy(inst_b, mode)
        excl = lazy_greedy(inst_b, mode, catalog=catalog)
        if (
            excl.selection != base.selection
            or excl.value != base.value
            or excl.cost != base.cost
            or excl.evaluations != base.evaluations
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def validate_document(doc: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``doc`` has the expected shape."""

    def need(mapping, key, kind, where):
        if key not in mapping:
            raise ValueError(f"missing key {where}.{key}")
        if not isinstance(mapping[key], kind):
            raise ValueError(
                f"{where}.{key} should be {kind}, got {type(mapping[key]).__name__}"
            )
        return mapping[key]

    meta = need(doc, "meta", dict, "$")
    for key in ("python", "numpy", "platform"):
        need(meta, key, str, "meta")
    for key in ("cpus", "photos", "dim", "seed"):
        need(meta, key, int, "meta")
    for key in ("tau", "noise"):
        need(meta, key, (int, float), "meta")
    need(meta, "tiers", list, "meta")
    runs = need(doc, "runs", list, "$")
    if not runs:
        raise ValueError("runs must be non-empty")
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            raise ValueError(f"runs[{i}] must be an object")
        for key in (
            "budget_fraction",
            "budget",
            "fidelity_value",
            "fidelity_seconds",
            "discard_value",
            "discard_seconds",
        ):
            value = need(run, key, (int, float), f"runs[{i}]")
            if not value > 0:
                raise ValueError(f"runs[{i}].{key} must be positive")
        for key in ("kept", "recompressed", "upgrades", "discard_kept"):
            need(run, key, int, f"runs[{i}]")
        for key in ("fidelity_selection_sha256", "discard_selection_sha256"):
            need(run, key, str, f"runs[{i}]")
        for key in ("weakly_dominates", "strictly_dominates"):
            if not isinstance(run.get(key), bool):
                raise ValueError(f"runs[{i}].{key} must be a bool")
    checks = need(doc, "checks", dict, "$")
    for key in (
        "weakly_dominates_all",
        "strict_dominance_ok",
        "overhead_gate_ok",
        "trivial_bit_identical",
    ):
        if not isinstance(checks.get(key), bool):
            raise ValueError(f"checks.{key} must be a bool")
    need(checks, "strict_points", int, "checks")
    need(checks, "overhead_ratio", (int, float), "checks")
    need(checks, "overhead_gate", (int, float), "checks")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _meta() -> Dict[str, object]:
    from repro.fidelity.catalog import DEFAULT_TIERS

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1),
        "photos": PHOTOS,
        "dim": DIM,
        "noise": NOISE,
        "tau": TAU,
        "seed": SEED,
        "tiers": [list(t) for t in DEFAULT_TIERS],
        "budget_fractions": list(BUDGET_FRACTIONS),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _print_run(run: Dict[str, object]) -> None:
    verdict = (
        "strict" if run["strictly_dominates"]
        else "weak" if run["weakly_dominates"] else "LOSES"
    )
    print(
        f"  frac {run['budget_fraction']:<4}: fidelity {run['fidelity_value']:.4f} "
        f"vs discard {run['discard_value']:.4f} ({verdict}), "
        f"kept {run['kept']} ({run['recompressed']} recompressed, "
        f"{run['upgrades']} upgrades) vs {run['discard_kept']}, "
        f"{run['fidelity_seconds']:.2f}s vs {run['discard_seconds']:.2f}s"
    )


def run_bench(fractions) -> Dict[str, object]:
    print(
        f"[bench_fidelity] archive: {PHOTOS} photos, noise={NOISE}, "
        f"tau={TAU}, seed={SEED} ...",
        flush=True,
    )
    instance, catalog, total, build = build_archive()
    print(
        f"  built: nnz={build.nnz}, catalog {catalog.n_variants} variants "
        f"/ {catalog.n_photos} photos"
    )
    runs: List[Dict[str, object]] = []
    for fraction in fractions:
        run = measure_point(instance, catalog, total, fraction)
        _print_run(run)
        runs.append(run)

    fid_total = sum(r["fidelity_seconds"] for r in runs)
    disc_total = sum(r["discard_seconds"] for r in runs)
    overhead = fid_total / disc_total
    trivial_ok = check_trivial_contract(instance, total)
    strict_points = sum(1 for r in runs if r["strictly_dominates"])
    checks = {
        "weakly_dominates_all": all(r["weakly_dominates"] for r in runs),
        "strict_points": strict_points,
        "strict_dominance_ok": bool(strict_points >= 1),
        "overhead_ratio": overhead,
        "overhead_gate": OVERHEAD_GATE,
        "overhead_gate_ok": bool(overhead <= OVERHEAD_GATE),
        "trivial_bit_identical": trivial_ok,
    }
    return {"meta": _meta(), "runs": runs, "checks": checks}


def run_smoke(committed_path: Path) -> int:
    committed = json.loads(committed_path.read_text())
    validate_document(committed)
    doc = run_bench(
        [r["budget_fraction"] for r in committed["runs"]]
    )
    checks = doc["checks"]
    committed_seconds = sum(
        r["fidelity_seconds"] + r["discard_seconds"] for r in committed["runs"]
    )
    measured_seconds = sum(
        r["fidelity_seconds"] + r["discard_seconds"] for r in doc["runs"]
    )
    failures = []
    if not checks["weakly_dominates_all"]:
        failures.append(
            "multi-fidelity no longer weakly dominates discard-only at "
            "every matched budget"
        )
    if not checks["strict_dominance_ok"]:
        failures.append("no budget shows strict dominance any more")
    if not checks["overhead_gate_ok"]:
        failures.append(
            f"aggregate solve overhead {checks['overhead_ratio']:.2f}x "
            f"above the {OVERHEAD_GATE:.0f}x gate"
        )
    if not checks["trivial_bit_identical"]:
        failures.append(
            "trivial catalog no longer reproduces discard-only bit for bit"
        )
    if measured_seconds > committed_seconds * SMOKE_SECONDS_HEADROOM:
        failures.append(
            f"sweep took {measured_seconds:.1f}s, above committed baseline "
            f"headroom ({committed_seconds * SMOKE_SECONDS_HEADROOM:.1f}s)"
        )
    for run, baseline in zip(doc["runs"], committed["runs"]):
        for key in ("fidelity_selection_sha256", "discard_selection_sha256"):
            if run[key] != baseline[key]:
                failures.append(
                    f"{key.split('_')[0]} picks at frac "
                    f"{run['budget_fraction']} drifted from the committed "
                    "baseline (the solver is no longer deterministic at a "
                    "fixed seed)"
                )
    for f in failures:
        print(f"FIDELITY-SMOKE FAILURE: {f}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fractions",
        default=",".join(str(f) for f in BUDGET_FRACTIONS),
        help="comma-separated budget fractions of total archive bytes",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: re-run the sweep gated against the committed JSON",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.smoke:
        return run_smoke(args.out)

    fractions = sorted(float(f) for f in args.fractions.split(","))
    doc = run_bench(fractions)
    validate_document(doc)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    checks = doc["checks"]
    print(
        f"  weak dominance at all budgets: {checks['weakly_dominates_all']}, "
        f"strict at {checks['strict_points']}/{len(doc['runs'])}, "
        f"overhead {checks['overhead_ratio']:.2f}x "
        f"(<= {checks['overhead_gate']:.0f}x: {checks['overhead_gate_ok']}), "
        f"trivial bit-identical: {checks['trivial_bit_identical']}"
    )
    print(f"  wrote {args.out}")

    failed = [
        key
        for key in (
            "weakly_dominates_all",
            "strict_dominance_ok",
            "overhead_gate_ok",
            "trivial_bit_identical",
        )
        if not checks[key]
    ]
    if failed:
        print(f"BENCH GATES FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
