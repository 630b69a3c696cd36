#!/usr/bin/env python
"""Million-photo scaling trajectory for the fused streamed builder.

A standalone script (``make bench-million``), not a pytest-benchmark
target: it measures the fused ``repro.scale`` build path (embeddings →
banded SimHash candidates → τ-verified cosines → CSR instance → greedy
solve) against the legacy dense-then-sparsify path (materialise the full
``n × n`` cosine matrix, threshold it, solve) across archive scales, and
writes the machine-readable trajectory to ``BENCH_million.json`` at the
repo root:

* ``runs`` — per ``(mode, photos)`` measurement: peak RSS, build and
  solve wall-clock, candidate/kept counts.  Each measurement runs in its
  own subprocess (``--worker``) so ``ru_maxrss`` is that run's true high
  water mark, uninflated by earlier runs;
* ``checks`` — the gates CI enforces: the largest fused scale completes,
  fused peak memory grows sub-quadratically, the fused build needs ≥ 5×
  less peak RSS than dense-then-sparsify at the largest common scale,
  and fused picks are bit-identical to the unfused LSH pipeline
  (``tests/oracles/lsh.py``) at a matched seed and signature width.

``--smoke`` mode (the CI ``million-smoke`` job) re-runs the fused build
at one mid scale and gates its peak RSS / wall-clock against the
committed ``BENCH_million.json`` with generous headroom for slower
runners.  ``--million`` adds a 10^6-photo fused run (several minutes).

The JSON is validated against the expected schema before it is written;
a malformed document also exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_million.json"

DIM = 16
TAU = 0.8
SEED = 0
BUDGET_FRACTION = 0.1
FUSED_SCALES = (4_000, 20_000, 100_000)
DENSE_SCALES = (4_000, 20_000)
IDENTITY_PHOTOS = 10_000
SMOKE_PHOTOS = 20_000
#: Headroom multipliers the smoke gate allows over the committed numbers
#: (CI runners are slower and noisier than the machine that committed them).
SMOKE_RSS_HEADROOM = 2.0
SMOKE_SECONDS_HEADROOM = 8.0


# ---------------------------------------------------------------------------
# Worker: one (mode, photos) measurement in a fresh process
# ---------------------------------------------------------------------------


def _peak_rss_bytes() -> int:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _selection_sha(selection) -> str:
    return hashlib.sha256(
        json.dumps([int(p) for p in selection]).encode()
    ).hexdigest()


def _build_plain_instance(costs, sparse, budget):
    from repro.core.instance import PARInstance, Photo, PredefinedSubset

    n = costs.size
    subset = PredefinedSubset(
        "archive",
        1.0,
        np.arange(n, dtype=np.int64),
        np.full(n, 1.0 / n),
        sparse,
        normalize=False,
    )
    photos = [Photo(photo_id=i, cost=float(c)) for i, c in enumerate(costs)]
    return PARInstance.from_photos(photos, [subset], budget)


def run_worker(mode: str, photos: int, n_bits: Optional[int]) -> Dict[str, object]:
    from repro.core.greedy import main_algorithm
    from repro.scale import build_streamed_instance, synthetic_archive

    costs, embeddings = synthetic_archive(photos, dim=DIM, seed=SEED)
    budget = float(costs.sum()) * BUDGET_FRACTION
    t0 = time.perf_counter()

    if mode == "fused":
        instance, report = build_streamed_instance(
            costs,
            embeddings,
            budget,
            tau=TAU,
            n_bits="auto" if n_bits is None else n_bits,
            rng=SEED,
        )
        build_extras = {
            "n_bits": report.n_bits,
            "candidate_pairs": report.candidate_pairs,
            "kept_pairs": report.kept_pairs,
            "nnz": report.nnz,
            "phase_seconds": report.phase_seconds,
        }
    elif mode == "unfused":
        from repro.core.instance import SparseSimilarity
        from repro.sparsify.simhash import recommended_bits

        # The unfused pipeline is a test oracle; it lives under tests/.
        sys.path.insert(0, str(REPO_ROOT))
        from tests.oracles.lsh import lsh_similar_pairs

        width = n_bits if n_bits is not None else recommended_bits(photos, TAU)
        result = lsh_similar_pairs(
            embeddings, TAU, n_bits=width, rng=np.random.default_rng(SEED)
        )
        ii = np.array([p[0] for p in result.pairs], dtype=np.int64)
        jj = np.array([p[1] for p in result.pairs], dtype=np.int64)
        sparse = SparseSimilarity.from_pairs(
            photos, ii, jj, result.similarities, validate=False
        )
        instance = _build_plain_instance(costs, sparse, budget)
        build_extras = {
            "n_bits": width,
            "candidate_pairs": result.candidates_checked,
            "kept_pairs": len(result.pairs),
            "nnz": sparse.nnz(),
        }
    elif mode == "dense":
        # The legacy path this repo used before the fused builder: the
        # full n x n cosine matrix exists in memory before thresholding.
        from repro.core.instance import DenseSimilarity
        from repro.sparsify.simhash import unit_normalize

        unit = unit_normalize(embeddings)
        matrix = np.clip(unit @ unit.T, 0.0, 1.0)
        np.fill_diagonal(matrix, 1.0)
        dense = DenseSimilarity(matrix, validate=False)
        sparse = dense.sparsified(TAU)
        del matrix, dense
        instance = _build_plain_instance(costs, sparse, budget)
        build_extras = {"nnz": sparse.nnz()}
    else:
        raise ValueError(f"unknown mode {mode!r}")

    build_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    solution = main_algorithm(instance)
    solve_seconds = time.perf_counter() - t0

    out: Dict[str, object] = {
        "mode": mode,
        "photos": photos,
        "peak_rss_bytes": _peak_rss_bytes(),
        "build_seconds": build_seconds,
        "solve_seconds": solve_seconds,
        "total_seconds": build_seconds + solve_seconds,
        "value": solution.value,
        "n_selected": len(solution.selection),
        "selection_sha256": _selection_sha(solution.selection),
    }
    out.update(build_extras)
    return out


def _spawn_worker(
    mode: str, photos: int, n_bits: Optional[int] = None
) -> Dict[str, object]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", mode, str(photos)]
    if n_bits is not None:
        cmd += ["--n-bits", str(n_bits)]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {mode}@{photos} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


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
    for key in ("cpus", "dim", "seed"):
        need(meta, key, int, "meta")
    need(meta, "tau", (int, float), "meta")
    runs = need(doc, "runs", list, "$")
    if not runs:
        raise ValueError("runs must be non-empty")
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            raise ValueError(f"runs[{i}] must be an object")
        mode = need(run, "mode", str, f"runs[{i}]")
        if mode not in ("fused", "dense", "unfused"):
            raise ValueError(f"runs[{i}].mode unknown: {mode!r}")
        need(run, "photos", int, f"runs[{i}]")
        for key in ("peak_rss_bytes", "build_seconds", "solve_seconds", "value"):
            value = need(run, key, (int, float), f"runs[{i}]")
            if not value > 0:
                raise ValueError(f"runs[{i}].{key} must be positive")
        need(run, "n_selected", int, f"runs[{i}]")
        need(run, "selection_sha256", str, f"runs[{i}]")
    checks = need(doc, "checks", dict, "$")
    for key in (
        "largest_fused_scale_completed",
        "subquadratic_memory",
        "fused_rss_advantage_ok",
        "picks_bit_identical",
    ):
        if not isinstance(checks.get(key), bool):
            raise ValueError(f"checks.{key} must be a bool")
    need(checks, "memory_scaling_exponent", (int, float), "checks")
    need(checks, "rss_ratio_at_common_scale", (int, float), "checks")
    identity = need(checks, "identity", dict, "checks")
    need(identity, "photos", int, "checks.identity")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _meta() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1),
        "dim": DIM,
        "tau": TAU,
        "seed": SEED,
        "budget_fraction": BUDGET_FRACTION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_bench(fused_scales, dense_scales, identity_photos) -> Dict[str, object]:
    runs: List[Dict[str, object]] = []
    for photos in fused_scales:
        print(f"[bench_million] fused @ {photos} ...", flush=True)
        runs.append(_spawn_worker("fused", photos))
    for photos in dense_scales:
        print(f"[bench_million] dense @ {photos} ...", flush=True)
        runs.append(_spawn_worker("dense", photos))

    # Bit-identity gate: fused vs the unfused LSH pipeline at a matched
    # seed and the same (auto-resolved) signature width.
    print(f"[bench_million] identity fused/unfused @ {identity_photos} ...", flush=True)
    fused_id = _spawn_worker("fused", identity_photos)
    unfused_id = _spawn_worker("unfused", identity_photos, n_bits=fused_id["n_bits"])
    runs += [fused_id, unfused_id]

    fused_runs = sorted(
        (r for r in runs if r["mode"] == "fused"), key=lambda r: r["photos"]
    )
    dense_runs = sorted(
        (r for r in runs if r["mode"] == "dense"), key=lambda r: r["photos"]
    )
    largest_fused = fused_runs[-1]

    # Memory scaling: peak-RSS growth exponent between the two largest
    # fused scales.  A dense O(n^2) build would show exponent -> 2; the
    # fused path must stay clearly sub-quadratic.
    a, b = fused_runs[-2], fused_runs[-1]
    exponent = float(
        np.log(b["peak_rss_bytes"] / a["peak_rss_bytes"])
        / np.log(b["photos"] / a["photos"])
    )

    common = set(r["photos"] for r in fused_runs) & set(
        r["photos"] for r in dense_runs
    )
    largest_common = max(common)
    fused_at = next(r for r in fused_runs if r["photos"] == largest_common)
    dense_at = next(r for r in dense_runs if r["photos"] == largest_common)
    rss_ratio = dense_at["peak_rss_bytes"] / fused_at["peak_rss_bytes"]

    checks = {
        "largest_fused_scale_completed": bool(
            largest_fused["n_selected"] > 0 and largest_fused["value"] > 0
        ),
        "memory_scaling_exponent": exponent,
        "subquadratic_memory": bool(exponent < 1.7),
        "rss_ratio_at_common_scale": float(rss_ratio),
        "common_scale": int(largest_common),
        "fused_rss_advantage_ok": bool(rss_ratio >= 5.0),
        "identity": {
            "photos": int(identity_photos),
            "n_bits": int(fused_id["n_bits"]),
            "fused_sha": fused_id["selection_sha256"],
            "unfused_sha": unfused_id["selection_sha256"],
        },
        "picks_bit_identical": bool(
            fused_id["selection_sha256"] == unfused_id["selection_sha256"]
            and fused_id["value"] == unfused_id["value"]
            and fused_id["kept_pairs"] == unfused_id["kept_pairs"]
            and fused_id["candidate_pairs"] == unfused_id["candidate_pairs"]
        ),
    }
    return {"meta": _meta(), "runs": runs, "checks": checks}


def run_smoke(committed_path: Path) -> int:
    committed = json.loads(committed_path.read_text())
    validate_document(committed)
    baseline = next(
        r
        for r in committed["runs"]
        if r["mode"] == "fused" and r["photos"] == SMOKE_PHOTOS
    )
    print(f"[million-smoke] fused @ {SMOKE_PHOTOS} ...", flush=True)
    run = _spawn_worker("fused", SMOKE_PHOTOS)
    rss_limit = baseline["peak_rss_bytes"] * SMOKE_RSS_HEADROOM
    seconds_limit = baseline["total_seconds"] * SMOKE_SECONDS_HEADROOM
    print(
        f"  peak RSS {run['peak_rss_bytes'] / 1e6:.0f} MB "
        f"(limit {rss_limit / 1e6:.0f} MB), "
        f"wall {run['total_seconds']:.1f}s (limit {seconds_limit:.1f}s), "
        f"nnz {run['nnz']}"
    )
    failures = []
    if run["peak_rss_bytes"] > rss_limit:
        failures.append("peak RSS above committed baseline headroom")
    if run["total_seconds"] > seconds_limit:
        failures.append("wall-clock above committed baseline headroom")
    if run["kept_pairs"] != baseline["kept_pairs"]:
        failures.append(
            f"kept pairs drifted: {run['kept_pairs']} != {baseline['kept_pairs']} "
            "(the build is no longer deterministic at a fixed seed)"
        )
    if run["selection_sha256"] != baseline["selection_sha256"]:
        failures.append("greedy picks drifted from the committed baseline")
    for f in failures:
        print(f"MILLION-SMOKE FAILURE: {f}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", nargs=2, metavar=("MODE", "PHOTOS"))
    parser.add_argument("--n-bits", type=int, default=None)
    parser.add_argument(
        "--scales",
        default=",".join(str(s) for s in FUSED_SCALES),
        help="comma-separated fused scales",
    )
    parser.add_argument(
        "--dense-scales",
        default=",".join(str(s) for s in DENSE_SCALES),
        help="comma-separated dense-then-sparsify scales",
    )
    parser.add_argument(
        "--identity-photos",
        type=int,
        default=IDENTITY_PHOTOS,
        help="scale of the fused-vs-unfused bit-identity gate",
    )
    parser.add_argument(
        "--million",
        action="store_true",
        help="additionally run the fused build at 10^6 photos (minutes)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: one fused run gated against the committed JSON",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.worker:
        mode, photos = args.worker
        print(json.dumps(run_worker(mode, int(photos), args.n_bits)))
        return 0

    if args.smoke:
        return run_smoke(args.out)

    fused_scales = sorted(int(s) for s in args.scales.split(","))
    if args.million:
        fused_scales = sorted(set(fused_scales) | {1_000_000})
    dense_scales = sorted(int(s) for s in args.dense_scales.split(","))
    doc = run_bench(fused_scales, dense_scales, args.identity_photos)
    validate_document(doc)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    checks = doc["checks"]
    for run in doc["runs"]:
        extra = f", nnz {run['nnz']}" if "nnz" in run else ""
        print(
            f"  {run['mode']:>7} @ {run['photos']:>7}: "
            f"RSS {run['peak_rss_bytes'] / 1e6:8.0f} MB, "
            f"build {run['build_seconds']:7.2f}s, solve {run['solve_seconds']:6.2f}s"
            f"{extra}"
        )
    print(
        f"  memory exponent {checks['memory_scaling_exponent']:.2f} "
        f"(sub-quadratic: {checks['subquadratic_memory']}), "
        f"fused vs dense RSS at {checks['common_scale']}: "
        f"{checks['rss_ratio_at_common_scale']:.1f}x "
        f"(>= 5x: {checks['fused_rss_advantage_ok']}), "
        f"picks bit-identical: {checks['picks_bit_identical']}"
    )
    print(f"  wrote {args.out}")

    failed = [
        key
        for key in (
            "largest_fused_scale_completed",
            "subquadratic_memory",
            "fused_rss_advantage_ok",
            "picks_bit_identical",
        )
        if not checks[key]
    ]
    if failed:
        print(f"BENCH GATES FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
