#!/usr/bin/env python
"""Kernel vs reference performance trajectory for the objective hot path.

A standalone script (``make bench-kernels``), not a pytest-benchmark
target: it measures the flat-CSR kernel of
:class:`repro.core.objective.CoverageState` against the per-subset
``reference`` oracle of ``tests/oracles/coverage.py`` on a Fig 5c-scale
synthetic instance (EC-Fashion shape), dense and τ-sparsified, and writes
the machine-readable trajectory to ``BENCH_solver_kernels.json`` at the
repo root:

* ``micro`` — ops/sec for ``gain`` / ``add`` / ``all_gains`` per backend,
  with speed-up ratios;
* ``end_to_end`` — wall-clock per backend of ``main_algorithm`` (kernel)
  and of the oracle's ``reference_main_algorithm``, with speed-ups;
* ``parallel`` — ``solve_many`` budget-sweep throughput at 1/2/4 workers
  plus scaling efficiency (read alongside ``meta.cpus``: efficiency is
  bounded by the CPUs actually visible to the process);
* ``checks`` — backend divergence proof: both backends must produce
  bit-identical selections, values, and pick orders, or the script exits
  non-zero (this is what the CI bench-smoke job enforces).

The JSON is validated against the expected schema before it is written;
a malformed document also exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.core.greedy import main_algorithm
from repro.core.objective import CoverageState
from repro.core.parallel import SolveTask, solve_batch
from repro.sparsify.threshold import threshold_sparsify

REPO_ROOT = Path(__file__).resolve().parent.parent
# The reference evaluation is a test oracle; it lives under tests/.
sys.path.insert(0, str(REPO_ROOT))
from tests.oracles.coverage import (  # noqa: E402
    ReferenceCoverageState,
    reference_main_algorithm,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_solver_kernels.json"
BACKENDS = ("kernel", "reference")
#: Per backend: the coverage state class and the Algorithm 1 solver.
STATES = {"kernel": CoverageState, "reference": ReferenceCoverageState}
SOLVERS = {"kernel": main_algorithm, "reference": reference_main_algorithm}
WORKER_COUNTS = (1, 2, 4)


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------


def _best_seconds(fn: Callable[[], None], repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_gain(instance, backend: str, repeats: int) -> float:
    """ops/sec for marginal-gain queries on a partially filled state."""
    state = STATES[backend](instance, range(0, instance.n, 5))
    sample = [p for p in range(instance.n) if p not in state][: max(64, instance.n // 2)]

    def run() -> None:
        for p in sample:
            state.gain(p)

    return len(sample) / _best_seconds(run, repeats)


def _bench_add(instance, backend: str, repeats: int) -> float:
    """ops/sec for state updates, built up from the empty selection."""
    picks = list(range(0, instance.n, 2))

    def run() -> None:
        state = STATES[backend](instance)
        for p in picks:
            state.add(p)

    # State construction is part of the loop but amortised over the adds;
    # both backends pay it, so the ratio stays honest.
    return len(picks) / _best_seconds(run, repeats)


def _bench_all_gains(instance, backend: str, repeats: int) -> float:
    state = STATES[backend](instance, range(0, instance.n, 5))

    def run() -> None:
        state.all_gains()

    return 1.0 / _best_seconds(run, repeats)


def _bench_row_access(instance, repeats: int) -> Dict[str, float]:
    """``neighbors()`` vs ``row()`` throughput on a sparse backend.

    Guards the hot-path regression this repo fixed: ``row()`` materialises
    a dense length-m vector per call, while ``neighbors()`` returns
    zero-copy views into the CSR arrays.  The speed-up must stay > 1 or
    the sparse fast path has regressed to dense materialisation.
    """
    sim = instance.subsets[0].similarity
    m = len(sim)

    def run_neighbors() -> None:
        for i in range(m):
            sim.neighbors(i)

    def run_row() -> None:
        for i in range(m):
            sim.row(i)

    neighbors_ops = m / _best_seconds(run_neighbors, repeats)
    row_ops = m / _best_seconds(run_row, repeats)
    return {
        "neighbors_ops_per_sec": neighbors_ops,
        "row_ops_per_sec": row_ops,
        "speedup": neighbors_ops / row_ops,
    }


def _bench_micro(instance, repeats: int) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for op, bench in (
        ("gain", _bench_gain),
        ("add", _bench_add),
        ("all_gains", _bench_all_gains),
    ):
        ops = {b: bench(instance, b, repeats) for b in BACKENDS}
        out[op] = {
            "kernel_ops_per_sec": ops["kernel"],
            "reference_ops_per_sec": ops["reference"],
            "speedup": ops["kernel"] / ops["reference"],
        }
    return out


def _bench_end_to_end(instance, repeats: int) -> Dict[str, float]:
    seconds = {
        backend: _best_seconds(lambda: SOLVERS[backend](instance), repeats)
        for backend in BACKENDS
    }
    return {
        "kernel_seconds": seconds["kernel"],
        "reference_seconds": seconds["reference"],
        "speedup": seconds["reference"] / seconds["kernel"],
    }


def _bench_parallel(instance, n_tasks: int) -> Dict[str, object]:
    budgets = np.linspace(0.3, 1.0, n_tasks) * instance.budget
    tasks = [SolveTask(algorithm="phocus", budget=float(b)) for b in budgets]
    by_workers: Dict[str, Dict[str, float]] = {}
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        solutions = solve_batch(instance, tasks, workers=workers)
        elapsed = time.perf_counter() - start
        assert len(solutions) == n_tasks
        by_workers[str(workers)] = {
            "seconds": elapsed,
            "throughput_tasks_per_sec": n_tasks / elapsed,
        }
    base = by_workers["1"]["seconds"]
    return {
        "tasks": n_tasks,
        "workers": by_workers,
        "speedup_vs_1": {
            str(w): base / by_workers[str(w)]["seconds"] for w in WORKER_COUNTS[1:]
        },
        "efficiency": {
            str(w): base / by_workers[str(w)]["seconds"] / w for w in WORKER_COUNTS[1:]
        },
    }


# ---------------------------------------------------------------------------
# Divergence checks (the CI gate)
# ---------------------------------------------------------------------------


def _check_divergence(instance) -> Dict[str, object]:
    """Prove kernel and reference agree bit for bit on this instance."""
    problems: List[str] = []

    # Incremental state agreement on a deterministic interleaved add order.
    kernel = CoverageState(instance)
    reference = ReferenceCoverageState(instance)
    order = list(range(0, instance.n, 3)) + list(range(1, instance.n, 3))
    for p in order:
        if kernel.gain(p) != reference.gain(p):
            problems.append(f"gain({p}) differs between backends")
            break
        if kernel.add(p) != reference.add(p) or kernel.value != reference.value:
            problems.append(f"add({p}) / value differs between backends")
            break
    for qi in range(len(instance.subsets)):
        if not np.array_equal(kernel.coverage_of(qi), reference.coverage_of(qi)):
            problems.append(f"coverage of subset {qi} differs between backends")
            break

    # End-to-end agreement of the paper's main algorithm.
    k, r = main_algorithm(instance), reference_main_algorithm(instance)
    if k.selection != r.selection:
        problems.append("main_algorithm selections differ between backends")
    if k.value != r.value:
        problems.append("main_algorithm values differ between backends")
    if k.picks != r.picks:
        problems.append("main_algorithm pick orders differ between backends")
    return {"backend_divergence": bool(problems), "problems": problems}


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
    need(meta, "cpus", int, "meta")
    need(meta, "scale", (int, float), "meta")
    need(doc, "instance", dict, "$")
    for variant in ("dense", "sparse"):
        micro = need(need(doc, "micro", dict, "$"), variant, dict, "micro")
        for op in ("gain", "add", "all_gains"):
            entry = need(micro, op, dict, f"micro.{variant}")
            for key in ("kernel_ops_per_sec", "reference_ops_per_sec", "speedup"):
                value = need(entry, key, (int, float), f"micro.{variant}.{op}")
                if not value > 0:
                    raise ValueError(f"micro.{variant}.{op}.{key} must be positive")
        e2e = need(need(doc, "end_to_end", dict, "$"), variant, dict, "end_to_end")
        for key in ("kernel_seconds", "reference_seconds", "speedup"):
            value = need(e2e, key, (int, float), f"end_to_end.{variant}")
            if not value > 0:
                raise ValueError(f"end_to_end.{variant}.{key} must be positive")
    ra = need(doc, "row_access", dict, "$")
    for key in ("neighbors_ops_per_sec", "row_ops_per_sec", "speedup"):
        value = need(ra, key, (int, float), "row_access")
        if not value > 0:
            raise ValueError(f"row_access.{key} must be positive")
    par = need(doc, "parallel", dict, "$")
    workers = need(par, "workers", dict, "parallel")
    for w in WORKER_COUNTS:
        entry = need(workers, str(w), dict, "parallel.workers")
        need(entry, "seconds", (int, float), f"parallel.workers.{w}")
        need(entry, "throughput_tasks_per_sec", (int, float), f"parallel.workers.{w}")
    need(par, "speedup_vs_1", dict, "parallel")
    checks = need(doc, "checks", dict, "$")
    if not isinstance(checks.get("backend_divergence"), bool):
        raise ValueError("checks.backend_divergence must be a bool")
    if not isinstance(checks.get("neighbors_zero_copy"), bool):
        raise ValueError("checks.neighbors_zero_copy must be a bool")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(scale: float, repeats: int, parallel_tasks: int) -> Dict[str, object]:
    from repro.datasets.ecommerce import generate_ecommerce_dataset

    # Fig 5c shape: the EC-Fashion synthetic at the bench's default size,
    # solved at the 0.3-of-corpus budget.
    n_photos = max(40, int(160 * scale))
    n_queries = max(8, int(30 * scale))
    dataset = generate_ecommerce_dataset(
        "Fashion", n_photos, n_queries=n_queries, name="EC-Fashion", seed=103
    )
    dense = dataset.instance(dataset.total_cost() * 0.3)
    sparse, stats = threshold_sparsify(dense, 0.35)
    instances = {"dense": dense, "sparse": sparse}

    checks: Dict[str, object] = {"backend_divergence": False, "problems": []}
    for variant, instance in instances.items():
        result = _check_divergence(instance)
        checks["backend_divergence"] = bool(
            checks["backend_divergence"] or result["backend_divergence"]
        )
        checks["problems"] += [f"[{variant}] {p}" for p in result["problems"]]

    # Zero-copy regression assertion: neighbors() must return views into
    # the live CSR arrays, never per-call copies (let alone dense rows).
    sim = sparse.subsets[0].similarity
    _, csr_cols, csr_vals = sim.csr()
    idx0, val0 = sim.neighbors(0)
    checks["neighbors_zero_copy"] = bool(
        np.shares_memory(idx0, csr_cols) and np.shares_memory(val0, csr_vals)
    )
    if not checks["neighbors_zero_copy"]:
        checks["problems"].append(
            "[sparse] neighbors() no longer aliases the CSR arrays (copying?)"
        )

    row_access = _bench_row_access(sparse, repeats)
    if not row_access["speedup"] > 1.0:
        checks["problems"].append(
            "[sparse] neighbors() not faster than dense row() materialisation"
        )

    doc: Dict[str, object] = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1),
            "scale": scale,
            "repeats": repeats,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "instance": {
            "n_photos": dense.n,
            "n_subsets": len(dense.subsets),
            "budget_fraction": 0.3,
            "dense_nnz": dense.similarity_nnz(),
            "sparse_nnz": sparse.similarity_nnz(),
            "sparse_tau": 0.35,
            "sparse_kept_fraction": stats.kept_fraction,
        },
        "micro": {v: _bench_micro(i, repeats) for v, i in instances.items()},
        "row_access": row_access,
        "end_to_end": {v: _bench_end_to_end(i, repeats) for v, i in instances.items()},
        "parallel": _bench_parallel(dense, parallel_tasks),
        "checks": checks,
    }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="instance size multiplier (1.0 = Fig 5c bench shape, 160 photos)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (min taken)")
    parser.add_argument(
        "--parallel-tasks", type=int, default=8, help="sweep size for the scaling bench"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="output JSON path")
    args = parser.parse_args(argv)

    doc = run(args.scale, args.repeats, args.parallel_tasks)
    validate_document(doc)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    micro = doc["micro"]
    e2e = doc["end_to_end"]
    par = doc["parallel"]
    print(f"[bench_solver_kernels] n={doc['instance']['n_photos']} "
          f"subsets={doc['instance']['n_subsets']} cpus={doc['meta']['cpus']}")
    for variant in ("dense", "sparse"):
        ops = ", ".join(
            f"{op} {micro[variant][op]['speedup']:.2f}x" for op in ("gain", "add", "all_gains")
        )
        print(f"  {variant:>6}: micro [{ops}] | "
              f"main_algorithm {e2e[variant]['speedup']:.2f}x "
              f"({e2e[variant]['reference_seconds']:.3f}s -> "
              f"{e2e[variant]['kernel_seconds']:.3f}s)")
    ra = doc["row_access"]
    print(f"  sparse row access: neighbors() {ra['speedup']:.1f}x faster than row() "
          f"(zero-copy: {doc['checks']['neighbors_zero_copy']})")
    sp = ", ".join(f"{w}w {s:.2f}x" for w, s in par["speedup_vs_1"].items())
    print(f"  parallel: {par['tasks']} tasks, speedup vs 1 worker: {sp}")
    print(f"  wrote {args.out}")

    if doc["checks"]["backend_divergence"] or doc["checks"]["problems"]:
        print("BENCH CHECKS FAILED:", file=sys.stderr)
        for problem in doc["checks"]["problems"]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
