"""End-to-end benchmark of PHOcus: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload inline_solve --seed 0 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py compare PARENT_RESULTS CHANGE_RESULTS

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures half the time untraced and half traced
(see ``traced_serve.py``) and reports the per-layer split.  Either way
every answer is checked against a reference computed in this process,
a human-readable report goes to stdout, the full record (run metadata,
sample counts, per-layer table) is written under ``--results``, and the
last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 when
every answer was right, 1 when one was not, 2 when the checkout cannot
run the benchmark at all.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_RESULTS = ROOT / ".bench_e2e" / "results"
WORKLOADS = ("inline_solve", "byref_solve", "live_upload", "archive_build")

#: Timings at the reference host speed (see probe.py) are "ref" units.
END_TO_END = {
    "p50_ref_ms": "ref_ms",
    "p90_ref_ms": "ref_ms",
    "photos_per_ref_s": "photos/ref_s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "service.transport_ms": "ms",
    "service.parse_ms": "ms",
    "service.dispatch_ms": "ms",
    "serialize.decode_ms": "ms",
    "tenants.lease_ms": "ms",
    "tenants.hit_frac": "fraction",
    "tenants.put_ms": "ms",
    "tenants.get_ms": "ms",
    "greedy.uc_ms": "ms",
    "greedy.cb_ms": "ms",
    "greedy.evals": "count",
    "greedy.eval_us": "us",
    "greedy.picks_per_eval": "fraction",
    "bounds.certificate_ms": "ms",
    "objective.score_ms": "ms",
    "fidelity.solve_ms": "ms",
    "live.ingest_ms": "ms",
    "live.resolve_ms": "ms",
    "live.encode_ms": "ms",
    "live.regret": "fraction",
    "scale.signatures_s": "s",
    "scale.candidates_s": "s",
    "scale.verify_s": "s",
    "scale.assemble_s": "s",
    "scale.candidate_pairs": "count",
    "scale.kept_frac": "fraction",
    "scale.value": "objective",
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def at_reference_speed(seconds: List[float], speed: List[float]) -> List[float]:
    """Timings scaled to the reference host speed (see probe.py)."""
    import probe

    return [t * probe.REFERENCE_S / f for t, f in zip(seconds, speed)]


def end_to_end(phase) -> Dict[str, dict]:
    """The end-to-end metrics of one untraced phase, with their statistic."""
    ref_ms = [1e3 * s for s in at_reference_speed(phase.latencies, phase.speed)]
    n = len(ref_ms)
    values = {
        "p50_ref_ms": (percentile(ref_ms, 50), f"p50 of {n} operation latencies"),
        "p90_ref_ms": (percentile(ref_ms, 90), f"p90 of {n} operation latencies"),
        "photos_per_ref_s": (
            1e3 * sum(phase.photos) / sum(ref_ms),
            f"photos over summed latency of {n} operations",
        ),
        "peak_rss_mb": (phase.peak_rss_mb, "peak RSS of the program process"),
        "setup_s": (
            statistics.median(at_reference_speed(phase.setup_s, phase.setup_speed)),
            f"median of {len(phase.setup_s)} set-ups",
        ),
    }
    return {
        name: {"value": v, "unit": END_TO_END[name], "stat": stat}
        for name, (v, stat) in values.items()
    }


def wall_clock(phase) -> Dict[str, float]:
    """The same timings in plain wall-clock units, for the record."""
    lat_ms = [1e3 * s for s in phase.latencies]
    return {
        "p50_ms": percentile(lat_ms, 50),
        "p90_ms": percentile(lat_ms, 90),
        "photos_per_s": sum(phase.photos) / sum(phase.latencies),
        "setup_s": statistics.median(phase.setup_s),
        "probe_ms": 1e3 * statistics.median(phase.speed),
    }


def per_layer(plain, traced, workload):
    """``(metrics, table)``: per-layer metrics of the traced phase, and the
    printable per-layer table (ms per op, calls per op, share of wall)."""
    import tracing

    table = tracing.layer_breakdown(traced.spans, dict(enumerate(traced.latencies)))
    counts = table.pop("_counts")
    ops, evals = counts["ops"], counts["evals"]
    reports = traced.reports

    def phase_s(name: str) -> float:
        return _mean([r["phase_seconds"].get(name, 0.0) for r in reports])

    candidates = sum(r["candidate_pairs"] for r in reports)
    values = {
        "service.transport_ms": table["service.transport"]["ms"],
        "service.parse_ms": table["service.parse"]["ms"],
        "service.dispatch_ms": table["service.dispatch"]["ms"],
        "serialize.decode_ms": table["serialize.decode"]["ms"],
        "tenants.lease_ms": table["tenants.lease"]["ms"],
        "tenants.hit_frac": (
            counts["hits"] / counts["leases"] if counts["leases"] else 0.0
        ),
        "tenants.put_ms": table["tenants.put"]["ms"],
        "tenants.get_ms": table["tenants.get"]["ms"],
        "greedy.uc_ms": table["greedy.uc"]["ms"],
        "greedy.cb_ms": table["greedy.cb"]["ms"],
        "greedy.evals": evals / ops if ops else 0.0,
        "greedy.eval_us": 1e6 * counts["greedy_self_s"] / evals if evals else 0.0,
        "greedy.picks_per_eval": counts["picks"] / evals if evals else 0.0,
        "bounds.certificate_ms": table["bounds.certificate"]["ms"],
        "objective.score_ms": table["objective.score"]["ms"],
        "fidelity.solve_ms": table["fidelity.solve"]["ms"],
        "live.ingest_ms": table["live.ingest"]["ms"],
        "live.resolve_ms": table["live.resolve"]["ms"],
        "live.encode_ms": table["live.encode"]["ms"],
        "live.regret": _mean(getattr(workload, "regrets", [])),
        "scale.signatures_s": phase_s("signatures"),
        "scale.candidates_s": phase_s("candidates"),
        "scale.verify_s": phase_s("verify"),
        "scale.assemble_s": phase_s("assemble"),
        "scale.candidate_pairs": candidates / len(reports) if reports else 0.0,
        "scale.kept_frac": (
            sum(r["kept_pairs"] for r in reports) / candidates if candidates else 0.0
        ),
        "scale.value": _mean([r["value"] for r in reports]),
        "trace.overhead_frac": (
            percentile(at_reference_speed(traced.latencies, traced.speed), 50)
            / percentile(at_reference_speed(plain.latencies, plain.speed), 50)
            - 1.0
        ),
        "trace.coverage": (
            counts["root_child_s"] / counts["root_s"] if counts["root_s"] else 0.0
        ),
    }
    stat = f"traced pass, {ops} operations"
    metrics = {
        name: {"value": v, "unit": PER_LAYER[name], "stat": stat}
        for name, v in values.items()
    }
    return metrics, table


def run_metadata(seed: int, nproc: int, connections: int) -> Dict[str, object]:
    import numpy

    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "client_connections": connections,
    }


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results",
        default=str(DEFAULT_RESULTS),
        help="directory for the full result record of this run",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None, sizes: Optional[Dict[str, int]] = None) -> int:
    """Run one workload; ``sizes`` overrides workload sizes (self-tests)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    usable = os.sched_getaffinity(0)
    nproc = len(usable)
    # One core for the client, the program and the probe: the probe then
    # times the core the program runs on (see probe.py).  Pinned before
    # numpy loads, so this process and its children use the same number
    # of BLAS threads.
    os.sched_setaffinity(0, {max(usable)})
    import workloads

    if workloads.CLIENT_CONNECTIONS > nproc:
        print(
            f"error: {workloads.CLIENT_CONNECTIONS} client connections on "
            f"{nproc} usable cores",
            file=sys.stderr,
        )
        return 2
    sizes = dict(workloads.SIZES, **(sizes or {}))
    workdir = ROOT / ".bench_e2e" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    table = None
    try:
        workload = workloads.build(args.workload, args.seed, sizes)
        if args.trace:
            half = args.seconds / 2
            plain = workloads.run_phase(workload, half, 1, str(workdir), False)
            traced = workloads.run_phase(workload, half, 1, str(workdir), True)
            phases = [plain, traced]
            metrics, table = per_layer(plain, traced, workload)
        else:
            phase = workloads.run_phase(
                workload, args.seconds, sizes["setups"], str(workdir), False
            )
            phases = [phase]
            metrics = end_to_end(phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.ok) for p in phases)
    failed = sum(p.ok.count(False) for p in phases)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": run_metadata(args.seed, nproc, workloads.CLIENT_CONNECTIONS),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_frac": failed / attempted,
        "metrics": metrics,
        "layers": table,
        "wall_clock": [wall_clock(p) for p in phases],
        "latencies_ms": [[1e3 * s for s in p.latencies] for p in phases],
        "probe_ms": [[1e3 * s for s in p.speed] for p in phases],
    }
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))

    _report(record)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def _report(record: dict) -> None:
    print(
        f"# e2e {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']:g} trace={record['trace']}"
    )
    print("# meta " + json.dumps(record["meta"]))
    for name, m in record["metrics"].items():
        print(f"{name:24s} {m['value']:14.6g} {m['unit']:10s} {m['stat']}")
    for phase in record["wall_clock"]:
        print(
            "# wall clock: "
            + ", ".join(f"{name} {value:.6g}" for name, value in phase.items())
        )
    if record["layers"]:
        print(f"{'layer':24s} {'ms/op':>10s} {'calls/op':>9s} {'share':>7s}")
        for name, row in record["layers"].items():
            print(
                f"{name:24s} {row['ms']:10.3f} {row['calls']:9.2f} "
                f"{row['share']:7.1%}"
            )
    print(
        f"error_frac {record['error_frac']:.4f} "
        f"({record['failed']} of {record['attempted']} operations failed)"
    )


if __name__ == "__main__":
    sys.exit(main())
