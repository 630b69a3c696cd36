"""Command-line front end for PHOcus.

Usage examples::

    phocus datasets
    phocus solve --dataset P-1K --scale 0.2 --budget-mb 25 --tau 0.5
    phocus solve --dataset EC-Fashion --scale 0.05 --budget-fraction 0.1 \
        --algorithm greedy-ncs
    phocus demo

``solve`` generates (or loads) a dataset, runs the configured pipeline
and prints the analyst report; ``demo`` replays the paper's Figure 1
example with the Figure 3 trace.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from typing import List, Optional


from repro.core.greedy import UC, lazy_greedy
from repro.core.paper_example import MB, figure1_instance
from repro.core.solver import available_algorithms
from repro.datasets.io import load_dataset
from repro.datasets.registry import dataset_names
from repro.datasets.registry import load as load_named
from repro.errors import ReproError
from repro.system.phocus import ArchiveReport, PHOcus, PhocusConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phocus",
        description="PHOcus: archive photos under a storage budget (EDBT 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the registered Table 2 datasets")

    solve_p = sub.add_parser("solve", help="run the PHOcus pipeline on a dataset")
    solve_p.add_argument("--dataset", help="registered dataset name (see 'datasets')")
    solve_p.add_argument("--dataset-file", help="path of a saved dataset JSON")
    solve_p.add_argument("--scale", type=float, default=0.1, help="dataset scale factor")
    solve_p.add_argument("--seed", type=int, default=0)
    solve_p.add_argument("--budget-mb", type=float, help="budget in megabytes")
    solve_p.add_argument(
        "--budget-fraction", type=float, help="budget as a fraction of the corpus size"
    )
    solve_p.add_argument(
        "--algorithm", default="phocus", choices=available_algorithms()
    )
    solve_p.add_argument("--tau", type=float, default=0.0, help="sparsification threshold")
    solve_p.add_argument(
        "--sparsify-method", default="exact", choices=["exact", "lsh"]
    )
    solve_p.add_argument("--no-certificate", action="store_true")
    solve_p.add_argument(
        "--deadline-ms",
        type=float,
        metavar="MS",
        help="abandon the solve after this wall-clock budget (exit code 124; "
        "the partial checkpoint is reported)",
    )
    solve_p.add_argument(
        "--html-report",
        metavar="PATH",
        help="additionally write a static HTML archive report",
    )

    compare_p = sub.add_parser(
        "compare", help="run several algorithms over a budget sweep"
    )
    compare_p.add_argument("--dataset", required=True, help="registered dataset name")
    compare_p.add_argument("--scale", type=float, default=0.1)
    compare_p.add_argument("--seed", type=int, default=0)
    compare_p.add_argument(
        "--budget-fractions",
        default="0.05,0.1,0.2,0.5",
        help="comma-separated corpus-cost fractions",
    )
    compare_p.add_argument(
        "--algorithms",
        default="rand-a,greedy-nr,greedy-ncs,phocus",
        help="comma-separated algorithm names",
    )

    fidelity_p = sub.add_parser(
        "fidelity",
        help="multi-fidelity solve: keep / recompress / drop under the budget",
    )
    fidelity_p.add_argument("--dataset", required=True, help="registered dataset name")
    fidelity_p.add_argument("--scale", type=float, default=0.1)
    fidelity_p.add_argument("--seed", type=int, default=0)
    fidelity_p.add_argument(
        "--budget-fraction",
        type=float,
        default=0.1,
        help="budget as a fraction of the corpus size (single solve)",
    )
    fidelity_p.add_argument(
        "--budget-fractions",
        help="comma-separated fractions — sweep the budget-vs-quality "
        "frontier against discard-only PHOcus",
    )
    fidelity_p.add_argument(
        "--levels",
        help="recompression menu as fidelity:size pairs, e.g. "
        "'0.85:0.45,0.6:0.22' (default: the built-in q85/q60 tiers)",
    )
    fidelity_p.add_argument("--mode", default="auto", choices=["auto", "uc", "cb"])
    fidelity_p.add_argument(
        "--no-upgrade",
        action="store_true",
        help="disable in-drain upgrades of chosen variants",
    )

    sub.add_parser("demo", help="replay the paper's Figure 1 / Figure 3 example")

    inspect_p = sub.add_parser(
        "inspect", help="structural diagnostics of a dataset instance"
    )
    inspect_p.add_argument("--dataset", required=True)
    inspect_p.add_argument("--scale", type=float, default=0.1)
    inspect_p.add_argument("--seed", type=int, default=0)
    inspect_p.add_argument("--budget-fraction", type=float, default=0.1)

    serve_p = sub.add_parser("serve", help="run the HTTP solver service")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8471)
    serve_p.add_argument(
        "--workers", type=int, default=4, help="background solve worker threads"
    )
    serve_p.add_argument(
        "--queue-depth", type=int, default=256, help="job queue bound (0 = unbounded)"
    )
    serve_p.add_argument(
        "--journal",
        metavar="PATH",
        help="JSONL job journal; unfinished jobs replay on restart",
    )
    serve_p.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="checkpoint running solves every N greedy picks so replayed "
        "jobs resume mid-solve instead of restarting",
    )
    serve_p.add_argument(
        "--metrics",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="arm the metrics registry and serve GET /metrics "
        "(--no-metrics disables both)",
    )
    serve_p.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON line per request on stderr",
    )
    serve_p.add_argument(
        "--tenants-root",
        metavar="DIR",
        help="directory for the multi-tenant instance store; enables the "
        "/tenants API and by_ref solves",
    )
    serve_p.add_argument(
        "--tenants-cache-mb",
        type=float,
        default=256.0,
        help="shared-memory warm cache capacity in MiB (0 disables caching)",
    )
    serve_p.add_argument(
        "--tenant-max-bytes",
        type=float,
        help="per-tenant storage quota in bytes (default: unlimited)",
    )
    serve_p.add_argument(
        "--tenant-max-instances",
        type=int,
        help="per-tenant stored instance count quota (default: unlimited)",
    )
    serve_p.add_argument(
        "--tenant-rate",
        type=float,
        help="per-tenant request rate limit in requests/second "
        "(default: unlimited)",
    )
    serve_p.add_argument(
        "--tenant-burst",
        type=int,
        default=10,
        help="token-bucket burst size for --tenant-rate",
    )
    serve_p.add_argument(
        "--max-inflight",
        type=int,
        metavar="N",
        help="admission control: bound concurrently executing solves and "
        "shed excess load with 503 + Retry-After (default: no shedding)",
    )
    serve_p.add_argument(
        "--target-wait-seconds",
        type=float,
        default=5.0,
        help="queue-wait SLO for admission control (with --max-inflight)",
    )
    serve_p.add_argument(
        "--brownout-tau",
        type=float,
        metavar="TAU",
        help="enable brownout: requests opting in with degraded_ok may get "
        "τ-sparsified or cached answers under pressure (always labeled)",
    )
    serve_p.add_argument(
        "--default-deadline-ms",
        type=float,
        metavar="MS",
        help="deadline applied to requests that carry none of their own",
    )
    serve_p.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="SIGTERM drain: how long running solves get to checkpoint "
        "before being requeued from their last snapshot",
    )
    serve_p.add_argument(
        "--recuration",
        action="store_true",
        help="run the background re-curation sweep over live instances "
        "(requires --tenants-root)",
    )
    serve_p.add_argument(
        "--recuration-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="re-curation sweep period",
    )
    serve_p.add_argument(
        "--recuration-debounce",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="coalesce an upload burst into one warm re-solve once it has "
        "been quiet this long",
    )
    serve_p.add_argument(
        "--recuration-regret",
        type=float,
        default=0.25,
        metavar="BOUND",
        help="escalate to a full re-solve once the accumulated certified "
        "regret crosses this threshold",
    )

    jobs_p = sub.add_parser(
        "jobs", help="submit and track background solve jobs on a running service"
    )
    jobs_p.add_argument(
        "--server",
        default="http://127.0.0.1:8471",
        help="base URL of a running 'phocus serve' instance",
    )
    jobs_sub = jobs_p.add_subparsers(dest="jobs_command", required=True)

    submit_p = jobs_sub.add_parser("submit", help="submit a serialised instance")
    submit_p.add_argument(
        "--instance-file",
        required=True,
        help="JSON file in the repro.core.serialize instance wire format",
    )
    submit_p.add_argument("--algorithm", default="phocus", choices=available_algorithms())
    submit_p.add_argument("--tau", type=float, default=0.0)
    submit_p.add_argument("--tenant", default="default")
    submit_p.add_argument("--priority", type=int, default=0)
    submit_p.add_argument("--timeout-seconds", type=float)
    submit_p.add_argument(
        "--deadline-ms",
        type=float,
        help="total latency budget from submission (queue wait included); "
        "an expired job fails with error_kind=deadline, keeping its "
        "checkpoint",
    )
    submit_p.add_argument("--max-attempts", type=int, default=3)
    submit_p.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="checkpoint this job every N greedy picks",
    )
    submit_p.add_argument("--certificate", action="store_true")
    submit_p.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    submit_p.add_argument("--poll-interval", type=float, default=0.5)

    status_p = jobs_sub.add_parser("status", help="show one job's state")
    status_p.add_argument("--id", required=True, dest="job_id")
    status_p.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    status_p.add_argument("--poll-interval", type=float, default=0.5)

    result_p = jobs_sub.add_parser("result", help="print a finished job's solution")
    result_p.add_argument("--id", required=True, dest="job_id")

    cancel_p = jobs_sub.add_parser("cancel", help="cancel a queued or running job")
    cancel_p.add_argument("--id", required=True, dest="job_id")

    list_p = jobs_sub.add_parser("list", help="list jobs on the service")
    list_p.add_argument("--state", choices=[
        "QUEUED", "RUNNING", "SUCCEEDED", "FAILED", "CANCELLED"
    ])
    list_p.add_argument("--tenant")

    jobs_sub.add_parser("stats", help="queue / worker / latency statistics")

    tenants_p = sub.add_parser(
        "tenants", help="manage stored instances on a running service"
    )
    tenants_p.add_argument(
        "--server",
        default="http://127.0.0.1:8471",
        help="base URL of a running 'phocus serve' instance",
    )
    tenants_sub = tenants_p.add_subparsers(dest="tenants_command", required=True)

    upload_p = tenants_sub.add_parser(
        "upload", help="upload a serialised instance for by_ref solving"
    )
    upload_p.add_argument("--tenant", required=True)
    upload_p.add_argument("--id", required=True, dest="instance_id")
    upload_p.add_argument(
        "--instance-file",
        required=True,
        help="JSON file in the repro.core.serialize instance wire format",
    )

    tlist_p = tenants_sub.add_parser("list", help="list a tenant's stored instances")
    tlist_p.add_argument("--tenant", required=True)

    rm_p = tenants_sub.add_parser("rm", help="delete a stored instance")
    rm_p.add_argument("--tenant", required=True)
    rm_p.add_argument("--id", required=True, dest="instance_id")

    tstats_p = tenants_sub.add_parser(
        "stats", help="store / warm-cache / quota view for one tenant"
    )
    tstats_p.add_argument("--tenant", required=True)

    live_p = sub.add_parser(
        "live", help="online incremental curation on a running service"
    )
    live_p.add_argument(
        "--server",
        default="http://127.0.0.1:8471",
        help="base URL of a running 'phocus serve' instance",
    )
    live_sub = live_p.add_subparsers(dest="live_command", required=True)

    def _photo_source(p: argparse.ArgumentParser, default_photos: int) -> None:
        p.add_argument("--tenant", required=True)
        p.add_argument("--id", required=True, dest="instance_id")
        p.add_argument(
            "--photos-file",
            help='JSON file {"costs": [...], "embeddings": [[...]]} '
            "(default: a synthetic archive)",
        )
        p.add_argument(
            "--photos",
            type=int,
            default=default_photos,
            help="synthetic photo count (ignored with --photos-file)",
        )
        p.add_argument("--dim", type=int, default=16)
        p.add_argument("--seed", type=int, default=0)

    lcreate_p = live_sub.add_parser(
        "create", help="build, cold-solve and store a live archive"
    )
    _photo_source(lcreate_p, 1000)
    lcreate_p.add_argument("--tau", type=float, default=0.8)
    lcreate_p.add_argument(
        "--budget-fraction",
        type=float,
        default=0.1,
        help="budget as a fraction of the total corpus cost",
    )
    lcreate_p.add_argument(
        "--budget", type=float, help="absolute budget (overrides the fraction)"
    )
    lcreate_p.add_argument("--target-recall", type=float, default=0.95)
    lcreate_p.add_argument(
        "--no-solve",
        action="store_true",
        help="store the archive without an initial cold solve",
    )

    lingest_p = live_sub.add_parser(
        "ingest", help="upload a photo delta (one atomic version bump)"
    )
    _photo_source(lingest_p, 10)
    lingest_p.add_argument(
        "--resolve",
        default="warm",
        choices=["warm", "none"],
        help="warm re-solve inline, or defer curation to the sweep",
    )

    lstatus_p = live_sub.add_parser(
        "status", help="curation status of one live instance"
    )
    lstatus_p.add_argument("--tenant", required=True)
    lstatus_p.add_argument("--id", required=True, dest="instance_id")

    lrec_p = live_sub.add_parser(
        "recurate", help="force a warm or full re-solve now"
    )
    lrec_p.add_argument("--tenant", required=True)
    lrec_p.add_argument("--id", required=True, dest="instance_id")
    lrec_p.add_argument("--kind", default="warm", choices=["warm", "full"])

    scale_p = sub.add_parser(
        "scale", help="million-photo fused streamed builds (no dense SIM)"
    )
    scale_sub = scale_p.add_subparsers(dest="scale_command", required=True)
    sbuild_p = scale_sub.add_parser(
        "build",
        help="fused build: embeddings -> LSH candidates -> sparse CSR instance",
    )
    sbuild_p.add_argument(
        "--photos", type=int, default=100_000, help="synthetic archive size"
    )
    sbuild_p.add_argument("--dim", type=int, default=16, help="embedding dimension")
    sbuild_p.add_argument(
        "--tau", type=float, default=0.8, help="sparsification threshold"
    )
    sbuild_p.add_argument(
        "--budget-fraction",
        type=float,
        default=0.1,
        help="budget as a fraction of the total corpus cost",
    )
    sbuild_p.add_argument(
        "--dtype",
        default="float64",
        choices=["float64", "float32"],
        help="similarity value storage (float32 halves the value bytes)",
    )
    sbuild_p.add_argument("--seed", type=int, default=0)
    sbuild_p.add_argument(
        "--n-bits",
        type=int,
        help="explicit SimHash width (default: auto-scaled to the archive size)",
    )
    sbuild_p.add_argument("--target-recall", type=float, default=0.95)
    sbuild_p.add_argument(
        "--chunk-pairs",
        type=int,
        default=1 << 17,
        help="candidate/verification pairs per chunk (memory bound)",
    )
    sbuild_p.add_argument(
        "--signature-chunk",
        type=int,
        default=1 << 16,
        help="photos per signature matmul chunk",
    )
    sbuild_p.add_argument(
        "--out", metavar="PATH", help="write the built instance JSON atomically"
    )
    sbuild_p.add_argument(
        "--solve",
        action="store_true",
        help="also run the PHOcus greedy on the built instance",
    )

    obs_p = sub.add_parser(
        "obs", help="observability: dump metrics from a service or this process"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    dump_p = obs_sub.add_parser(
        "dump", help="print the Prometheus text exposition of the metrics registry"
    )
    dump_group = dump_p.add_mutually_exclusive_group()
    dump_group.add_argument(
        "--server",
        help="base URL of a running 'phocus serve' instance to scrape",
    )
    dump_group.add_argument(
        "--local",
        action="store_true",
        help="dump this process's registry (arms the probes if needed)",
    )
    dump_p.add_argument(
        "--spans",
        action="store_true",
        help="also print recently completed trace spans (local mode only)",
    )
    return parser


def _print_report(report: ArchiveReport) -> None:
    sol = report.solution
    print(f"algorithm            : {sol.algorithm}")
    print(f"objective value G(S) : {sol.value:.4f}")
    print(f"retained / archived  : {report.retained_count} / {report.archived_count}")
    print(
        f"cost                 : {sol.cost / MB:.2f} MB of {sol.budget / MB:.2f} MB "
        f"({report.budget_utilisation:.1%} used)"
    )
    print(f"solve time           : {sol.elapsed_seconds:.2f}s (+{report.prep_seconds:.2f}s prep)")
    if sol.ratio_certificate is not None:
        print(f"approx. certificate  : >= {sol.ratio_certificate:.3f} of optimal")
    if report.sparsify is not None:
        rep = report.sparsify
        print(
            f"sparsification       : tau={rep.tau} ({rep.method}), kept "
            f"{rep.kept_fraction:.1%} of entries, checked {rep.checked_fraction:.1%} of pairs"
        )
    if report.sparsification_guarantee is not None:
        print(f"tau-guarantee        : >= {report.sparsification_guarantee:.3f} (Theorem 4.8)")
    print("least-covered subsets:")
    for subset_id, value in report.worst_covered_subsets:
        print(f"  {subset_id:<40s} {value:.4f}")


def _cmd_datasets() -> int:
    print(f"{'name':<18} {'photos':>8} {'subsets':>8}  source")
    from repro.datasets.registry import TABLE2

    for name in dataset_names():
        cfg = TABLE2[name]
        print(f"{name:<18} {cfg.n_photos:>8} {cfg.n_subsets:>8}  {cfg.source}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if bool(args.dataset) == bool(args.dataset_file):
        print("error: provide exactly one of --dataset / --dataset-file", file=sys.stderr)
        return 2
    if args.dataset:
        dataset = load_named(args.dataset, scale=args.scale, seed=args.seed)
    else:
        dataset = load_dataset(args.dataset_file)

    if args.budget_mb is not None:
        budget = args.budget_mb * MB
    elif args.budget_fraction is not None:
        budget = dataset.total_cost() * args.budget_fraction
    else:
        budget = dataset.total_cost() * 0.1
        print("note: no budget given; defaulting to 10% of the corpus size")

    print(
        f"dataset {dataset.name}: {dataset.n_photos} photos, "
        f"{dataset.n_subsets} subsets, {dataset.total_cost_mb():.1f} MB total"
    )
    instance = dataset.instance(budget)
    config = PhocusConfig(
        algorithm=args.algorithm,
        tau=args.tau,
        sparsify_method=args.sparsify_method,
        certificate=not args.no_certificate,
        seed=args.seed,
    )
    if args.deadline_ms is not None:
        from repro.errors import DeadlineExceeded
        from repro.resilience import Deadline, deadline_scope

        try:
            with deadline_scope(Deadline(args.deadline_ms / 1000.0)):
                report = PHOcus(config).run(instance)
        except DeadlineExceeded as exc:
            progress = exc.progress() or {}
            print(
                f"error: deadline of {args.deadline_ms:g} ms expired "
                f"mid-solve (progress: {progress})",
                file=sys.stderr,
            )
            return 124
    else:
        report = PHOcus(config).run(instance)
    _print_report(report)
    if args.html_report:
        from repro.system.report_html import write_report_html

        written = write_report_html(report, args.html_report, instance)
        print(f"HTML report written to {written}")
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from repro.fidelity import VariantCatalog, budget_frontier
    from repro.fidelity.policy import execute_fidelity_payload

    dataset = load_named(args.dataset, scale=args.scale, seed=args.seed)
    total = dataset.total_cost()
    if args.levels:
        try:
            pairs = [
                (float(f), float(s))
                for f, s in (lv.split(":") for lv in args.levels.split(",") if lv)
            ]
        except ValueError:
            print("error: --levels wants fidelity:size pairs", file=sys.stderr)
            return 2
        catalog = dataset.variant_catalog(pairs)
    else:
        catalog = dataset.variant_catalog()
    tiers = sorted(set(catalog.tier) - {"original"})
    print(
        f"dataset {dataset.name}: {dataset.n_photos} photos, "
        f"{dataset.total_cost_mb():.1f} MB total; "
        f"recompression tiers: {', '.join(tiers)}"
    )

    if args.budget_fractions:
        fractions = [float(f) for f in args.budget_fractions.split(",") if f]
        instance = dataset.instance(total)  # budget swept per point below
        doc = budget_frontier(
            instance,
            catalog,
            [total * f for f in fractions],
            upgrade=not args.no_upgrade,
        )
        print(
            f"{'budget':>10}  {'fidelity':>9}  {'discard':>9}  "
            f"{'winner':<8}  {'kept':>5}  {'recomp':>6}  {'upgrades':>8}"
        )
        for frac, point in zip(sorted(fractions), doc["points"]):
            q = point["quality"]
            print(
                f"{frac * 100:>9.1f}%  {point['fidelity_value']:>9.4f}  "
                f"{point['discard_value']:>9.4f}  "
                f"{point['frontier_policy']:<8}  {q['kept']:>5}  "
                f"{q['recompressed']:>6}  {point['upgrades']:>8}"
            )
        checks = doc["checks"]
        print(
            f"frontier dominates discard-only at "
            f"{'all' if checks['weakly_dominates_all'] else 'SOME'} budgets "
            f"(strictly at {checks['strict_points']}/{len(doc['points'])})"
        )
        return 0

    budget = total * args.budget_fraction
    instance = dataset.instance(budget)
    policy = {"mode": args.mode, "upgrade": not args.no_upgrade}
    doc = execute_fidelity_payload(
        {**policy, "catalog": catalog.to_dict()}, instance=instance
    )
    q = doc["quality"]
    print(
        f"budget               : {budget / MB:.1f} MB "
        f"({args.budget_fraction * 100:g}% of corpus)"
    )
    print(
        f"value                : {doc['value']:.4f} "
        f"({doc['mode']} pass, {doc['evaluations']} evaluations)"
    )
    print(
        f"kept                 : {q['kept']} of {q['photos']} photos "
        f"({q['kept_original']} originals + {q['recompressed']} recompressed, "
        f"{doc['upgrades']} upgrades)"
    )
    print(f"by tier              : {q['by_tier']}")
    print(
        f"mean fidelity        : {q['mean_fidelity']:.3f} "
        f"(budget used: {doc['budget_utilisation'] * 100:.1f}%)"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.harness import format_grid, run_quality_grid

    dataset = load_named(args.dataset, scale=args.scale, seed=args.seed)
    fractions = [float(f) for f in args.budget_fractions.split(",") if f]
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    unknown = set(algorithms) - set(available_algorithms())
    if unknown:
        print(f"error: unknown algorithms {sorted(unknown)}", file=sys.stderr)
        return 2
    total_mb = dataset.total_cost_mb()
    grid = run_quality_grid(
        dataset, [total_mb * f for f in fractions], algorithms, seed=args.seed
    )
    print(format_grid(grid))
    print(f"(maximum attainable score: {grid.max_value:.2f})")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.system.analysis import analyze_instance

    dataset = load_named(args.dataset, scale=args.scale, seed=args.seed)
    instance = dataset.instance(dataset.total_cost() * args.budget_fraction)
    print(f"[{dataset.name}] instance diagnostics")
    for line in analyze_instance(instance).summary_lines():
        print(line)
    return 0


class CommandFailed(Exception):
    """A client command the service refused; :func:`main` prints it and exits 1."""


def _call(server, method, path, payload=None, *, ok=(200,), refusals=None):
    """One JSON request against a running service; returns ``(status, doc)``.

    A status outside ``ok`` raises :class:`CommandFailed` with the
    service's error message, or with ``refusals[status](doc)`` when given.
    """
    import json
    import urllib.error
    import urllib.request

    url = server.rstrip("/") + path
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method=method
    )
    try:
        with urllib.request.urlopen(req) as resp:
            status, doc = resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        try:
            status, doc = exc.code, json.loads(exc.read())
        except Exception:  # noqa: BLE001 - non-JSON error body
            status, doc = exc.code, {"error": str(exc)}
    except OSError as exc:  # refused, unresolvable, timed out
        raise CommandFailed(f"cannot reach {url}: {exc}") from None
    if status in ok:
        return status, doc
    message = (refusals or {}).get(status)
    raise CommandFailed(message(doc) if message else doc.get("error", status))


def _queue_full(doc: dict) -> str:
    return f"queue full ({doc.get('queue_depth')}/{doc.get('queue_limit')}); retry later"


def _poll_job(server: str, job_id: str, interval: float) -> dict:
    import time

    last_state = None
    while True:
        _, doc = _call(server, "GET", f"/jobs/{job_id}")
        if doc["state"] != last_state:
            last_state = doc["state"]
            print(f"  job {job_id}: {last_state} (attempt {doc['attempt']})")
        if last_state in ("SUCCEEDED", "FAILED", "CANCELLED"):
            return doc
        time.sleep(interval)


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    server = args.server
    if args.jobs_command == "submit":
        with open(args.instance_file, "r", encoding="utf-8") as fh:
            instance_doc = json.load(fh)
        payload = {
            "instance": instance_doc,
            "algorithm": args.algorithm,
            "tau": args.tau,
            "tenant": args.tenant,
            "priority": args.priority,
            "timeout_seconds": args.timeout_seconds,
            "deadline_ms": args.deadline_ms,
            "max_attempts": args.max_attempts,
            "checkpoint_every": args.checkpoint_every,
            "certificate": args.certificate,
        }
        _, doc = _call(
            server, "POST", "/jobs", payload, ok=(202,), refusals={429: _queue_full}
        )
        print(f"submitted job {doc['job_id']}")
        if args.wait:
            final = _poll_job(server, doc["job_id"], args.poll_interval)
            return 0 if final["state"] == "SUCCEEDED" else 1
        return 0
    if args.jobs_command == "status":
        if args.wait:
            doc = _poll_job(server, args.job_id, args.poll_interval)
        else:
            _, doc = _call(server, "GET", f"/jobs/{args.job_id}")
        doc.pop("result", None)
        doc.pop("spec", None)
        print(json.dumps(doc, indent=2))
        return 0
    if args.jobs_command == "result":
        _, doc = _call(server, "GET", f"/jobs/{args.job_id}")
        if doc["state"] != "SUCCEEDED":
            raise CommandFailed(
                f"job {args.job_id} is {doc['state']}"
                + (f" ({doc['error']})" if doc.get("error") else "")
            )
        print(json.dumps(doc["result"], indent=2))
        return 0
    if args.jobs_command == "cancel":
        _, doc = _call(server, "DELETE", f"/jobs/{args.job_id}")
        verb = "cancelled" if doc.get("cancelled") else "not cancellable"
        print(f"job {args.job_id}: {verb} (state {doc.get('state')})")
        return 0
    if args.jobs_command == "list":
        query = []
        if args.state:
            query.append(f"state={args.state}")
        if args.tenant:
            query.append(f"tenant={args.tenant}")
        suffix = "?" + "&".join(query) if query else ""
        _, doc = _call(server, "GET", f"/jobs{suffix}")
        print(f"{'job id':<18} {'tenant':<12} {'state':<10} {'attempt':>7}  error")
        for job in doc["jobs"]:
            print(
                f"{job['job_id']:<18} {job['tenant']:<12} {job['state']:<10} "
                f"{job['attempt']:>7}  {job.get('error') or ''}"
            )
        return 0
    # stats
    _, doc = _call(server, "GET", "/stats")
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    import json

    server = args.server
    base = f"/tenants/{args.tenant}"
    if args.tenants_command == "upload":
        with open(args.instance_file, "r", encoding="utf-8") as fh:
            instance_doc = json.load(fh)
        path = f"{base}/instances/{args.instance_id}"
        payload = {"instance": instance_doc}
        status, doc = _call(server, "PUT", path, payload, ok=(200, 201))
        meta = doc["stored"]
        verb = "created" if status == 201 else "updated"
        print(
            f"{verb} {args.tenant}/{args.instance_id} "
            f"(version {meta['version']}, {meta['nbytes']} bytes)"
        )
        return 0
    if args.tenants_command == "list":
        _, doc = _call(server, "GET", f"{base}/instances")
        print(f"{'instance id':<32} {'version':>7} {'bytes':>12}")
        for meta in doc["instances"]:
            print(
                f"{meta['instance_id']:<32} {meta['version']:>7} "
                f"{meta['nbytes']:>12}"
            )
        return 0
    if args.tenants_command == "rm":
        _call(server, "DELETE", f"{base}/instances/{args.instance_id}")
        print(f"deleted {args.tenant}/{args.instance_id}")
        return 0
    # stats
    _, doc = _call(server, "GET", f"{base}/stats")
    print(json.dumps(doc, indent=2))
    return 0


def _load_photos(args: argparse.Namespace):
    """The (costs, embeddings) payload of a live create/ingest command."""
    import json

    if args.photos_file:
        with open(args.photos_file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return list(doc["costs"]), [list(row) for row in doc["embeddings"]]
    from repro.scale import synthetic_archive

    costs, embeddings = synthetic_archive(
        args.photos, dim=args.dim, seed=args.seed
    )
    return costs.tolist(), embeddings.tolist()


def _print_live_solution(doc: dict) -> None:
    solution = doc.get("solution")
    if solution is None:
        print("  solution     : none (deferred to the re-curation sweep)")
        return
    print(
        f"  solution     : {solution['kind']} {solution['mode']}, value "
        f"{solution['value']:.4f}, {len(solution['selection'])} photos kept"
    )
    print(
        f"  regret bound : {solution['regret_bound']:.4%} of the certified "
        f"optimum upper bound ({solution['upper_bound']:.4f})"
    )
    if solution.get("evicted") or solution.get("added"):
        print(
            f"  churn        : +{len(solution.get('added', []))} "
            f"-{len(solution.get('evicted', []))} photos vs previous"
        )


def _cmd_live(args: argparse.Namespace) -> int:
    import json

    server = args.server
    base = f"/tenants/{args.tenant}/instances/{args.instance_id}"
    if args.live_command == "create":
        costs, embeddings = _load_photos(args)
        budget = (
            args.budget
            if args.budget is not None
            else sum(costs) * args.budget_fraction
        )
        payload = {
            "costs": costs,
            "embeddings": embeddings,
            "budget": budget,
            "tau": args.tau,
            "seed": args.seed,
            "target_recall": args.target_recall,
            "solve": not args.no_solve,
        }
        _, doc = _call(server, "POST", f"{base}/live", payload, ok=(201,))
        build = doc["build"]
        print(
            f"created live {args.tenant}/{args.instance_id} version "
            f"{doc['version']}: {build['n_photos']} photos, "
            f"{build['nnz']} similarity entries"
        )
        _print_live_solution(doc)
        return 0
    if args.live_command == "ingest":
        costs, embeddings = _load_photos(args)
        payload = {
            "costs": costs,
            "embeddings": embeddings,
            "resolve": args.resolve,
        }
        _, doc = _call(server, "POST", f"{base}/photos", payload)
        delta = doc["delta"]
        print(
            f"ingested {delta['n_added']} photos into "
            f"{args.tenant}/{args.instance_id} (version {doc['version']}, "
            f"{delta['n_before']} -> {delta['n_before'] + delta['n_added']} "
            f"photos, {delta['seconds']:.3f}s)"
        )
        if args.resolve == "none":
            print(f"  pending      : {doc['pending_deltas']} deferred delta(s)")
        _print_live_solution(doc)
        return 0
    if args.live_command == "recurate":
        conflict = {409: lambda d: "a concurrent ingest moved the instance; retry"}
        payload = {"kind": args.kind}
        _, doc = _call(server, "POST", f"{base}/recurate", payload, refusals=conflict)
        print(
            f"recurated {args.tenant}/{args.instance_id} "
            f"({args.kind}, version {doc['version']})"
        )
        _print_live_solution(doc)
        return 0
    # status
    _, doc = _call(server, "GET", f"{base}/live")
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """``phocus obs dump``: print a Prometheus exposition to stdout.

    ``--server URL`` scrapes a running service's ``GET /metrics``;
    ``--local`` (the default) renders this process's own registry —
    mostly useful after library calls in the same interpreter, or as a
    quick way to eyeball the metric catalog.
    """
    import json as _json
    import urllib.error
    import urllib.request

    if args.server:
        url = args.server.rstrip("/") + "/metrics"
        try:
            with urllib.request.urlopen(url) as resp:
                sys.stdout.write(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                doc = _json.loads(exc.read())
                message = doc.get("error", str(exc))
            except Exception:  # noqa: BLE001 - non-JSON error body
                message = str(exc)
            print(f"error: {message}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
            return 1
        return 0

    from repro.obs import probes, recent_spans
    from repro.obs.prom import render_registry

    instruments = probes.arm()  # reuses the registry when already armed
    sys.stdout.write(render_registry(instruments.registry))
    if args.spans:
        spans = recent_spans()
        print(f"# {len(spans)} recent span(s)", file=sys.stderr)
        for record in spans:
            print(_json.dumps(record.to_dict()), file=sys.stderr)
    return 0


def _cmd_demo() -> int:
    instance = figure1_instance(budget_mb=4.0)
    print("Figure 1 instance: 7 photos, 4 subsets (Bikes/Cats/Bookshelf/Books), 4 Mb budget")
    run = lazy_greedy(instance, UC, trace=True)
    print("Algorithm 2 (UC) trace:")
    for photo_id, gain in run.picks:
        print(f"  pick p{photo_id + 1}  (marginal gain {gain:.3f})")
    print("\nFigure 3 step-by-step (lazy refreshes and selections):")
    current_step = 0
    for event in run.trace:
        if event.step != current_step:
            current_step = event.step
            print(f"  Step {current_step}:")
        verb = {"refresh": "recalculate", "select": "SELECT", "drop": "drop"}[event.kind]
        print(f"    {verb} p{event.photo_id + 1}  (δ = {event.gain:.2f})")
    print(f"final value {run.value:.3f}, cost {run.cost / MB:.1f} Mb")
    report = PHOcus(PhocusConfig(certificate=True)).run(instance)
    print()
    _print_report(report)
    return 0


def _cmd_scale(args) -> int:
    import numpy as np

    from repro.scale import (
        build_streamed_instance,
        save_streamed_instance,
        synthetic_archive,
    )

    costs, embeddings = synthetic_archive(args.photos, dim=args.dim, seed=args.seed)
    budget = float(costs.sum()) * args.budget_fraction
    instance, report = build_streamed_instance(
        costs,
        embeddings,
        budget,
        tau=args.tau,
        n_bits="auto" if args.n_bits is None else args.n_bits,
        target_recall=args.target_recall,
        rng=args.seed,
        dtype=np.dtype(args.dtype),
        chunk_pairs=args.chunk_pairs,
        signature_chunk=args.signature_chunk,
    )
    total = report.n_photos * (report.n_photos - 1) // 2
    print(f"[scale build] {report.n_photos} photos, dim {report.dim}, tau {report.tau}")
    print(
        f"  lsh                  : {report.n_bits} bits = {report.bands} bands "
        f"x {report.rows} rows (recall target {report.target_recall})"
    )
    print(
        f"  candidates           : {report.candidate_pairs} "
        f"({report.candidate_fraction:.2e} of {total} possible pairs)"
    )
    print(
        f"  kept / nnz           : {report.kept_pairs} pairs -> {report.nnz} "
        f"stored entries ({report.dtype})"
    )
    phases = ", ".join(
        f"{name} {secs:.2f}s" for name, secs in report.phase_seconds.items()
    )
    print(f"  build time           : {report.build_seconds:.2f}s ({phases})")
    if args.out:
        nbytes = save_streamed_instance(instance, args.out)
        print(f"  wrote                : {args.out} ({nbytes / 1e6:.1f} MB)")
    if args.solve:
        import time as _time

        from repro.core.greedy import main_algorithm

        t0 = _time.perf_counter()
        solution = main_algorithm(instance)
        solve_seconds = _time.perf_counter() - t0
        print(
            f"  solve                : value {solution.value:.4f}, "
            f"{len(solution.selection)} photos kept, "
            f"{solution.cost / MB:.1f} of {budget / MB:.1f} MB "
            f"in {solve_seconds:.2f}s"
        )
    return 0


def _print_endpoints(context) -> None:
    """The ``serve`` banner's route list: every route the service answers."""
    from repro.system.service import served_routes

    print("endpoints:")
    for method, pattern in served_routes(context):
        print(f"  {method:<6} {pattern}")


#: glibc's mallopt parameters (``<malloc.h>``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
#: The ceiling of glibc's dynamic mmap threshold on 64-bit, and the
#: largest value mallopt accepts there; the dynamic scheme pairs it with
#: a trim threshold twice as large.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _single_malloc_arena() -> None:
    """Keep every thread of this process on one glibc malloc arena, with
    fixed mmap and trim thresholds.

    ``serve`` answers each request on a fresh thread, and glibc gives new
    threads arenas of their own; the multi-MB arrays a live upload frees
    there are not handed back to the system, so the resident set grows
    with the request count instead of staying at one archive's worth.
    glibc also raises its mmap threshold (up to 32 MiB) only after the
    process frees a large mmapped block; until then every multi-MB array,
    such as an upload's whole-CSR copies, is mmapped and faulted in
    afresh, so upload latency depended on what earlier work happened to
    free.  Both thresholds are pinned where that scheme tops out, so
    such arrays come from the heap from the first request on.  Setting the trim threshold alone would also freeze the
    mmap threshold at its 128 KiB start, so it waits for glibc to accept
    the mmap threshold.

    A no-op where ``mallopt`` is unavailable (non-glibc platforms).  Only
    ``serve`` calls this: library users' processes keep their settings.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):  # 0: refused
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    local = {
        "solve": _cmd_solve,
        "compare": _cmd_compare,
        "fidelity": _cmd_fidelity,
        "inspect": _cmd_inspect,
        "scale": _cmd_scale,
    }
    if args.command in local:
        try:
            return local[args.command](args)
        except ReproError as exc:  # a bad option value, found by the library
            print(f"error: {exc}", file=sys.stderr)
            return 2
    client = {"jobs": _cmd_jobs, "tenants": _cmd_tenants, "live": _cmd_live}
    if args.command in client:
        try:
            return client[args.command](args)
        except CommandFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "serve":
        from repro.system.service import PhocusService

        _single_malloc_arena()

        tenant_quota = None
        if (
            args.tenant_max_bytes is not None
            or args.tenant_max_instances is not None
            or args.tenant_rate is not None
        ):
            from repro.tenants import TenantQuota

            tenant_quota = TenantQuota(
                max_bytes=args.tenant_max_bytes,
                max_instances=args.tenant_max_instances,
                rate_per_second=args.tenant_rate,
                burst=args.tenant_burst,
            )
        from repro.resilience import (
            AdmissionController,
            BrownoutPolicy,
            DrainController,
            Resilience,
        )

        # Always carry a bundle so SIGTERM drains gracefully; admission
        # and brownout stay off unless their flags opt in.
        resilience = Resilience(
            admission=(
                AdmissionController(
                    args.max_inflight,
                    target_wait_seconds=args.target_wait_seconds,
                )
                if args.max_inflight
                else None
            ),
            brownout=(
                BrownoutPolicy(tau=args.brownout_tau)
                if args.brownout_tau is not None
                else None
            ),
            drain=DrainController(grace_seconds=args.drain_grace),
            default_deadline_ms=args.default_deadline_ms,
        )
        service = PhocusService(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            journal_path=args.journal,
            checkpoint_every=args.checkpoint_every,
            metrics=args.metrics,
            access_log=args.access_log,
            tenants_root=args.tenants_root,
            tenants_cache_bytes=args.tenants_cache_mb * 1024 * 1024,
            tenant_quota=tenant_quota,
            resilience=resilience,
            recuration=args.recuration,
            recuration_interval=args.recuration_interval,
            recuration_debounce=args.recuration_debounce,
            recuration_regret=args.recuration_regret,
        ).start()
        print(f"PHOcus solver service listening on http://{service.address}")
        _print_endpoints(service.context)
        # SIGTERM triggers the graceful drain (stop accepting → checkpoint
        # running jobs → release leases → flush journal); SIGINT / Ctrl-C
        # stays a fast exit.  The handler only sets an event — the drain
        # itself runs on the main thread, never in signal context.
        import signal
        import threading as _threading

        sigterm = _threading.Event()
        try:
            signal.signal(signal.SIGTERM, lambda signum, frame: sigterm.set())
        except (AttributeError, ValueError):  # Windows / non-main thread
            pass
        try:
            while not sigterm.wait(0.5):
                pass
            print("SIGTERM: draining...", file=sys.stderr)
            summary = service.drain(grace_seconds=args.drain_grace)
            print(f"drain complete: {summary}", file=sys.stderr)
        except KeyboardInterrupt:
            pass
        finally:
            service.stop()
        return 0
    if args.command == "demo":
        return _cmd_demo()
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
