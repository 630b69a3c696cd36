"""Tests for the phocus command-line interface."""

from __future__ import annotations

import json
import socket

import pytest

from repro.core.paper_example import figure1_instance
from repro.core.serialize import instance_to_dict
from repro.datasets.io import save_dataset
from repro.datasets.public import generate_public_dataset
from repro.obs import probes
from repro.system import cli
from repro.system.cli import build_parser, main
from repro.system.service import ROUTES, PhocusService


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "--dataset", "P-1K"])
        assert args.algorithm == "phocus"
        assert args.tau == 0.0
        assert args.scale == 0.1

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--dataset", "P-1K", "--algorithm", "magic"])


class TestCommands:
    def test_datasets_lists_table2(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "P-100K" in out
        assert "EC-Fashion" in out

    def test_demo_prints_figure3_trace(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "pick p1" in out
        assert "7.830" in out
        assert "objective value" in out

    def test_solve_named_dataset(self, capsys):
        code = main(
            [
                "solve", "--dataset", "P-1K", "--scale", "0.05",
                "--budget-mb", "10", "--tau", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm            : phocus" in out
        assert "sparsification" in out

    def test_solve_dataset_file(self, tmp_path, capsys):
        ds = generate_public_dataset(40, 8, seed=1)
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        code = main(
            ["solve", "--dataset-file", str(path), "--budget-fraction", "0.2",
             "--no-certificate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "objective value" in out
        assert "certificate" not in out.split("least-covered")[0].split("solve time")[1]

    def test_solve_requires_exactly_one_source(self, capsys):
        assert main(["solve"]) == 2
        assert main(["solve", "--dataset", "P-1K", "--dataset-file", "x.json"]) == 2

    def test_solve_default_budget_note(self, capsys):
        code = main(["solve", "--dataset", "P-1K", "--scale", "0.05"])
        assert code == 0
        assert "defaulting to 10%" in capsys.readouterr().out

    def test_compare_prints_grid(self, capsys):
        code = main(
            ["compare", "--dataset", "P-1K", "--scale", "0.05",
             "--budget-fractions", "0.1,0.3",
             "--algorithms", "rand-a,phocus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PHOcus" in out and "RAND" in out
        assert "maximum attainable score" in out

    def test_compare_rejects_unknown_algorithm(self, capsys):
        code = main(
            ["compare", "--dataset", "P-1K", "--scale", "0.05",
             "--algorithms", "rand-a,wizardry"]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "argv",
        [
            ["scale", "build", "--photos", "0"],
            ["scale", "build", "--chunk-pairs", "0"],
            ["scale", "build", "--tau", "0"],
            ["solve", "--dataset", "P-1K", "--scale", "0.05", "--tau", "7"],
        ],
        ids=["photos", "chunk-pairs", "scale-tau", "solve-tau"],
    )
    def test_a_bad_option_value_is_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_serve_arena_policy_is_a_no_op_without_mallopt(monkeypatch):
    from repro.system import cli

    calls = []
    refused = set()

    class _Libc:
        def __init__(self, name):
            self.mallopt = lambda param, value: (
                calls.append((param, value)) or int(param not in refused)
            )

    monkeypatch.setattr(cli.ctypes, "CDLL", _Libc)
    cli._single_malloc_arena()
    pinned = [
        (cli._M_ARENA_MAX, 1),
        (cli._M_MMAP_THRESHOLD, 32 << 20),
        (cli._M_TRIM_THRESHOLD, 64 << 20),
    ]
    assert calls == pinned

    # A refused mmap threshold leaves the trim threshold alone: setting
    # it would freeze the mmap threshold at glibc's 128 KiB default.
    refused.add(cli._M_MMAP_THRESHOLD)
    cli._single_malloc_arena()
    assert calls == pinned + pinned[:2]

    class _NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(cli.ctypes, "CDLL", _NoMallopt)
    cli._single_malloc_arena()  # non-glibc platforms: nothing to call
    assert calls == pinned + pinned[:2]


class TestTenantsCli:
    def test_upload_list_stats_rm_round_trip(self, tmp_path, capsys):
        instance_file = tmp_path / "instance.json"
        instance_file.write_text(json.dumps(instance_to_dict(figure1_instance(4.0))))
        with PhocusService(workers=0, metrics=False, tenants_root=str(tmp_path / "t")) as svc:
            base = ["tenants", "--server", f"http://{svc.address}"]
            upload = base + ["upload", "--tenant", "acme", "--id", "fig1",
                             "--instance-file", str(instance_file)]
            assert main(upload) == 0
            assert "created acme/fig1 (version 1," in capsys.readouterr().out
            assert main(upload) == 0
            assert "updated acme/fig1 (version 2," in capsys.readouterr().out

            assert main(base + ["list", "--tenant", "acme"]) == 0
            rows = capsys.readouterr().out.splitlines()
            assert rows[1].split()[:2] == ["fig1", "2"]

            assert main(base + ["stats", "--tenant", "acme"]) == 0
            assert json.loads(capsys.readouterr().out)["store"]["instances"] == 1

            assert main(base + ["rm", "--tenant", "acme", "--id", "fig1"]) == 0
            assert capsys.readouterr().out.strip() == "deleted acme/fig1"
            assert main(base + ["list", "--tenant", "acme"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == 1  # header only

    def test_rm_of_a_missing_instance_fails(self, tmp_path, capsys):
        with PhocusService(workers=0, metrics=False, tenants_root=str(tmp_path)) as svc:
            code = main(
                ["tenants", "--server", f"http://{svc.address}",
                 "rm", "--tenant", "acme", "--id", "ghost"]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert "ghost" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("metrics", [True, False])
@pytest.mark.parametrize("with_tenants", [True, False])
def test_serve_banner_lists_exactly_the_served_routes(tmp_path, capsys, metrics, with_tenants):
    probes.disarm()
    try:
        with PhocusService(
            workers=0,
            metrics=metrics,
            tenants_root=str(tmp_path) if with_tenants else None,
        ) as svc:
            cli._print_endpoints(svc.context)
    finally:
        probes.disarm()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "endpoints:"
    listed = [tuple(line.split()) for line in lines[1:]]
    expected = [
        (method, pattern)
        for method, pattern, _, _ in ROUTES
        if (metrics or pattern != "/metrics")
        and (with_tenants or not pattern.startswith("/tenants/"))
    ]
    assert listed == expected


def test_a_client_command_against_an_unreachable_server_fails_cleanly(capsys):
    with socket.socket() as sock:  # a local port nobody listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    code = main(["jobs", "--server", f"http://127.0.0.1:{port}", "stats"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: cannot reach http://127.0.0.1:{port}/stats")
