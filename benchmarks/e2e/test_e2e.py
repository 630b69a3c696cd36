"""Self-tests of the end-to-end benchmark, on tiny workload sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import threading

import pytest

import compare
import run
import tracing
import workloads

TINY = {
    "inline_instances": 2,
    "products": 24,
    "byref_tenants": 2,
    "live_archives": 2,
    "live_photos": 400,
    "live_delta": 8,
    "live_max_uploads": 400,
    "archive_photos": 1500,
    "setups": 2,
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, tmp_path, workload, trace, seed=1):
    code = run.main(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.6",
            "--trace", str(trace),
            "--results", str(tmp_path),
        ],
        sizes=TINY,
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_1_emits_every_metric_with_its_unit(capsys, tmp_path, workload, trace):
    code, result = _run(capsys, tmp_path, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}
    if trace:
        assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _off_by_one(fn):
    """Wrap a reference computation so its objective value is wrong."""

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, dict):
            out["value"] += 1.0
        else:
            out.value += 1.0
        return out

    return wrapper


def _first_digest_wrong(fn):
    """Wrap the repetition runner so the first (reference) digest is wrong."""
    calls = []

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not calls:
            out["digest"] = "0" * 64
        calls.append(out)
        return out

    return wrapper


CORRUPTED = {
    "inline_solve": [("solve", _off_by_one)],
    "byref_solve": [
        ("solve", _off_by_one),
        ("execute_fidelity_payload", _off_by_one),
    ],
    "live_upload": [("warm_resolve", _off_by_one)],
    "archive_build": [("_archive_rep", _first_digest_wrong)],
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reference_fails_every_operation(
    capsys, tmp_path, monkeypatch, workload
):
    for name, corrupt in CORRUPTED[workload]:
        monkeypatch.setattr(workloads, name, corrupt(getattr(workloads, name)))
    code, result = _run(capsys, tmp_path, workload, 0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1  # error_frac == 1


def test_recorder_nests_spans_and_inherits_seq():
    rec = tracing.Recorder()

    def elsewhere():
        with rec.span("tenants.put"):
            pass

    with rec.span("service.handle_request", seq=7):
        with rec.span("json.loads"):
            pass
        other = threading.Thread(target=elsewhere)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        with rec.span("greedy.lazy_greedy") as attrs:
            attrs["mode"] = "CB"
            with rec.span("objective.score"):
                pass
    by_name = {s[tracing.NAME]: s for s in rec.spans}
    parent_of = {
        name: rec.spans[[s[0] for s in rec.spans].index(s[tracing.PARENT])][tracing.NAME]
        for name, s in by_name.items()
        if s[tracing.PARENT] is not None
    }
    assert parent_of == {
        "json.loads": "service.handle_request",
        "greedy.lazy_greedy": "service.handle_request",
        "objective.score": "greedy.lazy_greedy",
    }
    assert {by_name[n][tracing.SEQ] for n in parent_of} == {7}
    assert by_name["greedy.lazy_greedy"][tracing.ATTRS] == {"mode": "CB"}
    # Another thread has its own stack: no parent, no inherited seq.
    assert by_name["tenants.put"][tracing.PARENT] is None
    assert by_name["tenants.put"][tracing.SEQ] is None


def test_self_time_and_layer_arithmetic_on_a_synthetic_trace():
    spans = [
        [0, None, "service.handle_request", 0.0, 10.0, 0, {}],
        [1, 0, "json.loads", 0.5, 2.5, 0, {}],
        [2, 0, "greedy.lazy_greedy", 3.0, 7.0, 0, {"mode": "UC", "evals": 100, "picks": 10}],
        [3, 2, "objective.score", 4.0, 5.0, 0, {}],
        [4, 3, "json.loads", 4.2, 4.4, 0, {}],  # not a request parse
        [5, None, "tenants.put", 20.0, 21.0, None, {}],  # set-up, untimed
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 0.8, 4: 0.2, 5: 1.0})
    table = tracing.layer_breakdown(spans, {0: 12.0})
    assert table["service.transport"]["ms"] == pytest.approx(2000.0)
    assert table["service.parse"]["ms"] == pytest.approx(2000.0)
    assert table["service.dispatch"]["ms"] == pytest.approx(4000.0)
    assert table["greedy.uc"]["ms"] == pytest.approx(4000.0)
    assert table["greedy.cb"]["calls"] == 0
    assert table["objective.score"]["share"] == pytest.approx(1.0 / 12.0)
    assert table["tenants.put"]["calls"] == 0
    counts = table["_counts"]
    assert counts["evals"] == 100 and counts["picks"] == 10
    assert counts["greedy_self_s"] == pytest.approx(3.0)
    assert counts["root_child_s"] / counts["root_s"] == pytest.approx(0.6)


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.0, 102.0]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [80.0, 81.0, 79.0, 80.0, 82.0]
    slower = [120.0, 121.0, 119.0, 120.0, 122.0]
    same = [100.5, 100.0, 99.5, 101.0, 100.0]
    assert compare.verdict(parent, faster, pairs(faster), "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, pairs(slower), "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, same, pairs(same), "lower", 0.1)[0] == "within bound"
    assert compare.verdict(parent, slower, pairs(slower), "higher", None)[0] == "improved"
    wide = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert compare.verdict(wide, wide, pairs(wide), "lower", 0.1)[0] == "unresolved"
