"""Unit tests for repro.obs: registry, exposition, traces, probes."""

from __future__ import annotations

import re
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import probes, trace
from repro.obs.middleware import AccessLog, observe_request
from repro.obs.prom import CONTENT_TYPE, render, render_registry
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    DROPPED_SERIES_METRIC,
    OVERFLOW_LABEL_VALUE,
    HistogramValue,
    MetricsRegistry,
)


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with probes disarmed (process-global)."""
    probes.disarm()
    yield
    probes.disarm()


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_inc_and_snapshot(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help")
        c.inc()
        c.inc(2.5)
        assert reg.get_sample("t_total") == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("t_total", "h").inc(-1)

    def test_gauge_goes_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "h")
        g.set(10)
        g.dec(3)
        g.inc(1)
        assert reg.get_sample("depth") == 8.0

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        value = reg.get_sample("lat")
        assert isinstance(value, HistogramValue)
        assert value.count == 5
        assert value.sum == pytest.approx(56.05)
        # cumulative: <=0.1 -> 1, <=1.0 -> 3, <=10.0 -> 4, +Inf -> 5
        assert [n for _, n in value.cumulative()] == [1, 3, 4, 5]

    def test_observation_on_bucket_boundary_counts_in_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "h", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1.0" includes the bound itself
        assert [n for _, n in reg.get_sample("lat").cumulative()] == [1, 1, 1]

    def test_default_buckets_log_scale(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(0.001)
        ratios = [b / a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_labelled_series_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs_total", "h", ("tenant",))
        c.labels(tenant="a").inc()
        c.labels(tenant="a").inc()
        c.labels(tenant="b").inc()
        assert reg.get_sample("reqs_total", {"tenant": "a"}) == 2.0
        assert reg.get_sample("reqs_total", {"tenant": "b"}) == 1.0

    def test_wrong_labelnames_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs_total", "h", ("tenant",))
        with pytest.raises(ConfigurationError):
            c.labels(user="a")
        with pytest.raises(ConfigurationError):
            c.inc()  # labelled family has no solo series

    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total", "h") is reg.counter("x_total", "h")

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "h")
        with pytest.raises(ConfigurationError):
            reg.gauge("x_total", "h")
        with pytest.raises(ConfigurationError):
            reg.counter("x_total", "h", ("tenant",))  # label-set clash too

    def test_reset_zeroes_but_keeps_registration(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "h")
        c.inc(5)
        reg.reset()
        assert reg.get_sample("x_total") == 0.0
        assert reg.counter("x_total", "h") is c

    def test_sum_by_label(self):
        reg = MetricsRegistry()
        c = reg.counter("f_total", "h", ("kind", "zone"))
        c.labels(kind="a", zone="1").inc(2)
        c.labels(kind="a", zone="2").inc(3)
        c.labels(kind="b", zone="1").inc()
        assert reg.sum_by_label("f_total", "kind") == {"a": 5.0, "b": 1.0}


class TestCardinalityCap:
    def test_overflow_series_absorbs_excess(self):
        reg = MetricsRegistry(max_series=4)
        c = reg.counter("t_total", "h", ("tenant",))
        for i in range(10):
            c.labels(tenant=f"t{i}").inc()
        snap = {f.name: f for f in reg.snapshot()}
        series = snap["t_total"].series
        # 4 real + 1 overflow sink
        assert len(series) == 5
        overflow = [
            s for s in series if s.labels == (("tenant", OVERFLOW_LABEL_VALUE),)
        ]
        assert len(overflow) == 1
        assert overflow[0].value == 6.0  # the 6 dropped tenants' increments
        # total preserved across the collapse
        assert sum(s.value for s in series) == 10.0

    def test_drops_counted_in_self_metric(self):
        reg = MetricsRegistry(max_series=2)
        c = reg.counter("t_total", "h", ("tenant",))
        for i in range(6):
            c.labels(tenant=f"t{i}").inc()
        assert reg.get_sample(DROPPED_SERIES_METRIC) == 4.0

    def test_existing_series_unaffected_by_cap(self):
        reg = MetricsRegistry(max_series=2)
        c = reg.counter("t_total", "h", ("tenant",))
        c.labels(tenant="keep").inc()
        for i in range(5):
            c.labels(tenant=f"new{i}").inc()
        c.labels(tenant="keep").inc()  # established series keeps working
        assert reg.get_sample("t_total", {"tenant": "keep"}) == 2.0

    def test_per_family_override(self):
        reg = MetricsRegistry(max_series=2)
        wide = reg.counter("wide_total", "h", ("k",), max_series=100)
        for i in range(50):
            wide.labels(k=str(i)).inc()
        assert reg.get_sample(DROPPED_SERIES_METRIC) == 0.0


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total", "h", ("worker",))
        h = reg.histogram("lat", "h", buckets=(0.5,))
        n_threads, per_thread = 8, 2000

        def work(i):
            bound = c.labels(worker=str(i % 2))
            for _ in range(per_thread):
                bound.inc()
                h.observe(0.1)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(
            s.value
            for f in reg.snapshot()
            if f.name == "n_total"
            for s in f.series
        )
        assert total == n_threads * per_thread
        hv = reg.get_sample("lat")
        assert hv.count == n_threads * per_thread
        assert hv.sum == pytest.approx(0.1 * n_threads * per_thread)


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

# One exposition line: name{labels} value  (labels optional).
_LINE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"  # labels
    r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$"  # value
)
_HELP_RE = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE_RE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")


def check_exposition(text: str) -> int:
    """Minimal 0.0.4 line-format checker; returns the sample-line count."""
    assert text.endswith("\n")
    samples = 0
    for line in text.splitlines():
        if line.startswith("# HELP"):
            assert _HELP_RE.match(line), line
        elif line.startswith("# TYPE"):
            assert _TYPE_RE.match(line), line
        else:
            assert _LINE_RE.match(line), line
            samples += 1
    return samples


class TestProm:
    def test_golden_exposition(self):
        reg = MetricsRegistry()
        reqs = reg.counter("t_requests_total", "requests served", ("method", "route"))
        reqs.labels(method="GET", route="/health").inc(3)
        reqs.labels(method="POST", route="/solve").inc()
        reg.gauge("t_depth", "queue depth").set(7)
        lat = reg.histogram("t_seconds", "latency", buckets=(0.1, 1.0))
        lat.observe(0.05)
        lat.observe(0.5)
        lat.observe(5.0)
        expected = (
            "# HELP phocus_obs_series_dropped_total label combinations "
            "collapsed into __overflow__ by the cardinality cap\n"
            "# TYPE phocus_obs_series_dropped_total counter\n"
            "phocus_obs_series_dropped_total 0\n"
            "# HELP t_depth queue depth\n"
            "# TYPE t_depth gauge\n"
            "t_depth 7\n"
            "# HELP t_requests_total requests served\n"
            "# TYPE t_requests_total counter\n"
            't_requests_total{method="GET",route="/health"} 3\n'
            't_requests_total{method="POST",route="/solve"} 1\n'
            "# HELP t_seconds latency\n"
            "# TYPE t_seconds histogram\n"
            't_seconds_bucket{le="0.1"} 1\n'
            't_seconds_bucket{le="1"} 2\n'
            't_seconds_bucket{le="+Inf"} 3\n'
            "t_seconds_sum 5.55\n"
            "t_seconds_count 3\n"
        )
        assert render_registry(reg) == expected
        assert check_exposition(expected) == 9

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        c = reg.counter("esc_total", "h", ("path",))
        c.labels(path='a"b\\c\nd').inc()
        text = render_registry(reg)
        assert 'path="a\\"b\\\\c\\nd"' in text
        check_exposition(text)

    def test_render_deterministic(self):
        reg = MetricsRegistry()
        c = reg.counter("z_total", "h", ("k",))
        for k in ("b", "a", "c"):
            c.labels(k=k).inc()
        reg.counter("a_total", "h").inc()
        assert render_registry(reg) == render(reg.snapshot())
        lines = [
            l for l in render_registry(reg).splitlines() if not l.startswith("#")
        ]
        assert lines == sorted(lines)

    def test_content_type_pins_format_version(self):
        assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"

    def test_full_instruments_catalog_renders_validly(self):
        instruments = probes.Instruments()
        instruments.solver_runs.labels(mode="UC", backend="kernel").inc()
        instruments.jobs_wait_seconds.observe(0.2)
        instruments.http_requests.labels(
            method="GET", route="/metrics", status="200"
        ).inc()
        text = render_registry(instruments.registry)
        assert check_exposition(text) > 50  # the catalog is large


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTrace:
    def test_disarmed_span_is_noop(self):
        assert trace.active_tracer() is None
        with trace.span("x") as sp:
            sp.annotate(a=1)
        assert trace.recent_spans() == []

    def test_nesting_parent_child(self):
        tracer = trace.install(trace.Tracer())
        try:
            with trace.span("outer") as outer:
                with trace.span("inner"):
                    pass
            records = tracer.recent()
            inner_rec, outer_rec = records[-2], records[-1]
            assert inner_rec.name == "inner"
            assert inner_rec.parent_id == outer.span_id
            assert outer_rec.parent_id is None
            assert 0 <= inner_rec.duration_s <= outer_rec.duration_s
        finally:
            trace.uninstall()

    def test_annotations_and_error_capture(self):
        tracer = trace.install(trace.Tracer())
        try:
            with pytest.raises(ValueError):
                with trace.span("boom") as sp:
                    sp.annotate(n=3, tag="x")
                    raise ValueError("nope")
            record = tracer.recent()[-1]
            assert record.error == "ValueError"
            assert dict(record.annotations) == {"n": 3, "tag": "x"}
            assert record.to_dict()["duration_ms"] >= 0
        finally:
            trace.uninstall()

    def test_ring_evicts_oldest(self):
        tracer = trace.install(trace.Tracer(capacity=3))
        try:
            for i in range(6):
                with trace.span(f"s{i}"):
                    pass
            names = [r.name for r in tracer.recent()]
            assert names == ["s3", "s4", "s5"]
            assert [r.name for r in tracer.recent(limit=2)] == ["s4", "s5"]
        finally:
            trace.uninstall()


# ---------------------------------------------------------------------------
# Probes (arm/disarm) and middleware
# ---------------------------------------------------------------------------


class TestProbes:
    def test_disarmed_by_default(self):
        assert probes.active() is None
        assert not probes.is_armed()

    def test_arm_installs_instruments_and_tracer(self):
        instruments = probes.arm()
        assert probes.active() is instruments
        assert trace.active_tracer() is not None
        probes.disarm()
        assert probes.active() is None
        assert trace.active_tracer() is None

    def test_rearm_no_args_keeps_registry(self):
        first = probes.arm()
        first.jobs_rejected.inc()
        second = probes.arm()
        assert second is first
        assert second.registry.get_sample("phocus_jobs_rejected_total") == 1.0

    def test_rearm_explicit_registry_rebuilds(self):
        first = probes.arm()
        second = probes.arm(MetricsRegistry())
        assert second is not first

    def test_armed_context_always_disarms(self):
        with pytest.raises(RuntimeError):
            with probes.armed():
                assert probes.is_armed()
                raise RuntimeError
        assert not probes.is_armed()

    def test_state_inits_name_the_kernel_that_serves(self, monkeypatch):
        # "native" when the compiled kernel serves a state, "kernel" when
        # the numpy fallback does — what tells an operator from /metrics
        # that solves have fallen back.
        from repro.core import native
        from repro.core.objective import CoverageState
        from tests.conftest import random_instance

        inst = random_instance(0)
        compiled = native.kernel() is not None
        with probes.armed() as instruments:
            CoverageState(inst)
            with monkeypatch.context() as patch:
                patch.setattr(native, "bind", lambda inc, best: None)
                CoverageState(inst)
            get = instruments.registry.get_sample
            name = "phocus_objective_state_inits_total"
            assert get(name, {"backend": "native"}) == (1.0 if compiled else None)
            assert get(name, {"backend": "kernel"}) == (1.0 if compiled else 2.0)

    def test_solver_runs_name_the_kernel_that_served(self, monkeypatch):
        # phocus_solver_runs_total{backend} counts each pass under the
        # kernel that ran it, as the state-inits family does.
        from repro.core import native
        from repro.core.greedy import main_algorithm
        from tests.conftest import random_instance

        if native.kernel() is None:
            pytest.skip("the compiled kernel cannot load here")
        inst = random_instance(0)
        name = "phocus_solver_runs_total"
        with probes.armed() as instruments:
            main_algorithm(inst)
            get = instruments.registry.get_sample
            for mode in ("UC", "CB"):
                assert get(name, {"mode": mode, "backend": "native"}) == 1.0
                assert get(name, {"mode": mode, "backend": "kernel"}) is None
        with probes.armed() as instruments, monkeypatch.context() as patch:
            patch.setattr(native, "bind", lambda inc, best: None)
            main_algorithm(inst)
            get = instruments.registry.get_sample
            for mode in ("UC", "CB"):
                assert get(name, {"mode": mode, "backend": "kernel"}) == 1.0
                assert get(name, {"mode": mode, "backend": "native"}) is None

    def test_failure_counts_shape(self):
        with probes.armed() as instruments:
            instruments.jobs_failures.labels(kind="timeout").inc(2)
            instruments.jobs_retries.inc()
            counts = instruments.failure_counts()
        assert counts == {
            "by_kind": {"timeout": 2},
            "retries": 1,
            "timeouts": 0,
            "rejected": 0,
        }


class TestMiddleware:
    def test_observe_request_records_both(self):
        import io

        stream = io.StringIO()
        log = AccessLog(stream)
        with probes.armed() as instruments:
            observe_request(
                instruments, log, "GET", "/jobs/42", "/jobs/<id>", 200, 0.012
            )
            assert (
                instruments.registry.get_sample(
                    "phocus_http_requests_total",
                    {"method": "GET", "route": "/jobs/<id>", "status": "200"},
                )
                == 1.0
            )
            hv = instruments.registry.get_sample(
                "phocus_http_request_seconds", {"route": "/jobs/<id>"}
            )
            assert hv.count == 1
        import json

        line = json.loads(stream.getvalue())
        assert line["method"] == "GET"
        assert line["path"] == "/jobs/42"  # the log keeps the raw path
        assert line["status"] == 200
        assert line["duration_ms"] == pytest.approx(12.0)

    def test_access_log_never_raises_on_closed_stream(self):
        import io

        stream = io.StringIO()
        log = AccessLog(stream)
        stream.close()
        log.log("GET", "/health", 200, 0.001)  # must not raise
