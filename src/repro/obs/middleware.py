"""HTTP-layer observability: route metrics and an opt-in access log.

The service's request handler calls :func:`observe_request` once per
request, after the answer is encoded and before it is written, so a
client that scrapes ``/metrics`` after reading an answer finds that
request counted.  It does two independent things:

* **Metrics** — when probes are armed, bump
  ``phocus_http_requests_total{method,route,status}`` and observe
  ``phocus_http_request_seconds{route}``.  The ``route`` label is the
  *pattern*, not the raw path (``/jobs/<id>``, never ``/jobs/3f2a…``):
  the caller passes the pattern its route table matched
  (:func:`repro.system.service.route_label`), so job ids never mint new
  series and burn the cardinality cap.
* **Access log** — when an :class:`AccessLog` is given, append one
  structured JSON line (method, path, status, duration_ms, timestamp)
  to its stream.  This replaces the silent ``log_message`` no-op of the
  HTTP handler and is **off by default**, preserving the service's
  historical quiet behaviour; ``phocus serve --access-log`` turns it on.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Optional, TextIO

from repro.obs.probes import Instruments

__all__ = ["AccessLog", "observe_request"]


class AccessLog:
    """Structured per-request log lines on a text stream (default stderr).

    One JSON object per line, written atomically under a lock so
    concurrent handler threads never interleave partial lines::

        {"ts": 1722870000.123, "method": "GET", "path": "/stats",
         "status": 200, "duration_ms": 1.84}
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def log(
        self, method: str, path: str, status: int, duration_s: float
    ) -> None:
        line = json.dumps(
            {
                "ts": round(time.time(), 3),
                "method": method,
                "path": path,
                "status": int(status),
                "duration_ms": round(duration_s * 1000.0, 3),
            },
            separators=(", ", ": "),
        )
        with self._lock:
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except (ValueError, OSError):
                pass  # closed stream mid-shutdown: logging must never raise


def observe_request(
    instruments: Optional[Instruments],
    access_log: Optional[AccessLog],
    method: str,
    path: str,
    route: str,
    status: int,
    duration_s: float,
) -> None:
    """Record one finished HTTP request into metrics and/or the access log.

    ``route`` is the metrics label (a route pattern); the access log keeps
    the raw ``path``.
    """
    if instruments is not None:
        instruments.http_requests.labels(
            method=method, route=route, status=str(int(status))
        ).inc()
        instruments.http_request_seconds.labels(route=route).observe(duration_s)
    if access_log is not None:
        access_log.log(method, path, status, duration_s)
