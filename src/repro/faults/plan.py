"""The fault plan: deterministic, seedable fault rules over named sites.

A :class:`FaultPlan` is a collection of :class:`FaultRule` entries, each
bound to a named *injection site* (``"journal.fsync"``,
``"solver.iteration"``, ...).  Code under test probes sites through the
module-level helpers in :mod:`repro.faults`; an armed plan counts every
probe and fires its rules deterministically on the configured hit
numbers, so a chaos test can say "kill the worker on the 4th solver
iteration" and get exactly that, every run.

Four actions cover the crash-safety failure modes:

``raise``
    Raise an exception (default :class:`OSError`) at the probe.
``kill``
    Raise :class:`ProcessKilled` — a ``BaseException`` that deliberately
    escapes ``except Exception`` handlers, emulating hard process death
    (SIGKILL / power loss).  The worker pool lets it tear the worker
    thread down without journalling a terminal state, exactly like a
    real crash.
``drop``
    Make :func:`repro.faults.should_drop` return ``True`` — used to skip
    a durability side effect such as an ``fsync``.
``corrupt``
    Make :func:`repro.faults.mangle` flip one seeded bit of the payload
    — used to simulate on-disk corruption.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = ["FaultPlan", "FaultRule", "ProcessKilled", "KNOWN_SITES"]


class ProcessKilled(BaseException):
    """Simulated hard process death at an injection point.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so generic
    ``except Exception`` recovery code cannot swallow it: the thread that
    hits it dies, leaving journals and checkpoints exactly as a real
    ``kill -9`` would.
    """


# The standing injection sites wired through the library.  ``check`` sites
# may raise/kill, ``drop`` sites may skip a side effect, ``corrupt`` sites
# may mangle bytes.  Free-form site names are also allowed — this table is
# the documented contract, not an enforcement list.
KNOWN_SITES: Dict[str, str] = {
    "solver.iteration": "top of every lazy-greedy loop iteration (check)",
    "checkpoint.write": "before a checkpoint file write (check/corrupt)",
    "checkpoint.fsync": "fsync of a checkpoint file (drop)",
    "checkpoint.replace": "atomic rename publishing a checkpoint (check)",
    "journal.write": "before a job-journal line append (check/corrupt)",
    "journal.fsync": "fsync after a job-journal append (drop)",
    "journal.compact": "before the journal compaction rename (check)",
    "dataset.write": "before a dataset file write (check/corrupt)",
    "dataset.fsync": "fsync of a dataset temp file (drop)",
    "dataset.replace": "atomic rename publishing a dataset (check)",
    "tenantstore.write": "before a tenant instance blob write (check/corrupt)",
    "tenantstore.fsync": "fsync of a tenant instance temp file (drop)",
    "tenantstore.replace": "atomic rename publishing a tenant instance (check)",
    "tenantstore.load": "read of a stored tenant instance blob (check)",
    "tenantstore.append": "before a tenant instance log record append "
    "(check/corrupt)",
    "tenantstore.append_fsync": "fsync after a tenant instance log record "
    "append (drop)",
    "tenantcache.evict": "warm-cache segment reclaim during eviction (check)",
    "scalebuild.chunk": "before each candidate-verification chunk of a "
    "streamed instance build (check)",
    "scalebuild.flush": "before a streamed build serialises its instance "
    "to disk (check)",
    "scalebuild.write": "before the streamed-build instance file write "
    "(check/corrupt)",
    "scalebuild.fsync": "fsync of the streamed-build temp file (drop)",
    "scalebuild.replace": "atomic rename publishing a streamed-build "
    "instance (check)",
    "live.append": "start of a live delta ingestion, before any state "
    "mutates (check)",
    "live.resolve": "before a live re-curation solve, warm or full (check)",
    "live.sweep": "top of every re-curation scheduler sweep (check)",
    "fidelity.catalog": "variant catalog construction and validation "
    "(check)",
    "fidelity.swap": "before an upgrade move is considered in the "
    "exclusive drain (check)",
    "fidelity.frontier": "top of every frontier budget sweep point "
    "(check)",
    "resilience.clock_skew": "deadline expiry check — drop rule forces the "
    "clock to have jumped past the deadline (drop)",
    "resilience.slow_solve": "start of a solve payload — drop rule injects "
    "an artificial stall for overload tests (drop)",
}

# Which probe kinds a rule action responds to.
_CHECK_ACTIONS = ("raise", "kill")


@dataclass
class FaultRule:
    """One deterministic rule: fire ``action`` on hits [nth, nth+times)."""

    site: str
    action: str  # "raise" | "kill" | "drop" | "corrupt"
    nth: int = 1  # first 1-based hit that fires
    times: Optional[int] = 1  # consecutive firing hits; None = forever
    exc: Union[BaseException, Callable[[], BaseException], None] = None
    fired: int = 0

    def wants(self, hit: int) -> bool:
        if hit < self.nth:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        return True

    def make_exception(self) -> BaseException:
        if self.exc is None:
            return OSError(f"injected fault at {self.site!r} (hit {self.nth})")
        if isinstance(self.exc, BaseException):
            return self.exc
        if isinstance(self.exc, type) and issubclass(self.exc, BaseException):
            return self.exc(f"injected fault at {self.site!r}")
        return self.exc()  # factory


class FaultPlan:
    """A deterministic set of fault rules plus per-site hit counters.

    Build with chained :meth:`on` calls, then arm process-wide via
    :func:`repro.faults.arm` (or the :func:`repro.faults.armed` context
    manager)::

        plan = FaultPlan(seed=7).on("solver.iteration", "kill", nth=4)
        with faults.armed(plan):
            ...  # the 4th solver iteration dies

    ``seed`` drives the corrupt action's bit choice (and any future
    randomised behaviour), so a chaos run is reproducible from its seed.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._rules: Dict[str, List[FaultRule]] = {}
        self._hits: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: chronological (site, action, hit) log of every fired rule
        self.log: List[Tuple[str, str, int]] = []

    # ------------------------------------------------------------ building

    def on(
        self,
        site: str,
        action: str = "raise",
        *,
        nth: int = 1,
        times: Optional[int] = 1,
        exc: Union[BaseException, Callable[[], BaseException], None] = None,
    ) -> "FaultPlan":
        """Add a rule; returns ``self`` for chaining."""
        if action not in ("raise", "kill", "drop", "corrupt"):
            raise ValueError(f"unknown fault action {action!r}")
        if nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if times is not None and times < 1:
            raise ValueError("times must be >= 1 (or None for unlimited)")
        self._rules.setdefault(site, []).append(
            FaultRule(site=site, action=action, nth=nth, times=times, exc=exc)
        )
        return self

    # ----------------------------------------------------------- inspecting

    def hits(self, site: str) -> int:
        """How many times ``site`` has been probed under this plan."""
        with self._lock:
            return self._hits.get(site, 0)

    def fired(self, site: str) -> int:
        """How many rules firings ``site`` has seen."""
        return sum(1 for s, _, _ in self.log if s == site)

    # ------------------------------------------------------------- probing

    def _hit(self, site: str) -> int:
        self._hits[site] = self._hits.get(site, 0) + 1
        return self._hits[site]

    def _match(self, site: str, hit: int, actions) -> Optional[FaultRule]:
        for rule in self._rules.get(site, ()):
            if rule.action in actions and rule.wants(hit):
                rule.fired += 1
                self.log.append((site, rule.action, hit))
                return rule
        return None

    def probe_check(self, site: str) -> None:
        """May raise (``raise``/``kill`` rules).  Called by ``faults.check``."""
        with self._lock:
            rule = self._match(site, self._hit(site), _CHECK_ACTIONS)
        if rule is None:
            return
        if rule.action == "kill":
            raise ProcessKilled(f"simulated process death at {site!r}")
        raise rule.make_exception()

    def probe_drop(self, site: str) -> bool:
        """True when a ``drop`` rule fires.  Called by ``faults.should_drop``."""
        with self._lock:
            return self._match(site, self._hit(site), ("drop",)) is not None

    def probe_mangle(self, site: str, data: bytes) -> bytes:
        """Flip one seeded bit when a ``corrupt`` rule fires."""
        with self._lock:
            rule = self._match(site, self._hit(site), ("corrupt",))
            if rule is None or not data:
                return data
            pos = self._rng.randrange(len(data))
            bit = 1 << self._rng.randrange(8)
        mangled = bytearray(data)
        mangled[pos] ^= bit
        return bytes(mangled)
