"""Bounded priority queue with per-tenant round-robin fairness.

A shared archive service must not let one tenant's 10 000-job backfill
starve everyone else's single interactive request.  The queue therefore
keeps one priority heap *per tenant* (higher ``priority`` first, FIFO
within a priority) and serves tenants round-robin: the scheduler pops
tenant A's best job, then tenant B's, then C's, and only returns to A
once every tenant with queued work has been served.  A consequence tests
rely on: no tenant's second job is dequeued before every waiting tenant's
first.

The queue is *bounded*: :meth:`put` raises :class:`QueueFull` once
``maxsize`` jobs are waiting; the error carries the service's HTTP 429
backpressure answer.  Internal re-queues (retries, journal replay) use
``force=True`` — a job that already got past admission must never be
dropped by its own retry.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs import probes as _obs_probes

__all__ = ["QueueFull", "FairPriorityQueue"]


class QueueFull(ReproError):
    """The bounded job queue is at capacity — callers should back off (HTTP 429).

    ``retry_after`` is the suggested backoff in seconds; the service sets
    it from its admission controller when it has one.
    """

    http_status = 429
    retry_after = 1.0

    def __init__(self, depth: int, maxsize: int) -> None:
        super().__init__(f"job queue full ({depth}/{maxsize} jobs waiting)")
        self.depth = depth
        self.maxsize = maxsize

    def to_doc(self) -> Dict[str, Any]:
        return {
            "error": str(self),
            "queue_depth": self.depth,
            "queue_limit": self.maxsize,
            "retry_after": self.retry_after,
        }


class FairPriorityQueue:
    """Priority queue with per-tenant round-robin and a bounded depth.

    ``maxsize=0`` means unbounded.  Items are arbitrary objects; ordering
    keys (``tenant``, ``priority``) are supplied at :meth:`put` time so
    the queue stays decoupled from the job model.
    """

    def __init__(
        self, maxsize: int = 0, on_pop: Optional[Callable[[Any], None]] = None
    ) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        # Invoked under the queue lock as each item is dequeued — lets the
        # owner stamp a global dequeue order atomically with the pop.
        self._on_pop = on_pop
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # tenant -> heap of (-priority, seq, item, enqueued_at); seq keeps
        # FIFO per priority, the timestamp feeds oldest_wait_seconds().
        self._heaps: Dict[str, List[Tuple[int, int, Any, float]]] = {}
        self._rotation: deque = deque()  # tenants with queued work, in serve order
        self._seq = itertools.count()
        self._size = 0

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def _gauge_depth(self) -> None:
        # Called under the queue lock after every size change; disarmed
        # cost is one global None test.
        obs = _obs_probes.active()
        if obs is not None:
            obs.jobs_queue_depth.set(self._size)

    def depth_by_tenant(self) -> Dict[str, int]:
        with self._lock:
            return {t: len(h) for t, h in self._heaps.items() if h}

    def oldest_wait_seconds(self) -> float:
        """How long the longest-waiting queued item has been waiting.

        A live head-of-line signal for admission control and readiness:
        unlike the dequeue-time EWMA it grows even when no worker is
        dequeuing at all (stuck pool, drain).  ``0.0`` when empty.
        """
        now = time.monotonic()
        with self._lock:
            oldest = None
            for heap in self._heaps.values():
                for _, _, _, enqueued_at in heap:
                    if oldest is None or enqueued_at < oldest:
                        oldest = enqueued_at
        return 0.0 if oldest is None else max(0.0, now - oldest)

    def put(self, item: Any, *, tenant: str, priority: int = 0, force: bool = False) -> None:
        """Enqueue ``item``; raise :class:`QueueFull` at capacity unless forced."""
        with self._lock:
            if not force and self.maxsize and self._size >= self.maxsize:
                raise QueueFull(self._size, self.maxsize)
            heap = self._heaps.get(tenant)
            if heap is None:
                heap = self._heaps[tenant] = []
            if not heap:
                self._rotation.append(tenant)
            heapq.heappush(
                heap, (-int(priority), next(self._seq), item, time.monotonic())
            )
            self._size += 1
            self._gauge_depth()
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Dequeue the next item fairly; ``None`` on timeout."""
        with self._not_empty:
            if not self._not_empty.wait_for(lambda: self._size > 0, timeout=timeout):
                return None
            tenant = self._rotation.popleft()
            heap = self._heaps[tenant]
            _, _, item, _ = heapq.heappop(heap)
            self._size -= 1
            self._gauge_depth()
            if heap:
                self._rotation.append(tenant)  # back of the line: round-robin
            if self._on_pop is not None:
                self._on_pop(item)
            return item

    def remove(self, predicate: Callable[[Any], bool]) -> Optional[Any]:
        """Remove and return the first queued item matching ``predicate``.

        Used to cancel a job that has not yet reached a worker.  Returns
        ``None`` when nothing matches.
        """
        with self._lock:
            for tenant, heap in self._heaps.items():
                for i, (_, _, item, _) in enumerate(heap):
                    if predicate(item):
                        heap[i] = heap[-1]
                        heap.pop()
                        heapq.heapify(heap)
                        self._size -= 1
                        self._gauge_depth()
                        if not heap:
                            try:
                                self._rotation.remove(tenant)
                            except ValueError:
                                pass
                        return item
        return None
