"""The four workloads: seeded inputs, reference answers, set-up, operations.

Serving workloads drive a real ``python -m repro.system.cli serve --port 0
--tenants-root DIR`` subprocess with default settings through one
closed-loop client on one connection at a time (the server speaks
HTTP/1.0, so each request opens its own).  ``archive_build`` runs each
repetition in a fresh interpreter (:mod:`archive_rep`).  Every input is
derived from the benchmark seed; the program sees only those inputs.

Reference answers come from the library's public API in this process:
``solve`` for plain solves, ``execute_fidelity_payload`` for fidelity
solves, and a ``LiveArchive.create`` -> ``ingest`` -> ``warm_resolve`` chain
for uploads.  The offline batch's reference is one untimed repetition,
which every timed repetition must reproduce.  An answer that differs in
selection, value, certificate or regret counts as a failed operation.

Timed operations run beside the host-speed probe (:mod:`probe`), which
gives each operation the kernel time measured during it.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import probe  # noqa: E402
import tracing  # noqa: E402
from repro.core.serialize import instance_from_dict, instance_to_dict  # noqa: E402
from repro.core.solver import solve  # noqa: E402
from repro.datasets.ecommerce import generate_ecommerce_dataset  # noqa: E402
from repro.fidelity.policy import execute_fidelity_payload  # noqa: E402
from repro.live import LiveArchive, cold_resolve, warm_resolve  # noqa: E402
from repro.scale import synthetic_archive  # noqa: E402

#: Workload sizes.  The self-tests pass a smaller copy.
SIZES: Dict[str, int] = {
    "inline_instances": 12,
    "products": 140,  # e-commerce products per instance (1-4 photos each)
    "byref_tenants": 16,
    "live_archives": 2,
    "live_photos": 3000,
    "live_delta": 16,
    "live_max_uploads": 2000,
    "archive_photos": 20000,
    "setups": 3,
}

#: Concurrent client connections; refused above the usable core count.
CLIENT_CONNECTIONS = 1

_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")


def sub_seed(seed: int, *path: int) -> int:
    """A 31-bit seed derived from the benchmark seed and a fixed path."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def _roundtrip(obj: Any) -> Any:
    """``obj`` as it reads after a JSON round trip (lists, plain floats)."""
    return json.loads(json.dumps(obj))


def _fashion(seed: int, products: int) -> Tuple[bytes, Any]:
    """A seeded e-commerce instance (budget 35%) as wire body + decoded copy."""
    dataset = generate_ecommerce_dataset(
        "Fashion",
        products,
        n_queries=max(6, products // 12),
        name=f"bench-{seed}",
        seed=seed,
    )
    instance = dataset.instance(dataset.total_cost() * 0.35)
    body = json.dumps({"instance": instance_to_dict(instance)}).encode()
    # The reference solves what the server decodes, not the in-memory object.
    return body, instance_from_dict(json.loads(body)["instance"])


# ------------------------------------------------------------------ server


class Server:
    """One ``phocus serve`` subprocess; traced when ``spans_path`` is given."""

    def __init__(self, workdir: str, spans_path: Optional[str] = None) -> None:
        self.root = tempfile.mkdtemp(prefix="tenants-", dir=workdir)
        args = ["serve", "--port", "0", "--tenants-root", self.root]
        if spans_path:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), spans_path, *args]
        else:
            cmd = [sys.executable, "-m", "repro.system.cli", *args]
        self._log = open(os.path.join(workdir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=_ENV,
            cwd=str(ROOT),
        )
        try:
            self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float = 120.0) -> int:
        buf = b""
        deadline = time.monotonic() + timeout
        while b"\n" not in buf:
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start listening")
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("server exited before listening")
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        return int(line.rsplit(":", 1)[1].strip("/ "))

    def request(
        self, method: str, path: str, body: Optional[bytes] = None, seq=None
    ) -> Tuple[int, bytes]:
        """One request on a fresh connection -> ``(status, body)``."""
        headers = {"Content-Type": "application/json"}
        if seq is not None:
            headers[tracing.SEQ_HEADER] = str(seq)
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> dict:
        """An untimed set-up request that must succeed."""
        status, data = self.request(method, path, body)
        if status not in (200, 201):
            raise RuntimeError(f"{method} {path} answered {status}: {data[:200]!r}")
        return json.loads(data)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()
        shutil.rmtree(self.root, ignore_errors=True)


# --------------------------------------------------------------- workloads


class InlineSolve:
    """Inline ``POST /solve`` bodies cycling over seeded instances."""

    def __init__(self, seed: int, sizes: Dict[str, int]) -> None:
        self.bodies: List[bytes] = []
        self.photos: List[int] = []
        refs = []
        for k in range(sizes["inline_instances"]):
            body, instance = _fashion(sub_seed(seed, 1, k), sizes["products"])
            solution = solve(instance, "phocus")
            self.bodies.append(body)
            self.photos.append(instance.n)
            refs.append([solution.selection, solution.value])
        self.refs = _roundtrip(refs)

    def setup(self, server: Server) -> None:
        for body in self.bodies:
            server.call("POST", "/solve", body)

    def op(self, i: int):
        k = i % len(self.bodies)
        return "POST", "/solve", self.bodies[k], self.photos[k]

    def check(self, i: int, doc: dict) -> bool:
        selection, value = self.refs[i % len(self.refs)]
        return doc["selection"] == selection and doc["value"] == value


class ByRefSolve:
    """``by_ref`` solves of stored instances through the warm cache."""

    def __init__(self, seed: int, sizes: Dict[str, int]) -> None:
        self.puts: List[Tuple[str, bytes]] = []
        self.photos: List[int] = []
        refs = []
        for t in range(sizes["byref_tenants"]):
            body, instance = _fashion(sub_seed(seed, 2, t), sizes["products"])
            plain = solve(instance, "phocus", certificate=True)
            fidelity = execute_fidelity_payload({}, instance=instance)
            self.puts.append((f"/tenants/t{t:02d}/instances/catalog", body))
            self.photos.append(instance.n)
            refs.append(
                {
                    "plain": [plain.selection, plain.value, plain.ratio_certificate],
                    "fidelity": [
                        fidelity["selection"],
                        fidelity["value"],
                        fidelity["chosen"],
                    ],
                }
            )
        self.refs = _roundtrip(refs)
        self._rng = np.random.default_rng(sub_seed(seed, 3))
        self._plan: List[Tuple[int, bool]] = []

    @staticmethod
    def _body(tenant: int, fidelity: bool) -> bytes:
        doc: Dict[str, Any] = {
            "by_ref": {"tenant": f"t{tenant:02d}", "instance_id": "catalog"}
        }
        if fidelity:
            doc["fidelity"] = {}
        else:
            doc["certificate"] = True
        return json.dumps(doc).encode()

    def _planned(self, i: int) -> Tuple[int, bool]:
        while len(self._plan) <= i:
            tenant = int(self._rng.integers(len(self.puts)))
            self._plan.append((tenant, bool(self._rng.random() < 0.25)))
        return self._plan[i]

    def setup(self, server: Server) -> None:
        for path, body in self.puts:
            server.call("PUT", path, body)
        for t in range(len(self.puts)):  # fills the warm cache
            server.call("POST", "/solve", self._body(t, False))

    def op(self, i: int):
        tenant, fidelity = self._planned(i)
        return "POST", "/solve", self._body(tenant, fidelity), self.photos[tenant]

    def check(self, i: int, doc: dict) -> bool:
        tenant, fidelity = self._planned(i)
        if fidelity:
            selection, value, chosen = self.refs[tenant]["fidelity"]
            return (
                doc["selection"] == selection
                and doc["value"] == value
                and doc["chosen"] == chosen
            )
        selection, value, ratio = self.refs[tenant]["plain"]
        return (
            doc["selection"] == selection
            and doc["value"] == value
            and doc["ratio_certificate"] == ratio
        )


class LiveUpload:
    """16-photo uploads round-robin over live archives, warm re-solve each.

    Several archives share the uploads so that each grows slowly: the
    per-upload cost rises with archive size, and a faster program (which
    uploads more in the same time) should not be charged for a larger
    archive.  Delta 0 of every archive is uploaded during set-up.
    """

    TAU = 0.8

    def __init__(self, seed: int, sizes: Dict[str, int]) -> None:
        n, k = sizes["live_photos"], sizes["live_delta"]
        count = sizes["live_archives"]
        per_archive = sizes["live_max_uploads"] // count + 1
        self.k = k
        self.count = count
        self.max_uploads = sizes["live_max_uploads"]
        self.creates: List[Tuple[str, bytes]] = []
        self.deltas: List[List[Tuple[np.ndarray, np.ndarray, bytes]]] = []
        self._created: List[tuple] = []  # per archive: (archive, cold solution)
        self._chain: List[list] = []  # per archive: [archive, solution, deltas]
        self.regrets: List[float] = []
        for a in range(count):
            costs, embeddings = synthetic_archive(
                n + k * per_archive,
                dim=16,
                clusters=max(16, n // 64),
                seed=sub_seed(seed, 4, a),
            )
            budget = float(costs[:n].sum()) * 0.10
            lsh_seed = sub_seed(seed, 5, a)
            base = f"/tenants/live{a}/instances/archive"
            self.creates.append(
                (
                    base,
                    json.dumps(
                        {
                            "costs": costs[:n].tolist(),
                            "embeddings": embeddings[:n].tolist(),
                            "budget": budget,
                            "tau": self.TAU,
                            "seed": lsh_seed,
                        }
                    ).encode(),
                )
            )
            deltas = []
            for j in range(per_archive):
                lo, hi = n + j * k, n + (j + 1) * k
                c, e = costs[lo:hi].copy(), embeddings[lo:hi].copy()
                body = json.dumps({"costs": c.tolist(), "embeddings": e.tolist()})
                deltas.append((c, e, body.encode()))
            self.deltas.append(deltas)
            archive, _ = LiveArchive.create(
                costs[:n].copy(), embeddings[:n].copy(), budget,
                tau=self.TAU, seed=lsh_seed,
            )
            self._created.append((archive, cold_resolve(archive.instance)))
            self._chain.append([*self._created[-1], 0])

    def setup(self, server: Server) -> None:
        for base, body in self.creates:
            server.call("POST", base + "/live", body)
        for a, (base, _) in enumerate(self.creates):
            server.call("POST", base + "/photos", self.deltas[a][0][2])

    def _slot(self, i: int) -> Tuple[int, int]:
        if i >= self.max_uploads:
            raise RuntimeError("live_upload ran out of generated deltas")
        return i % self.count, 1 + i // self.count

    def op(self, i: int):
        a, j = self._slot(i)
        return "POST", self.creates[a][0] + "/photos", self.deltas[a][j][2], self.k

    def _reference(self, a: int, j: int):
        """The reference solution after delta ``j`` of archive ``a``.

        Uploads are checked in order; a phase on a fresh server starts the
        chain again from the created archive.
        """
        link = self._chain[a]
        if link[2] > j + 1:
            link[:] = [*self._created[a], 0]
        while link[2] <= j:
            costs, embeddings, _ = self.deltas[a][link[2]]
            grown, _ = link[0].ingest(costs, embeddings)
            link[:] = [grown, warm_resolve(grown.instance, link[1].selection), link[2] + 1]
        return link[1]

    def check(self, i: int, doc: dict) -> bool:
        ref = self._reference(*self._slot(i))
        self.regrets.append(float(doc["regret_bound"]))
        solution = doc["solution"]
        return (
            solution["selection"] == [int(p) for p in ref.selection]
            and solution["value"] == float(ref.value)
            and doc["regret_bound"] == float(ref.regret_bound)
        )


SERVING = {
    "inline_solve": InlineSolve,
    "byref_solve": ByRefSolve,
    "live_upload": LiveUpload,
}


# ------------------------------------------------------------------ phases


class Phase:
    """What one measured phase observed.

    Set-ups and operations are kept as ``(start, end)`` ``perf_counter``
    windows; ``setup_speed`` and ``speed`` hold the probe kernel's time
    measured during each window (see :mod:`probe`).
    """

    def __init__(self) -> None:
        self.setup_windows: List[Tuple[float, float]] = []
        self.windows: List[Tuple[float, float]] = []
        self.setup_speed: List[float] = []
        self.speed: List[float] = []
        self.photos: List[int] = []
        self.ok: List[bool] = []
        self.spans: Optional[List[list]] = None
        self.reports: List[dict] = []  # archive_build build reports
        self.peak_rss_mb = 0.0

    @property
    def setup_s(self) -> List[float]:
        return [end - start for start, end in self.setup_windows]

    @property
    def latencies(self) -> List[float]:
        return [end - start for start, end in self.windows]

    def add_speed(self, samples: List[Tuple[float, float]]) -> None:
        self.setup_speed = speed_factors(samples, self.setup_windows)
        self.speed = speed_factors(samples, self.windows)


class Probe:
    """The host-speed probe process (:mod:`probe`) beside one timed phase."""

    def __init__(self, workdir: str) -> None:
        self.path = os.path.join(workdir, "probe.txt")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), self.path],
            env=_ENV,
            cwd=str(ROOT),
        )
        deadline = time.monotonic() + 60
        while not (os.path.exists(self.path) and os.path.getsize(self.path)):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("host-speed probe did not start")
            time.sleep(0.01)

    def stop(self) -> List[Tuple[float, float]]:
        """Stop the probe; its ``(start, seconds)`` samples in time order."""
        self.proc.terminate()
        self.proc.wait(timeout=60)
        samples = []
        with open(self.path, encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:  # the last line may be cut short
                    samples.append((float(parts[0]), float(parts[1])))
        return samples


def speed_factors(
    samples: List[Tuple[float, float]], windows: List[Tuple[float, float]]
) -> List[float]:
    """Median probe time over each ``(start, end)`` window.

    Windows are widened by one probe period on each side, so a short
    operation still sees a few samples; a window with none takes the
    nearest sample.
    """
    starts = [t for t, _ in samples]
    out = []
    for start, end in windows:
        lo = bisect.bisect_left(starts, start - probe.PERIOD_S)
        hi = bisect.bisect_right(starts, end + probe.PERIOD_S)
        if hi <= lo:
            lo = min(lo, len(samples) - 1)
            hi = lo + 1
        out.append(statistics.median(d for _, d in samples[lo:hi]))
    return out


def _peak_child_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_serving(
    workload, seconds: float, setups: int, workdir: str, traced: bool
) -> Phase:
    """Set up ``setups`` times (timing each), then measure on the last server."""
    phase = Phase()
    spans_path = os.path.join(workdir, "spans.json") if traced else None
    responses: List[Tuple[int, bytes]] = []
    probe = Probe(workdir)
    try:
        for r in range(setups):
            last = r == setups - 1
            start = time.perf_counter()
            server = Server(workdir, spans_path if last else None)
            try:
                workload.setup(server)
            except BaseException:
                server.stop()
                raise
            phase.setup_windows.append((start, time.perf_counter()))
            if not last:
                server.stop()
        try:
            start = time.perf_counter()
            i = 0
            while True:
                method, path, body, photos = workload.op(i)
                t0 = time.perf_counter()
                try:
                    status, data = server.request(method, path, body, seq=i)
                except (OSError, http.client.HTTPException):
                    status, data = 0, b""
                phase.windows.append((t0, time.perf_counter()))
                responses.append((status, data))
                phase.photos.append(photos)
                i += 1
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            server.stop()
    finally:
        phase.add_speed(probe.stop())
    phase.peak_rss_mb = _peak_child_rss_mb()
    for i, (status, data) in enumerate(responses):
        phase.ok.append(status == 200 and _checked(workload, i, data))
    if traced:
        phase.spans = tracing.load(spans_path)
    return phase


def _checked(workload, i: int, data: bytes) -> bool:
    try:
        return bool(workload.check(i, json.loads(data)))
    except (ValueError, KeyError, TypeError):
        return False


def _archive_rep(workload: "ArchiveBuild", spans_path: Optional[str]):
    """Run one repetition subprocess; its JSON report, or None if it failed.

    The report gains ``spawned``, this process's ``perf_counter`` just
    before the start; the child's ``perf_counter`` shares its clock.
    """
    cmd = [
        sys.executable,
        str(HERE / "archive_rep.py"),
        str(workload.seed),
        str(workload.photos),
    ] + ([spans_path] if spans_path else [])
    spawned = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=_ENV, cwd=str(ROOT), timeout=170
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), spawned=spawned)


class ArchiveBuild:
    """The offline batch; its reference is one untimed repetition.

    The reference runs in a fresh interpreter like every timed repetition,
    because the answer depends on the BLAS thread count (matrix products
    sum in a different order), and the interpreter's core count fixes it.
    """

    def __init__(self, seed: int, sizes: Dict[str, int]) -> None:
        self.seed = sub_seed(seed, 6)
        self.photos = sizes["archive_photos"]
        out = _archive_rep(self, None)
        if out is None:
            raise RuntimeError("archive_build reference repetition failed")
        self.ref = out["digest"]


def run_archive(
    workload: ArchiveBuild, seconds: float, min_reps: int, workdir: str, traced: bool
) -> Phase:
    """Fresh-interpreter repetitions until ``seconds`` and ``min_reps`` are met."""
    phase = Phase()
    spans: List[list] = []
    probe = Probe(workdir)
    try:
        start = time.perf_counter()
        rep = 0
        while rep < min_reps or time.perf_counter() - start < seconds:
            spans_path = os.path.join(workdir, f"rep{rep}.json") if traced else None
            t0 = time.perf_counter()
            out = _archive_rep(workload, spans_path)
            if out is None:
                phase.windows.append((t0, time.perf_counter()))
                phase.photos.append(workload.photos)
                phase.ok.append(False)
            else:
                phase.setup_windows.append((out["spawned"], out["ready"]))
                phase.windows.append((out["ready"], out["ready"] + out["wall_s"]))
                phase.photos.append(out["photos"])
                phase.ok.append(out["digest"] == workload.ref)
                phase.reports.append(dict(out["report"], value=out["value"]))
                phase.peak_rss_mb = max(phase.peak_rss_mb, out["maxrss_kib"] / 1024.0)
                if spans_path:
                    offset = len(spans)
                    for s in tracing.load(spans_path):
                        parent = s[1] + offset if s[1] is not None else None
                        spans.append([s[0] + offset, parent, *s[2:5], rep, s[6]])
            rep += 1
    finally:
        phase.add_speed(probe.stop())
    if traced:
        phase.spans = spans
    return phase


def build(name: str, seed: int, sizes: Dict[str, int]):
    """Inputs and reference answers for workload ``name``."""
    if name == "archive_build":
        return ArchiveBuild(seed, sizes)
    return SERVING[name](seed, sizes)


def run_phase(
    workload, seconds: float, setups: int, workdir: str, traced: bool
) -> Phase:
    """Measure one phase; ``setups`` is how many set-ups are timed.

    Every ``archive_build`` repetition starts a fresh interpreter, so there
    each repetition is a set-up and ``setups`` is the minimum count.
    """
    if isinstance(workload, ArchiveBuild):
        return run_archive(workload, seconds, setups, workdir, traced)
    return run_serving(workload, seconds, setups, workdir, traced)
