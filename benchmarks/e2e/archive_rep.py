"""One ``archive_build`` repetition: generate, build, solve, report.

Usage: ``python archive_rep.py SEED PHOTOS [SPANS_PATH]``.
Runs in a fresh interpreter per repetition so that start-up and peak RSS
are the batch job's own.  Prints one JSON line: ``ready``, the
``perf_counter`` once the inputs exist (set-up is interpreter start plus
input generation; ``perf_counter`` is the system-wide monotonic clock on
Linux, so the parent can subtract its own spawn time), the wall seconds of
build plus solve that follow, the build report and the answer digest.
With ``SPANS_PATH`` the layer boundaries are traced (see :mod:`tracing`)
and the spans are written there.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

TAU = 0.8
DIM = 16
BUDGET_FRACTION = 0.10


def digest(selection, value: float) -> str:
    text = ",".join(str(int(p)) for p in selection) + f"|{value!r}"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def main(argv) -> int:
    seed, photos = int(argv[0]), int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    recorder = None
    if spans_path:
        sys.path.insert(0, str(HERE))
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    from repro.core.solver import solve
    from repro.scale import build_streamed_instance, synthetic_archive

    costs, embeddings = synthetic_archive(photos, dim=DIM, seed=seed)
    budget = float(costs.sum()) * BUDGET_FRACTION
    t0 = time.perf_counter()
    with recorder.span("archive.rep", seq=0) if recorder else nullcontext():
        instance, report = build_streamed_instance(
            costs, embeddings, budget, tau=TAU, rng=seed
        )
        solution = solve(instance, "phocus")
    wall_s = time.perf_counter() - t0
    if recorder:
        recorder.dump(spans_path)
    print(
        json.dumps(
            {
                "ready": t0,
                "wall_s": wall_s,
                "photos": photos,
                "digest": digest(solution.selection, solution.value),
                "value": solution.value,
                "report": report.to_dict(),
                "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
