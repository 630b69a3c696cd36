"""Run ``phocus serve`` with the layer boundaries wrapped in spans.

Usage: ``python traced_serve.py SPANS_PATH serve --port 0 ...``.  Installs
:mod:`tracing` into this interpreter, hands the remaining arguments to
``repro.system.cli.main`` unchanged, and writes every recorded span to
``SPANS_PATH`` once the server has drained and returned (SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import tracing  # noqa: E402  (after the path set-up above)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.system import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
