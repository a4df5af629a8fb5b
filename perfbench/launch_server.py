"""Run ``repro serve`` with the layer tracer installed.

    python3 perfbench/launch_server.py --spans-out FILE [repro serve options]

The traced counterpart of ``python -m repro serve``: it imports the same
CLI, installs the wrappers of :mod:`tracer`, then serves (through
``repro.service.server.serve``) until a ``shutdown`` request, then
writes the process record (spans, per-function times, counters) to
``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans-out", required=True)
    args, serve_args = ap.parse_known_args()
    common.add_source_path()
    import repro.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        with open(args.spans_out, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
