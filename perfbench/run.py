"""Run one benchmark workload and print every metric by name and unit.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 50 --trace 0

Workloads: ``learn`` and ``serve-read`` (see README.md).
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
adds a traced pass and reports the per-layer metrics instead.  The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full record, with provenance, is saved under
``.perfbench_out/``.  Exit status: 0 when every output check passed,
1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("learn", "serve-read")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        common.add_source_path()
        if args.workload == "learn":
            import learn

            result = learn.run(args.seed, args.seconds, bool(args.trace))
        else:
            import serve

            result = serve.run(args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.emit(args.workload, args.seed, bool(args.trace), result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
