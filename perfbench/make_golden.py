"""Regenerate the golden theories the benchmark checks learned output against.

    PYTHONPATH=src python3 perfbench/make_golden.py

Writes ``perfbench/golden/<dataset>-<scale>-s<seed>-<algo>.pl``:

* ``mdie`` — sequential MDIE on each paper-scale learning dataset;
* ``p2`` — P²-MDIE at p=2 on the simulated backend, after checking the
  local (real-process) backend learns the identical theory.

Regenerating is a re-baseline: commit the diff with the reason.
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    common.add_source_path()
    from repro.datasets import make_dataset
    from repro.ilp.mdie import mdie
    from repro.parallel.p2mdie import run_p2mdie

    common.GOLDEN.mkdir(parents=True, exist_ok=True)

    def write(dataset, scale, seed, algo, theory):
        path = common.golden_path(dataset, scale, seed, algo)
        path.write_text(common.theory_text(theory))
        print(f"wrote {path.name} ({len(theory)} clauses)", flush=True)

    for name in common.LEARN_DATASETS:
        ds = make_dataset(name, seed=common.PAPER_SEED, scale="paper")
        seq = mdie(ds.kb, ds.pos, ds.neg, ds.modes, ds.config, seed=common.PAPER_SEED)
        write(name, "paper", common.PAPER_SEED, "mdie", seq.theory)
        runs = {
            backend: run_p2mdie(
                ds.kb, ds.pos, ds.neg, ds.modes, ds.config, p=2,
                seed=common.PAPER_SEED, backend=backend,
            )
            for backend in ("sim", "local")
        }
        sim, local = (common.theory_text(runs[b].theory) for b in ("sim", "local"))
        if sim != local:
            print(f"backend parity broken on {name}: sim and local theories differ", file=sys.stderr)
            return 1
        write(name, "paper", common.PAPER_SEED, "p2", runs["sim"].theory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
