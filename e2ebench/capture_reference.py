"""Capture the reference outputs every benchmark run is checked against.

Run from the root of a checkout::

    python3 e2ebench/capture_reference.py

It writes ``e2ebench/reference.json`` with

* ``figures``: every data cell of the figures the figure workloads run
  (``fig07``, ``fig09``, ``fig10``, ``fig13``, ``fig14``, quick axes);
* ``stream``: for every call a ``verified_stream`` stream can draw, the
  tuned algorithm, its latency and a digest of the whole result
  (see :func:`workloads.result_digest`), computed serially with byte
  verification on.

Recapture only when a change is *meant* to alter simulated results, and
say so in the change: a mismatch is otherwise a failed benchmark run.
"""

from __future__ import annotations

import json
import sys
import time

import bootstrap

bootstrap.import_repro()

import workloads  # noqa: E402


def main() -> int:
    from repro.core.tuning import Tuner
    from repro.exec.sweep import run_specs
    from repro.machine import get_arch

    t0 = time.perf_counter()
    figures = {}
    for w in workloads.WORKLOADS.values():
        if isinstance(w, workloads.FigureWorkload):
            out = w.run(w.setup(0, tiny=False))
            if out["error"]:
                print(out["error"], file=sys.stderr)
                return 1
            for exp in out["exps"]:
                figures[exp.id] = workloads.flatten(exp.data)
    tuners = {a: Tuner.calibrated(get_arch(a)) for a in workloads.STREAM_ARCHS}
    space = workloads.call_space()
    results = run_specs(workloads.tuned_specs(space, tuners))
    stream = {
        workloads.call_key(c): workloads.reference_entry(r)
        for c, r in zip(space, results)
    }
    with open(workloads.REFERENCE, "w") as f:
        json.dump({"figures": figures, "stream": stream}, f, indent=0, sort_keys=True)
        f.write("\n")
    print(
        f"wrote {workloads.REFERENCE.name}: {sum(map(len, figures.values()))} "
        f"figure cells, {len(stream)} stream calls in "
        f"{time.perf_counter() - t0:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
