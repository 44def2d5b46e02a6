"""Self-test of the benchmark itself (not part of the program's test suite).

Run from the root of a checkout::

    python3 e2ebench/selftest.py

On tiny inputs of every workload it checks that

* every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) named in ``BENCHMARK.json`` is printed with its unit,
  and the result line has exactly the agreed keys;
* the outputs match the reference (``failed == 0``) on this checkout;
* a perturbed reference drives ``failed_frac`` above 0;
* the seed changes ``verified_stream``'s inputs but not the figure
  workloads'.

Takes about two minutes; exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SCRATCH = Path(".e2ebench_selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, seed: int, trace: int, reference=None) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def inputs_digest(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.strip().startswith("inputs:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError("no inputs line printed")


def perturbed_reference() -> Path:
    ref = json.loads((HERE / "reference.json").read_text())
    for cells in ref["figures"].values():
        key = next(k for k, v in cells.items() if isinstance(v, float))
        cells[key] *= 1.0 + 1e-9
    for entry in ref["stream"].values():
        entry["digest"] = "0" * len(entry["digest"])
    SCRATCH.mkdir(exist_ok=True)
    path = SCRATCH / "perturbed_reference.json"
    path.write_text(json.dumps(ref))
    return path


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    try:
        bad_ref = perturbed_reference()
        for w in SPEC["workloads"]:
            name = w["name"]
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                res, out = bench(name, 1, trace)
                check(set(res) == RESULT_KEYS, f"{name} trace={trace}: result keys")
                want = {m["name"]: m["unit"] for m in SPEC[section]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == want, f"{name} trace={trace}: every {section} metric with its unit")
                check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                      f"{name} trace={trace}: outputs match the reference")
                if trace == 0:
                    digest_1 = inputs_digest(out)
            res, _ = bench(name, 1, 0, reference=bad_ref)
            check(res["failed"] > 0 and not res["correct"],
                  f"{name}: a perturbed reference gives failed_frac "
                  f"{res['failed']}/{res['attempted']} > 0")
            res, out = bench(name, 2, 0)
            changed = inputs_digest(out) != digest_1
            check(changed == (name == "verified_stream") and res["correct"],
                  f"{name}: seed 2 {'changes' if changed else 'keeps'} the inputs")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
