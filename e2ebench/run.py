"""End-to-end benchmark driver.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload libs_shootout --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``rep.py``) with a fresh cache
directory, so no in-process memo carries over between repetitions.  With
``--trace 0`` repetitions are started until ``--seconds`` have passed (at
least one) and the end-to-end metrics are their medians.  Their seconds are
reference-host seconds: each repetition's raw seconds rescaled by the host
speed the gauge in ``speed.py`` sampled while they ran (the raw seconds are
printed too).  With
``--trace 1`` it runs the traced passes once and reports the per-layer
metrics instead (see README.md for both tables).

Every output is checked against ``reference.json``; the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``failed / attempted`` is the run's ``failed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".e2ebench_tmp")
TRACE_DIR = Path(".e2ebench_out")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("sim.engine.self_s", "s"),
    ("sim.run_all_s", "s"),
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.resources.self_s", "s"),
    ("sim.resources.acquire_calls", "count"),
    ("sim.channels.self_s", "s"),
    ("sim.channels.deliver_calls", "count"),
    ("sim.channels.match_per_deliver", "ratio"),
    ("shm.self_s", "s"),
    ("shm.send_data_calls", "count"),
    ("kernel.self_s", "s"),
    ("kernel.address_space.self_s", "s"),
    ("kernel.cma_reads", "count"),
    ("kernel.cma_writes", "count"),
    ("kernel.buffer_alloc_mb", "MiB"),
    ("mpi.self_s", "s"),
    ("mpi.ctrl_messages", "count"),
    ("core.algos.self_s", "s"),
    ("core.p2p_colls.resumes", "count"),
    ("core.tuning.self_s", "s"),
    ("core.tuning.calibrate_s", "s"),
    ("core.patterns.self_s", "s"),
    ("core.patterns.fill_s", "s"),
    ("core.patterns.verify_s", "s"),
    ("core.patterns.verified_mb", "MiB"),
    ("exec.self_s", "s"),
    ("exec.points_total", "count"),
    ("exec.points_run", "count"),
    ("exec.cache_hits", "count"),
    ("exec.unique_ratio", "ratio"),
    ("exec.worker_busy_frac", "ratio"),
    ("exec.sched_chunks", "count"),
    ("exec.sched_steals", "count"),
    ("exec.cost_err_pct", "%"),
    ("exec.cache.get_s", "s"),
    ("exec.cache.put_s", "s"),
    ("exec.warm_pass_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)
#: one repetition of any workload takes about this long on the reference
#: host; ``--seconds`` buys ``round(seconds / REP_SECONDS)`` repetitions
REP_SECONDS = 10.0
#: set-up-only children per timed run, on top of each repetition's own
#: set-up: ``setup_s`` is the median of all of them
SETUP_SAMPLES = 3
#: a repetition that has not finished by then is killed and counted failed
REP_TIMEOUT_S = 170.0
#: no repetition is started that would likely end after this
RUN_BUDGET_S = 165.0
#: the profile must see this share of the traced wall (attribution check)
MIN_PROFILED_SHARE = 0.9
MIB = float(1 << 20)


class RepFailed(RuntimeError):
    pass


def spawn(workload, seed, mode, n, args, workers=None, hash_seed=None):
    """Run repetition ``n`` in a fresh interpreter; returns its record.

    Repetition ``n`` runs with ``PYTHONHASHSEED=n`` unless ``hash_seed``
    is given.  The program's memory
    retention depends on string hashing (calibration keeps ~580 or ~900
    MiB depending on the hash seed), so a run samples a fixed set of hash
    seeds instead of a random one per repetition; the per-repetition
    figures show both modes.
    """
    out = WORK_DIR / f"rep{n}.json"
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--cache-dir", str(WORK_DIR / f"cache{n}"), "--out", str(out),
    ]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if args.tiny:
        cmd.append("--tiny")
    if args.reference:
        cmd += ["--reference", args.reference]
    cmd += ["--spawned-at", repr(time.monotonic())]
    env = dict(bootstrap.child_env(), PYTHONHASHSEED=str(n if hash_seed is None else hash_seed))
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # the repetition's own process group: its sweep workers go with it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    shutil.rmtree(WORK_DIR / f"cache{n}", ignore_errors=True)
    if code != 0 or not out.exists():
        raise RepFailed(f"{mode} repetition exited with {code}")
    with open(out) as f:
        return json.load(f)


def timed(args) -> dict:
    reps, errors = [], []
    start = time.monotonic()
    n_reps = max(1, round(args.seconds / REP_SECONDS))
    for n in range(n_reps):
        if n and (time.monotonic() - start) * (n + 1) / n > RUN_BUDGET_S:
            break
        try:
            reps.append(spawn(args.workload, args.seed, "timed", n, args))
        except RepFailed as exc:
            errors.append(str(exc))
            break
    if not reps:
        raise RepFailed("; ".join(errors))
    setups = [r["setup_s"] for r in reps]
    raw_setups = [r["setup_raw_s"] for r in reps]
    if not errors:
        for n in range(n_reps, n_reps + SETUP_SAMPLES):
            rec = spawn(args.workload, args.seed, "setup", n, args)
            setups.append(rec["setup_s"])
            raw_setups.append(rec["setup_raw_s"])
    metrics = {
        name: {"value": statistics.median(r[name] for r in reps), "unit": unit}
        for name, unit in END_TO_END
    }
    metrics["setup_s"]["value"] = statistics.median(setups)
    detail = {
        name: [r[name] for r in reps]
        for name in ("wall_s", "cpu_s", "wall_raw_s", "cpu_raw_s",
                     "peak_rss_mb", "rss_self_mb", "rss_workers_mb")
    }
    detail["host speed (timed)"] = [r["timed_speed"]["speed"] for r in reps]
    detail["setup_s"] = setups
    detail["setup_raw_s"] = raw_setups
    return {"reps": reps, "errors": errors, "metrics": metrics, "detail": detail}


def traced(args) -> dict:
    stream = args.workload == "verified_stream"
    # S: serial, spans only; P: serial, spans + cProfile; A (stream only):
    # the real two-worker passes with parent-side spans.  One hash seed for
    # all, so S and P differ only by the profiler.
    spans = spawn(args.workload, args.seed, "spans", 0, args, 1, hash_seed=0)
    prof = spawn(args.workload, args.seed, "profile", 1, args, 1, hash_seed=0)
    par = (spawn(args.workload, args.seed, "spans", 2, args, hash_seed=0)
           if stream else spans)
    reps = [spans, prof] + ([par] if stream else [])

    st, pt, at = spans["trace"], prof["profile"], par["trace"]
    layer = pt["layer_s"]
    wall_p = prof["wall_s"]
    exec_stats = par["stats"]
    total = lambda key: sum(s[key] for s in exec_stats)  # noqa: E731
    busy_den = sum(s["workers"] * s["run_wall_s"] for s in exec_stats)
    values = {
        "sim.engine.self_s": layer["sim.engine"],
        "sim.run_all_s": st["span_s"]["sim.run_all"],
        "sim.events": st["counts"].get("sim_events", 0),
        "sim.host_ns_per_event": (
            1e9 * st["span_s"]["sim.run_all"] / st["counts"]["sim_events"]
            if st["counts"].get("sim_events") else 0.0
        ),
        "sim.resources.self_s": layer["sim.resources"],
        "sim.resources.acquire_calls": pt["acquire_calls"],
        "sim.channels.self_s": layer["sim.channels"],
        "sim.channels.deliver_calls": pt["deliver_calls"],
        "sim.channels.match_per_deliver": (
            pt["match_calls"] / pt["deliver_calls"] if pt["deliver_calls"] else 0.0
        ),
        "shm.self_s": layer["shm"],
        "shm.send_data_calls": pt["send_data_calls"],
        "kernel.self_s": layer["kernel.address_space"] + layer["kernel.other"],
        "kernel.address_space.self_s": layer["kernel.address_space"],
        "kernel.cma_reads": st["counts"].get("cma_reads", 0),
        "kernel.cma_writes": st["counts"].get("cma_writes", 0),
        "kernel.buffer_alloc_mb": st["counts"].get("buffer_alloc_bytes", 0) / MIB,
        "mpi.self_s": layer["mpi"],
        "mpi.ctrl_messages": st["counts"].get("ctrl_messages", 0),
        "core.algos.self_s": layer["core.algos"],
        "core.p2p_colls.resumes": pt["p2p_colls_resumes"],
        "core.tuning.self_s": layer["core.tuning"],
        "core.tuning.calibrate_s": st["span_s"]["tuning.calibrate"],
        "core.patterns.self_s": layer["core.patterns"],
        "core.patterns.fill_s": st["span_s"]["patterns.fill"],
        "core.patterns.verify_s": st["span_s"]["patterns.verify"],
        "core.patterns.verified_mb": st["counts"].get("verified_bytes", 0) / MIB,
        "exec.self_s": layer["exec"],
        "exec.points_total": total("points_total"),
        "exec.points_run": total("points_run"),
        "exec.cache_hits": total("cache_hits"),
        "exec.unique_ratio": (
            at["unique_digests"] / at["collective_points_run"]
            if at["collective_points_run"] else 0.0
        ),
        "exec.worker_busy_frac": total("sched_wall_s") / busy_den if busy_den else 0.0,
        "exec.sched_chunks": total("sched_chunks"),
        "exec.sched_steals": total("sched_steals"),
        "exec.cost_err_pct": (
            100.0 * total("sched_err_s") / total("sched_wall_s")
            if total("sched_wall_s") else 0.0
        ),
        "exec.cache.get_s": at["span_s"]["cache.get"],
        "exec.cache.put_s": at["span_s"]["cache.put"],
        "exec.warm_pass_s": at["warm_pass_s"],
        "trace.overhead_pct": 100.0 * (wall_p - spans["wall_s"]) / spans["wall_s"],
        "trace.unattributed_pct": 100.0 * (
            wall_p - sum(v for k, v in layer.items() if k != "unattributed")
        ) / wall_p,
    }
    problems = []
    if pt["total_tt"] < MIN_PROFILED_SHARE * wall_p:
        problems.append(
            f"attribution: the profile saw {pt['total_tt']:.2f}s of a "
            f"{wall_p:.2f}s traced wall"
        )
    _write_chrome(args, reps)
    return {
        "reps": reps,
        "errors": problems,
        "metrics": {
            name: {"value": int(values[name]) if unit == "count" else values[name], "unit": unit}
            for name, unit in PER_LAYER
        },
        "detail": {
            "layer split": "serial profiled pass (workers=1)" if stream else "profiled pass",
            "profiled share of traced wall": pt["total_tt"] / wall_p,
        },
    }


def _write_chrome(args, reps) -> None:
    events = []
    for pid, rep in enumerate(reps, 1):
        workers = rep["stats"][0]["workers"] if rep["stats"] else 1
        label = {"spans": "spans", "profile": "spans+cProfile"}[rep["mode"]]
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": f"{label} workers={workers}"}})
        events += [dict(ev, pid=pid) for ev in rep["trace"]["chrome"]]
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    print(f"chrome trace: {path}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (self-test only; figures differ from the paper's)")
    ap.add_argument("--reference", default=None,
                    help="reference file to check against (default: reference.json)")
    args = ap.parse_args(argv)
    bootstrap.check_checkout()
    # a terminated run still kills and reaps its repetition (spawn's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    WORK_DIR.mkdir(exist_ok=True)
    try:
        res = traced(args) if args.trace else timed(args)
    except RepFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    attempted = sum(r["attempted"] for r in res["reps"]) + len(res["errors"])
    failed = sum(r["failed"] for r in res["reps"]) + len(res["errors"])
    print(f"e2ebench {args.workload} seed={args.seed}: {len(res['reps'])} repetition(s)")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed / max(attempted, 1):14.6g} ({failed}/{attempted})")
    digests = {
        hashlib.sha256(json.dumps(r["inputs"]).encode()).hexdigest()[:16]
        for r in res["reps"]
    }
    print(f"  inputs: {','.join(sorted(digests))}")
    for key, val in res["detail"].items():
        print(f"  {key}: {val}")
    for rep in res["reps"]:
        for note in rep["notes"]:
            print(f"  FAIL {rep['mode']}: {note}")
    for err in res["errors"]:
        print(f"  FAIL {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
