"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; writes one JSON record to ``--out``.  Modes:

* ``setup``   -- set-up only: one more ``setup_s`` sample.
* ``timed``   -- no instrumentation; the end-to-end numbers.
* ``spans``   -- span wrappers around the public calls (traced run).
* ``profile`` -- spans plus one ``cProfile`` pass over the timed region.

The timed region starts after set-up (imports, calibration, stream
generation) and ends when the last pass returned and every sweep worker
was reaped; its CPU time and peak RSS include those workers.

In ``setup`` and ``timed`` modes the host-speed gauge (``speed.py``) samples
the host from the first line on; the record holds both the raw seconds and
the seconds normalised to the reference host.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import bootstrap
import speed
import workloads


def _rusage_cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "spans", "profile"),
                    default="timed")
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--reference", default=None)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    gauge = (speed.Gauge(workload.write_share).start()
             if args.mode in ("setup", "timed") else None)
    bootstrap.import_repro()
    recorder = None
    if args.mode in ("spans", "profile"):
        import tracing

        recorder = tracing.SpanRecorder()
        recorder.install()
    state = workload.setup(args.seed, args.tiny)
    setup_raw_s = time.monotonic() - args.spawned_at
    setup_s, setup_speed = setup_raw_s, None
    if gauge is not None:
        setup_mark = gauge.mark()
        # set-up is imports and calibration: interpreter work only
        setup_speed = gauge.region(0, setup_mark, write_share=0.0)
        setup_s = speed.normalise(setup_raw_s, setup_speed)
    if args.mode == "setup":
        gauge.stop()
        with open(args.out, "w") as f:
            json.dump({"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                       "setup_speed": setup_speed}, f)
        return 0
    reference = workloads.load_reference(args.reference)

    profiler = None
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    timed_mark = gauge.mark() if gauge is not None else 0
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    out = workload.run(state, recorder, args.workers, args.cache_dir)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    ruc = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = _rusage_cpu(ru1) - _rusage_cpu(ru0) + _rusage_cpu(ruc)
    timed_speed = None
    if gauge is not None:
        gauge.stop()
        timed_speed = gauge.region(timed_mark)
    attempted, failed, notes = workload.check(state, out, reference)

    record = {
        "workload": args.workload,
        "mode": args.mode,
        "seed": args.seed,
        "wall_s": speed.normalise(wall_s, timed_speed) if timed_speed else wall_s,
        "cpu_s": (speed.normalise(cpu_s, timed_speed, "cpu_spent_s")
                  if timed_speed else cpu_s),
        "wall_raw_s": wall_s,
        "cpu_raw_s": cpu_s,
        # ru_maxrss is KiB on Linux; the children's figure is the largest
        # reaped sweep worker, so this is the tree's largest process
        "peak_rss_mb": max(ru1.ru_maxrss, ruc.ru_maxrss) / 1024.0,
        "rss_self_mb": ru1.ru_maxrss / 1024.0,
        "rss_workers_mb": ruc.ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "setup_speed": setup_speed,
        "timed_speed": timed_speed,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "inputs": [list(x) if isinstance(x, tuple) else x
                   for x in workload.inputs(args.seed, args.tiny)],
        "stats": [vars(s) for s in _sweep_stats(out)],
    }
    if recorder is not None:
        recorder.uninstall()
        record["trace"] = _trace_summary(recorder, out, t0)
    if profiler is not None:
        record["profile"] = _profile_summary(profiler)
    with open(args.out, "w") as f:
        json.dump(record, f)
    return 0


def _sweep_stats(out) -> list:
    stats = out.get("stats")
    if isinstance(stats, dict):  # verified_stream: {"cold": ..., "warm": ...}
        return [stats[k] for k in ("cold", "warm")]
    return [s for s in stats if s is not None]


def _trace_summary(rec, out, t0) -> dict:
    from repro.exec.cache import ResultCache

    keyer = ResultCache("unused")  # key_for only: never touches the disk
    digests, points = set(), 0
    for specs in rec.run_specs_calls:
        for spec in specs:
            digests.add(keyer.key_for("collective", spec))
    for s in _sweep_stats(out):
        points += s.by_kind.get("collective", [0, 0, 0])[1]
    return {
        "span_s": {
            name: rec.outermost(name)
            for name in ("run_experiment", "run_specs", "tuning.calibrate",
                         "cache.get", "cache.put", "patterns.fill",
                         "patterns.verify", "sim.run_all")
        },
        "counts": dict(rec.counts),
        "unique_digests": len(digests),
        "collective_points_run": points,
        "warm_pass_s": out.get("pass_s", {}).get("warm", 0.0),
        "chrome": rec.chrome_events(t0),
    }


def _profile_summary(profiler) -> dict:
    import pstats

    import tracing
    from repro.core import p2p_colls
    from repro.shm.transport import ShmTransport
    from repro.sim import channels, resources

    stats = pstats.Stats(profiler).stats
    return {
        "layer_s": tracing.layer_profile(stats),
        "total_tt": sum(v[2] for v in stats.values()),
        "deliver_calls": tracing.calls_of(stats, channels.Mailbox.deliver),
        "match_calls": tracing.calls_of(stats, channels._matches),
        "send_data_calls": tracing.calls_of(stats, ShmTransport.send_data),
        "acquire_calls": tracing.calls_of(stats, resources.Mutex._acquire_core)
        + tracing.calls_of(stats, resources.Semaphore._acquire),
        "p2p_colls_resumes": tracing.calls_in_file(stats, p2p_colls.__file__),
    }


if __name__ == "__main__":
    sys.exit(main())
