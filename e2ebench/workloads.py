"""The benchmark's workloads: what each one runs and how its output is checked.

Every workload is driven through the program's public entry points only:

* ``libs_shootout`` -- ``run_experiment("fig13")`` then ``("fig14")``: the
  library baselines, dominated by per-message two-copy shm traffic.
* ``native_contention`` -- ``fig07``, ``fig09``, ``fig10``: the paper's own
  CMA collectives (throttled reads on the mm lock, ring/pairwise phases).
* ``verified_stream`` -- a seeded stream of tuned, byte-verified collective
  calls run twice through ``run_specs`` (cold pass writes a fresh on-disk
  cache with two workers, warm pass reads it).

The figure workloads use the paper's fixed quick axes and ignore the seed;
only ``verified_stream`` draws its inputs from it.  Each workload's
``check`` compares the outputs with the reference captured by
``capture_reference.py`` and returns ``(attempted, failed, notes)``.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# -- verified_stream inputs ---------------------------------------------------

STREAM_ARCHS = ("knl", "broadwell", "power8")
#: process counts a call may use: half and all of each arch's quick-axis
#: evaluation count
STREAM_PROCS = {"knl": (16, 32), "broadwell": (14, 28), "power8": (20, 40)}
_LARGE = tuple(4096 << i for i in range(9))  # 4 KiB .. 1 MiB
_SMALL = tuple(4096 << i for i in range(5))  # 4 KiB .. 64 KiB
STREAM_BLOCKS = {
    "scatter": _LARGE,
    "gather": _LARGE,
    "bcast": _LARGE,
    "allgather": _SMALL,
    "alltoall": _SMALL,
}
#: share of a stream's calls that repeat an earlier call
REPEAT_SHARE = 0.2
TINY_UNIQUE_CALLS = 10


def call_space() -> list[tuple[str, str, int, int]]:
    """Every (arch, collective, block bytes, procs) a stream can draw."""
    return [
        (arch, coll, eta, p)
        for arch in STREAM_ARCHS
        for coll, etas in STREAM_BLOCKS.items()
        for eta in etas
        for p in STREAM_PROCS[arch]
    ]


def call_key(call) -> str:
    arch, coll, eta, p = call
    return f"{arch}/{coll}/{eta}/{p}"


def _bytes_moved(call) -> int:
    _, coll, eta, p = call
    return eta * p * (p if coll in ("allgather", "alltoall") else 1)


def _by_size(calls) -> list:
    return sorted(calls, key=lambda c: (_bytes_moved(c), c))


def _spread_pick(calls, n: int) -> list:
    """``n`` calls evenly spaced through ``calls`` sorted by bytes moved."""
    ordered = _by_size(calls)
    return [ordered[int((j + 0.5) * len(ordered) / n)] for j in range(n)]


def make_stream(seed: int, tiny: bool = False) -> list[tuple[str, str, int, int]]:
    """A seeded application-like call stream.

    Every call of :func:`call_space` appears once, in an order drawn from
    the seed; ``REPEAT_SHARE`` of the stream then repeats earlier calls,
    at positions drawn from the seed.  The repeated calls are spread
    evenly over the space by bytes moved, so every seed carries the same
    simulated work and the seed moves the order, the cache's hit pattern
    and the scheduler's chunking -- not the amount of work (a plain
    random draw moved total work by 15% between seeds).

    ``tiny`` draws ``TINY_UNIQUE_CALLS`` calls from the cheaper half of
    the space instead (self-test only).
    """
    rng = random.Random(seed)
    if tiny:
        calls = rng.sample(_by_size(call_space())[: len(call_space()) // 2],
                           TINY_UNIQUE_CALLS)
    else:
        calls = call_space()
        rng.shuffle(calls)
    n_repeat = round(len(calls) * REPEAT_SHARE / (1 - REPEAT_SHARE))
    stream = list(calls)
    for call in _spread_pick(calls, n_repeat):
        first = stream.index(call)
        stream.insert(rng.randrange(first + 1, len(stream) + 1), call)
    return stream


def result_digest(result) -> str:
    """Digest of everything a caller reads off a ``CollectiveResult``.

    The simulator event count is left out on purpose: it measures how the
    engine got there, not what the collective did, and fast paths may
    change it while results stay bit-identical.
    """
    spec = result.spec
    fields = (
        spec.algorithm,
        sorted(spec.params.items()),
        float(result.latency_us),
        [float(t) for t in result.per_rank_us],
        int(result.ctrl_messages),
        int(result.cma_reads),
        int(result.cma_writes),
        int(result.fallbacks),
        int(result.retries),
        int(result.faults_injected),
        int(result.xpmem_reads),
        int(result.xpmem_writes),
        int(result.xpmem_attaches),
        int(result.xpmem_page_faults),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:24]


def reference_entry(result) -> dict:
    return {
        "algorithm": result.spec.algorithm,
        "latency_us": float(result.latency_us),
        "digest": result_digest(result),
    }


def tuned_specs(stream, tuners):
    return [
        tuners[arch].spec(coll, eta, p, verify=True)
        for arch, coll, eta, p in stream
    ]


# -- figure outputs -------------------------------------------------------------


def _plain(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return repr(value)


def flatten(obj, prefix: str = "") -> dict:
    """``{"path/to/leaf": value}`` for every scalar in a figure's data."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}/{k}" if prefix else str(k)))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}/{i}"))
    else:
        out[prefix] = _plain(obj)
    return out


def load_reference(path=None) -> dict:
    with open(path or REFERENCE) as f:
        return json.load(f)


# -- workloads -------------------------------------------------------------------


class FigureWorkload:
    """Regenerate paper figures at quick axes, serial and uncached.

    ``write_share`` is the share of the timed wall spent in
    ``setup_buffers``/``verify_buffers`` (from the spans of a serial traced
    run at the benchmark's parent commit); it weighs the host-speed probe's
    buffer writes (see ``speed.py``).
    """

    def __init__(self, name: str, figures: tuple, tiny_figures: tuple,
                 write_share: float):
        self.name = name
        self.figures = figures
        self.tiny_figures = tiny_figures
        self.write_share = write_share

    def inputs(self, seed: int, tiny: bool) -> list:
        """The figure ids run; the paper's fixed axes ignore the seed."""
        return list(self.tiny_figures if tiny else self.figures)

    def setup(self, seed: int, tiny: bool) -> dict:
        import repro.bench.figures  # noqa: F401  (imports are set-up)

        return {"figures": self.inputs(seed, tiny)}

    def run(self, state: dict, recorder=None, workers=None, cache_dir=None) -> dict:
        """Serial and uncached whatever ``workers``/``cache_dir`` say."""
        from repro.bench.figures import run_experiment

        exps, error = [], None
        try:
            for fig in state["figures"]:
                exps.append(run_experiment(fig, quick=True, workers=1, cache=False))
        except Exception as exc:  # a crashing figure is a failed run, not a crash
            error = f"{type(exc).__name__}: {exc}"
        return {"exps": exps, "error": error, "stats": [e.stats for e in exps]}

    def check(self, state: dict, out: dict, reference: dict):
        attempted = failed = 0
        notes = []
        got = {e.id: flatten(e.data) for e in out["exps"]}
        for fig in state["figures"]:
            want = reference["figures"][fig]
            attempted += len(want)
            cells = got.get(fig)
            if cells is None:
                failed += len(want)
                notes.append(f"{fig}: not produced ({out['error']})")
                continue
            bad = [k for k, v in want.items() if cells.get(k) != v]
            extra = sorted(set(cells) - set(want))
            failed += len(bad) + len(extra)
            attempted += len(extra)
            if bad or extra:
                notes.append(
                    f"{fig}: {len(bad)} cells differ from the reference, "
                    f"{len(extra)} unexpected (first: {(bad + extra)[0]})"
                )
        return attempted, failed, notes


class StreamWorkload:
    """A seeded stream of tuned, verified calls: cold pass, then warm pass."""

    name = "verified_stream"
    #: see FigureWorkload; taken from the serial (workers=1) traced pass
    write_share = 0.75

    def inputs(self, seed: int, tiny: bool) -> list:
        return make_stream(seed, tiny)

    def setup(self, seed: int, tiny: bool) -> dict:
        import repro.exec.sweep  # noqa: F401  (imports are set-up)
        from repro.core.tuning import Tuner
        from repro.machine import get_arch

        stream = self.inputs(seed, tiny)
        tuners = {a: Tuner.calibrated(get_arch(a)) for a in STREAM_ARCHS}
        return {"stream": stream, "specs": tuned_specs(stream, tuners)}

    def run(self, state: dict, recorder=None, workers=None, cache_dir=None) -> dict:
        """Both passes; ``workers`` defaults to 2."""
        from repro.exec import ExecContext, ResultCache, use_context
        from repro.exec.sweep import run_specs

        cache = ResultCache(cache_dir)
        passes, stats, errors, pass_s = {}, {}, {}, {}
        for name in ("cold", "warm"):
            if recorder is not None:
                # warm-pass results replay cached counters: count them once
                recorder.counting = name == "cold"
            ctx = ExecContext(workers=workers or 2, cache=cache)
            t0 = time.perf_counter()
            try:
                with use_context(ctx):  # closes (and reaps) the pool on exit
                    passes[name] = run_specs(state["specs"])
            except Exception as exc:
                passes[name] = None
                errors[name] = f"{type(exc).__name__}: {exc}"
            pass_s[name] = time.perf_counter() - t0
            stats[name] = ctx.stats
        if recorder is not None:
            recorder.counting = True
        return {"passes": passes, "stats": stats, "errors": errors, "pass_s": pass_s}

    def check(self, state: dict, out: dict, reference: dict):
        from repro.exec.sched import PoisonedPoint

        table = reference["stream"]
        stream = state["stream"]
        attempted = failed = 0
        notes = []
        digests = {}
        for name in ("cold", "warm"):
            results = out["passes"][name]
            attempted += len(stream)
            if results is None:
                failed += len(stream)
                notes.append(f"{name} pass raised: {out['errors'][name]}")
                continue
            bad = []
            for i, (call, r) in enumerate(zip(stream, results)):
                if isinstance(r, PoisonedPoint):
                    bad.append(f"{call_key(call)} poisoned")
                    continue
                d = result_digest(r)
                digests[name, i] = d
                want = table.get(call_key(call))
                if want is None or want["digest"] != d:
                    bad.append(f"{call_key(call)} differs from the reference")
                elif name == "warm" and digests.get(("cold", i)) != d:
                    bad.append(f"{call_key(call)} warm != cold")
            failed += len(bad)
            if bad:
                notes.append(f"{name} pass: {len(bad)} bad points (first: {bad[0]})")
        return attempted, failed, notes


WORKLOADS = {
    w.name: w
    for w in (
        FigureWorkload("libs_shootout", ("fig13", "fig14"), ("fig13",), 0.10),
        FigureWorkload("native_contention", ("fig07", "fig09", "fig10"), ("fig07",), 0.35),
        StreamWorkload(),
    )
}
