"""Tracing for the benchmark's traced runs (never active in timed runs).

Two instruments, both installed from outside the program:

* :class:`SpanRecorder` wraps the program's synchronous public calls
  (``run_experiment``, ``run_specs``, ``Tuner.calibrated``, the
  ``ResultCache`` reads and writes, ``setup_buffers`` /
  ``verify_buffers`` and ``Simulator.run_all``) and records one span per
  call -- name, start, end, parent -- plus the counts read at the same
  boundary.  Spans are kept in memory and written out as Chrome
  trace events.
* :func:`layer_profile` folds one ``cProfile`` pass into per-layer self
  time.  The generator-based layers (``sim``, ``shm``, ``kernel``, ``mpi``,
  ``core``) yield into one another, so no outside wrapper can time them;
  the profile can.  Self time of code outside the program (C builtins,
  numpy, the standard library) is charged to the program layer that
  called it, in proportion to the time each caller spent in it.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from bootstrap import REPRO_DIR

# -- spans ---------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans around the program's public synchronous calls."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_s, end_s, parent index)
        self._stack: list[int] = []
        self._undo: list = []
        #: False while a pass replays cached results (its counters would
        #: count the same simulated work twice)
        self.counting = True
        self.counts = defaultdict(float)
        self.run_specs_calls: list = []

    # .. installation ..........................................................

    def install(self) -> None:
        from repro.bench import figures
        from repro.core import patterns
        from repro.core.tuning import Tuner
        from repro.exec import sweep
        from repro.exec.cache import ResultCache
        from repro.kernel.address_space import Buffer
        from repro.sim.engine import Simulator

        self._patch_function(figures, "run_experiment", "run_experiment")
        self._patch_function(sweep, "run_specs", "run_specs", self._after_run_specs)
        self._patch_function(patterns, "setup_buffers", "patterns.fill")
        self._patch_function(
            patterns, "verify_buffers", "patterns.verify", self._after_verify
        )
        calibrated = Tuner.__dict__["calibrated"].__func__
        self._set(Tuner, "calibrated", classmethod(self._wrap(calibrated, "tuning.calibrate")))
        for meth in ("get", "get_many"):
            self._patch_method(ResultCache, meth, "cache.get")
        for meth in ("put", "put_many"):
            self._patch_method(ResultCache, meth, "cache.put")
        self._patch_method(Simulator, "run_all", "sim.run_all", self._after_run_all, True)

        init = Buffer.__init__
        rec = self

        def counted_init(buf, space, addr, nbytes, *a, **kw):
            rec.counts["buffer_alloc_bytes"] += nbytes
            init(buf, space, addr, nbytes, *a, **kw)

        self._set(Buffer, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, name, after=None) -> None:
        """Rebind ``module.attr`` wherever a loaded ``repro`` module holds it."""
        orig = getattr(module, attr)
        wrapped = self._wrap(orig, name, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, attr, None) is orig
            ):
                self._set(mod, attr, wrapped)

    def _patch_method(self, cls, attr, name, after=None, pass_self=False) -> None:
        self._set(cls, attr, self._wrap(cls.__dict__[attr], name, after, pass_self))

    def _wrap(self, fn, name, after=None, pass_self=False):
        rec = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(idx)
            before = args[0].events_processed if pass_self else None
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[idx] = (name, start, time.perf_counter(), parent)
            if after is not None:
                after(args, result, before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # .. counts read at the boundaries ........................................

    def _after_run_specs(self, args, results, _) -> None:
        specs = list(args[0]) if args else []
        self.run_specs_calls.append(specs)
        if not self.counting:
            return
        for r in results:
            self.counts["cma_reads"] += getattr(r, "cma_reads", 0)
            self.counts["cma_writes"] += getattr(r, "cma_writes", 0)
            self.counts["ctrl_messages"] += getattr(r, "ctrl_messages", 0)

    def _after_verify(self, args, _result, _) -> None:
        recvbufs = args[3]
        self.counts["verified_bytes"] += sum(b.nbytes for b in recvbufs if b is not None)

    def _after_run_all(self, args, _result, before) -> None:
        self.counts["sim_events"] += args[0].events_processed - before

    # .. summaries ...............................................................

    def outermost(self, name: str) -> float:
        """Total seconds of ``name`` spans not nested in another ``name`` span."""
        total = 0.0
        for span in self.spans:
            if span is None or span[0] != name:
                continue
            p = span[3]
            nested = False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                total += span[2] - span[1]
        return total

    def chrome_events(self, t0: float) -> list[dict]:
        """Complete ("X") trace events, timed from ``t0``; ``args`` name
        each span's parent."""
        events = []
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent = span
            events.append({
                "name": name, "ph": "X", "tid": 0,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": i, "parent": parent,
                         "parent_name": self.spans[parent][0] if parent >= 0 else None},
            })
        return events


# -- cProfile layer attribution ---------------------------------------------------

#: reported layers; ``kernel.address_space`` is reported on its own and as
#: part of ``kernel``
LAYERS = (
    "sim.engine", "sim.resources", "sim.channels", "shm", "kernel.address_space",
    "kernel.other", "mpi", "core.algos", "core.tuning", "core.patterns", "exec",
)
OTHER = "unattributed"
_REPRO = str(REPRO_DIR) + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str):
    """The layer a source file belongs to; ``None`` outside the program."""
    if not filename.startswith(_REPRO):
        return OTHER if filename.startswith(_HERE) else None
    rel = filename[len(_REPRO):].replace(os.sep, "/")
    pkg, _, rest = rel.partition("/")
    if pkg == "sim":
        return {"resources.py": "sim.resources", "channels.py": "sim.channels"}.get(
            rest, "sim.engine"
        )
    if pkg == "shm":
        return "shm"
    if pkg == "kernel":
        return "kernel.address_space" if rest == "address_space.py" else "kernel.other"
    if pkg == "mpi":
        return "mpi"
    if pkg == "core":
        if rest == "patterns.py":
            return "core.patterns"
        if rest in ("tuning.py", "fitting.py", "model.py"):
            return "core.tuning"
        return "core.algos"
    if pkg == "exec":
        return "exec"
    return OTHER  # bench harness, machine tables, fault plans, ...


def layer_profile(stats: dict) -> dict:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    Returns ``{layer: seconds}`` over :data:`LAYERS` plus ``OTHER`` (the
    benchmark's own code, program modules outside the named layers, and
    outside code no program frame called).  The values sum to the
    profile's total self time.
    """
    memo: dict = {}

    def shares(func, visiting) -> dict:
        got = memo.get(func)
        if got is not None:
            return got
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        callers = stats[func][4] if func in stats else {}
        if func in visiting or not callers:
            return {OTHER: 1.0}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values()) or 1
        acc = defaultdict(float)
        visiting = visiting | {func}
        for caller, w in weights.items():
            for layer, s in shares(caller, visiting).items():
                acc[layer] += s * w / total
        memo[func] = dict(acc)
        return memo[func]

    out = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, s in shares(func, frozenset()).items():
            out[layer] += tt * s
    return out


def calls_of(stats: dict, fn) -> int:
    """cProfile call events of a Python function (a generator's resumes
    count one each); 0 when the function is gone or never ran."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return 0
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[1] if entry else 0


def calls_in_file(stats: dict, path: str) -> int:
    return sum(v[1] for k, v in stats.items() if k[0] == path)
