"""Capture the engine-parity golden fixture.

Records simulated-microsecond results for slices of Fig. 3 (one-to-all CMA
microbenchmarks), Fig. 7 (scatter collectives, verified bytes), Table IV
(the NLLS fitting pipeline), two traced mapped-window (xpmem lane)
collectives, and the two-copy shared-memory data path (every registered
algorithm that moves bytes through ``ShmTransport.send_data``, plus the
CMA -> shm fallback) into ``engine_parity.json``.  The
fixture pins the engine's *simulated-time* behaviour: any optimisation of
the event loop, the resources, or the kernel fast paths must reproduce
these numbers bit-for-bit (``tests/test_engine_golden.py``).

Regenerate only when a change is *supposed* to alter simulated results —
which also means bumping ``repro.exec.cache.CACHE_VERSION``::

    PYTHONPATH=src python tests/golden/capture.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("engine_parity.json")

FIG03_POINTS = [
    (arch, readers, nbytes)
    for arch in ("knl", "broadwell", "power8")
    for readers in (1, 4, 8)
    for nbytes in (16 * 1024, 256 * 1024, 1 << 20)
] + [("knl", 32, 256 * 1024)]

FIG07_SPECS = [
    (alg, params, eta)
    for eta in (16 * 1024, 256 * 1024)
    for alg, params in (
        ("parallel_read", {}),
        ("sequential_write", {}),
        ("throttled_read", {"k": 4}),
    )
]

#: Mapped-window lane traces: the per-phase aggregates pin the fault-in
#: convoy, the attach/map charging, and the pin-free steady-state copies.
XPMEM_SPECS = [
    ("scatter", "xpmem_read", 64 * 1024),
    ("bcast", "xpmem_read", 256 * 1024),
]


#: Two-copy shm lane: (collective, algorithm, params) for every registered
#: algorithm whose data rides ``ShmTransport.send_data``/``recv_data``.
SHM_ALGS = [
    ("scatter", "binomial_p2p", {"threshold": 1 << 62}),
    ("gather", "binomial_p2p", {"threshold": 1 << 62}),
    ("bcast", "binomial_p2p", {"threshold": 1 << 62}),
    ("allgather", "ring_p2p", {"threshold": 1 << 62}),
    ("alltoall", "pairwise_shm", {}),
]
#: one single-chunk and one multi-chunk size (``shm_chunk`` is 8 KiB)
SHM_ETAS = (4096, 20_000)
SHM_ARCHS = ("knl", "broadwell")
#: CMA -> shm fallback: an EPERM on the first CMA call routes the transfer
#: through ``Comm._fallback_transfer``, whose helper process runs a bare
#: ``send_data`` (read direction) or ``recv_data`` (write direction).
SHM_FALLBACKS = [
    ("scatter", "parallel_read", 16 * 1024),
    ("scatter", "sequential_write", 16 * 1024),
]


def _shm_record(res) -> dict:
    return {
        "latency_us": res.latency_us,
        "per_rank_us": res.per_rank_us,
        "ctrl_messages": res.ctrl_messages,
        "sim_events": res.sim_events,
    }


def capture_shm() -> dict:
    from repro.core.runner import CollectiveSpec, run_collective
    from repro.faults import FaultPlan, FaultSpec
    from repro.machine import get_arch

    shm = {}
    for arch in SHM_ARCHS:
        for coll, alg, params in SHM_ALGS:
            for eta in SHM_ETAS:
                spec = CollectiveSpec(
                    coll, alg, get_arch(arch), procs=12, eta=eta, params=params
                )
                shm[f"{arch}/{coll}/{alg}/{eta}"] = _shm_record(run_collective(spec))
    plan = FaultPlan(seed=0, specs=(FaultSpec("eperm", calls=(0,)),))
    for coll, alg, eta in SHM_FALLBACKS:
        spec = CollectiveSpec(
            coll, alg, get_arch("knl"), procs=12, eta=eta, faults=plan
        )
        res = run_collective(spec)
        rec = _shm_record(res)
        rec["fallbacks"] = res.fallbacks
        shm[f"knl/fallback/{coll}/{alg}/{eta}"] = rec
    return shm


def capture() -> dict:
    from repro.bench.microbench import one_to_all_latency
    from repro.core.fitting import fit_architecture
    from repro.core.runner import CollectiveSpec, run_collective
    from repro.machine import get_arch

    fig03 = {}
    for arch, readers, nbytes in FIG03_POINTS:
        lat = one_to_all_latency(get_arch(arch), readers, nbytes)
        fig03[f"{arch}/{readers}r/{nbytes}"] = lat

    fig07 = {}
    for alg, params, eta in FIG07_SPECS:
        spec = CollectiveSpec(
            "scatter", alg, get_arch("knl"), procs=12, eta=eta, params=params
        )
        res = run_collective(spec)
        fig07[f"{alg}/{eta}"] = {
            "latency_us": res.latency_us,
            "per_rank_us": res.per_rank_us,
            "ctrl_messages": res.ctrl_messages,
            "cma_reads": res.cma_reads,
            "cma_writes": res.cma_writes,
        }

    xpmem = {}
    for coll, alg, eta in XPMEM_SPECS:
        spec = CollectiveSpec(
            coll, alg, get_arch("knl"), procs=12, eta=eta, trace=True
        )
        res = run_collective(spec)
        xpmem[f"{coll}/{alg}/{eta}"] = {
            "latency_us": res.latency_us,
            "per_rank_us": res.per_rank_us,
            "ctrl_messages": res.ctrl_messages,
            "sim_events": res.sim_events,
            "xpmem_reads": res.xpmem_reads,
            "xpmem_writes": res.xpmem_writes,
            "xpmem_attaches": res.xpmem_attaches,
            "xpmem_page_faults": res.xpmem_page_faults,
            "trace_by_phase": res.trace_by_phase,
        }

    fit = fit_architecture(
        get_arch("broadwell"), page_counts=(10, 20), reader_counts=[1, 2, 4, 8]
    )
    tab04 = {
        "alpha": fit.base.alpha,
        "beta": fit.base.beta,
        "l_page": fit.base.l_page,
        "page_size": fit.base.page_size,
        "g1": fit.gamma.g1,
        "g2": fit.gamma.g2,
        "spill": fit.gamma.spill,
        "knee": fit.gamma.knee,
        "residual": fit.gamma.residual,
        "samples": [
            [s.pages, s.readers, s.gamma] for s in fit.samples
        ],
    }

    return {
        "fig03": fig03,
        "fig07": fig07,
        "tab04": tab04,
        "xpmem": xpmem,
        "shm": capture_shm(),
    }


def main() -> None:
    data = capture()
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
