"""Tests for the shared-memory transport and control-plane collectives."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import make_generic
from repro.shm import ShmTransport, sm_allgather, sm_barrier, sm_bcast, sm_gather
from repro.shm.transport import _RING_SLOTS
from repro.sim import ANY, Delay, Recv, Send, Simulator


def make_shm(nranks, verify=True):
    sim = Simulator()
    params = make_generic(sockets=1, cores_per_socket=max(nranks, 2)).params
    return sim, ShmTransport(sim, params, nranks, verify=verify)


def run_ranks(sim, gens):
    procs = [sim.spawn(g, name=f"r{i}") for i, g in enumerate(gens)]
    sim.run_all(procs)
    return [p.result for p in procs]


class TestCtrl:
    def test_ctrl_roundtrip(self):
        sim, shm = make_shm(2)

        def sender():
            yield shm.ctrl_send(0, 1, "addr", payload=0xBEEF)

        def receiver():
            msg = yield shm.ctrl_recv(1, src=0, tag="addr")
            return msg.payload

        results = run_ranks(sim, [sender(), receiver()])
        assert results[1] == 0xBEEF
        assert shm.ctrl_messages == 1

    def test_ctrl_latency_accounted(self):
        sim, shm = make_shm(2)

        def sender():
            yield shm.ctrl_send(0, 1, "t")

        def receiver():
            yield shm.ctrl_recv(1, src=0, tag="t")
            return sim.now

        results = run_ranks(sim, [sender(), receiver()])
        assert results[1] == pytest.approx(shm.params.t_ctrl)


class TestDataPath:
    def test_data_bytes_arrive(self):
        sim, shm = make_shm(2)
        n = 50_000
        src = (np.arange(n) % 251).astype(np.uint8)
        dst = np.zeros(n, dtype=np.uint8)

        def sender():
            return (yield from shm.send_data(0, 1, "d", src, n))

        def receiver():
            return (yield from shm.recv_data(1, 0, "d", dst, n))

        sent, got = run_ranks(sim, [sender(), receiver()])
        assert sent == got == n
        assert np.array_equal(src, dst)

    def test_small_message_single_chunk(self):
        sim, shm = make_shm(2)
        src = np.full(100, 3, dtype=np.uint8)
        dst = np.zeros(100, dtype=np.uint8)

        def sender():
            yield from shm.send_data(0, 1, "d", src, 100)

        def receiver():
            yield from shm.recv_data(1, 0, "d", dst, 100)
            return sim.now

        _, t = run_ranks(sim, [sender(), receiver()])
        p = shm.params
        # two copies of 100 bytes plus two chunk overheads
        assert t == pytest.approx(2 * (100 * p.shm_beta + p.shm_chunk_overhead))

    def test_two_copy_cost_is_paid_in_full(self):
        """Large shm transfers cost ~2x one copy (no copy-in/out overlap)."""
        sim, shm = make_shm(2)
        n = 1 << 20

        def sender():
            yield from shm.send_data(0, 1, "d", None, n)

        def receiver():
            yield from shm.recv_data(1, 0, "d", None, n)
            return sim.now

        _, t = run_ranks(sim, [sender(), receiver()])
        p = shm.params
        nchunks = n / p.shm_chunk
        two_full_copies = 2 * (n * p.shm_beta + nchunks * p.shm_chunk_overhead)
        assert t == pytest.approx(two_full_copies, rel=0.02)

    def test_timing_only_mode_moves_no_bytes(self):
        sim, shm = make_shm(2, verify=False)
        src = np.full(100, 9, dtype=np.uint8)
        dst = np.zeros(100, dtype=np.uint8)

        def sender():
            yield from shm.send_data(0, 1, "d", src, 100)

        def receiver():
            yield from shm.recv_data(1, 0, "d", dst, 100)

        run_ranks(sim, [sender(), receiver()])
        assert not dst.any()

    def test_concurrent_transfers_distinct_tags(self):
        sim, shm = make_shm(3)
        n = 20_000
        a = np.full(n, 1, dtype=np.uint8)
        b = np.full(n, 2, dtype=np.uint8)
        da = np.zeros(n, dtype=np.uint8)
        db = np.zeros(n, dtype=np.uint8)

        def s0():
            yield from shm.send_data(0, 2, "a", a, n)

        def s1():
            yield from shm.send_data(1, 2, "b", b, n)

        def r():
            yield from shm.recv_data(2, 0, "a", da, n)
            yield from shm.recv_data(2, 1, "b", db, n)

        run_ranks(sim, [s0(), s1(), r()])
        assert (da == 1).all() and (db == 2).all()


class TestSmCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 13, 16])
    @pytest.mark.parametrize("root", [0, 1])
    def test_bcast_delivers_to_all(self, size, root):
        if root >= size:
            pytest.skip("root out of range")
        sim, shm = make_shm(size)

        def rank(r):
            val = "addr-table" if r == root else None
            got = yield from sm_bcast(shm, r, size, op=1, payload=val, root=root)
            return got

        results = run_ranks(sim, [rank(r) for r in range(size)])
        assert all(v == "addr-table" for v in results)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 12, 16])
    @pytest.mark.parametrize("root", [0, 2])
    def test_gather_collects_everything(self, size, root):
        if root >= size:
            pytest.skip("root out of range")
        sim, shm = make_shm(size)

        def rank(r):
            return (
                yield from sm_gather(shm, r, size, op=2, value=r * 10, root=root)
            )

        results = run_ranks(sim, [rank(r) for r in range(size)])
        assert results[root] == {r: r * 10 for r in range(size)}
        assert all(results[r] is None for r in range(size) if r != root)

    @pytest.mark.parametrize("size", [1, 2, 3, 6, 9, 16])
    def test_allgather(self, size):
        sim, shm = make_shm(size)

        def rank(r):
            return (yield from sm_allgather(shm, r, size, op=3, value=r))

        results = run_ranks(sim, [rank(r) for r in range(size)])
        expected = {r: r for r in range(size)}
        assert all(res == expected for res in results)

    @pytest.mark.parametrize("size", [2, 3, 5, 8, 16])
    def test_barrier_synchronizes(self, size):
        sim, shm = make_shm(size)
        from repro.sim import Delay

        after = []

        def rank(r):
            yield Delay(float(r))  # skewed arrival
            yield from sm_barrier(shm, r, size, op=4)
            after.append(sim.now)

        run_ranks(sim, [rank(r) for r in range(size)])
        # nobody exits the barrier before the last arrival
        assert min(after) >= size - 1

    def test_consecutive_ops_do_not_collide(self):
        size = 4
        sim, shm = make_shm(size)

        def rank(r):
            a = yield from sm_bcast(shm, r, size, op=10, payload="A" if r == 0 else None)
            b = yield from sm_bcast(shm, r, size, op=11, payload="B" if r == 0 else None)
            return (a, b)

        results = run_ranks(sim, [rank(r) for r in range(size)])
        assert all(res == ("A", "B") for res in results)

    def test_bcast_cost_is_logarithmic(self):
        def bcast_time(size):
            sim, shm = make_shm(size)

            def rank(r):
                yield from sm_bcast(shm, r, size, op=1, payload=0 if r == 0 else None)
                return sim.now

            return max(run_ranks(sim, [rank(r) for r in range(size)]))

        t8, t64 = bcast_time(8), bcast_time(64)
        # doubling rounds (3 -> 6), not 8x cost
        assert t64 < 3 * t8


@settings(max_examples=30, deadline=None)
@given(size=st.integers(min_value=1, max_value=24), root=st.integers(min_value=0, max_value=23))
def test_property_bcast_any_size_any_root(size, root):
    root %= size
    sim, shm = make_shm(size)

    def rank(r):
        return (
            yield from sm_bcast(
                shm, r, size, op=9, payload=("x", root) if r == root else None, root=root
            )
        )

    results = run_ranks(sim, [rank(r) for r in range(size)])
    assert all(v == ("x", root) for v in results)


@settings(max_examples=30, deadline=None)
@given(size=st.integers(min_value=1, max_value=24), root=st.integers(min_value=0, max_value=23))
def test_property_gather_any_size_any_root(size, root):
    root %= size
    sim, shm = make_shm(size)

    def rank(r):
        return (yield from sm_gather(shm, r, size, op=9, value=r ** 2, root=root))

    results = run_ranks(sim, [rank(r) for r in range(size)])
    assert results[root] == {r: r ** 2 for r in range(size)}


# -- stepped transfers vs the generator reference ------------------------------
#
# ``send_data``/``recv_data`` run each transfer side as one engine-stepped
# command.  The generator loops below are the reference they replaced: one
# ``yield`` per chunk hop.  Both must produce the same event stream.


def ref_send_data(shm, src, dst, tag, data, nbytes):
    p = shm.params
    chunk = p.shm_chunk
    sent = 0
    seq = 0
    in_flight = 0
    while sent < nbytes:
        n = min(chunk, nbytes - sent)
        if in_flight >= _RING_SLOTS:
            yield Recv(shm.mailboxes[src], src=dst, tag=("shm-credit", tag))
            in_flight -= 1
        yield shm.segment.acquire_slot()
        yield Delay(n * p.shm_beta + p.shm_chunk_overhead)
        payload = None
        if shm.verify and data is not None:
            payload = np.array(data[sent : sent + n], copy=True)
        yield Send(
            shm.mailboxes[dst],
            src=src,
            tag=("shm-chunk", tag, seq),
            payload=(payload, n),
            latency=0.0,
        )
        in_flight += 1
        sent += n
        seq += 1
    while in_flight > 0:
        yield Recv(shm.mailboxes[src], src=dst, tag=("shm-credit", tag))
        in_flight -= 1
    return sent


def ref_recv_data(shm, me, src, tag, out, nbytes):
    p = shm.params
    got = 0
    seq = 0
    while got < nbytes:
        msg = yield Recv(shm.mailboxes[me], src=src, tag=("shm-chunk", tag, seq))
        payload, n = msg.payload
        yield Delay(n * p.shm_beta + p.shm_chunk_overhead)
        if shm.verify and out is not None and payload is not None:
            out[got : got + n] = payload
        yield shm.segment.release_slot()
        yield Send(shm.mailboxes[src], src=me, tag=("shm-credit", tag), latency=0.0)
        got += n
        seq += 1
    return got


CHUNK = 64
DATA_RANKS = 3
MAX_CTRLS = 3
#: control message j comes from rank DATA_RANKS + j, which sends no data:
#: each wildcard receive matches its own message and never a data chunk


def run_transfers(impl, slots, transfers, ctrls, verify, use_ready):
    """Run concurrent transfers plus wildcard control receives; return
    everything observable about the run."""
    params = replace(
        make_generic(sockets=1, cores_per_socket=4).params,
        shm_chunk=CHUNK,
        shm_segment_slots=slots,
    )
    sim = Simulator(use_ready_queue=use_ready)
    shm = ShmTransport(sim, params, DATA_RANKS + MAX_CTRLS, verify=verify)
    if impl == "stepped":
        send, recv = shm.send_data, shm.recv_data
    else:
        def send(*a):
            return ref_send_data(shm, *a)

        def recv(*a):
            return ref_recv_data(shm, *a)

    def sender(tag, src, dst, data, n, delay):
        yield Delay(delay)
        return (yield from send(src, dst, tag, data, n))

    def receiver(tag, src, dst, out, n, delay):
        yield Delay(delay)
        return (yield from recv(dst, src, tag, out, n))

    def waiter(j, rank, any_src, delay):
        yield Delay(delay)
        if any_src:
            msg = yield Recv(shm.mailboxes[rank], src=ANY, tag=("ctrl", j))
        else:
            msg = yield Recv(shm.mailboxes[rank], src=DATA_RANKS + j, tag=ANY)
        return (msg.src, msg.tag)

    def poster(j, rank, delay):
        yield Delay(delay)
        yield shm.ctrl_send(DATA_RANKS + j, rank, ("ctrl", j))

    procs, outs = [], []
    for i, (src, dst, n, ds, dr) in enumerate(transfers):
        # transfers between different rank pairs share tags, so chunks and
        # credits are told apart by their source alone
        tag = ("t", sum(t[:2] == (src, dst) for t in transfers[:i]))
        data = ((np.arange(n) * 7 + i) % 251).astype(np.uint8)
        out = np.zeros(n, dtype=np.uint8)
        outs.append(out)
        procs.append(sim.spawn(sender(tag, src, dst, data, n, ds), name=f"s{i}"))
        procs.append(sim.spawn(receiver(tag, src, dst, out, n, dr), name=f"r{i}"))
    for j, (rank, any_src, dw, dp) in enumerate(ctrls):
        procs.append(sim.spawn(waiter(j, rank, any_src, dw), name=f"w{j}"))
        procs.append(sim.spawn(poster(j, rank, dp), name=f"p{j}"))
    sim.run_all(procs)
    sem = shm.segment._sem
    return {
        "finish": [p.finish_time for p in procs],
        "results": [p.result for p in procs],
        "events": sim.events_processed,
        "sem": (sem.acquisitions, sem.total_wait_us, sem.max_waiters, sem.in_use),
        "delivered": [mb.delivered for mb in shm.mailboxes],
        "pending": [mb.pending for mb in shm.mailboxes],
        "bytes": [o.tobytes() for o in outs],
    }


_sizes = st.one_of(
    st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1]),
    st.builds(
        lambda k, r: k * CHUNK + r,
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=CHUNK - 1),
    ),
)
_delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 7.25])
_pairs = st.sampled_from(
    [(a, b) for a in range(DATA_RANKS) for b in range(DATA_RANKS) if a != b]
)
_transfers = st.lists(
    st.tuples(_pairs, _sizes, _delays, _delays).map(
        lambda t: (t[0][0], t[0][1], t[1], t[2], t[3])
    ),
    min_size=1,
    max_size=6,
)
_ctrls = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=DATA_RANKS - 1),
        st.booleans(),
        _delays,
        _delays,
    ),
    max_size=MAX_CTRLS,
)


@settings(max_examples=120, deadline=None)
@given(
    slots=st.integers(min_value=1, max_value=2),
    transfers=_transfers,
    ctrls=_ctrls,
    verify=st.booleans(),
    use_ready=st.booleans(),
)
def test_stepped_transfers_match_generator_reference(
    slots, transfers, ctrls, verify, use_ready
):
    args = (slots, transfers, ctrls, verify, use_ready)
    stepped = run_transfers("stepped", *args)
    ref = run_transfers("reference", *args)
    assert stepped == ref
    assert stepped["results"][: 2 * len(transfers) : 2] == [t[2] for t in transfers]
    if verify:
        for i, (_, _, n, _, _) in enumerate(transfers):
            want = ((np.arange(n) * 7 + i) % 251).astype(np.uint8)
            assert stepped["bytes"][i] == want.tobytes()


def test_slot_exhaustion_blocks_senders_identically():
    """Four multi-chunk senders on one slot: the pool runs dry, senders
    queue on it, and both implementations queue them the same way."""
    transfers = [(0, 1, 3 * CHUNK + 5, 0.0, 0.0), (2, 1, 2 * CHUNK, 0.0, 0.5),
                 (1, 0, CHUNK + 1, 0.0, 0.0), (0, 2, 4 * CHUNK, 0.5, 0.0)]
    ctrls = [(1, True, 0.0, 7.25), (0, False, 0.0, 1.0)]
    for use_ready in (True, False):
        stepped = run_transfers("stepped", 1, transfers, ctrls, True, use_ready)
        ref = run_transfers("reference", 1, transfers, ctrls, True, use_ready)
        assert stepped == ref
        acquisitions, wait_us, max_waiters, in_use = stepped["sem"]
        assert max_waiters >= 2 and wait_us > 0
        assert acquisitions == sum(-(-t[2] // CHUNK) for t in transfers)
        assert in_use == 0


def test_empty_transfer_returns_without_yielding():
    sim, shm = make_shm(2)
    for gen in (shm.send_data(0, 1, "d", None, 0), shm.recv_data(1, 0, "d", None, 0)):
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == 0


def test_stepped_transfer_failure_fails_the_process():
    """A protocol error inside a step (here: a slot released past the
    pool's capacity) fails the process like a raise at the old yield."""
    sim, shm = make_shm(2)

    def rogue():
        # a chunk nobody acquired a slot for: the receiver's release
        # overflows the semaphore
        yield Send(shm.mailboxes[1], src=0, tag=("shm-chunk", "d", 0),
                   payload=(None, 10))

    def receiver():
        return (yield from shm.recv_data(1, 0, "d", None, 10))

    r = sim.spawn(rogue(), name="rogue")
    p = sim.spawn(receiver(), name="rx")
    with pytest.raises(Exception, match="release past capacity"):
        sim.run_all([r, p])
    assert p.stream is None
