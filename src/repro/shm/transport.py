"""Shared-memory transport: control messages and pipelined two-copy data.

Control messages model the tiny (pointer-sized) packets collectives use to
exchange buffer addresses and notifications: fixed ``t_ctrl`` delivery
latency, roughly half of it spent as sender-side software overhead.

Data messages model the classic chunked copy through a shared segment:
the sender copies ``shm_chunk``-byte pieces in (cost ``chunk*shm_beta``
plus per-chunk bookkeeping) and the receiver copies them out at the same
rate.  No kernel involvement, hence no mm-lock contention: this is why
shared-memory Bcast stays competitive below ~2 MB on Broadwell
(Section VII-F).

Each side of a transfer is one :class:`~repro.sim.engine.Stepper`:
``send_data``/``recv_data`` yield it once and get the byte count back.
On every resume of the process the engine asks the stepper for its next
command, one hop of the chunk protocol, and dispatches it as a yielded one:

=================  ==================================  ======================
sender state       on resume                           command returned
=================  ==================================  ======================
next chunk         ``_RING_SLOTS`` chunks in flight?   credit ``Recv``
                   else claim a segment slot           slot ``Acquire`` (a
                                                       grant, or a FIFO wait
                                                       on exhaustion)
                   after the last chunk: drain         ``Done(bytes sent)``
                   credits, then finish
credit matched     one chunk fewer in flight; as       as above
                   "next chunk"
slot granted       copy the chunk in                   ``Delay(n*shm_beta +
                                                       shm_chunk_overhead)``
copied in          post ``("shm-chunk", tag, seq)``    chunk ``Send``: deliver,
                                                       then resume (both
                                                       zero-delay)
=================  ==================================  ======================

=================  ==================================  ======================
receiver state     on resume                           command returned
=================  ==================================  ======================
next chunk         all bytes in? finish;               ``Done(bytes got)``
                   else wait for chunk ``seq``         chunk ``Recv``
chunk matched      copy the chunk out                  ``Delay`` as above
copied out         free the segment slot               slot ``Release``: FIFO
                                                       grant to a queued
                                                       sender, then resume
slot freed         credit the sender                   credit ``Send``
=================  ==================================  ======================

These are the commands, in order, that a per-chunk generator loop yields
(``tests/test_shm.py`` keeps that loop as the reference and compares the
two), so the records, their sequence numbers and their timestamps are
unchanged; what goes is the resume of the generator chain above the
transfer for every hop.  Each side builds its commands once per transfer
-- the slot ``Acquire``/``Release``, the credit ``Recv``/``Send``, the
chunk ``Send``/``Recv`` and the copy ``Delay`` of a full chunk -- and the
step sets the chunk command's tag (and payload) before handing it back;
the engine reads a command only while dispatching it.  Only a short last
chunk gets a ``Delay`` of its own.  Allocating every command per chunk
instead costs about a third of the gain (see DESIGN.md section 5).

``_RING_SLOTS = 1`` means the sender holds one chunk in flight: it claims
a slot and copies chunk ``k+1`` in only after the receiver has copied
chunk ``k`` out, freed its slot and returned the credit.  So copy-in of
one chunk never overlaps copy-out of the previous one -- on purpose: in
practice the two copies fight over the shared segment's cache lines, so
pipelining buys little, and the well-known "two-copy" cost of shared
memory (the reason kernel-assisted single-copy wins for large messages,
paper Section I) is paid in full.  The segment's slot pool is node-wide,
so concurrent transfers can still exhaust it and queue (see
:mod:`repro.shm.segment`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from repro.shm.segment import SegmentPool
from repro.sim.channels import Mailbox, Recv, Send
from repro.sim.engine import Delay, Done, Stepper

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.params import ModelParams
    from repro.sim.engine import Simulator

__all__ = ["ShmTransport", "CHUNK_TAGS"]

#: chunk slots per transfer: 1 == copy-in/copy-out fully serialized (see
#: module docstring for why two-copy cost is charged without overlap)
_RING_SLOTS = 1

#: tag namespaces so data chunks never collide with user control tags
CHUNK_TAGS = ("shm-chunk", "shm-credit")


class ShmTransport:
    """Node-wide shared-memory channel between local ranks."""

    def __init__(
        self,
        sim: "Simulator",
        params: "ModelParams",
        nranks: int,
        verify: bool = True,
    ):
        self.sim = sim
        self.params = params
        self.verify = verify
        self.mailboxes = [Mailbox(sim, owner=r) for r in range(nranks)]
        self.segment = SegmentPool(sim, params, params.shm_segment_slots)
        self.ctrl_messages = 0

    def reset(self) -> None:
        """Empty all mailboxes, restore segment slots, zero the ctrl count."""
        for mb in self.mailboxes:
            mb.reset()
        self.segment.reset()
        self.ctrl_messages = 0

    def mailbox(self, rank: int) -> Mailbox:
        return self.mailboxes[rank]

    # -- control plane ---------------------------------------------------------

    def ctrl_send(
        self, src: int, dst: int, tag: Any, payload: Any = None
    ) -> Send:
        """Command: post one small control message (addresses, ready, fin)."""
        self.ctrl_messages += 1
        t = self.params.t_ctrl
        return Send(
            self.mailboxes[dst],
            src=src,
            tag=tag,
            payload=payload,
            latency=t,
            overhead=t * 0.5,
        )

    def ctrl_send_flag(
        self, src: int, dst: int, tag: Any, payload: Any = None
    ) -> Send:
        """Command: a flag-store notification (release counter in the
        segment).  The writer pays nothing per watcher — readers poll —
        so unlike :meth:`ctrl_send` there is no sender-side overhead."""
        return Send(
            self.mailboxes[dst],
            src=src,
            tag=tag,
            payload=payload,
            latency=self.params.t_ctrl * 0.5,
            overhead=0.0,
        )

    def ctrl_recv(self, me: int, src: Any, tag: Any) -> Recv:
        """Command: block for a matching control message."""
        return Recv(self.mailboxes[me], src=src, tag=tag)

    # -- two-copy data plane ---------------------------------------------------

    def send_data(
        self,
        src: int,
        dst: int,
        tag: Any,
        data: Optional[np.ndarray],
        nbytes: int,
    ) -> Generator:
        """Copy ``nbytes`` into the segment chunk by chunk (sender side).

        ``data`` may be None in timing-only mode (``verify=False``).
        Flow control: at most ``_RING_SLOTS`` chunks in flight; the receiver
        returns credits as it drains them.  Returns the bytes sent.
        """
        if nbytes <= 0:
            return 0
        return (yield _SendStream(self, src, dst, tag, data, nbytes))

    def recv_data(
        self,
        me: int,
        src: int,
        tag: Any,
        out: Optional[np.ndarray],
        nbytes: int,
    ) -> Generator:
        """Receive a chunked shm transfer (receiver side); returns bytes."""
        if nbytes <= 0:
            return 0
        return (yield _RecvStream(self, me, src, tag, out, nbytes))


# Sender states: what the next resume of the process means.
_S_NEXT = 0     # chunk Send continued (or start): next chunk, or drain credits
_S_CREDIT = 1   # a credit Recv matched: one chunk fewer in flight
_S_SLOT = 2     # segment slot granted: copy the chunk in
_S_COPIED = 3   # copy-in elapsed: post the chunk

# Receiver states.
_R_NEXT = 0     # credit Send continued (or start): wait for the next chunk
_R_CHUNK = 1    # a chunk Recv matched: copy it out
_R_COPIED = 2   # copy-out elapsed: free the slot
_R_FREED = 3    # slot Release continued: credit the sender


class _SendStream(Stepper):
    """Sender side of one chunked transfer."""

    __slots__ = ("shm", "tag", "data", "nbytes", "credit", "acquire", "copy",
                 "chunk", "sent", "seq", "in_flight", "n", "state")

    def __init__(self, shm: ShmTransport, src: int, dst: int, tag: Any,
                 data: Optional[np.ndarray], nbytes: int):
        p = shm.params
        self.shm = shm
        self.tag = tag
        self.data = data
        self.nbytes = nbytes
        self.credit = Recv(shm.mailboxes[src], src=dst, tag=("shm-credit", tag))
        self.acquire = shm.segment.acquire_slot()
        self.copy = Delay(p.shm_chunk * p.shm_beta + p.shm_chunk_overhead)
        self.chunk = Send(shm.mailboxes[dst], src=src, tag=None)
        self.sent = 0
        self.seq = 0
        self.in_flight = 0
        self.n = 0
        self.state = _S_NEXT

    def step(self, value: Any) -> Any:
        state = self.state
        if state == _S_SLOT:
            p = self.shm.params
            n = self.n = min(p.shm_chunk, self.nbytes - self.sent)
            self.state = _S_COPIED
            if n == p.shm_chunk:
                return self.copy  # copy-in
            return Delay(n * p.shm_beta + p.shm_chunk_overhead)
        if state == _S_COPIED:
            n = self.n
            sent = self.sent
            payload = None
            if self.shm.verify and self.data is not None:
                payload = np.array(self.data[sent : sent + n], copy=True)
            cmd = self.chunk
            cmd.tag = ("shm-chunk", self.tag, self.seq)
            cmd.payload = (payload, n)
            self.in_flight += 1
            self.sent = sent + n
            self.seq += 1
            self.state = _S_NEXT
            return cmd
        if state == _S_CREDIT:
            self.in_flight -= 1
        if self.sent < self.nbytes:
            if self.in_flight < _RING_SLOTS:
                self.state = _S_SLOT
                return self.acquire
        elif not self.in_flight:
            return Done(self.sent)
        self.state = _S_CREDIT
        return self.credit


class _RecvStream(Stepper):
    """Receiver side of one chunked transfer."""

    __slots__ = ("shm", "tag", "out", "nbytes", "chunk", "copy", "release",
                 "credit", "got", "seq", "payload", "n", "state")

    def __init__(self, shm: ShmTransport, me: int, src: int, tag: Any,
                 out: Optional[np.ndarray], nbytes: int):
        p = shm.params
        self.shm = shm
        self.tag = tag
        self.out = out
        self.nbytes = nbytes
        self.chunk = Recv(shm.mailboxes[me], src=src, tag=None)
        self.copy = Delay(p.shm_chunk * p.shm_beta + p.shm_chunk_overhead)
        self.release = shm.segment.release_slot()
        self.credit = Send(shm.mailboxes[src], src=me, tag=("shm-credit", tag))
        self.got = 0
        self.seq = 0
        self.payload = None
        self.n = 0
        self.state = _R_NEXT

    def step(self, value: Any) -> Any:
        state = self.state
        if state == _R_NEXT:
            if self.got >= self.nbytes:
                return Done(self.got)
            cmd = self.chunk
            cmd.tag = ("shm-chunk", self.tag, self.seq)
            self.state = _R_CHUNK
            return cmd
        if state == _R_CHUNK:
            self.payload, n = value.payload
            self.n = n
            p = self.shm.params
            self.state = _R_COPIED
            if n == p.shm_chunk:
                return self.copy  # copy-out
            return Delay(n * p.shm_beta + p.shm_chunk_overhead)
        if state == _R_COPIED:
            payload = self.payload
            if self.shm.verify and self.out is not None and payload is not None:
                self.out[self.got : self.got + self.n] = payload
            self.payload = None
            self.state = _R_FREED
            return self.release
        # _R_FREED
        self.got += self.n
        self.seq += 1
        self.state = _R_NEXT
        return self.credit
