"""Tagged mailboxes for inter-process messages.

These carry *control* traffic (buffer addresses, ready/fin notifications,
RTS/CTS rendezvous packets).  Transfer cost is whatever latency the caller
passes to ``Send``; the shared-memory transport layer decides that number.
Matching follows MPI semantics: a receive selects the oldest message whose
(source, tag) match, with ``ANY`` wildcards.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

# The message commands live in the engine, which open-codes them in its
# run loop; they are re-exported here next to the mailboxes they target.
from repro.sim.engine import ANY, Message, Recv, Send

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimProcess, Simulator

__all__ = ["ANY", "Message", "Mailbox", "Send", "Recv"]


def _matches(msg: Message, src: Any, tag: Any) -> bool:
    return (src is ANY or msg.src == src) and (tag is ANY or msg.tag == tag)


class Mailbox:
    """Per-process queue of unexpected messages plus posted receives."""

    __slots__ = ("sim", "owner", "_queue", "_posted", "delivered")

    def __init__(self, sim: "Simulator", owner: int):
        self.sim = sim
        self.owner = owner
        self._queue: deque[Message] = deque()
        # posted receives: (proc, src, tag)
        self._posted: deque[tuple["SimProcess", Any, Any]] = deque()
        self.delivered = 0

    def deliver(self, msg: Message) -> None:
        """Called by the engine when a message arrives at this mailbox."""
        self.delivered += 1
        for i, (proc, src, tag) in enumerate(self._posted):
            if _matches(msg, src, tag):
                del self._posted[i]
                self.sim._schedule_resume(0.0, proc, msg)
                return
        self._queue.append(msg)

    def _post(self, proc: "SimProcess", src: Any, tag: Any) -> None:
        for i, msg in enumerate(self._queue):
            if _matches(msg, src, tag):
                del self._queue[i]
                self.sim._schedule_resume(0.0, proc, msg)
                return
        self._posted.append((proc, src, tag))

    def reset(self) -> None:
        """Drop queued/posted messages and the delivery counter."""
        self._queue.clear()
        self._posted.clear()
        self.delivered = 0

    @property
    def pending(self) -> int:
        return len(self._queue)
