"""Send and receive buffers for intra-process staging.

Each explorer/learner process maintains a send buffer and a receive buffer
(§3.2.1).  The workhorse threads only ever touch these local buffers — the
sender/receiver threads move data between the buffers and the broker's
communicator.

Both are a :class:`MessageBuffer`: whole messages on a two-lane
:class:`~repro.core.flowcontrol.LaneChannel`, so monitoring threads block on
``get`` and wake event-driven the moment a message arrives (§4.1).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from .config import FlowControlSpec
from .errors import BufferClosedError
from .flowcontrol import TERMINAL_SHED, LaneChannel, lane_of
from .message import TYPE, Message


class MessageBuffer:
    """A closeable blocking buffer of whole messages.

    Queued control messages (WEIGHTS/COMMAND/HEARTBEAT/STATS) are handed
    out before queued bulk ones; each lane is FIFO.  ``spec`` sets the
    lanes' watermarks (docs/FLOW_CONTROL.md): a send buffer built from one
    blocks a control ``put`` at the watermark — up to the deadline, then
    :class:`~repro.core.errors.BackpressureError`; this is where
    backpressure reaches the workhorse — and sheds its oldest staged bulk
    message, reporting each to ``on_shed``.  A staged message holds no
    object-store share, so a shed loses only the message itself; a
    *delivered* one may — a body leased from a shared-memory store pins its
    block until it is dropped — so a receive buffer is emptied when its
    endpoint stops.  Without a spec nothing is ever shed or blocked.
    """

    def __init__(
        self,
        name: str = "",
        spec: Optional[FlowControlSpec] = None,
        *,
        on_shed: Optional[Callable[[Message], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self._on_shed = on_shed
        self._deadline = None if spec is None else spec.control_deadline_s
        self._channel = LaneChannel.from_spec(
            f"buffer.{name}", spec, on_drop=self._dropped, clock=clock
        )

    def _dropped(self, outcome: str, messages: Sequence[Message]) -> None:
        # Expired and rejected puts reach the producer as exceptions.
        if outcome == TERMINAL_SHED and self._on_shed is not None:
            for message in messages:
                self._on_shed(message)

    def put(self, message: Message) -> None:
        """Stage one message; raises like :meth:`put_many`."""
        if not self._channel.offer(
            message, lane_of(message.header[TYPE]), deadline_s=self._deadline
        ):
            raise BufferClosedError(f"buffer {self.name!r} is closed")

    def put_many(self, messages: Sequence[Message]) -> None:
        """Stage several messages under one lock acquisition.

        Raises :class:`~repro.core.errors.BufferClosedError` (a
        ``RuntimeError``) on a closed buffer — including a blocked control
        put woken by ``close()`` — which shutdown paths treat as the end of
        the world.
        """
        admitted = self._channel.offer_many(
            messages,
            [lane_of(message.header[TYPE]) for message in messages],
            deadline_s=self._deadline,
        )
        if admitted < len(messages):
            raise BufferClosedError(f"buffer {self.name!r} is closed")

    def get(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Blocking fetch; returns ``None`` on timeout or once the buffer is
        closed and drained."""
        return self._channel.take(timeout=timeout)

    def get_many(
        self, max_items: int, timeout: Optional[float] = None
    ) -> List[Message]:
        """One blocking :meth:`get` plus a same-lock drain up to
        ``max_items`` — the sender thread's per-wakeup batch."""
        return self._channel.take_many(max_items, timeout=timeout)

    def get_nowait(self) -> Optional[Message]:
        return self._channel.take(timeout=0.0)

    def drain(self) -> List[Message]:
        """Pop every currently-queued message without blocking."""
        return self._channel.drain()

    def empty(self) -> bool:
        return self._channel.qsize() == 0

    def qsize(self) -> int:
        return self._channel.qsize()

    def flow_stats(self) -> Dict[str, float]:
        return self._channel.flow_stats()

    def close(self) -> None:
        """Wake all blocked getters and putters; ``get`` returns ``None``
        once the buffer is drained of queued messages."""
        self._channel.close()

    @property
    def closed(self) -> bool:
        return self._channel.closed
