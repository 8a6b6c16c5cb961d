"""Typed active messages.

AM++ registers statically-typed message types with arbitrary handler
functions; handlers may freely send further messages (the distinguishing
feature called out in Sec. I of the paper).  This module provides the
Python equivalent: a :class:`MessageType` couples a name, a handler
``handler(ctx, payload)``, and an addressing rule that computes the
destination rank from the payload (object-based addressing, Sec. IV-D).

Payloads are plain tuples.  A payload's *slots* (its length) approximate
its wire size for statistics purposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

Handler = Callable[["HandlerContext", tuple], None]  # noqa: F821  (defined in transport)


@dataclass(frozen=True)
class Envelope:
    """One in-flight message: destination rank, type, payload tuple.

    ``trace`` is the telemetry side slot: the message's
    :class:`~repro.runtime.telemetry.Span` (scalar envelopes) or a tuple
    of per-payload spans (coalesced envelopes), attached at wire time
    when span tracing is on.  It is excluded from equality/repr so
    traced and untraced runs compare envelopes identically.
    """

    dest: int
    type_id: int
    payload: tuple
    src: int = -1  # -1 means injected by the driver, not a handler
    trace: Optional[Any] = field(default=None, repr=False, compare=False)

    def slots(self) -> int:
        return len(self.payload)


class MessageType:
    """A registered message type.

    Parameters
    ----------
    name:
        Unique name; also the statistics key.
    handler:
        ``handler(ctx, payload)`` invoked at the destination rank.  ``ctx``
        is a :class:`~repro.runtime.transport.HandlerContext`.
    address_of:
        Optional ``payload -> vertex`` used with the machine's owner map to
        compute the destination rank (object-based addressing).  Exactly one
        of ``address_of`` / ``dest_rank_of`` must be provided unless every
        ``send`` names an explicit destination.
    dest_rank_of:
        Optional ``payload -> rank`` computing the destination directly.
    """

    def __init__(
        self,
        name: str,
        handler: Handler,
        *,
        address_of: Optional[Callable[[tuple], int]] = None,
        dest_rank_of: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        if address_of is not None and dest_rank_of is not None:
            raise ValueError("give at most one of address_of / dest_rank_of")
        self.name = name
        self.handler = handler
        self.address_of = address_of
        self.dest_rank_of = dest_rank_of
        self.type_id: int = -1  # assigned at registration
        #: Optional vectorized delivery: ``batch_handler(ctx, payloads)``
        #: receives a whole coalesced envelope (a tuple of payload tuples)
        #: and must be observably equivalent to running ``handler`` once
        #: per payload.  Installed by the pattern executor when a plan is
        #: recognized as vectorizable (``fast_path="vector"``).
        self.batch_handler: Optional[Callable[["HandlerContext", tuple], None]] = None  # noqa: F821
        #: True when ``batch_handler``'s final result cannot depend on
        #: delivery order (a confluent min/max update): the transport may
        #: then hand it several queued column envelopes in one call
        #: (:meth:`~repro.runtime.transport.Transport.merge_room`).  Set by
        #: the pattern executor beside ``batch_handler``.
        self.order_free = False
        # Layers (coalescing / caching / reduction) installed on this type,
        # outermost first.  ``send`` traverses these before hitting the wire.
        self.layers: list[Any] = []

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MessageType({self.name!r}, id={self.type_id})"


class MessageRegistry:
    """Bidirectional name/id registry of message types for one machine."""

    def __init__(self) -> None:
        self._types: list[MessageType] = []
        self._by_name: dict[str, MessageType] = {}

    def add(self, mtype: MessageType) -> MessageType:
        if mtype.name in self._by_name:
            raise ValueError(f"message type {mtype.name!r} already registered")
        mtype.type_id = len(self._types)
        self._types.append(mtype)
        self._by_name[mtype.name] = mtype
        return mtype

    def by_id(self, type_id: int) -> MessageType:
        return self._types[type_id]

    def by_name(self, name: str) -> MessageType:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._types)

    def __len__(self) -> int:
        return len(self._types)
