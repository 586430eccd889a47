"""Live-stream bookkeeping: one :class:`StreamSession` per connection.

The serve tier needs a durable answer to "what is this server doing
right now": which tenants hold streams, how far along each stream is,
how much detector state it pins, and which lifecycle stage it is in
(handshaking, active, evicted to disk, draining, closed).  The
:class:`SessionManager` owns that registry, enforces the *global*
connection ceiling, and delegates per-tenant stream ceilings to the
:class:`~repro.serve.quotas.QuotaManager` -- admission raises
:class:`~repro.serve.quotas.Overloaded`, which the driver turns into the
explicit ``error Overloaded: ...`` wire reply.

Tenancy is derived from the stream id the client already sends for crash
recovery (``# stream-id: <tenant>.<stream>``): the part before the first
dot names the tenant, an id without a dot is its own tenant, and
anonymous connections (no directive) share the ``"-"`` tenant.  No new
wire syntax -- multi-tenancy rides on the PR 5 handshake.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional

from repro.serve.quotas import Overloaded, QuotaManager
from repro.vectorclock.registry import ThreadRegistry

__all__ = ["StreamSession", "SessionManager", "tenant_of"]

#: Tenant shared by connections that never send a ``# stream-id:`` line.
ANONYMOUS_TENANT = "-"

#: Lifecycle states a session moves through, in order (eviction loops
#: back to ``active`` on restore).
STATES = ("handshake", "active", "evicted", "draining", "closed")


def tenant_of(stream_id: Optional[str]) -> str:
    """Derive the tenant from a stream id (prefix before the first dot)."""
    if not stream_id:
        return ANONYMOUS_TENANT
    return stream_id.split(".", 1)[0]


class StreamSession:
    """One live connection's identity, counters and lifecycle state.

    Created at accept time with the anonymous tenant; the driver rebinds
    tenant/stream id once the handshake line is read (see
    :meth:`SessionManager.bind_stream`).  The session's
    :class:`~repro.vectorclock.registry.ThreadRegistry` is the pass's
    interning table and *survives eviction*: a restored detector
    re-interns its snapshot name table against it, which is what keeps
    the pre-stamped tids on in-flight events valid across an
    evict/restore cycle.
    """

    def __init__(self, session_id: int, tenant: str = ANONYMOUS_TENANT,
                 label: str = "client") -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.stream_id: Optional[str] = None
        self.label = label
        self.state = "handshake"
        self.registry = ThreadRegistry()
        self.events = 0
        self.bytes = 0
        self.evictions = 0
        self.restores = 0
        self.detector_memory_bytes = 0
        self.started = time.monotonic()
        self.last_activity = self.started
        #: Filled by the driver: the final EngineResult, or the error
        #: that ended the session.
        self.result = None
        self.error: Optional[str] = None
        #: Decoded events waiting in the driver's hand-off queue.
        self.queue_depth = 0

    def note_events(self, events: int = 1, bytes_: int = 0) -> None:
        """Advance the activity clock and the event/byte counters."""
        self.events += events
        self.bytes += bytes_
        self.last_activity = time.monotonic()

    def idle_for(self, now: Optional[float] = None) -> float:
        """Seconds since the last event (or since accept)."""
        return (time.monotonic() if now is None else now) - self.last_activity

    def to_dict(self) -> dict:
        """JSON shape for the metrics endpoint's session listing."""
        return {
            "id": self.session_id,
            "tenant": self.tenant,
            "stream_id": self.stream_id,
            "state": self.state,
            "events": self.events,
            "bytes": self.bytes,
            "queue_depth": self.queue_depth,
            "evictions": self.evictions,
            "restores": self.restores,
            "detector_memory_bytes": self.detector_memory_bytes,
            "idle_s": round(self.idle_for(), 3),
            "age_s": round(time.monotonic() - self.started, 3),
        }

    def __repr__(self) -> str:
        return "StreamSession(#%d, tenant=%r, stream=%r, %s, events=%d)" % (
            self.session_id, self.tenant, self.stream_id, self.state,
            self.events,
        )


class SessionManager:
    """The registry of live sessions plus admission control.

    Admission is two-staged, mirroring when the information becomes
    available: the *global* connection ceiling is checked at accept time
    (:meth:`open_session`, before a single byte is read), the
    *per-tenant* stream ceiling once the handshake has named the tenant
    (:meth:`bind_stream`).  Both stages raise
    :class:`~repro.serve.quotas.Overloaded` instead of queueing -- the
    serve tier sheds explicitly, it never stalls silently.
    """

    def __init__(self, max_connections: Optional[int] = None,
                 quotas: Optional[QuotaManager] = None) -> None:
        self.max_connections = max_connections
        self.quotas = quotas or QuotaManager()
        self._sessions: Dict[int, StreamSession] = {}
        self._ids = itertools.count(1)

    # -- admission ------------------------------------------------------- #

    def open_session(self, label: str = "client") -> StreamSession:
        """Stage 1: global ceiling; registers and returns the session."""
        if (
            self.max_connections is not None
            and len(self._sessions) >= self.max_connections
        ):
            raise Overloaded(
                "server at max connections (%d)" % self.max_connections
            )
        session = StreamSession(next(self._ids), label=label)
        self._sessions[session.session_id] = session
        return session

    def bind_stream(self, session: StreamSession,
                    stream_id: Optional[str]) -> None:
        """Stage 2: per-tenant ceiling, once the handshake named the tenant.

        On rejection the session stays registered (the driver releases
        it on the way out) but is never marked active.
        """
        tenant = tenant_of(stream_id)
        session.tenant = tenant
        session.stream_id = stream_id
        self.quotas.admit_stream(tenant, self.tenant_count(tenant, session))
        session.state = "active"

    def release(self, session: StreamSession) -> None:
        """Unregister ``session``; idempotent."""
        session.state = "closed"
        self._sessions.pop(session.session_id, None)

    # -- queries --------------------------------------------------------- #

    def tenant_count(self, tenant: str,
                     excluding: Optional[StreamSession] = None) -> int:
        """Live sessions bound to ``tenant`` (optionally minus one)."""
        return sum(
            1 for session in self._sessions.values()
            if session.tenant == tenant and session is not excluding
            and session.state != "handshake"
        )

    def active_count(self) -> int:
        return len(self._sessions)

    def queue_depth(self) -> int:
        """Buffered-but-unprocessed events across every live session."""
        return sum(
            session.queue_depth for session in self._sessions.values()
        )

    def live(self) -> List[StreamSession]:
        return sorted(
            self._sessions.values(), key=lambda session: session.session_id
        )

    def __repr__(self) -> str:
        return "SessionManager(active=%d, max_connections=%r)" % (
            len(self._sessions), self.max_connections,
        )
