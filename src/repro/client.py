"""Resilient streaming client for the serve tier.

The serve tier already speaks a recovery dialect -- ``error Overloaded:
...; retry after <n>s`` admission pushback, ``error Draining: ...``
shutdown refusals, and the ``# stream-id:`` / ``resume <offset>``
checkpoint handshake -- but until this module no shipped client honored
any of it.  :class:`RaceClient` closes the loop:

* **connect resilience** -- connect/handshake/write/read timeouts,
  bounded reconnect attempts with exponential backoff plus jitter, and a
  typed :class:`RetriesExhausted` when the budget is spent;
* **admission pushback** -- ``Overloaded`` replies are parsed for their
  ``retry after <n>s`` hint and honored verbatim; ``Draining`` replies
  back off and retry against the (restarted) endpoint;
* **mid-stream recovery** -- pushes carrying a ``stream_id`` ride the
  server-side checkpoint handshake: after any disconnect the client
  reconnects, reads the authoritative ``resume <offset>`` reply, skips
  the first ``offset`` event lines and replays the rest, so the final
  response is byte-identical to an undisturbed push (asserted by
  ``tests/test_client.py`` across resets, stalls, refusals and a full
  server drain/restart);
* **determinism** -- refuse/reset/stall faults from
  :mod:`repro.engine.faults` are injected at exact ordinals, so every
  recovery path above is exercised by the fault harness rather than by
  luck.

``push_trace`` is the one-call convenience wrapper; the CLI exposes the
same machinery as ``repro push``.
"""

from __future__ import annotations

import random
import re
import socket
import struct
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

__all__ = [
    "PushError",
    "PushOutcome",
    "RaceClient",
    "RetriesExhausted",
    "push_trace",
]

_RETRY_AFTER = re.compile(r"retry after (\d+)\s*s")

#: Largest write the client hands to one ``sendall`` (the server's read
#: size), unless a single line is longer.
SEND_BYTES = 1 << 16


class PushError(RuntimeError):
    """The server answered with a non-retryable ``error`` reply.

    Raised immediately -- validation and parse rejections are
    deterministic, so resending the identical stream can only waste the
    server's admission slots.
    """


class RetriesExhausted(PushError):
    """The reconnect/retry budget is spent; the last failure is attached."""

    def __init__(self, message: str, last_error: Optional[BaseException]) -> None:
        super().__init__(message)
        self.last_error = last_error


class _Busy(Exception):
    """Internal: server said Overloaded; honor its retry-after hint."""

    def __init__(self, retry_after_s: Optional[float]) -> None:
        super().__init__("overloaded")
        self.retry_after_s = retry_after_s


class _Drained(Exception):
    """Internal: server is shutting down (possibly mid-stream)."""


class _LineReader:
    """Buffered line reads over a blocking socket (honors settimeout)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = b""

    def readline(self) -> bytes:
        """One ``\\n``-terminated line; b"" on EOF (partial tail returned)."""
        while b"\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                tail, self._buffer = self._buffer, b""
                return tail
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line + b"\n"


class PushOutcome:
    """A completed push: verbatim response lines plus their parsed form."""

    def __init__(self, lines: List[str]) -> None:
        #: The server's response lines, newline-stripped, in wire order.
        self.lines = list(lines)
        #: Detector name -> (distinct races, raw race count).
        self.races: Dict[str, tuple] = {}
        #: Events the server processed (from the ``done`` line).
        self.events = 0
        for line in lines:
            parts = line.split()
            if len(parts) == 2 and parts[0] == "done":
                self.events = int(parts[1])
            elif len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
                self.races[parts[0]] = (int(parts[1]), int(parts[2]))

    def has_race(self) -> bool:
        return any(distinct for distinct, _ in self.races.values())

    def __repr__(self) -> str:
        return "PushOutcome(events=%d, races=%r)" % (self.events, self.races)


def _line_provider(
    lines: Union[str, Path, Iterable[str], Callable[[], Iterable[str]]],
) -> Callable[[], Iterable[str]]:
    """Normalize push input into a fresh-iterable-per-attempt factory.

    Retries replay the stream from an offset, so every attempt needs its
    own iterator: paths are re-opened, callables re-called, and one-shot
    iterables are materialized once up front.
    """
    if callable(lines):
        return lines
    if isinstance(lines, (str, Path)):
        path = Path(lines)

        def read_file() -> Iterable[str]:
            with open(path, "r") as handle:
                for line in handle:
                    yield line

        return read_file
    materialized = list(lines)
    return lambda: materialized


def _is_event_line(line: str) -> bool:
    """Mirror of the server's accounting: blank and ``#`` lines are free."""
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


class RaceClient:
    """Reconnecting, backoff-aware client for a :class:`RaceServer`.

    Parameters
    ----------
    host / port / socket_path:
        TCP endpoint, or a unix-domain socket path (takes precedence).
    stream_id:
        Stable stream identity for the server-side recovery handshake.
        With an id set (against a server running with a checkpoint
        directory) a severed connection resumes exactly from the
        server's ``resume <offset>`` reply; without one, reconnects
        replay the stream from the start into a fresh session.
    connect_timeout_s / handshake_timeout_s / write_timeout_s /
    read_timeout_s:
        Per-phase socket timeouts; a breach counts as one failed attempt
        and goes through the normal backoff/retry path.
    retries:
        Reconnect attempts allowed after the first (``0`` = fail on the
        first error).  Exhaustion raises :class:`RetriesExhausted`.
    backoff_s / backoff_max_s / jitter_s:
        Exponential backoff between attempts plus a uniform random
        jitter; an ``Overloaded`` reply's ``retry after <n>s`` hint
        overrides the exponential term.
    sleep / rng:
        Injection points (tests pass a recording sleep and a seeded
        ``random.Random``).
    fault_plan:
        Deterministic :class:`~repro.engine.faults.FaultPlan` with
        ``refuse_connect`` / ``reset_connection`` / ``stall_connection``
        faults for harness-driven chaos.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        socket_path: Optional[Union[str, Path]] = None,
        stream_id: Optional[str] = None,
        connect_timeout_s: float = 5.0,
        handshake_timeout_s: float = 10.0,
        write_timeout_s: float = 30.0,
        read_timeout_s: float = 120.0,
        retries: int = 5,
        backoff_s: float = 0.1,
        backoff_max_s: float = 5.0,
        jitter_s: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        fault_plan=None,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.stream_id = stream_id
        self.connect_timeout_s = connect_timeout_s
        self.handshake_timeout_s = handshake_timeout_s
        self.write_timeout_s = write_timeout_s
        self.read_timeout_s = read_timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.jitter_s = jitter_s
        self.sleep = sleep
        self.rng = rng if rng is not None else random.Random()
        self.fault_plan = fault_plan
        #: Retry/recovery counters (also surfaced by ``repro push -v``).
        self.stats: Dict[str, int] = {
            "connects": 0,
            "reconnects": 0,
            "refused_connects": 0,
            "injected_resets": 0,
            "stalled_reads": 0,
            "overloaded_retries": 0,
            "drain_retries": 0,
            "events_sent": 0,
            "events_skipped": 0,
        }

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def push(
        self,
        lines: Union[str, Path, Iterable[str], Callable[[], Iterable[str]]],
    ) -> PushOutcome:
        """Stream ``lines`` to the server, surviving flaps; returns the reply.

        ``lines`` is a trace file path, an iterable of STD lines, or a
        zero-argument callable yielding them (called once per attempt).
        """
        provider = _line_provider(lines)
        attempt = 0
        failures = 0
        last_error: Optional[BaseException] = None
        while True:
            try:
                return self._attempt(provider, attempt)
            except _Busy as busy:
                self.stats["overloaded_retries"] += 1
                last_error = PushError(
                    "server overloaded (retry after %ss)" % busy.retry_after_s
                )
                hinted = busy.retry_after_s
            except _Drained:
                self.stats["drain_retries"] += 1
                last_error = PushError("server draining")
                hinted = None
            except PushError:
                raise
            except (OSError, socket.timeout) as error:
                last_error = error
                hinted = None
            attempt += 1
            failures += 1
            if failures > self.retries:
                raise RetriesExhausted(
                    "push failed after %d attempt(s); last error: %s: %s "
                    "(server endpoint %s)"
                    % (
                        failures, type(last_error).__name__, last_error,
                        self._endpoint(),
                    ),
                    last_error,
                )
            self.stats["reconnects"] += 1
            self.sleep(self._delay(failures - 1, hinted))

    # ------------------------------------------------------------------ #
    # One attempt
    # ------------------------------------------------------------------ #

    def _attempt(self, provider, ordinal: int) -> PushOutcome:
        plan = self.fault_plan
        if plan is not None and plan.refuse_connect(ordinal):
            self.stats["refused_connects"] += 1
            raise ConnectionRefusedError(
                "injected connection refusal (attempt %d)" % ordinal
            )
        sock = self._connect()
        try:
            reader = _LineReader(sock)
            offset = 0
            if self.stream_id is not None:
                offset = self._recovery_handshake(sock, reader)
            self._send_events(sock, provider(), offset)
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            return PushOutcome(self._read_responses(sock, reader))
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass

    def _connect(self) -> socket.socket:
        self.stats["connects"] += 1
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.connect_timeout_s)
            try:
                sock.connect(str(self.socket_path))
            except BaseException:
                sock.close()
                raise
            return sock
        return socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )

    def _recovery_handshake(self, sock: socket.socket, reader: _LineReader) -> int:
        """Send the stream-id directive; return the server's resume offset."""
        sock.settimeout(self.handshake_timeout_s)
        sock.sendall(("# stream-id: %s\n" % self.stream_id).encode("utf-8"))
        try:
            raw = reader.readline()
        except socket.timeout:
            raise PushError(
                "no resume reply to the stream-id handshake within %.0fs; "
                "recovery pushes need a server started with a checkpoint "
                "directory (serve --checkpoint-dir)" % self.handshake_timeout_s
            ) from None
        if not raw:
            raise ConnectionResetError("server closed during handshake")
        text = raw.decode("utf-8", "replace").strip()
        if text.startswith("resume "):
            return int(text.split()[1])
        self._dispatch_error(text)
        raise PushError("unexpected handshake reply: %r" % text)

    def _send_events(self, sock: socket.socket, lines, skip_events: int) -> None:
        """Send the event lines past ``skip_events``, coalesced into one
        ``sendall`` per at most :data:`SEND_BYTES` bytes."""
        sock.settimeout(self.write_timeout_s)
        plan = self.fault_plan
        index = 0  # absolute event ordinal (comments/blanks are free)
        parts: List[bytes] = []
        size = 0
        unsent = 0  # event lines in ``parts``
        for line in lines:
            data = line.encode("utf-8") if isinstance(line, str) else bytes(line)
            if not data.endswith(b"\n"):
                data += b"\n"
            event = _is_event_line(data.decode("utf-8", "replace"))
            if index < skip_events:
                if event:
                    index += 1
                    self.stats["events_skipped"] += 1
                continue
            if event and plan is not None and plan.reset_connection_at(index):
                self._flush(sock, parts, unsent)
                self._inject_reset(sock, data, index)
            if size + len(data) > SEND_BYTES:
                self._flush(sock, parts, unsent)
                size = unsent = 0
            parts.append(data)
            size += len(data)
            if event:
                index += 1
                unsent += 1
        self._flush(sock, parts, unsent)

    def _flush(self, sock: socket.socket, parts: List[bytes], events: int) -> None:
        """Send the buffered lines in one call; count their events sent."""
        if parts:
            sock.sendall(b"".join(parts))
            parts.clear()
        self.stats["events_sent"] += events

    def _inject_reset(self, sock: socket.socket, data: bytes, index: int) -> None:
        """Tear the connection mid-line: half the bytes, then a hard RST."""
        self.stats["injected_resets"] += 1
        try:
            sock.sendall(data[: max(1, len(data) // 2)])
            # SO_LINGER 0 turns close() into an RST, so the server sees a
            # genuine peer reset rather than a tidy EOF after a torn line.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        raise ConnectionResetError(
            "injected connection reset at event %d" % index
        )

    def _read_responses(self, sock: socket.socket, reader: _LineReader) -> List[str]:
        sock.settimeout(self.read_timeout_s)
        plan = self.fault_plan
        ordinal = 0
        lines: List[str] = []
        while True:
            if plan is not None and plan.stall_read_at(ordinal):
                self.stats["stalled_reads"] += 1
                raise socket.timeout(
                    "injected read stall at response read %d" % ordinal
                )
            raw = reader.readline()
            ordinal += 1
            if not raw:
                raise ConnectionResetError(
                    "server closed before completing its response"
                )
            text = raw.decode("utf-8", "replace").rstrip("\n")
            stripped = text.strip()
            if stripped.startswith("resume "):
                # The server drained mid-stream after durably
                # checkpointing; reconnect and let the fresh handshake
                # name the authoritative offset.
                raise _Drained()
            if stripped.startswith("error "):
                self._dispatch_error(stripped)
            lines.append(text)
            if stripped.startswith("done "):
                return lines

    # ------------------------------------------------------------------ #
    # Retry plumbing
    # ------------------------------------------------------------------ #

    def _dispatch_error(self, text: str) -> None:
        """Route an ``error <Type>: ...`` reply; always raises."""
        if text.startswith("error Overloaded"):
            match = _RETRY_AFTER.search(text)
            raise _Busy(float(match.group(1)) if match else None)
        if text.startswith("error Draining"):
            raise _Drained()
        raise PushError("server rejected the stream: %s" % text)

    def _delay(self, failure: int, hinted: Optional[float]) -> float:
        backoff = min(self.backoff_max_s, self.backoff_s * (2 ** failure))
        if hinted is not None:
            backoff = max(hinted, 0.0)
        return backoff + self.jitter_s * self.rng.random()

    def _endpoint(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return "%s:%d" % (self.host, self.port)

    def __repr__(self) -> str:
        return "RaceClient(%s, stream_id=%r, retries=%d)" % (
            self._endpoint(), self.stream_id, self.retries,
        )


def push_trace(
    trace,
    host: str = "127.0.0.1",
    port: int = 8787,
    socket_path: Optional[Union[str, Path]] = None,
    stream_id: Optional[str] = None,
    **options,
) -> PushOutcome:
    """Push a trace (object or ``.std`` file path) with full resilience.

    Convenience wrapper: builds a :class:`RaceClient` (any extra keyword
    arguments are forwarded to it) and pushes the trace's STD lines.
    """
    from repro.trace.trace import Trace

    if isinstance(trace, Trace):
        from repro.trace.writers import write_std

        text = write_std(trace)
        lines: Union[Callable[[], Iterable[str]], str, Path] = (
            lambda: text.splitlines()
        )
    else:
        lines = trace
    client = RaceClient(
        host=host, port=port, socket_path=socket_path,
        stream_id=stream_id, **options,
    )
    return client.push(lines)
