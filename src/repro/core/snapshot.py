"""The versioned detector-state snapshot protocol.

The paper's central property -- WCP maintains *bounded, incrementally
updated* state per event -- means an analysis pass is checkpointable at
any event boundary with a compact snapshot; exponential-space detectors
cannot offer that.  This module defines the envelope every detector
snapshot travels in, whether it lands on disk (the engine's
checkpoint/resume subsystem, :mod:`repro.engine.checkpoint`), on a pipe
(sharded worker restore) or, eventually, on a socket (shard migration).

Envelope layout (all values through the shared codec of
:mod:`repro.vectorclock.codec` -- *not* pickle, so restoring a snapshot
never executes code)::

    MAGIC ("RSNP") + encode((CONTAINER_VERSION, kind, version, config, state))

``kind``
    The detector class name (``"WCPDetector"``) -- a snapshot can only be
    restored into the class that wrote it.
``version``
    The detector's :attr:`~repro.core.detector.Detector.snapshot_version`,
    bumped whenever its state layout changes; mismatches fail fast.
``config``
    The detector's :meth:`~repro.core.detector.Detector.snapshot_config`
    stamp (constructor kwargs).  A snapshot of a WCP detector configured
    one way (say ``strict_pseudocode=True``) cannot silently restore into
    one configured another way, so the protocol refuses.
``state``
    The detector-specific state structure.

:func:`pack_state` / :func:`unpack_state` read and write the envelope;
:func:`unpack_for` additionally validates kind/version/config against a
live detector instance and raises :class:`SnapshotMismatchError` with an
actionable message on any disagreement.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.vectorclock.codec import CodecError, decode, encode
from repro.vectorclock.registry import ThreadRegistry

__all__ = [
    "SnapshotError",
    "SnapshotUnsupportedError",
    "SnapshotMismatchError",
    "pack_state",
    "unpack_state",
    "unpack_for",
    "adopt_registry_names",
]

MAGIC = b"RSNP"
CONTAINER_VERSION = 1


class SnapshotError(ValueError):
    """Base class for snapshot protocol failures."""


class SnapshotUnsupportedError(SnapshotError):
    """The detector does not implement the snapshot protocol."""


class SnapshotMismatchError(SnapshotError):
    """A snapshot cannot be restored into this detector/configuration."""


def pack_state(kind: str, version: int, config: Dict[str, Any], state: Any) -> bytes:
    """Wrap detector ``state`` in the versioned snapshot envelope."""
    return MAGIC + encode((CONTAINER_VERSION, kind, version, config, state))


def unpack_state(blob: bytes) -> Tuple[str, int, Dict[str, Any], Any]:
    """Parse an envelope into ``(kind, version, config, state)``."""
    if not isinstance(blob, (bytes, bytearray)) or blob[:4] != MAGIC:
        raise SnapshotError(
            "not a detector snapshot (missing %r header)" % (MAGIC,)
        )
    try:
        parsed = decode(bytes(blob[4:]))
    except CodecError as error:
        raise SnapshotError("corrupt detector snapshot: %s" % error) from None
    if not isinstance(parsed, tuple) or len(parsed) != 5:
        raise SnapshotError("corrupt detector snapshot envelope")
    container, kind, version, config, state = parsed
    if container != CONTAINER_VERSION:
        raise SnapshotMismatchError(
            "snapshot container version %r is not supported (this build "
            "speaks version %d)" % (container, CONTAINER_VERSION)
        )
    return kind, version, config, state


def unpack_for(detector) -> "_Unpacker":
    """Return a validator-bound unpacker for ``detector`` (see class docs)."""
    return _Unpacker(detector)


class _Unpacker:
    """Unpacks an envelope and validates it against a live detector."""

    def __init__(self, detector) -> None:
        self.detector = detector

    def unpack(self, blob: bytes) -> Any:
        detector = self.detector
        kind, version, config, state = unpack_state(blob)
        expected_kind = type(detector).__name__
        if kind != expected_kind:
            raise SnapshotMismatchError(
                "snapshot was written by %s but is being restored into %s"
                % (kind, expected_kind)
            )
        if version != detector.snapshot_version:
            raise SnapshotMismatchError(
                "%s snapshot format version %r does not match this build's "
                "version %d -- re-run the analysis from the start"
                % (expected_kind, version, detector.snapshot_version)
            )
        expected_config = detector.snapshot_config()
        if config != expected_config:
            diffs = sorted(
                key
                for key in set(config) | set(expected_config)
                if config.get(key) != expected_config.get(key)
            )
            raise SnapshotMismatchError(
                "%s snapshot configuration does not match the detector "
                "(differs on: %s); construct the detector with the "
                "snapshot's configuration %r to resume"
                % (expected_kind, ", ".join(diffs), config)
            )
        return state


def adopt_registry_names(registry: ThreadRegistry, names: List[object]) -> None:
    """Re-establish a snapshot's thread interning in ``registry``.

    Snapshots store all tid-keyed state relative to the registry numbering
    at snapshot time; restoring requires interning the snapshot's
    tid-ordered name list into the resumed pass's (source-shared) registry
    *identically* -- position ``i`` must intern to tid ``i``.  That holds
    whenever the resumed source replays the same stream (interning is
    deterministic in order of first appearance) and the registry has not
    been fed foreign events first; anything else is a configuration error
    surfaced here rather than as silently-corrupt clocks.
    """
    for expected_tid, name in enumerate(names):
        tid = registry.intern(name)
        if tid != expected_tid:
            raise SnapshotMismatchError(
                "thread %r interned as tid %d, snapshot expects %d -- the "
                "resumed source does not replay the checkpointed stream "
                "(or its registry was used before restore)"
                % (name, tid, expected_tid)
            )
