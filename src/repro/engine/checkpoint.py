"""Engine-level checkpoint/resume built on the detector snapshot protocol.

The paper's linear-time detectors keep bounded, incrementally-maintained
state, so an analysis pass is checkpointable at *any* event boundary with
a compact snapshot -- something the exponential-space techniques it
replaces cannot offer.  This module turns that property into an
operational feature for the production surface (`repro-race analyze
--checkpoint`, `serve --checkpoint-dir`, the sharded engine): a crash or
restart no longer loses the pass; it loses at most one checkpoint
interval of work.

Layering
--------
* Detectors serialize themselves through the versioned snapshot protocol
  (:mod:`repro.core.snapshot`): format-version header, configuration
  stamp, codec-only payload (never pickle).
* A :class:`Checkpoint` bundles the per-detector snapshots with the run
  coordinates: the processed-event offset, detector stamps, the
  checkpoint cadence, optional source-side state (e.g. the online
  validator of a validated file pass) and -- for sharded runs -- the
  per-shard worker snapshots plus the partitioner state.
* A :class:`Checkpointer` persists checkpoints into a directory, keyed by
  processed-event offset, with atomic write-then-rename so a crash
  mid-write can never leave a truncated "latest" checkpoint: resume reads
  the newest complete file.

Both engines (:class:`~repro.engine.engine.RaceEngine` and
:class:`~repro.engine.sharding.ShardedEngine`'s workers) and the serve
tier's sessions checkpoint through this one code path.

Resume contract
---------------
Resuming replays the event stream from the checkpoint offset: seekable
sources (:class:`~repro.engine.sources.FileSource`,
:class:`~repro.engine.sources.TraceSource`, iterables) are positioned
with ``seek_events``; push sources advertise the offset back to their
producer (:attr:`~repro.engine.sources.QueueSource.resume_offset`, the
``resume <offset>`` line of the serve protocol) and expect the producer
to replay from it.  Restored detectors then produce reports identical to
an uninterrupted pass -- the parity property suite asserts this for WCP
and HB, sharded and unsharded.
"""

from __future__ import annotations

import importlib
import logging
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.detector import REMOVED_DETECTORS, Detector
from repro.vectorclock.codec import CodecError, decode, encode

__all__ = [
    "Checkpoint",
    "Checkpointer",
    "CheckpointError",
    "CheckpointMismatchError",
    "build_detector",
    "check_snapshot_support",
    "detector_stamp",
    "frame_blob",
    "seek_source",
    "unframe_blob",
]

logger = logging.getLogger("repro.engine.checkpoint")

#: Current file magic: payload framed with an explicit length + CRC32, so
#: truncation and bit flips are detected *as corruption* instead of
#: surfacing as a raw codec error deep in the payload.
CHECKPOINT_MAGIC_FRAMED = b"RCK2"
CHECKPOINT_VERSION = 1

_FRAME_HEADER = struct.Struct(">II")


def frame_blob(data: bytes) -> bytes:
    """Wrap ``data`` in the length + CRC32 integrity frame.

    The frame of every checkpoint file: 4-byte big-endian payload
    length, 4-byte CRC32 of the payload, then the payload itself.
    """
    return _FRAME_HEADER.pack(len(data), zlib.crc32(data)) + data


def unframe_blob(framed: bytes, what: str = "checkpoint") -> bytes:
    """Verify and strip the :func:`frame_blob` frame.

    Raises :class:`CheckpointError` naming the failure mode (truncated
    vs bit-flipped), so callers can report corruption actionably.
    """
    if len(framed) < _FRAME_HEADER.size:
        raise CheckpointError(
            "corrupt %s: truncated frame header (%d byte(s))"
            % (what, len(framed))
        )
    length, checksum = _FRAME_HEADER.unpack_from(framed)
    payload = framed[_FRAME_HEADER.size:]
    if len(payload) != length:
        raise CheckpointError(
            "corrupt %s: truncated payload (%d of %d byte(s))"
            % (what, len(payload), length)
        )
    if zlib.crc32(payload) != checksum:
        raise CheckpointError(
            "corrupt %s: CRC mismatch (payload bit-flipped on disk or in "
            "transit)" % what
        )
    return payload

#: Default events between checkpoints.
DEFAULT_EVERY = 10_000


class CheckpointError(ValueError):
    """Raised for checkpoint capability / persistence problems."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint cannot be resumed against this run configuration."""


# --------------------------------------------------------------------- #
# Detector stamps: how detector identity+configuration travel
# --------------------------------------------------------------------- #

def detector_stamp(detector: Detector) -> Dict[str, Any]:
    """Return the identity/configuration stamp of ``detector``.

    The stamp is everything needed to (a) reconstruct an equivalent fresh
    instance (``class`` + ``config``, the contract the sharded engine's
    workers build on instead of pickling live detectors) and (b) verify
    at resume time that the run is configured exactly like the
    checkpointed one.
    """
    cls = type(detector)
    return {
        "class": "%s:%s" % (cls.__module__, cls.__qualname__),
        "name": detector.name,
        "snapshot_version": detector.snapshot_version,
        "config": detector.snapshot_config(),
    }


def _refuse_removed(class_path: str) -> None:
    """Raise the removal line for a detector this package no longer has."""
    for removed_path, reason in REMOVED_DETECTORS.values():
        if class_path == removed_path:
            raise CheckpointError("cannot resume this checkpoint: " + reason)


def build_detector(stamp: Dict[str, Any]) -> Detector:
    """Construct a fresh detector from its :func:`detector_stamp`.

    Only classes that subclass :class:`~repro.core.detector.Detector` are
    accepted; anything else in the ``class`` field is rejected before the
    constructor runs.
    """
    class_path = stamp.get("class", "")
    module_name, _, qualname = class_path.partition(":")
    if not module_name or not qualname:
        raise CheckpointError("malformed detector class path %r" % (class_path,))
    _refuse_removed(class_path)
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as error:
        raise CheckpointError(
            "cannot locate detector class %r: %s" % (class_path, error)
        ) from None
    if not (isinstance(obj, type) and issubclass(obj, Detector)):
        raise CheckpointError(
            "%r is not a Detector subclass; refusing to instantiate it"
            % (class_path,)
        )
    # An older format's configuration stamp may name constructor
    # arguments this build no longer has; report the version, not the
    # constructor error.
    if stamp.get("snapshot_version") != obj.snapshot_version:
        raise CheckpointMismatchError(
            "detector %s: snapshot format version mismatch -- checkpoint "
            "has %r, this build has %r" % (
                stamp.get("name", qualname), stamp.get("snapshot_version"),
                obj.snapshot_version,
            )
        )
    try:
        return obj(**stamp.get("config", {}))
    except TypeError as error:
        raise CheckpointError(
            "cannot reconstruct %s from its configuration stamp %r: %s -- "
            "snapshot_config() must return the constructor kwargs"
            % (class_path, stamp.get("config", {}), error)
        ) from None


def check_snapshot_support(detectors: Sequence[Detector]) -> None:
    """Refuse checkpointing up front when any detector lacks the capability."""
    unsupported = sorted({
        detector.name for detector in detectors
        if not detector.supports_snapshot
    })
    if unsupported:
        raise CheckpointError(
            "detector(s) %s do not support state snapshots; drop the "
            "checkpoint option or select snapshot-capable detectors "
            "(wcp, hb)" % ", ".join(unsupported)
        )


def check_reconstructible(detectors: Sequence[Detector]) -> None:
    """Verify every detector round-trips through its configuration stamp.

    The sharded engine constructs each worker's private instances from
    stamps (never by pickling live detectors), so a detector whose
    ``snapshot_config()`` does not reproduce it must be rejected before
    workers start.  A detector class that takes constructor parameters
    but inherits the base ``snapshot_config()`` (which returns ``{}``)
    would silently lose its configuration in every worker -- refuse it
    loudly instead.
    """
    for detector in detectors:
        cls = type(detector)
        if (
            cls.snapshot_config is Detector.snapshot_config
            and cls.__init__ is not Detector.__init__
            and _init_takes_parameters(cls)
        ):
            raise CheckpointError(
                "detector %s takes constructor parameters but does not "
                "override snapshot_config(); workers would be built with "
                "defaults instead of this instance's configuration -- "
                "implement snapshot_config() to return the constructor "
                "kwargs" % cls.__name__
            )
        clone = build_detector(detector_stamp(detector))
        if type(clone) is not type(detector):
            raise CheckpointError(
                "detector %s reconstructed as %s; snapshot_config() must "
                "reproduce the instance" % (type(detector), type(clone))
            )


def _init_takes_parameters(cls) -> bool:
    """True when ``cls.__init__`` accepts anything beyond ``self``."""
    import inspect

    try:
        parameters = inspect.signature(cls.__init__).parameters
    except (TypeError, ValueError):  # pragma: no cover - C-implemented init
        return True
    return len(parameters) > 1


# --------------------------------------------------------------------- #
# The checkpoint bundle
# --------------------------------------------------------------------- #

class Checkpoint:
    """One engine pass frozen at an event boundary.

    Attributes
    ----------
    events:
        Processed-event offset the checkpoint was taken at; the resumed
        pass replays the stream from here.
    source_name:
        Name of the checkpointed stream (informational).
    every:
        The cadence the run checkpointed at; resume keeps it so checkpoint
        offsets stay aligned across restarts.
    stamps:
        Per-detector :func:`detector_stamp` dicts, in engine order.
    states:
        Per-detector snapshot blobs (unsharded runs); None for sharded
        checkpoints, whose blobs live per shard in :attr:`sharded`.
    source_state:
        Optional source-side state (e.g. the online validator of a
        validating stream), restored via
        ``source.restore_checkpoint_state``.
    sharded:
        None for single-engine runs; for sharded runs a dict with
        ``shards`` / ``mode`` / ``partition`` (the partitioner state)
        and ``shard_states`` (per shard: processed events, registry-free
        detector snapshot blobs).  Checkpoints written before the crc32
        hash became the only partition also name a ``policy``.
    """

    def __init__(
        self,
        events: int,
        source_name: str,
        stamps: List[Dict[str, Any]],
        states: Optional[List[bytes]] = None,
        every: Optional[int] = None,
        source_state: Optional[Dict[str, Any]] = None,
        sharded: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.events = events
        self.source_name = source_name
        self.stamps = stamps
        self.states = states
        self.every = every
        self.source_state = source_state
        self.sharded = sharded

    # -- persistence ---------------------------------------------------- #

    def to_bytes(self) -> bytes:
        """Serialize through the shared codec (magic + CRC frame + version)."""
        payload = {
            "events": self.events,
            "source_name": self.source_name,
            "stamps": self.stamps,
            "states": self.states,
            "every": self.every,
            "source_state": self.source_state,
            "sharded": self.sharded,
        }
        return CHECKPOINT_MAGIC_FRAMED + frame_blob(
            encode((CHECKPOINT_VERSION, payload))
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        """Inverse of :meth:`to_bytes`; fails fast on corruption and drift."""
        if blob[:4] == b"RCKP":
            raise CheckpointError("retired unframed checkpoint format (RCKP)")
        if blob[:4] != CHECKPOINT_MAGIC_FRAMED:
            raise CheckpointError(
                "not a checkpoint file (missing %r header)"
                % (CHECKPOINT_MAGIC_FRAMED,)
            )
        body = unframe_blob(bytes(blob[4:]))
        try:
            parsed = decode(body)
        except CodecError as error:
            raise CheckpointError("corrupt checkpoint: %s" % error) from None
        if not isinstance(parsed, tuple) or len(parsed) != 2:
            raise CheckpointError("corrupt checkpoint envelope")
        version, payload = parsed
        if version != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                "checkpoint format version %r is not supported (this build "
                "speaks version %d); re-run the analysis from the start"
                % (version, CHECKPOINT_VERSION)
            )
        return cls(
            events=payload["events"],
            source_name=payload["source_name"],
            stamps=payload["stamps"],
            states=payload["states"],
            every=payload["every"],
            source_state=payload["source_state"],
            sharded=payload["sharded"],
        )

    # -- validation / reconstruction ------------------------------------ #

    def build_detectors(self) -> List[Detector]:
        """Construct fresh detector instances from the stamps."""
        return [build_detector(stamp) for stamp in self.stamps]

    def match_detectors(self, detectors: Sequence[Detector]) -> None:
        """Verify ``detectors`` matches the checkpointed selection exactly.

        Raises :class:`CheckpointMismatchError` naming the first
        disagreement (count, class, snapshot format version, or
        configuration -- e.g. a different ``strict_pseudocode`` setting),
        and the removal line for a checkpointed detector this package no
        longer has.
        """
        for stamp in self.stamps:
            _refuse_removed(stamp.get("class", ""))
        if len(detectors) != len(self.stamps):
            raise CheckpointMismatchError(
                "checkpoint was taken with %d detector(s) (%s) but the "
                "resumed run selects %d (%s)" % (
                    len(self.stamps),
                    ", ".join(stamp["name"] for stamp in self.stamps),
                    len(detectors),
                    ", ".join(d.name for d in detectors),
                )
            )
        for position, (detector, stamp) in enumerate(
            zip(detectors, self.stamps)
        ):
            expected = detector_stamp(detector)
            for field, label in (
                ("class", "detector class"),
                ("snapshot_version", "snapshot format version"),
                ("config", "configuration"),
            ):
                if expected[field] != stamp[field]:
                    raise CheckpointMismatchError(
                        "detector #%d (%s): %s mismatch -- checkpoint has "
                        "%r, resumed run has %r" % (
                            position + 1, stamp["name"], label,
                            stamp[field], expected[field],
                        )
                    )

    def __repr__(self) -> str:
        kind = "sharded" if self.sharded else "single"
        return "Checkpoint(%r@%d, %s, %d detector(s))" % (
            self.source_name, self.events, kind, len(self.stamps),
        )


# --------------------------------------------------------------------- #
# Persistence: offset-keyed files, atomic write-then-rename
# --------------------------------------------------------------------- #

class Checkpointer:
    """Writes/reads a directory of offset-keyed checkpoint files.

    File layout: ``ckpt-<offset 12 digits>.rckp`` per checkpoint, written
    to a ``.tmp`` sibling first and atomically renamed into place
    (``os.replace``), so readers never observe a partial file.  Only the
    newest ``keep`` checkpoints are retained.

    The instance doubles as the engine hook: engines call
    :meth:`save_pass` at the configured cadence and set :attr:`source` so
    source-side state (e.g. the stream validator) rides along.

    ``background=True`` (used by the serve tier, whose sessions step
    their passes on the event loop thread) moves the write+fsync onto a single
    dedicated writer thread: the state snapshot itself is still taken
    synchronously between events -- only the immutable serialized bytes
    leave the loop.  Writes stay ordered (one worker), each file is still
    atomic, and a crash loses at most the in-flight write -- the same
    guarantee as a checkpoint not yet due.  :meth:`drain` waits for
    pending writes (used before :meth:`clear`).
    """

    _PATTERN = "ckpt-%012d.rckp"
    _SUFFIX = ".rckp"

    def __init__(
        self,
        directory: Union[str, Path],
        every: int = DEFAULT_EVERY,
        keep: int = 3,
        background: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError("checkpoint cadence must be positive")
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        # The directory is created lazily by the first save: probing a
        # path for existing checkpoints (load_latest on a stream id the
        # serve handshake has only just heard about) must not litter the
        # filesystem.
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
        self.background = background
        self._executor = None
        self._pending: List = []
        #: Optional event source whose ``checkpoint_state()`` is bundled.
        self.source = None
        #: Checkpoints written by this instance (observability/tests).
        self.saved = 0

    # -- writing -------------------------------------------------------- #

    def save(self, checkpoint: Checkpoint) -> Path:
        """Persist ``checkpoint`` atomically; returns the final path.

        In background mode the serialized bytes are handed to the writer
        thread and the final path is returned immediately; a *previous*
        background write that failed surfaces here (or in :meth:`drain`)
        instead of being silently forgotten.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / (self._PATTERN % checkpoint.events)
        blob = checkpoint.to_bytes()
        if self.background:
            # Surface failures of completed earlier writes; writes still
            # in flight stay tracked (never silently replaced) and are
            # collected here once done, or in :meth:`drain`.
            still_running = []
            for future in self._pending:
                if future.done():
                    future.result()  # raise if the earlier write failed
                else:
                    still_running.append(future)
            self._pending = still_running
            if self._executor is None:
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="checkpoint-writer"
                )
            self._pending.append(self._executor.submit(self._write, path, blob))
        else:
            self._write(path, blob)
        return path

    def _write(self, path: Path, blob: bytes) -> None:
        temp = path.with_suffix(".tmp")
        with open(temp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        self.saved += 1
        self._prune()

    def drain(self) -> None:
        """Wait for any in-flight background write; release the writer.

        The writer thread is re-created lazily by the next background
        save, so per-pass checkpointers (one per serve connection) do not
        leak threads.
        """
        pending, self._pending = self._pending, []
        for future in pending:
            future.result()
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def save_pass(self, pass_) -> Path:
        """Snapshot an in-flight :class:`~repro.engine.engine.EnginePass`."""
        checkpoint = Checkpoint(
            events=pass_.events,
            source_name=pass_.source_name,
            stamps=[detector_stamp(d) for d in pass_.detectors],
            states=[d.state_snapshot() for d in pass_.detectors],
            every=self.every,
            source_state=self.source_state(pass_.events),
        )
        return self.save(checkpoint)

    def source_state(self, events: int) -> Optional[Dict[str, Any]]:
        """The attached source's checkpoint-state bundle at stream offset
        ``events`` (or None)."""
        state = getattr(self.source, "checkpoint_state", None)
        return state(events) if callable(state) else None

    def _prune(self) -> None:
        offsets = self.offsets()
        for stale in offsets[:-self.keep]:
            try:
                (self.directory / (self._PATTERN % stale)).unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    # -- reading -------------------------------------------------------- #

    def offsets(self) -> List[int]:
        """Return the available checkpoint offsets, ascending."""
        offsets = []
        for path in self.directory.glob("ckpt-*" + self._SUFFIX):
            stem = path.stem[len("ckpt-"):]
            if stem.isdigit():
                offsets.append(int(stem))
        return sorted(offsets)

    def load(self, events: Optional[int] = None) -> Checkpoint:
        """Load the checkpoint at offset ``events`` (default: the newest)."""
        if events is None:
            offsets = self.offsets()
            if not offsets:
                raise CheckpointError(
                    "no checkpoints found in %s" % self.directory
                )
            events = offsets[-1]
        path = self.directory / (self._PATTERN % events)
        try:
            blob = path.read_bytes()
        except OSError as error:
            raise CheckpointError(
                "cannot read checkpoint %s: %s" % (path, error)
            ) from None
        try:
            return Checkpoint.from_bytes(blob)
        except CheckpointMismatchError:
            raise
        except CheckpointError as error:
            # Name the file: "corrupt checkpoint" alone is not actionable
            # when several offsets are retained.
            raise CheckpointError(
                "checkpoint file %s is corrupt: %s" % (path, error)
            ) from None

    def load_latest(self) -> Optional[Checkpoint]:
        """Load the newest checkpoint, or None when the directory is empty."""
        offsets = self.offsets()
        if not offsets:
            return None
        return self.load(offsets[-1])

    def load_resumable(self) -> Checkpoint:
        """Load the newest *intact* checkpoint, skipping corrupt files.

        The resume path's loader: a truncated or bit-flipped newest file
        (e.g. the machine died mid-write before the atomic rename, or the
        disk bit-rotted) falls back to the next-newest retained
        checkpoint with a warning -- losing one checkpoint interval of
        work instead of the whole run.  Version-mismatch errors are not
        skipped (every retained file speaks the same format) and an
        empty or fully-corrupt directory raises an actionable
        :class:`CheckpointError` listing what was tried.
        """
        offsets = self.offsets()
        if not offsets:
            raise CheckpointError(
                "no checkpoints found in %s" % self.directory
            )
        corrupt: List[str] = []
        for events in reversed(offsets):
            try:
                loaded = self.load(events)
            except CheckpointMismatchError:
                raise
            except CheckpointError as error:
                corrupt.append(str(error))
                logger.warning(
                    "skipping corrupt checkpoint at offset %d, falling "
                    "back to the next-newest: %s", events, error,
                )
                continue
            if corrupt:
                logger.warning(
                    "resuming from offset %d after skipping %d corrupt "
                    "checkpoint(s)", loaded.events, len(corrupt),
                )
            return loaded
        raise CheckpointError(
            "every checkpoint in %s is corrupt; re-run the analysis from "
            "the start (%s)" % (self.directory, "; ".join(corrupt))
        )

    def clear(self) -> None:
        """Delete every checkpoint (e.g. after a cleanly completed pass)."""
        self.drain()
        for offset in self.offsets():
            try:
                (self.directory / (self._PATTERN % offset)).unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    def __repr__(self) -> str:
        return "Checkpointer(%r, every=%d, keep=%d)" % (
            str(self.directory), self.every, self.keep,
        )


def as_checkpointer(
    target: Union[str, Path, Checkpointer], every: Optional[int] = None,
    keep: Optional[int] = None,
) -> Checkpointer:
    """Coerce a directory path (or pass through a Checkpointer)."""
    if isinstance(target, Checkpointer):
        return target
    kwargs = {}
    if every is not None:
        kwargs["every"] = every
    if keep is not None:
        kwargs["keep"] = keep
    return Checkpointer(target, **kwargs)


def open_for_resume(checkpoint, config):
    """Coerce a resume target into ``(checkpoint, checkpointer_or_None)``.

    ``checkpoint`` may be a loaded :class:`Checkpoint`, a
    :class:`Checkpointer`, or a directory path (the newest checkpoint is
    loaded).  When the target is directory-backed -- or the configuration
    names a checkpoint directory -- the returned checkpointer continues
    checkpointing the resumed pass at the original cadence, so offsets
    stay aligned across arbitrarily many restarts.
    """
    if isinstance(checkpoint, Checkpoint):
        loaded = checkpoint
        checkpointer = None
        if config is not None and config.checkpoint_dir is not None:
            checkpointer = as_checkpointer(
                config.checkpoint_dir,
                every=loaded.every or config.checkpoint_every,
                keep=config.checkpoint_keep,
            )
    else:
        checkpointer = as_checkpointer(checkpoint)
        # Resume survives a corrupt newest file: fall back to the
        # next-newest retained checkpoint (with a warning) instead of
        # dying on a codec error.
        loaded = checkpointer.load_resumable()
        if loaded.every:
            checkpointer.every = loaded.every
    return loaded, checkpointer


def restore_source_state(source, loaded: Checkpoint) -> None:
    """Hand the checkpoint's source-side state back to ``source`` (if any)."""
    if loaded.source_state is None:
        return
    restore = getattr(source, "restore_checkpoint_state", None)
    if callable(restore):
        restore(loaded.source_state)


# --------------------------------------------------------------------- #
# Source positioning
# --------------------------------------------------------------------- #

def seek_source(source, events: int) -> None:
    """Position ``source`` so iteration resumes at absolute offset ``events``.

    Seekable sources implement ``seek_events``; push sources record the
    offset and advertise it to their producer (the resume handshake).
    Anything else is rejected with an actionable error.
    """
    if events == 0:
        return
    seek = getattr(source, "seek_events", None)
    if seek is None:
        raise CheckpointError(
            "source %r cannot seek to event %d; resume needs a seekable "
            "source (file, trace, iterable) or a push source whose "
            "producer replays from the advertised offset" % (source, events)
        )
    seek(events)
