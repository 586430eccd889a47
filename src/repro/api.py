"""Top-level convenience API, backed by the single-pass streaming engine.

The primary abstraction is the :class:`~repro.engine.RaceEngine`: one
iteration over one *event source* drives any number of detectors
simultaneously, matching the paper's "linear time, constant work per
event" architecture.  An event source can be an in-memory
:class:`~repro.trace.trace.Trace`, a path to a log file (parsed lazily,
never fully materialised), a live simulator run, or any iterable of
events -- see :mod:`repro.engine.sources`.

Three calls cover most uses:

* :func:`detect_races` -- run one detector (WCP by default) on a source;
* :func:`compare_detectors` -- run several detectors over the same source
  in a **single pass** and get their reports side by side (the shape of a
  Table 1 row);
* :func:`run_engine` -- the full-fidelity entry point returning an
  :class:`~repro.engine.EngineResult` (per-detector reports plus run
  metadata, snapshots and the early-stop reason).

*Push* ingestion takes one of two routes.  In process, producer threads
feed a :class:`~repro.engine.QueueSource` that any of the three calls
drains.  Over a socket, :func:`start_race_server` (``repro-race serve``)
decodes the STD line protocol per connection and steps the same
single-pass stepper; :class:`~repro.client.RaceClient` pushes to it.

Engine behaviour (early stop, snapshot cadence, checkpoints) is
configured with the fluent :class:`~repro.engine.EngineConfig` builder::

    from repro import EngineConfig, run_engine
    result = run_engine(
        "trace.std",
        config=EngineConfig().with_detectors("wcp", "hb").stop_on_first_race(),
    )
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro._lazy import import_module
from repro.core.detector import REMOVED_DETECTORS, Detector
from repro.core.races import RaceReport
from repro.engine.config import EngineConfig
from repro.engine.engine import EngineResult, RaceEngine

#: Registry of detector names accepted by :func:`make_detector` and the
#: CLI: name -> ``module:class``, imported on first use so that listing
#: the names (``--help``) loads no detector.
_DETECTOR_FACTORIES = {
    "wcp": "repro.core.wcp:WCPDetector",
    "hb": "repro.hb.hb:HBDetector",
    "cp": "repro.cp.detector:CPDetector",
    "eraser": "repro.lockset.eraser:EraserDetector",
    "mcm": "repro.mcm.predictor:MCMPredictor",
}


def available_detectors() -> List[str]:
    """Return the names accepted by :func:`make_detector`."""
    return sorted(_DETECTOR_FACTORIES)


def make_detector(name: str, **kwargs) -> Detector:
    """Instantiate a detector by name (``wcp``, ``hb``, ``cp``, ``eraser``,
    ``mcm``), forwarding keyword arguments to its constructor."""
    removed = REMOVED_DETECTORS.get(name.lower())
    if removed is not None:
        raise ValueError(removed[1])
    try:
        module, factory = _DETECTOR_FACTORIES[name.lower()].split(":")
    except KeyError:
        raise ValueError(
            "unknown detector %r; available: %s"
            % (name, ", ".join(available_detectors()))
        ) from None
    return getattr(import_module(module), factory)(**kwargs)


def _make_engine(config: Optional[EngineConfig], shards: Optional[int]):
    """Build the engine for a pass: sharded when more than one shard."""
    effective = shards if shards is not None else (
        config.shards if config is not None else 1
    )
    if effective > 1:
        from repro.engine.sharding import ShardedEngine

        return ShardedEngine(config, shards=effective)
    return RaceEngine(config)


def run_engine(
    source,
    detectors: Optional[Sequence[Union[str, Detector]]] = None,
    config: Optional[EngineConfig] = None,
    shards: Optional[int] = None,
    checkpoint=None,
    checkpoint_every: Optional[int] = None,
) -> EngineResult:
    """Run a single engine pass over ``source`` and return the full result.

    ``source`` is anything :func:`repro.engine.as_source` accepts (trace,
    path, event source, iterable of events).  ``detectors`` overrides the
    configuration's selection; the default is WCP + HB.  ``shards``
    (default: the configuration's ``shards``, normally 1) splits the pass
    across that many worker engines
    (:class:`~repro.engine.sharding.ShardedEngine`); the transport mode
    comes from the configuration
    (:meth:`~repro.engine.EngineConfig.with_shards`).  A shard worker
    that dies mid-run ends the sharded pass with one
    :class:`~repro.engine.WorkerFailure`; run the pass under
    :class:`~repro.engine.RunSupervisor` (``analyze --auto-resume``) to
    resume it from the newest checkpoint instead.

    ``checkpoint`` names a directory to persist periodic detector-state
    checkpoints into (every ``checkpoint_every`` events, default 10,000);
    a crashed or interrupted pass then continues from the newest
    checkpoint with :func:`resume_engine`.  Every selected detector must
    support the snapshot protocol
    (:attr:`~repro.core.detector.Detector.supports_snapshot`).
    """
    if checkpoint is not None:
        # Copy before mutating: the caller's config must not keep the
        # checkpoint directory for later, unrelated runs.
        config = copy.copy(config) if config is not None else EngineConfig()
        config.with_checkpoints(
            checkpoint,
            every=(
                checkpoint_every if checkpoint_every is not None
                else config.checkpoint_every
            ),
            keep=config.checkpoint_keep,
        )
    return _make_engine(config, shards).run(source, detectors=detectors)


def resume_engine(
    source,
    checkpoint,
    detectors: Optional[Sequence[Union[str, Detector]]] = None,
    config: Optional[EngineConfig] = None,
) -> EngineResult:
    """Resume a checkpointed pass over ``source`` (:func:`run_engine`'s twin).

    ``checkpoint`` is a checkpoint directory (the newest checkpoint is
    used), a :class:`~repro.engine.Checkpointer`, or a loaded
    :class:`~repro.engine.Checkpoint`.  Detectors are rebuilt from the
    checkpoint's configuration stamps unless explicitly selected (in
    which case the selection must match the stamps -- a different
    detector list, detector configuration or snapshot format version
    fails fast).
    Sharded checkpoints are resumed by a sharded engine with the
    checkpoint's shard count automatically; the transport mode may
    differ (worker state is transport-agnostic).
    The resumed pass keeps checkpointing into the same directory at the
    original cadence and produces reports identical to an uninterrupted
    run.
    """
    from repro.engine.checkpoint import open_for_resume

    # Copy before any adjustment below: the caller's config must not be
    # rewritten by the dispatch.
    effective = copy.copy(config) if config is not None else EngineConfig()
    loaded, checkpointer = open_for_resume(checkpoint, None)
    if checkpointer is not None and effective.checkpoint_dir is None:
        # Directory-backed resume keeps checkpointing into the same
        # directory at the original cadence.
        effective.checkpoint_dir = checkpointer.directory
        effective.checkpoint_every = checkpointer.every
    if loaded.sharded is not None:
        sharded = loaded.sharded
        if effective.shards != sharded["shards"]:
            effective.with_shards(sharded["shards"])
        from repro.engine.sharding import ShardedEngine

        engine = ShardedEngine(effective)
    else:
        engine = RaceEngine(effective)
    # The loaded Checkpoint is passed through, so the blob is read and
    # decoded exactly once.
    return engine.resume(source, loaded, detectors=detectors)


def detect_races(
    source,
    detector: Union[str, Detector, None] = None,
    shards: Optional[int] = None,
    **kwargs,
) -> RaceReport:
    """Run ``detector`` (name, instance or None for WCP) on ``source``.

    ``kwargs`` are forwarded to the detector constructor when ``detector``
    is a name or None.  ``source`` may be a trace, a log-file path, or any
    event source/iterable.  ``shards`` > 1 runs the pass sharded across
    that many worker engines.
    """
    if detector is None:
        detector = "wcp"
    if isinstance(detector, str):
        detector = make_detector(detector, **kwargs)
    result = _make_engine(None, shards).run(source, detectors=[detector])
    return next(iter(result.values()))


async def start_race_server(
    detectors: Optional[Sequence[Union[str, Detector]]] = None,
    config: Optional[EngineConfig] = None,
    settings=None,
    validate: bool = True,
    on_session_end=None,
):
    """Start a multi-tenant race-analysis server and return it.

    The embedded counterpart of the ``repro-race serve`` CLI subcommand:
    a :class:`~repro.serve.RaceServer` listening per ``settings`` (a
    :class:`~repro.serve.ServeSettings`; default: an ephemeral TCP port
    on localhost), analysing each accepted STD line-protocol stream with
    ``detectors`` (names or a zero-argument factory returning fresh
    instances; default WCP + HB) under per-tenant quotas, idle-stream
    eviction and graceful drain::

        server = await start_race_server(["wcp"])
        print("listening on", server.where)
        ...
        server.request_drain()
        await server.wait_closed()

    The caller owns the server's lifetime: call
    :meth:`~repro.serve.RaceServer.request_drain` (or send SIGTERM when
    ``settings.install_signal_handlers`` is set) to stop accepting and
    checkpoint in-flight sessions, then await
    :meth:`~repro.serve.RaceServer.wait_closed`.
    """
    from repro.serve import RaceServer

    server = RaceServer(
        detectors if detectors is not None else ["wcp", "hb"],
        config=config,
        settings=settings,
        validate=validate,
        on_session_end=on_session_end,
    )
    await server.start()
    return server


def compare_detectors(
    source,
    detectors: Optional[Iterable[Union[str, Detector]]] = None,
    config: Optional[EngineConfig] = None,
    shards: Optional[int] = None,
) -> Dict[str, RaceReport]:
    """Run several detectors over ``source`` in one pass.

    Returns a mapping from detector name to its report.  The default
    selection (WCP and HB) matches the paper's primary comparison.  The
    source is iterated exactly **once** no matter how many detectors (or
    shards -- see ``shards``) run.
    """
    result = _make_engine(config, shards).run(
        source, detectors=list(detectors) if detectors is not None else None
    )
    return dict(result.items())
