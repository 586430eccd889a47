"""Tests for the online stream validator (repro.engine.validate).

The contract under test: :class:`ValidatingSource` rejects exactly the
streams ``Trace(validate=True)`` rejects -- same exception class, same
message -- while holding O(1) state per event (no growth with trace
length on lock-free suffixes).
"""

import random

import pytest

from repro import (
    IterableSource,
    OnlineValidator,
    RaceEngine,
    TraceSource,
    ValidatingSource,
    detect_races,
)
from repro.cli import main
from repro.trace.event import Event, EventType
from repro.trace.trace import (
    LockSemanticsError,
    Trace,
    TraceError,
    WellNestednessError,
)
from repro.trace.writers import dump_trace

from conftest import random_trace


def _events(*specs):
    """Build unindexed events from (thread, etype, target) tuples."""
    return [
        Event(i, thread, etype, target)
        for i, (thread, etype, target) in enumerate(specs)
    ]


def _batch_error(events):
    """The (type, message) Trace(validate=True) raises, or None."""
    try:
        Trace([Event(-1, e.thread, e.etype, e.target, e.loc) for e in events])
    except TraceError as error:
        return type(error), str(error)
    return None


def _stream_error(events):
    """The (type, message) ValidatingSource raises mid-stream, or None."""
    source = ValidatingSource(IterableSource(iter(events), name="mal"))
    try:
        for _ in source:
            pass
    except TraceError as error:
        return type(error), str(error)
    return None


MALFORMED = {
    "overlap_acquire": _events(
        ("t1", EventType.ACQUIRE, "l"),
        ("t2", EventType.ACQUIRE, "l"),
    ),
    "reentrant_acquire": _events(
        ("t1", EventType.ACQUIRE, "l"),
        ("t1", EventType.ACQUIRE, "l"),
    ),
    "foreign_thread_release": _events(
        ("t1", EventType.ACQUIRE, "l"),
        ("t2", EventType.RELEASE, "l"),
    ),
    "release_without_acquire": _events(
        ("t1", EventType.WRITE, "x"),
        ("t1", EventType.RELEASE, "l"),
    ),
    "unnested_sections": _events(
        ("t1", EventType.ACQUIRE, "l1"),
        ("t1", EventType.ACQUIRE, "l2"),
        ("t1", EventType.RELEASE, "l1"),
    ),
    "release_wrong_lock": _events(
        ("t1", EventType.ACQUIRE, "l1"),
        ("t1", EventType.RELEASE, "l2"),
    ),
}


class TestBatchStreamParity:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_stream_matches_batch_exactly(self, kind):
        """Identical exception class AND message as Trace(validate=True)."""
        events = MALFORMED[kind]
        batch = _batch_error(events)
        stream = _stream_error(events)
        assert batch is not None, "fixture %s should be malformed" % kind
        assert stream == batch

    @pytest.mark.parametrize("kind", ["overlap_acquire", "unnested_sections"])
    def test_violation_buried_in_prefix_keeps_indices(self, kind):
        """Leading well-formed events shift the reported indices in both
        paths the same way (the validator numbers by stream position)."""
        prefix = _events(
            ("t0", EventType.WRITE, "y"),
            ("t0", EventType.ACQUIRE, "m"),
            ("t0", EventType.READ, "y"),
            ("t0", EventType.RELEASE, "m"),
        )
        events = prefix + [
            Event(-1, e.thread, e.etype, e.target) for e in MALFORMED[kind]
        ]
        assert _stream_error(events) == _batch_error(events)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mutation_parity(self, seed):
        """Property: corrupt one event of a valid trace at random; stream
        and batch validation agree on acceptance and on the error."""
        rng = random.Random(seed)
        trace = random_trace(seed=seed, n_events=40, n_threads=3, n_locks=2)
        events = [Event(-1, e.thread, e.etype, e.target, e.loc) for e in trace]
        victim = rng.randrange(len(events))
        mutation = rng.choice(["acquire", "release", "swap_thread"])
        old = events[victim]
        if mutation == "acquire":
            events[victim] = Event(-1, old.thread, EventType.ACQUIRE, "l0")
        elif mutation == "release":
            events[victim] = Event(-1, old.thread, EventType.RELEASE, "l0")
        else:
            events[victim] = Event(-1, "t_foreign", old.etype, old.target)
        assert _stream_error(events) == _batch_error(events)

    @pytest.mark.parametrize("seed", range(5))
    def test_valid_traces_pass_through_unchanged(self, seed):
        trace = random_trace(seed=seed, n_events=50)
        source = ValidatingSource(IterableSource(iter(trace), name=trace.name))
        passed = list(source)
        assert [
            (e.thread, e.etype, e.target) for e in passed
        ] == [(e.thread, e.etype, e.target) for e in trace]

    @pytest.mark.parametrize("seed", [0, 4])
    def test_reports_identical_with_and_without_validator(self, seed):
        trace = random_trace(seed=seed, n_events=60)
        plain = detect_races(IterableSource(iter(trace), name=trace.name))
        checked = detect_races(
            ValidatingSource(IterableSource(iter(trace), name=trace.name))
        )
        assert sorted(checked.location_pairs()) == sorted(plain.location_pairs())
        assert checked.raw_race_count == plain.raw_race_count


class TestConstantState:
    def test_state_empty_after_sections_close(self):
        validator = OnlineValidator()
        for event in _events(
            ("t1", EventType.ACQUIRE, "l1"),
            ("t1", EventType.ACQUIRE, "l2"),
            ("t1", EventType.RELEASE, "l2"),
            ("t1", EventType.RELEASE, "l1"),
        ):
            validator.check(event)
        assert validator.state_size() == 0

    def test_no_growth_on_lock_free_suffix(self):
        """O(1) state: a long lock-free suffix adds nothing, regardless of
        how many threads/variables it touches."""
        validator = OnlineValidator()
        validator.check(Event(-1, "t0", EventType.ACQUIRE, "l"))
        validator.check(Event(-1, "t0", EventType.RELEASE, "l"))
        sizes = set()
        for i in range(5000):
            thread = "t%d" % (i % 7)
            etype = EventType.WRITE if i % 2 else EventType.READ
            validator.check(Event(-1, thread, etype, "x%d" % (i % 11)))
            sizes.add(validator.state_size())
        assert sizes == {0}
        assert validator.events_checked == 5002

    def test_state_bounded_by_open_sections(self):
        validator = OnlineValidator()
        for i in range(8):
            validator.check(Event(-1, "t%d" % i, EventType.ACQUIRE, "l%d" % i))
        # One holder entry + one stack entry per open section.
        assert validator.state_size() == 16
        for i in range(8):
            validator.check(Event(-1, "t%d" % i, EventType.RELEASE, "l%d" % i))
        assert validator.state_size() == 0


class TestTransparency:
    def test_forwards_completeness_and_trace(self, protected_trace):
        source = ValidatingSource(TraceSource(protected_trace))
        assert source.is_complete
        assert source.trace is protected_trace
        assert source.registry is protected_trace.registry

    def test_stream_inner_stays_stream(self, protected_trace):
        source = ValidatingSource(
            IterableSource(iter(protected_trace), name="s")
        )
        assert not source.is_complete
        assert source.trace is None

    def test_replayable_source_restarts_validation(self, tmp_path):
        from repro.engine import FileSource

        trace = random_trace(seed=2, n_events=30)
        path = dump_trace(trace, tmp_path / "t.std")
        source = ValidatingSource(FileSource(path))
        assert len(list(source)) == len(trace)
        # A second pass starts a fresh validator (no stale holder state).
        assert len(list(source)) == len(trace)
        assert source.validator.events_checked == len(trace)

    def test_engine_pass_over_validating_source(self, simple_race_trace):
        result = RaceEngine().run(
            ValidatingSource(TraceSource(simple_race_trace))
        )
        assert result["WCP"].count() == 1
        assert result.events == len(simple_race_trace)


class TestCliValidation:
    def _write_malformed(self, tmp_path):
        path = tmp_path / "bad.std"
        path.write_text("t1|acq(l)|a:1\nt1|w(x)|a:2\nt2|rel(l)|b:1\n")
        return path

    def test_analyze_stream_validates_by_default(self, tmp_path, capsys):
        path = self._write_malformed(tmp_path)
        assert main(["analyze", "--stream", str(path)]) == 2
        err = capsys.readouterr().err
        assert "with no lock held" in err

    def test_analyze_stream_no_validate_opts_out(self, tmp_path):
        path = self._write_malformed(tmp_path)
        assert main(
            ["analyze", "--stream", "--no-validate", str(path)]
        ) in (0, 1)

    def test_stream_and_batch_reject_with_same_message(self, tmp_path, capsys):
        path = self._write_malformed(tmp_path)
        main(["analyze", "--stream", str(path)])
        streamed = capsys.readouterr().err
        main(["analyze", str(path)])
        batch = capsys.readouterr().err
        assert streamed == batch

    def test_stats_validates_by_default(self, tmp_path, capsys):
        path = self._write_malformed(tmp_path)
        assert main(["stats", str(path)]) == 2
        assert "with no lock held" in capsys.readouterr().err

    def test_stats_no_validate(self, tmp_path, capsys):
        path = self._write_malformed(tmp_path)
        assert main(["stats", "--no-validate", str(path)]) == 0
        assert "events" in capsys.readouterr().out

    def test_stats_well_formed_unchanged(self, tmp_path, capsys):
        trace = random_trace(seed=1, n_events=20)
        path = dump_trace(trace, tmp_path / "ok.std")
        assert main(["stats", str(path)]) == 0
        assert "events" in capsys.readouterr().out

    def test_analyze_stream_valid_trace_still_never_materialises(
        self, tmp_path, monkeypatch
    ):
        """Validation must stay online: no Trace construction under
        --stream even with validation enabled."""
        import repro.trace.trace as trace_module

        trace = random_trace(seed=3, n_events=30)
        path = dump_trace(trace, tmp_path / "t.std")

        real_init = trace_module.Trace.__init__

        def _forbidden(self, *args, **kwargs):
            raise AssertionError("--stream must not materialise a Trace")

        monkeypatch.setattr(trace_module.Trace, "__init__", _forbidden)
        try:
            assert main(["analyze", str(path), "--stream"]) in (0, 1)
        finally:
            monkeypatch.setattr(trace_module.Trace, "__init__", real_init)


class TestValidatorEdgeCases:
    def test_checks_are_incremental_not_deferred(self):
        """The violation is raised on the offending event, not at EOF."""
        validator = OnlineValidator()
        validator.check(Event(-1, "t1", EventType.ACQUIRE, "l"))
        with pytest.raises(LockSemanticsError):
            validator.check(Event(-1, "t2", EventType.ACQUIRE, "l"))

    def test_fork_join_and_accesses_are_ignored(self):
        validator = OnlineValidator()
        for event in [
            Event(-1, "t1", EventType.FORK, "t2"),
            Event(-1, "t2", EventType.WRITE, "x"),
            Event(-1, "t1", EventType.JOIN, "t2"),
        ]:
            validator.check(event)
        assert validator.state_size() == 0
        assert validator.events_checked == 3

    def test_interleaved_threads_distinct_locks_ok(self):
        validator = OnlineValidator()
        for event in _events(
            ("t1", EventType.ACQUIRE, "l1"),
            ("t2", EventType.ACQUIRE, "l2"),
            ("t1", EventType.RELEASE, "l1"),
            ("t2", EventType.RELEASE, "l2"),
        ):
            validator.check(event)
        assert validator.state_size() == 0

    def test_wellnestedness_is_a_trace_error(self):
        validator = OnlineValidator()
        validator.check(Event(-1, "t1", EventType.ACQUIRE, "l1"))
        validator.check(Event(-1, "t1", EventType.ACQUIRE, "l2"))
        with pytest.raises(WellNestednessError):
            validator.check(Event(-1, "t1", EventType.RELEASE, "l1"))
