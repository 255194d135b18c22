"""Tests for the tracing & metrics layer (``repro.observability``)."""

import pytest

from repro.accounting import (
    CommMeter,
    dumps_report,
    loads_report,
    report_from_mpc_result,
    run_report,
)
from repro.circuits import dot_product_circuit
from repro.core import run_mpc
from repro.errors import ParameterError
from repro.observability import (
    KIND_BATCH,
    KIND_PHASE,
    KIND_ROUND,
    Tracer,
    activated,
    active,
    maybe_span,
    note,
)
from repro.observability import hooks
from repro.observability.tracer import UNATTRIBUTED


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


class TestSpanNesting:
    def test_parent_child_linkage(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("online", kind=KIND_PHASE, phase="online") as outer:
            with tracer.span("round-1", kind=KIND_ROUND) as mid:
                with tracer.span("batch-0", kind=KIND_BATCH) as inner:
                    pass
        assert outer.parent_id is None
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id
        assert tracer.roots == [outer]
        assert outer.children == [mid] and mid.children == [inner]
        assert [s.name for s in tracer.spans()] == ["online", "round-1", "batch-0"]

    def test_children_inherit_phase(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("offline", kind=KIND_PHASE, phase="offline"):
            with tracer.span("round") as child:
                pass
        assert child.phase == "offline"

    def test_explicit_subphase_overrides_inherited(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("online", kind=KIND_PHASE, phase="online"):
            with tracer.span("batch", kind=KIND_BATCH, phase="online.mul") as b:
                pass
        assert b.phase == "online.mul"

    def test_durations_from_injected_clock(self):
        tracer = Tracer(clock=FakeClock(step=2.0))
        with tracer.span("p", kind=KIND_PHASE, phase="p"):
            pass
        (root,) = tracer.roots
        assert root.duration_s == pytest.approx(2.0)
        assert tracer.wall_s_by_phase() == {"p": pytest.approx(2.0)}

    def test_wall_s_includes_subphases(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("online", kind=KIND_PHASE, phase="online"):
            with tracer.span("b", kind=KIND_BATCH, phase="online.mul"):
                pass
        wall = tracer.wall_s_by_phase()
        assert set(wall) == {"online", "online.mul"}
        # The sub-phase interval is a subset of the enclosing phase's.
        assert wall["online.mul"] <= wall["online"]

    def test_exception_still_closes_span(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("p", kind=KIND_PHASE, phase="p"):
                raise RuntimeError("boom")
        (root,) = tracer.roots
        assert root.end_s is not None
        # The stack unwound: a new span is again a root.
        with tracer.span("q"):
            pass
        assert len(tracer.roots) == 2


class TestCounters:
    def test_lands_in_innermost_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", kind=KIND_PHASE, phase="outer"):
            tracer.count("a")
            with tracer.span("inner"):
                tracer.count("a", 2)
        outer, inner = list(tracer.spans())
        assert outer.counters == {"a": 1}
        assert inner.counters == {"a": 2}
        assert outer.total_counters() == {"a": 3}
        assert tracer.counter_totals() == {"a": 3}

    def test_orphans_bucketed_as_unattributed(self):
        tracer = Tracer(clock=FakeClock())
        tracer.count("x", 5)
        assert tracer.counter_totals() == {"x": 5}
        assert tracer.counters_by_phase() == {UNATTRIBUTED: {"x": 5}}

    def test_counters_by_phase_separates_subphase(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("online", kind=KIND_PHASE, phase="online"):
            tracer.count("op")
            with tracer.span("b", kind=KIND_BATCH, phase="online.mul"):
                tracer.count("op", 7)
        assert tracer.counters_by_phase() == {
            "online": {"op": 1},
            "online.mul": {"op": 7},
        }

    def test_reset(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("p"):
            tracer.count("a")
        tracer.reset()
        assert tracer.n_spans() == 0
        assert tracer.counter_totals() == {}


class TestHooks:
    def test_note_without_tracer_is_noop(self):
        assert active() is None
        note(hooks.PAILLIER_ENCRYPT)  # must not raise

    def test_activated_installs_and_restores(self):
        tracer = Tracer(clock=FakeClock())
        with activated(tracer):
            assert active() is tracer
            note("custom.counter", 3)
        assert active() is None
        assert tracer.counter_totals() == {"custom.counter": 3}

    def test_activated_nests(self):
        t1, t2 = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        with activated(t1):
            with activated(t2):
                note("c")
            assert active() is t1
        assert t2.counter_totals() == {"c": 1}
        assert t1.counter_totals() == {}

    def test_maybe_span_none_tracer(self):
        with maybe_span(None, "anything") as span:
            assert span is None


class TestProtocolTracing:
    @pytest.fixture(scope="class")
    def traced_run(self):
        tracer = Tracer()
        circuit = dot_product_circuit(2)
        result = run_mpc(
            circuit, {"alice": [2, 3], "bob": [5, 7]},
            n=4, epsilon=0.2, seed=7, tracer=tracer,
        )
        return tracer, result

    def test_outputs_unaffected(self, traced_run):
        _, result = traced_run
        assert result.outputs == {"alice": [31]}

    def test_phase_spans_present(self, traced_run):
        tracer, _ = traced_run
        roots = [s.name for s in tracer.roots]
        assert roots == ["setup", "offline", "reencryption-bridge", "online"]
        assert all(s.kind == KIND_PHASE for s in tracer.roots)
        assert all(s.end_s is not None for s in tracer.spans())

    def test_round_spans_nested_under_phases(self, traced_run):
        tracer, _ = traced_run
        kinds = {s.kind for s in tracer.spans()}
        assert KIND_ROUND in kinds and KIND_BATCH in kinds
        for span in tracer.spans():
            if span.kind == KIND_ROUND:
                assert span.parent_id is not None

    def test_counters_cover_crypto_layers(self, traced_run):
        tracer, _ = traced_run
        totals = tracer.counter_totals()
        for name in (
            hooks.PAILLIER_ENCRYPT,
            hooks.PAILLIER_EXP,
            hooks.SHARING_CANONICAL,
            hooks.SHARING_RECONSTRUCTED,
            hooks.LAGRANGE_INTERPOLATION,
            hooks.BULLETIN_POSTS,
            hooks.REENCRYPT_RECOVERY,
        ):
            assert totals.get(name, 0) > 0, name

    def test_result_carries_trace(self, traced_run):
        tracer, result = traced_run
        assert result.trace is tracer

    def test_online_mul_subphase_isolated(self, traced_run):
        tracer, _ = traced_run
        per_phase = tracer.counters_by_phase()
        assert "online.mul" in per_phase
        assert per_phase["online.mul"].get(hooks.REENCRYPT_RECOVERY, 0) > 0
        # Per-gate online work must not be polluted by key distribution.
        assert per_phase["online.mul"].get(hooks.PAILLIER_ENCRYPT, 0) == 0

    def test_counters_deterministic_across_seeded_runs(self):
        circuit = dot_product_circuit(2)
        inputs = {"alice": [2, 3], "bob": [5, 7]}
        traces = []
        for _ in range(2):
            tracer = Tracer()
            run_mpc(circuit, inputs, n=4, epsilon=0.2, seed=11, tracer=tracer)
            traces.append(tracer)
        a, b = traces
        assert a.counter_totals() == b.counter_totals()
        assert a.counters_by_phase() == b.counters_by_phase()
        assert a.n_spans() == b.n_spans()
        assert [s.name for s in a.spans()] == [s.name for s in b.spans()]

    def test_untraced_run_is_noop(self, traced_run):
        tracer, _ = traced_run
        n_before = tracer.n_spans()
        totals_before = tracer.counter_totals()
        circuit = dot_product_circuit(2)
        result = run_mpc(
            circuit, {"alice": [2, 3], "bob": [5, 7]}, n=4, epsilon=0.2, seed=7
        )
        assert result.trace is None
        # The untraced run left the existing tracer untouched.
        assert tracer.n_spans() == n_before
        assert tracer.counter_totals() == totals_before
        assert active() is None


class TestExport:
    """The ``trace`` section of the run document; ``tests/test_export.py``
    covers the rest of it."""

    def _traced(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("offline", kind=KIND_PHASE, phase="offline"):
            tracer.count(hooks.PAILLIER_ENCRYPT, 4)
            with tracer.span("round-1", kind=KIND_ROUND, committee="C1", members=3):
                tracer.count(hooks.PAILLIER_EXP, 9)
        with tracer.span("online", kind=KIND_PHASE, phase="online"):
            with tracer.span("b0", kind=KIND_BATCH, phase="online.mul", gates=2):
                tracer.count(hooks.REENCRYPT_RECOVERY, 6)
        return tracer

    def _report(self, meter=None):
        return run_report(
            "unit", meter or CommMeter(), {"n": 4}, {"muls": 2},
            tracer=self._traced(),
        )

    def _rejected(self, mutate):
        report = self._report()
        mutate(report)
        with pytest.raises(ParameterError):
            loads_report(dumps_report(report))

    def test_round_trip(self):
        tracer = self._traced()
        report = self._report()
        loaded = loads_report(dumps_report(report))
        assert loaded == report
        assert loaded["label"] == "unit"
        assert loaded["parameters"] == {"n": 4}
        trace = loaded["trace"]
        assert len(trace["spans"]) == tracer.n_spans()
        assert trace["counters"] == tracer.counter_totals()
        assert trace["counters_by_phase"] == tracer.counters_by_phase()
        assert trace["wall_s_by_phase"] == tracer.wall_s_by_phase()

    def test_span_records_preserve_structure(self):
        spans = self._report()["trace"]["spans"]
        by_id = {s["id"]: s for s in spans}
        round_rec = next(s for s in spans if s["kind"] == KIND_ROUND)
        parent = by_id[round_rec["parent"]]
        assert parent["name"] == "offline" and parent["parent"] is None
        assert round_rec["attrs"] == {"committee": "C1", "members": 3}
        assert (round_rec["start_s"], round_rec["duration_s"]) == (0.5, 0.5)
        # Own counters, not rolled up: the round's 9 stay out of its parent.
        assert parent["counters"] == {hooks.PAILLIER_ENCRYPT: 4}
        assert round_rec["counters"] == {hooks.PAILLIER_EXP: 9}

    def test_trace_records_kinds(self):
        spans = self._report()["trace"]["spans"]  # pre-order
        assert [(s["name"], s["kind"], s["phase"]) for s in spans] == [
            ("offline", KIND_PHASE, "offline"),
            ("round-1", KIND_ROUND, "offline"),
            ("online", KIND_PHASE, "online"),
            ("b0", KIND_BATCH, "online.mul"),
        ]

    def test_meter_bytes_included(self):
        meter = CommMeter()
        meter.record_exact("offline", "r1", "tag", 6)
        phases = loads_report(dumps_report(self._report(meter)))["phases"]
        assert {p: v["bytes"] for p, v in phases.items()} == meter.by_phase()

    def test_rejects_missing_header(self):
        # The always-present fields, then the trace section's.
        for name in ("label", "parameters", "circuit", "phases"):
            self._rejected(lambda r: r.pop(name))
        for name in ("counters", "counters_by_phase", "wall_s_by_phase", "spans"):
            self._rejected(lambda r: r["trace"].pop(name))

    def test_rejects_wrong_version(self):
        for version in (2, "3", None):
            self._rejected(lambda r: r.update(version=version))

    def test_rejects_orphan_parent(self):
        self._rejected(lambda r: r["trace"]["spans"][1].update(parent=10_000))

    def test_rejects_duplicate_span_id(self):
        self._rejected(lambda r: r["trace"]["spans"][1].update(id=1))

    def test_rejects_mistyped_field(self):
        for name, value in [
            ("start_s", "yesterday"), ("duration_s", True),
            ("id", True), ("parent", False), ("attrs", []), ("name", 7),
        ]:
            self._rejected(lambda r: r["trace"]["spans"][1].update({name: value}))
        self._rejected(lambda r: r["trace"]["spans"].insert(0, "offline"))
        self._rejected(lambda r: r.update(trace=[]))

    def test_same_seed_runs_export_identical_text(self):
        """Two records of one seeded run can be diffed: nothing in the
        document but the clock varies between them."""
        def text():
            result = run_mpc(
                dot_product_circuit(2), {"alice": [2, 3], "bob": [5, 7]},
                n=4, epsilon=0.2, seed=11, tracer=Tracer(clock=FakeClock(0.25)),
            )
            return dumps_report(report_from_mpc_result(result))

        first = text()
        assert first == text()
        assert loads_report(first)["trace"]["spans"]
