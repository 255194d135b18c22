"""Tests for communication metering and reporting."""

from repro.accounting import (
    CommMeter,
    CommReport,
    comparison_table,
    format_table,
    per_gate_series,
)


class TestCommMeter:
    def _sample(self):
        meter = CommMeter()
        meter.record_exact("offline", "r1", "beaver", 6)
        meter.record_exact("offline", "r2", "beaver", 2)
        meter.record_exact("online", "r1", "mu", 10)
        return meter

    def test_totals(self):
        meter = self._sample()
        assert meter.total_messages() == 3
        assert meter.total_messages("offline") == 2
        assert meter.total_bytes("online") == 10
        assert meter.total_bytes() == meter.total_bytes("offline") + 10

    def test_groupings(self):
        meter = self._sample()
        assert set(meter.by_phase()) == {"offline", "online"}
        assert meter.by_tag("offline") == {"beaver": meter.total_bytes("offline")}
        assert meter.messages_by_tag()["beaver"] == 2
        assert meter.senders("online") == {"r1"}

    def test_merge_and_reset(self):
        a, b = self._sample(), self._sample()
        a.merge(b)
        assert a.total_messages() == 6
        a.reset()
        assert a.total_messages() == 0


class TestReports:
    def _report(self, n, per_gate):
        meter = CommMeter()
        meter.record_exact("online", "r", "mu", per_gate * 10)
        return CommReport.from_meter(f"run-n{n}", n, 10, meter)

    def test_bytes_per_gate(self):
        rep = self._report(4, 7)
        assert rep.bytes_per_gate("online") == 7.0
        assert rep.bytes_per_gate("offline") == 0.0
        assert rep.total_bytes == 70

    def test_per_gate_series(self):
        reports = [self._report(n, n) for n in (4, 8)]
        assert per_gate_series(reports, "online") == [(4, 4.0), (8, 8.0)]

    def test_zero_gates(self):
        meter = CommMeter()
        rep = CommReport.from_meter("x", 4, 0, meter)
        assert rep.bytes_per_gate("online") == 0.0

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1

    def test_comparison_table_mentions_protocols(self):
        reports = [self._report(n, n) for n in (4, 8)]
        table = comparison_table(reports, "online")
        assert "run-n4" in table and "run-n8" in table
