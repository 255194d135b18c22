"""Tests for communication metering and reporting."""

from repro.accounting import CommMeter, format_table


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
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1
