"""Tests for the run document (``repro.accounting.export``); its ``trace``
section is covered in ``tests/test_observability.py::TestExport``."""

import json

import pytest

from repro.accounting import (
    CommMeter,
    dumps_report,
    loads_report,
    report_from_mpc_result,
    run_report,
)
from repro.errors import ParameterError


def _meter():
    meter = CommMeter()
    meter.record_exact("offline", "r1", "Coff-A.beaver", 6)
    meter.record_exact("online", "r1", "Con-mul-1.mu", 20)
    return meter


class TestRunReport:
    def test_structure(self):
        report = run_report("demo", _meter(), {"n": 6}, {"gates": 10})
        assert report["label"] == "demo"
        assert report["parameters"]["n"] == 6
        assert report["circuit"]["gates"] == 10
        assert set(report["phases"]) == {"offline", "online"}
        assert report["phases"]["online"]["bytes"] == 20
        assert report["totals"]["messages"] == 2

    def test_by_tag_breakdown(self):
        report = run_report("demo", _meter())
        assert "Con-mul-1.mu" in report["phases"]["online"]["by_tag"]

    def test_json_roundtrip(self):
        report = run_report("demo", _meter(), {"n": 6})
        text = dumps_report(report)
        assert loads_report(text) == report
        json.loads(text)  # genuinely valid JSON

    def test_bad_json_rejected(self):
        with pytest.raises(ParameterError):
            loads_report("{nope")

    @pytest.mark.parametrize("text", ["[1]", "3", "null", '"report"'])
    def test_non_object_rejected(self, text):
        with pytest.raises(ParameterError):
            loads_report(text)

    def test_wrong_version_rejected(self):
        report = run_report("demo", _meter())
        report["version"] = 999
        with pytest.raises(ParameterError):
            loads_report(dumps_report(report))


class TestFromMpcResult:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.circuits import dot_product_circuit
        from repro.core import run_mpc

        return run_mpc(
            dot_product_circuit(2), {"alice": [1, 2], "bob": [3, 4]},
            n=4, epsilon=0.2, seed=123,
        )

    def test_report_carries_parameters_and_shape(self, result):
        report = report_from_mpc_result(result)
        assert report["parameters"]["n"] == 4
        assert report["parameters"]["k"] == result.params.k
        assert report["circuit"]["multiplications"] == 2
        assert report["totals"]["bytes"] == result.meter.total_bytes()
        assert "trace" not in report  # the run had no tracer

    def test_report_serializes(self, result):
        text = dumps_report(report_from_mpc_result(result))
        assert loads_report(text)["parameters"]["epsilon"] == 0.2
