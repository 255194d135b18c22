"""The claims runner (``benchmarks/claims.py``) on a toy two-row table.

The real table takes ~40 s (CI's ``claims`` job runs it); these tests drive
the runner's contract — PASS/FAIL, ``--write`` / ``--check`` on marked
regions, ``--only`` — with rows that cost nothing, and check statically
that the real table and the documents agree on claim ids.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("claims", ROOT / "benchmarks" / "claims.py")
claims = sys.modules["claims"] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(claims)

DOCUMENT = """# toy

intro, hand-written

<!-- claim:X1 -->
<!-- /claim:X1 -->

between the regions, hand-written

<!-- claim:X2 -->
<!-- /claim:X2 -->
"""


def toy_table(x2_bound=3):
    def rows():
        return [{"n": 6, "B/gate": 699.4}, {"n": 12, "B/gate": 727.2}]

    return (
        claims.Claim("X1", "growth", "Thm 1", "toy", rows,
                     (claims.Expect("growth", claims.ratio("B/gate"), *claims.below(1.5)),)),
        claims.Claim("X2", "rows", "§6", "toy", rows,
                     (claims.Expect("row count", len, *claims.below(x2_bound)),)),
        claims.Claim("T9", "never run by --check", "-", "toy", lambda: 1 / 0, (), timed=True),
    )


@pytest.fixture()
def document(tmp_path):
    path = tmp_path / "DOC.md"
    path.write_text(DOCUMENT)
    return path


def run(argv, table, document):
    return claims.main(argv, claims=table, documents=[document])


def test_write_fills_the_regions_and_is_idempotent(document, capsys):
    assert run(["--write"], toy_table(), document) == 0
    first = document.read_text()
    assert "| 12 | 727.2 |" in first and "**PASS** — growth: 1.04 (expected < 1.5)" in first
    assert "intro, hand-written" in first and "between the regions, hand-written" in first
    assert run(["--write"], toy_table(), document) == 0
    assert document.read_text() == first
    assert run(["--check"], toy_table(), document) == 0
    assert "2/2 claims pass" in capsys.readouterr().out


def test_false_expectation_fails_the_check_and_names_the_claim(document, capsys):
    assert run(["--write"], toy_table(), document) == 0
    assert run(["--check"], toy_table(x2_bound=2), document) == 1
    captured = capsys.readouterr()
    assert "error: claim X2 FAILED" in captured.err
    assert "claim X1 FAILED" not in captured.err
    assert "**FAIL** — row count: 2 (expected < 2)" in captured.out


def test_hand_edited_region_fails_the_check(document, capsys):
    assert run(["--write"], toy_table(), document) == 0
    document.write_text(document.read_text().replace("| 6 | 699.4 |", "| 6 | 638.5 |", 1))
    assert run(["--check"], toy_table(), document) == 1
    assert "DOC.md: region X1 is stale" in capsys.readouterr().err
    assert "638.5" in document.read_text()  # --check never writes


def test_claim_without_a_region_fails_the_check(document, capsys):
    document.write_text(DOCUMENT.replace("claim:X2", "claim:X3"))
    assert run(["--write"], toy_table(), document) == 1
    assert "claim X2 has no region in any document" in capsys.readouterr().err


def test_only_selects_and_an_unknown_id_is_a_named_error(document, capsys):
    assert run(["--only", "X2"], toy_table(), document) == 0
    assert "1/1 claims pass" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        run(["--only", "X1,E99"], toy_table(), document)
    assert exit_info.value.code == 2
    assert "unknown claim id E99 (known: X1, X2, T9)" in capsys.readouterr().err


def test_timed_rows_run_only_outside_the_documents(document):
    with pytest.raises(ZeroDivisionError):
        run([], toy_table(), document)  # a bare run evaluates every row


def test_each_distinct_run_executes_once(monkeypatch):
    executed = []
    monkeypatch.setattr(claims, "execute", lambda run: executed.append(run) or len(executed))
    shared, other = claims.CORE_SWEEP[0], claims.CDN_SWEEP[0]

    def table(*results):
        return [{"results": len(results)}]

    rows = [
        claims.Claim("A", "", "", "", table, (), runs=(shared,)),
        claims.Claim("B", "", "", "", table, (), runs=(shared, other)),
    ]
    verdicts = list(claims.evaluate(rows))
    assert executed == [shared, other]
    assert [v.rows for v in verdicts] == [[{"results": 1}], [{"results": 2}]]


class TestTheRealTable:
    ids = {claim.id for claim in claims.CLAIMS}

    def test_every_experiment_of_design_section_4_resolves_to_a_claim(self):
        design = (ROOT / "DESIGN.md").read_text()
        section = design[design.index("## 4. Per-experiment index"):design.index("## 5.")]
        rows = [line for line in section.splitlines() if line.startswith("| **")]
        assert len(rows) == 15
        for row in rows:
            named = re.findall(r"`([A-Z]\w*)`", row.split("|")[-2])
            assert named and set(named) <= self.ids, row

    def test_regions_and_exact_claims_correspond(self):
        marked = set()
        for path in claims.DOCUMENTS:
            text = path.read_text()
            opened = re.findall(r"^<!-- claim:(\S+) -->$", text, re.MULTILINE)
            assert opened == re.findall(r"^<!-- /claim:(\S+) -->$", text, re.MULTILINE), path.name
            marked.update(opened)
        assert marked == {c.id for c in claims.CLAIMS if not c.timed}

    def test_ids_are_unique_and_runs_are_shared(self):
        assert len(self.ids) == len(claims.CLAIMS)
        by_id = {claim.id: claim for claim in claims.CLAIMS}
        sweep = set(claims.CORE_SWEEP)
        for name in ("E1", "E2", "E3", "E7"):
            assert sweep <= set(by_id[name].runs), name
        assert set(by_id["F1"].runs) <= sweep
