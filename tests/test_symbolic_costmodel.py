"""The symbolic cost model's exactness contract (docs/COSTMODEL.md).

Every test here reduces to one assertion shape: for every envelope a
metered run delivers, the kind's closed-form sympy formula — evaluated
at that run's parameters and bindings — equals the delivered byte count
*exactly*.  The parameter grid varies committee size, gap (and thus the
packing factor), circuit size, and moduli; the edge cases cover the
degenerate shapes (k = 1, single gate) and the mode switches (fail-stop
crash budgets, robust reconstruction) that change the formulas.
"""

import dataclasses
import random

import pytest

sympy = pytest.importorskip("sympy")

from repro.accounting.symbolic import (
    PARAM_SYMBOL_NAMES,
    RUN_SYMBOL_NAMES,
    envelope_formula,
    formula_catalog,
    spec_variants,
    sym,
    verify_cost_exactness,
)
from repro.baselines import CdnYosoMpc
from repro.circuits import CircuitBuilder, dot_product_circuit
from repro.core import run_mpc
from repro.core.params import ProtocolParams
from repro.core.protocol import YosoMpc
from repro.extensions import ItYosoMpc


def _assert_exact(result):
    """The contract: every envelope on the board formula-exact."""
    report = verify_cost_exactness(result)
    assert report.envelopes == len(result.bulletin)
    for tot in report.totals:
        assert tot.measured_bytes == tot.formula_bytes
    return report


class TestCoreGrid:
    """Exactness across (n, ε→k, circuit, κ) for the core protocol."""

    @pytest.mark.parametrize(
        "n,epsilon,width,te_bits,rb_bits",
        [
            (5, 0.2, 4, 64, 64),
            (6, 0.25, 8, 64, 64),
            (8, 0.3, 6, 64, 64),
            (5, 0.22, 4, 96, 80),   # asymmetric, larger moduli (κ sweep)
        ],
    )
    def test_grid_point(self, n, epsilon, width, te_bits, rb_bits):
        result = run_mpc(
            dot_product_circuit(width),
            {"alice": list(range(1, width + 1)), "bob": [2] * width},
            n=n, epsilon=epsilon, seed=31,
            te_bits=te_bits, role_key_bits=rb_bits,
        )
        report = _assert_exact(result)
        # Every core kind appears on the board of a full run.
        kinds = {t.kind for t in report.totals}
        assert {
            "setup.keys", "offline.beaver_a", "offline.beaver_b",
            "offline.masks", "offline.partials", "offline.reencrypt",
            "online.keys", "online.input", "online.mu_shares",
            "online.output",
        } <= kinds


class TestEdgeCases:
    def test_unpacked_k1(self):
        """ε small enough that k = 1: batches degenerate to single gates."""
        result = run_mpc(
            dot_product_circuit(3),
            {"alice": [1, 2, 3], "bob": [4, 5, 6]},
            n=5, epsilon=0.05, seed=13,
        )
        assert result.params.k == 1
        _assert_exact(result)

    def test_single_gate(self):
        b = CircuitBuilder()
        x, y = b.input("a"), b.input("b")
        b.output(b.mul(x, y), "a")
        result = run_mpc(b.build(), {"a": [6], "b": [7]}, n=5, epsilon=0.2,
                         seed=17)
        assert result.outputs["a"] == [42]
        _assert_exact(result)

    def test_fail_stop_crash_budget(self):
        """Fail-stop halves k and sizes the resharing's crash budget."""
        result = run_mpc(
            dot_product_circuit(4),
            {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]},
            n=8, epsilon=0.3, seed=19, fail_stop=True,
        )
        assert result.params.fail_stop_budget > 0
        _assert_exact(result)

    def test_robust_reconstruction(self):
        """Robust mode drops the proof token from every μ-share entry."""
        params = dataclasses.replace(
            ProtocolParams.from_gap(6, 0.25), robust_reconstruction=True
        )
        circuit = dot_product_circuit(4)
        result = YosoMpc(params, rng=random.Random(17)).run(
            circuit, {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]}
        )
        _assert_exact(result)
        # The robust formula is strictly smaller: no 192-byte token.
        robust = envelope_formula("online.mu_shares", robust=True)
        plain = envelope_formula("online.mu_shares", robust=False)
        diff = (plain - robust).subs({sym("Nb"): 1, sym("te"): 64})
        assert int(diff) >= 192

    def test_sim_transport(self):
        """A zero-loss SimTransport delivers the same exact bytes."""
        result = run_mpc(
            dot_product_circuit(4),
            {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]},
            n=5, epsilon=0.2, seed=23, transport="sim:seed=7",
        )
        _assert_exact(result)


class TestBaselines:
    def test_cdn_exact(self):
        result = CdnYosoMpc(n=4, t=1, rng=random.Random(3)).run(
            dot_product_circuit(3), {"alice": [1, 2, 3], "bob": [4, 5, 6]}
        )
        report = _assert_exact(result)
        assert {t.kind for t in report.totals} == {
            "baseline.cdn", "baseline.cdn_aux"
        }

    def test_it_exact(self):
        result = ItYosoMpc(n=9, t=2, k=2, rng=random.Random(1)).run(
            dot_product_circuit(4), {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]}
        )
        report = _assert_exact(result)
        assert {t.kind for t in report.totals} == {"it.messages"}


class TestAlwaysOnHook:
    def test_honest_run_self_checks(self, monkeypatch):
        """The post-run hook fires on honest runs and respects the env gate."""
        calls = []
        import repro.accounting.symbolic as symbolic

        real = symbolic.verify_cost_exactness
        monkeypatch.setattr(
            symbolic, "verify_cost_exactness",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        run_mpc(dot_product_circuit(2), {"alice": [1, 2], "bob": [3, 4]},
                n=5, epsilon=0.2, seed=3)
        assert calls  # the hook ran

        monkeypatch.setenv("REPRO_COST_CHECK", "0")
        calls.clear()
        run_mpc(dot_product_circuit(2), {"alice": [1, 2], "bob": [3, 4]},
                n=5, epsilon=0.2, seed=3)
        assert not calls  # opt-out honoured


class TestFormulas:
    def test_catalog_covers_every_variant(self):
        catalog = formula_catalog()
        assert set(catalog) == {s.variant for s in spec_variants()}
        assert len(catalog) == 24

    def test_formulas_close_over_the_glossary(self):
        """Free symbols of every formula come from the documented glossary."""
        glossary = {sym(name) for name in PARAM_SYMBOL_NAMES + RUN_SYMBOL_NAMES}
        for variant, expr in formula_catalog().items():
            free = {
                s for s in expr.free_symbols if not s.name.startswith("_")
            }
            assert free <= glossary, (variant, free - glossary)

    def test_slack_has_unit_coefficient(self):
        """S is a pure correction: each formula is (structural nominal) − S."""
        for variant, expr in formula_catalog().items():
            assert expr.coeff(sym("S")) == -1, variant
