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
import sympy

import repro.accounting.symbolic as symbolic
from repro.accounting.symbolic import (
    PARAM_SYMBOL_NAMES,
    RUN_SYMBOL_NAMES,
    CostExactnessError,
    _formula_for,
    _SizeCtx,
    _Space,
    _space_for,
    envelope_formula,
    formula_catalog,
    measure_post,
    resolve_spec,
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
from repro.wire.sizes import vlen_function


def _formula_bytes_by_variant(result):
    """Per-variant formula totals, evaluated here and not by the checker:
    ``envelope_formula(...).subs(parameters ∪ bindings)`` per envelope."""
    space = _space_for(result)
    totals = {}
    for post in result.bulletin:
        m = measure_post(post, space)
        expr = envelope_formula(m.kind, m.variant, robust=space.robust)
        value = expr.subs(
            {sym(k): v for k, v in {**space.params(), **m.bindings}.items()}
        )
        totals[m.variant] = totals.get(m.variant, 0) + int(value)
    return totals


def _assert_exact(result):
    """The contract: every envelope on the board formula-exact."""
    report = verify_cost_exactness(result)
    assert report.envelopes == len(result.bulletin)
    independent = _formula_bytes_by_variant(result)
    assert set(independent) == {tot.variant for tot in report.totals}
    for tot in report.totals:
        assert tot.formula_bytes == independent[tot.variant]
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


class TestChecksStillFire:
    """A board that is not what its posts declare is refused, share
    vectors (the ``ints`` leaf) included."""

    @pytest.fixture
    def it_result(self):
        return ItYosoMpc(n=9, t=2, k=2, rng=random.Random(1)).run(
            dot_product_circuit(4), {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]}
        )

    @staticmethod
    def _first_vector(result, tag, section):
        post = next(p for p in result.bulletin if p.tag == tag)
        return post, next(iter(post.payload[section].values()))

    def test_mutated_share_value(self, it_result):
        # A decoded share that is not the one on the wire: the walked
        # bytes no longer add up to the envelope body.
        _, vector = self._first_vector(it_result, "It-P1", "deals")
        assert vector[0].bit_length() > 8
        vector[0] = 1
        with pytest.raises(CostExactnessError, match="stale"):
            verify_cost_exactness(it_result)

    def test_wrong_length_share_vector(self, it_result):
        _, vector = self._first_vector(it_result, "It-P2", "transfers")
        vector.append(0)
        with pytest.raises(CostExactnessError, match="expected 9 items"):
            verify_cost_exactness(it_result)

    def test_stale_shape(self, it_result):
        # A bool where the shape declares an int: one wire byte, priced as
        # an int — the body-length comparison refuses it.
        _, vector = self._first_vector(it_result, "It-P1", "deals")
        vector[0] = True
        with pytest.raises(CostExactnessError, match="stale"):
            verify_cost_exactness(it_result)

    def test_misreported_delivery(self, it_result):
        post, _ = self._first_vector(it_result, "It-P2", "transfers")
        post.n_bytes -= 1
        with pytest.raises(CostExactnessError, match="walked"):
            verify_cost_exactness(it_result)

    def test_start_skips_only_checked_posts(self, it_result):
        board = it_result.bulletin
        full = verify_cost_exactness(it_result)
        space = _space_for(it_result)
        tail = verify_cost_exactness(bulletin=board, space=space, start=5)
        assert tail.envelopes == full.envelopes - 5
        list(board)[5].n_bytes += 1
        with pytest.raises(CostExactnessError, match="walked"):
            verify_cost_exactness(bulletin=board, space=space, start=5)
        assert verify_cost_exactness(
            bulletin=board, space=space, start=6
        ).envelopes == full.envelopes - 6

    @staticmethod
    def _rewire_builder(monkeypatch, tag, wrap):
        """Give the ``it.messages`` variant of ``tag`` the builder
        ``wrap(its builder)`` and have its formula compiled afresh."""
        spec = resolve_spec("it.messages", tag)
        rewired = dataclasses.replace(spec, builder=wrap(spec.builder))
        monkeypatch.setattr(symbolic, "_SPECS", tuple(
            rewired if s is spec else s for s in symbolic._SPECS
        ))
        monkeypatch.setattr(symbolic, "_FORMULA_CACHE", {})

    def test_formula_check_fires_on_its_own(self, it_result, monkeypatch):
        # A symbolic reading that drops a byte the concrete reading keeps:
        # the walk adds up to the body and to the delivery, the slack
        # absorbs the byte, and only formula == measured can refuse it.
        def drops_a_term(builder):
            return lambda ctx, payload: (
                builder(ctx, payload) + (0 if ctx.symbolic else 1)
            )

        self._rewire_builder(monkeypatch, "It-input", drops_a_term)
        post = next(p for p in it_result.bulletin if p.tag == "It-input")
        walked = measure_post(post, _space_for(it_result))
        assert walked.actual == walked.measured
        with pytest.raises(CostExactnessError, match="formula gives"):
            verify_cost_exactness(it_result)

    def test_symbol_without_a_value_is_named(self, it_result, monkeypatch):
        # The formula reads a symbol neither the space nor the walk binds.
        def reads_unbound_symbol(builder):
            return lambda ctx, payload: (
                builder(ctx, payload) + (sym("Gd") if ctx.symbolic else 0)
            )

        self._rewire_builder(monkeypatch, "It-input", reads_unbound_symbol)
        with pytest.raises(CostExactnessError, match="symbol 'Gd' has no value"):
            verify_cost_exactness(it_result)


class TestAlwaysOnHook:
    def test_honest_run_self_checks(self, monkeypatch):
        """The post-run hook fires on honest runs."""
        calls = []
        real = symbolic.verify_cost_exactness
        monkeypatch.setattr(
            symbolic, "verify_cost_exactness",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        run_mpc(dot_product_circuit(2), {"alice": [1, 2], "bob": [3, 4]},
                n=5, epsilon=0.2, seed=3)
        assert calls  # the hook ran


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

    @pytest.mark.parametrize("robust", [False, True])
    def test_compiled_evaluator_agrees_with_sympy(self, robust):
        """What the check and the model call is the catalog's expression
        read as exact ints: equal to sympy's own value on seeded random
        points and at Table 1 scale, for every variant."""
        rng = random.Random(1093)
        names = PARAM_SYMBOL_NAMES + RUN_SYMBOL_NAMES
        points = [
            {
                **{name: rng.randrange(1 << rng.randrange(1, 24)) for name in names},
                "te": rng.randrange(2, 4097), "rb": rng.randrange(2, 4097),
                "S": rng.randrange(-500, 500),
            }
            for _ in range(4)
        ]
        points.append({
            **dict.fromkeys(names, 300), "te": 2048, "rb": 2048, "ch": 128,
            "st": 80, "n": 5000, "t": 1200, "k": 1093, "gates": 10**6,
            "batches": 915, "Gd": 10**6, "Nb": 915, "Kn": 5002, "Lk": 70028,
            "OB": 4400, "Zpd": 4600,
        })
        for spec in spec_variants():
            expr, evaluate = _formula_for(spec.variant, robust)
            assert expr is formula_catalog(robust)[spec.variant]
            for values in points:
                reference = expr.xreplace(
                    {sym(name): sympy.Integer(v) for name, v in values.items()}
                )
                assert reference.is_Integer, (spec.variant, reference)
                assert evaluate(values) == int(reference), (spec.variant, values)

    def test_slack_has_unit_coefficient(self):
        """S is a pure correction: each formula is (structural nominal) − S."""
        for variant, expr in formula_catalog().items():
            assert expr.coeff(sym("S")) == -1, variant

    def test_ints_leaf_leaves_every_formula_unchanged(self):
        """``ints`` is ``repeat`` over a bare ``intv``: pricing the vector
        leaves leaf by leaf gives the identical expression per variant."""

        class LeafByLeaf(_SizeCtx):
            def ints(self, values, count, bits):
                return self.repeat(values, count, lambda v: self.intv(v, bits))

        for robust in (False, True):
            for spec in spec_variants():
                space = _Space(symbolic=True, robust=robust)
                assert spec.builder(_SizeCtx(space), None) == spec.builder(
                    LeafByLeaf(space), None
                ), spec.variant
        # ... and walks a live board to the same byte counts.
        result = ItYosoMpc(n=9, t=2, k=2, rng=random.Random(1)).run(
            dot_product_circuit(4), {"alice": [1, 2, 3, 4], "bob": [5, 6, 7, 8]}
        )
        space = _space_for(result)
        for post in result.bulletin:
            walks = [ctx(space) for ctx in (_SizeCtx, LeafByLeaf)]
            builder = resolve_spec(post.kind, post.tag).builder
            nominals = [builder(ctx, post.payload) for ctx in walks]
            assert nominals[0] == nominals[1]
            assert walks[0].actual == walks[1].actual == len(post.envelope().body)


class TestAsymptotics:
    """Thm 1 and §1.1.1 read off the catalog's own expressions.

    Every honest run asserts measured == formula per envelope, so these
    turn E1 / E3 of EXPERIMENTS.md from a slope fitted on n ≤ 12 into
    formula ∈ O(1) / Θ(n).  Constants: the moduli are fixed at deployment
    widths (``MODULI``), which makes every ``ceiling`` an integer, and every
    ``Vlen`` left — the varint length of a count or a header length, at most
    10 bytes below 2^70 — is one symbol ``V`` with 1 ≤ V ≤ 10.  A committee
    is n members posting one envelope each; per-post framing is amortised
    over the gates of the committee's depth.
    """

    MODULI = {"te": 2048, "rb": 2048, "ch": 128, "st": 80, "OB": 4400, "Zpd": 4600}
    V = sympy.Symbol("V", positive=True)

    def bounded(self, variant):
        fixed = formula_catalog()[variant].xreplace(
            {sym(name): sympy.Integer(value) for name, value in self.MODULI.items()}
        )
        assert not fixed.has(sympy.ceiling), variant
        return fixed.replace(lambda e: isinstance(e, vlen_function()), lambda e: self.V)

    def test_core_online_bytes_per_gate_have_degree_0_in_n(self):
        """k = n/r gates per batch, Nb batches in the depth: n cancels."""
        n, batches, r = sym("n"), sym("Nb"), sympy.Symbol("r", positive=True)
        committee = n * self.bounded("online.mu_shares")
        per_gate = sympy.expand(committee / ((n / r) * batches))
        assert sympy.Poly(per_gate, n).degree() == 0
        # What is left: a constant entry cost times n/k, plus framing / Nb.
        entry = sympy.limit(per_gate, batches, sympy.oo) / r
        assert entry.is_Integer and entry > 0

    def test_cdn_eval_bytes_per_gate_have_degree_1_in_n(self):
        """Gd = w·n gates in the depth (the width that amortises the tsk hand-off)."""
        n, gates, w = sym("n"), sym("Gd"), sympy.Symbol("w", positive=True)
        committee = n * self.bounded("cdn.eval")
        per_gate = sympy.Poly(sympy.expand((committee / gates).subs(gates, w * n)), n)
        assert per_gate.degree() == 1
        assert per_gate.LC().as_expr().is_positive  # partials + proofs per member per gate
