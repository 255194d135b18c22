"""Closed-form per-envelope communication formulas, exact to the byte.

Every registered envelope kind gets a sympy expression for its wire size
— TLV headers, varints, ciphertext widths, proof fields, and envelope v2
framing included — derived term-by-term from the same arithmetic the
codec uses (:mod:`repro.wire.sizes`).  The contract, enforced after
every metered run and in ``tests/test_symbolic_costmodel.py``::

    formula.subs(parameters ∪ run_bindings) == len(envelope)   # exactly

Two facts make exactness achievable:

* Every *structural* byte (headers, fixed-width ciphertexts, counts) is
  a deterministic function of the protocol parameters, so the nominal
  expression is built from declared bit widths and counts.
* Every *value-dependent* byte (minimal integer encodings shed leading
  zero bytes; chunk lists shrink when a value is small) is captured by
  an explicit per-envelope **slack** symbol ``S = nominal − actual``,
  recomputed by an independent bottom-up walk over the decoded payload.
  The walk itself is validated byte-for-byte: its actual total must
  equal the delivered envelope length.

The builders below are *dual-mode*: executed once with a symbolic
context they emit the closed form; executed with a concrete context and
a decoded payload they re-derive every leaf's exact encoded size.  One
source of truth, two readings — a structural drift breaks the concrete
walk immediately, which is what turns every metered run into a
validation oracle (see docs/COSTMODEL.md).

A formula is *evaluated* — by the check and by :class:`SymbolicCostModel`
alike — through one callable compiled once per (variant, robust) from the
expression's own tree into exact-integer Python; the expression stays
the source of truth the catalog prints and the tests substitute into.

Symbol glossary (run-bound symbols are bound per envelope):

========  ====================================================================
``n``     committee size            ``t``      corruption threshold
``k``     packing width             ``te``     threshold-key modulus bits
``rb``    role-key modulus bits     ``ch``     σ-protocol challenge bits
``st``    statistical slack bits    ``fb``     IT field-element bits
``gates`` multiplications           ``inputs`` input wires
``outputs`` output wires            ``batches`` packed batches
``depths`` multiplicative depths    ``clients`` input clients
``R``     round number              ``Ls Lp Lt`` sender/phase/tag utf8 bytes
``OB``    resharing offset bits     ``Zpd``    max partial-dec response bits
``Ni``    per-envelope input count  ``Nb``     per-envelope batch count
``Nt``    per-envelope transfer rows ``Gd``    per-envelope gates at depth
``Kn``    KFF entries in envelope   ``Lk``     KFF tag utf8 bytes, summed
``Lc``    client-id utf8 bytes      ``Lw``     workload-name utf8 bytes
``Nc``    per-envelope contributors
``S``     value slack (nominal − actual encoded bytes)
========  ====================================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields as dc_fields, is_dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReproError
from repro.wire.registry import kind_by_name
from repro.wire.sizes import (
    bytes_nominal,
    bytes_wire_len,
    cdiv,
    ct_nominal,
    ct_wire_len,
    digit_sum,
    envelope_nominal,
    envelope_wire_len,
    int_nominal,
    ints_wire_len,
    row_wire_len,
    seq_nominal,
    str_wire_len,
    varint_len,
    vlen,
    vlen_function,
)

if TYPE_CHECKING:
    from repro.circuits.program import CircuitProgram

__all__ = [
    "CircuitShape",
    "CostExactnessError",
    "EnvelopeMeasurement",
    "ExactnessReport",
    "PARAM_SYMBOL_NAMES",
    "RUN_SYMBOL_NAMES",
    "SymbolicCostModel",
    "envelope_formula",
    "extrapolated_mu_bytes_per_gate",
    "formula_catalog",
    "measure_post",
    "space_for_service",
    "sym",
    "verify_cost_exactness",
]


class CostExactnessError(ReproError):
    """A metered envelope's bytes deviate from its closed-form formula."""


#: Protocol/circuit parameters — one value per run.
PARAM_SYMBOL_NAMES = (
    "n", "t", "k", "te", "rb", "ch", "st", "fb",
    "gates", "inputs", "outputs", "batches", "depths", "clients",
)
#: Quantities bound per envelope (header fields and payload-derived).
RUN_SYMBOL_NAMES = (
    "R", "Ls", "Lp", "Lt", "OB", "Zpd", "Ni", "Nb", "Nt", "Gd",
    "Kn", "Lk", "Lc", "Lw", "Nc", "S",
)
_ALL_SYMBOL_NAMES = frozenset(PARAM_SYMBOL_NAMES + RUN_SYMBOL_NAMES)

_SYMBOLS: dict[str, Any] = {}


def sym(name: str) -> Any:
    """The (cached) sympy symbol of a glossary name."""
    if name not in _ALL_SYMBOL_NAMES:
        raise CostExactnessError(f"unknown cost-model symbol {name!r}")
    if name not in _SYMBOLS:
        import sympy

        assumptions = {"integer": True}
        if name != "S":  # slack may be negative for over-nominal values
            assumptions["nonnegative"] = True
        _SYMBOLS[name] = sympy.Symbol(name, **assumptions)
    return _SYMBOLS[name]


class _Space:
    """Parameter namespace: concrete ints, or glossary symbols."""

    def __init__(
        self,
        values: dict[str, int] | None = None,
        symbolic: bool = False,
        robust: bool = False,
    ) -> None:
        self._values = dict(values or {})
        self._symbolic = symbolic
        #: python-level switch, not a symbol: robust reconstruction drops
        #: the per-share proof token, changing the formula's *shape*.
        self.robust = robust

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        values = object.__getattribute__(self, "_values")
        if name in values:
            return values[name]
        if object.__getattribute__(self, "_symbolic") and name in _ALL_SYMBOL_NAMES:
            return sym(name)
        raise AttributeError(
            f"cost-model parameter {name!r} missing from concrete space"
        )

    def params(self) -> dict[str, int]:
        return dict(self._values)


# -- the dual-mode walking context -------------------------------------------

class _SizeCtx:
    """Accumulates exact bytes (concrete) while returning nominal sizes.

    Every leaf method returns the *nominal* size (an int or sympy
    expression built from declared widths) and, when walking a concrete
    payload, adds the *actual* encoded size of the live value to
    ``actual``.  ``ghosted()`` suppresses the actual accumulation so
    ``repeat`` can price one archetypal item for the closed form; while
    ``repeat`` walks the live items themselves, whose nominal nobody
    reads, the leaves only accumulate.  Int leaves are collected and
    priced together (``ints_wire_len``) when ``actual`` is read.
    """

    def __init__(self, space: _Space) -> None:
        self.P = space
        self.symbolic = space._symbolic
        self.bindings: dict[str, int] = {}
        self._bytes = 0
        self._ints: list[int] = []
        self._ghost = 0
        self._walking = 0

    @property
    def actual(self) -> int:
        """Exact encoded bytes of every leaf walked live so far."""
        self._price_ints()
        return self._bytes

    def _price_ints(self) -> None:
        if self._ints:
            self._bytes += ints_wire_len(self._ints)
            self._ints = []

    @contextmanager
    def ghosted(self) -> Any:
        self._ghost += 1
        try:
            yield
        finally:
            self._ghost -= 1

    def _live(self) -> bool:
        return not self.symbolic and not self._ghost

    def _acc(self, n_bytes: int) -> None:
        if self._live():
            self._bytes += n_bytes

    def bind(self, name: str, value: Callable[[], int] | int) -> Any:
        """A run-bound symbol: glossary symbol here, payload value there."""
        if self.symbolic:
            return sym(name)
        v = int(value() if callable(value) else value)
        self.bindings[name] = v
        return v

    # -- leaves --------------------------------------------------------------

    def intv(self, value: int | None, bits: Any) -> Any:
        if self._live():
            assert value is not None, "live walk reached an absent int leaf"
            self._ints.append(value)
            if self._walking:
                return 0
        return int_nominal(bits)

    def ints(self, values: Any, count: Any, bits: Any) -> Any:
        """Exactly ``count`` ints of one declared width: ``repeat`` over a
        bare ``intv`` (the same closed form, every value's exact length
        still in ``actual``) without the per-leaf calls."""
        if self._live():
            assert values is not None, "live walk reached an absent sequence"
            if len(values) != int(count):
                raise CostExactnessError(
                    f"expected {count} items, payload has {len(values)}"
                )
            self._ints.extend(values)
            if self._walking:
                return 0
        return count * int_nominal(bits)

    def row(self, values: Any, count: Any, bits: Any) -> Any:
        """A field row of exactly ``count`` entries of ``bits`` bits:
        ``⌈bits/8⌉`` bytes an entry nominal, the live row's exact bytes in
        the walk (and a list in a row's place, the list's)."""
        if self._live():
            assert values is not None, "live walk reached an absent row"
            if len(values) != int(count):
                raise CostExactnessError(
                    f"expected {count} items, payload has {len(values)}"
                )
            if isinstance(values, (list, tuple)):
                self._bytes += 1 + varint_len(len(values))
                self._ints.extend(values)
            else:
                self._bytes += row_wire_len(values)
            if self._walking:
                return 0
        return 2 + vlen(count) + count * cdiv(bits, 8)

    def keyed_ints(self, items: Any, count: Any, bits: Any) -> Any:
        """``count`` dict entries ``small key -> int``, priced by ``repeat``."""
        return self.repeat(
            items, count,
            lambda it: self.small(None if it is None else it[0])
            + self.intv(None if it is None else it[1], bits),
        )

    def small(self, value: int | None) -> Any:
        """An index/epoch/id-sized integer (nominal one data byte)."""
        return self.intv(value, 8)

    def strf(self, s: str) -> int:
        """A fixed literal string key — nominal equals actual."""
        self._acc(str_wire_len(s))
        return str_wire_len(s)

    def strn(self, value: str | None, nominal_len: int) -> Any:
        if self._live():
            assert value is not None, "live walk reached an absent str leaf"
            self._bytes += str_wire_len(value)
            if self._walking:
                return 0
        return 1 + varint_len(nominal_len) + nominal_len

    def strv(self, value: str | None, nominal_len: Any) -> Any:
        """A string priced by a run-bound length — nominal is exact."""
        if self._live():
            assert value is not None, "live walk reached an absent str leaf"
            self._bytes += str_wire_len(value)
            if self._walking:
                return 0
        return 1 + vlen(nominal_len) + nominal_len

    def byt(self, value: bytes | None, length: Any) -> Any:
        if self._live():
            assert value is not None, "live walk reached an absent bytes leaf"
            self._bytes += bytes_wire_len(value)
            if self._walking:
                return 0
        return bytes_nominal(length)

    def ct(self, value: Any, modulus_bits: Any) -> Any:
        if self._live():
            assert value is not None, "live walk reached an absent ciphertext"
            self._bytes += ct_wire_len(value)
            if self._walking:
                return 0
        return ct_nominal(modulus_bits)

    def obj(self, n_fields: int) -> int:
        """Registered-object header (codes and field counts are < 128)."""
        self._acc(3)
        return 3

    def seq(self, nominal_count: Any, actual_count: int | None = None) -> Any:
        """List/tuple/dict header: tag byte + element-count varint."""
        if self._live():
            count = actual_count if actual_count is not None else nominal_count
            self._bytes += 1 + varint_len(int(count))
            if self._walking:
                return 0
        return seq_nominal(nominal_count)

    def str_pool(self, keys: Any, count: Any, total_len: Any) -> Any:
        """A family of short string keys priced by their summed length."""
        if self._live():
            assert keys is not None
            for key in keys:
                raw = len(key.encode("utf-8"))
                if raw >= 128:
                    raise CostExactnessError(
                        f"key {key!r} exceeds one-byte varint range"
                    )
                self._bytes += 1 + 1 + raw
        return 2 * count + total_len

    def repeat(
        self,
        items: Any,
        count: Any,
        fn: Callable[[Any], Any],
        strict: bool = True,
    ) -> Any:
        """``count`` structurally identical items: walks each, prices one."""
        if self._live():
            assert items is not None, "live walk reached an absent sequence"
            if strict and len(items) != int(count):
                raise CostExactnessError(
                    f"expected {count} items, payload has {len(items)}"
                )
            self._walking += 1
            try:
                for item in items:
                    fn(item)
            finally:
                self._walking -= 1
            if self._walking:
                return 0  # an item of an enclosing walk: its nominal is unread
        with self.ghosted():
            per_item = fn(None)
        return count * per_item


# -- payload prescans ---------------------------------------------------------

def _max_pdec_bits(payload: Any) -> int:
    """Largest partial-decryption response width in an envelope (→ Zpd)."""
    from repro.nizk.sigma import PartialDecryptionProof

    best = 1

    def walk(obj: Any) -> None:
        nonlocal best
        if isinstance(obj, PartialDecryptionProof):
            best = max(best, obj.response.bit_length())
        elif isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                walk(v)
        elif is_dataclass(obj) and not isinstance(obj, type):
            for f in dc_fields(obj):
                walk(getattr(obj, f.name))

    walk(payload)
    return best


# -- shared component builders ------------------------------------------------
# Field lists mirror the registered wire dataclasses (repro.wire.domain,
# repro.core.resharing, repro.core.reencrypt) in declaration order.

def _key_announcement(ctx: _SizeCtx, ka: Any, bits: Any) -> Any:
    """KeyAnnouncement(modulus) — the modulus has exactly ``bits`` bits."""
    return ctx.obj(1) + ctx.intv(None if ka is None else ka.modulus, bits)


def _popk(ctx: _SizeCtx, p: Any) -> Any:
    """PlaintextKnowledgeProof under the threshold key."""
    P = ctx.P
    return (
        ctx.obj(3)
        + ctx.intv(None if p is None else p.commitment, 2 * P.te)
        + ctx.intv(None if p is None else p.response_exponent, P.te + P.ch + P.st + 1)
        + ctx.intv(None if p is None else p.response_unit, P.te)
    )


def _mult_proof(ctx: _SizeCtx, p: Any) -> Any:
    """MultiplicationProof under the threshold key."""
    P = ctx.P
    return (
        ctx.obj(4)
        + ctx.intv(None if p is None else p.commitment_enc, 2 * P.te)
        + ctx.intv(None if p is None else p.commitment_mult, 2 * P.te)
        + ctx.intv(None if p is None else p.response_exponent, P.te + P.ch + P.st + 1)
        + ctx.intv(None if p is None else p.response_unit, P.te)
    )


def _pdec_proof(ctx: _SizeCtx, p: Any, zpd: Any) -> Any:
    """PartialDecryptionProof — response width is the run-bound Zpd."""
    P = ctx.P
    return (
        ctx.obj(3)
        + ctx.intv(None if p is None else p.commitment_cipher, 2 * P.te)
        + ctx.intv(None if p is None else p.commitment_verif, 2 * P.te)
        + ctx.intv(None if p is None else p.response, zpd)
    )


def _dlog_proof(ctx: _SizeCtx, p: Any) -> Any:
    """PlaintextDlogEqualityProof binding a role-key ct to a te-group value."""
    P = ctx.P
    return (
        ctx.obj(4)
        + ctx.intv(None if p is None else p.commitment_enc, 2 * P.rb)
        + ctx.intv(None if p is None else p.commitment_dlog, 2 * P.te)
        + ctx.intv(None if p is None else p.response_exponent, P.rb + P.ch + P.st + 1)
        + ctx.intv(None if p is None else p.response_unit, P.rb)
    )


def _encrypted_subshare(ctx: _SizeCtx, s: Any, ob: Any) -> Any:
    """EncryptedSubshare: limbs/verifications/proofs, ≤ ⌈(OB+1)/(rb−1)⌉ each."""
    P = ctx.P
    limbs = cdiv(ob + 1, P.rb - 1)
    n = ctx.obj(4)
    n += ctx.small(None if s is None else s.recipient_index)
    n += ctx.seq(limbs, None if s is None else len(s.limbs))
    n += ctx.repeat(
        None if s is None else s.limbs, limbs,
        lambda c: ctx.ct(c, P.rb), strict=False,
    )
    n += ctx.seq(limbs, None if s is None else len(s.limb_verifications))
    n += ctx.repeat(
        None if s is None else s.limb_verifications, limbs,
        lambda v: ctx.intv(v, 2 * P.te), strict=False,
    )
    n += ctx.seq(limbs, None if s is None else len(s.limb_proofs))
    n += ctx.repeat(
        None if s is None else s.limb_proofs, limbs,
        lambda pr: _dlog_proof(ctx, pr), strict=False,
    )
    return n


def _resharing(ctx: _SizeCtx, r: Any) -> Any:
    """EncryptedResharing — one per committee member carrying a tsk share."""
    P = ctx.P
    ob = ctx.bind("OB", lambda: r.offset_bits)
    n = ctx.obj(5)
    n += ctx.small(None if r is None else r.sender_index)
    n += ctx.small(None if r is None else r.epoch)
    n += ctx.small(None if r is None else r.offset_bits)
    n += ctx.seq(P.n, None if r is None else len(r.verifications))
    n += ctx.ints(None if r is None else r.verifications, P.n, 2 * P.te)
    n += ctx.seq(P.n, None if r is None else len(r.subshares))
    n += ctx.repeat(
        None if r is None else r.subshares, P.n,
        lambda s: _encrypted_subshare(ctx, s, ob),
    )
    return n


def _encrypted_partial(ctx: _SizeCtx, ep: Any, zpd: Any) -> Any:
    """EncryptedPartial: an N²-sized value chunked under a role key."""
    P = ctx.P
    chunks = cdiv(2 * P.te, P.rb - 1)
    n = ctx.obj(4)
    n += ctx.small(None if ep is None else ep.sender_index)
    n += ctx.small(None if ep is None else ep.epoch)
    n += ctx.seq(chunks, None if ep is None else len(ep.chunks))
    n += ctx.repeat(
        None if ep is None else ep.chunks, chunks,
        lambda c: ctx.ct(c, P.rb), strict=False,
    )
    n += _pdec_proof(ctx, None if ep is None else ep.proof, zpd)
    return n


def _public_partial(ctx: _SizeCtx, pp: Any, zpd: Any) -> Any:
    """PublicPartial(PartialDecryption, proof)."""
    P = ctx.P
    n = ctx.obj(2)
    n += ctx.obj(3)  # the nested PartialDecryption
    n += ctx.small(None if pp is None else pp.partial.index)
    n += ctx.intv(None if pp is None else pp.partial.value, 2 * P.te)
    n += ctx.small(None if pp is None else pp.partial.epoch)
    n += _pdec_proof(ctx, None if pp is None else pp.proof, zpd)
    return n


def _ct_proof_entry(ctx: _SizeCtx, item: Any, proof_fn: Callable) -> Any:
    """A ``wire_id -> {"ct", "proof"}`` contribution entry."""
    key, v = (None, None) if item is None else item
    n = ctx.small(key)
    n += ctx.seq(2, None if v is None else len(v))
    n += ctx.strf("ct") + ctx.ct(None if v is None else v["ct"], ctx.P.te)
    n += ctx.strf("proof") + proof_fn(ctx, None if v is None else v["proof"])
    return n


def _dict_items(payload: Any, key: str) -> Any:
    return None if payload is None else list(payload[key].items())


# -- per-kind/variant body builders -------------------------------------------

def _b_setup_keys(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    prime_chunks = cdiv(cdiv(P.rb, 2), P.te - 1)
    kn = ctx.bind("Kn", lambda: len(p["kff"]))
    lk = ctx.bind(
        "Lk", lambda: sum(len(key.encode("utf-8")) for key in p["kff"])
    )
    n = ctx.seq(2, None if p is None else len(p))

    # "kff": role/client tag -> {encrypted_prime, public_key}
    n += ctx.strf("kff")
    n += ctx.seq(kn, None if p is None else len(p["kff"]))
    n += ctx.str_pool(None if p is None else list(p["kff"]), kn, lk)

    def kff_entry(entry: Any) -> Any:
        m = ctx.seq(2, None if entry is None else len(entry))
        m += ctx.strf("encrypted_prime")
        chunks = None if entry is None else entry["encrypted_prime"]
        m += ctx.seq(prime_chunks, None if chunks is None else len(chunks))
        m += ctx.repeat(
            chunks, prime_chunks, lambda c: ctx.ct(c, P.te), strict=False
        )
        m += ctx.strf("public_key")
        m += _key_announcement(
            ctx, None if entry is None else entry["public_key"], P.rb
        )
        return m

    n += ctx.repeat(
        None if p is None else list(p["kff"].values()), kn, kff_entry
    )

    # "te": threshold key material
    n += ctx.strf("te")
    te_sec = None if p is None else p["te"]
    n += ctx.seq(3, None if te_sec is None else len(te_sec))
    n += ctx.strf("tpk")
    n += _key_announcement(ctx, None if te_sec is None else te_sec["tpk"], P.te)
    n += ctx.strf("tsk_verifications")
    verifs = None if te_sec is None else list(te_sec["tsk_verifications"].items())
    n += ctx.seq(P.n, None if verifs is None else len(verifs))
    n += ctx.keyed_ints(verifs, P.n, 2 * P.te)
    n += ctx.strf("verification_base")
    n += ctx.intv(
        None if te_sec is None else te_sec["verification_base"], 2 * P.te
    )
    return n


def _b_beaver_a(ctx: _SizeCtx, p: Any) -> Any:
    n = ctx.seq(2, None if p is None else len(p))
    n += ctx.strf("beaver_a")
    items = _dict_items(p, "beaver_a")
    n += ctx.seq(ctx.P.gates, None if items is None else len(items))
    n += ctx.repeat(
        items, ctx.P.gates, lambda it: _ct_proof_entry(ctx, it, _popk)
    )
    n += ctx.strf("tsk")
    n += _resharing(ctx, None if p is None else p["tsk"])
    return n


def _b_beaver_b(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    n = ctx.seq(1, None if p is None else len(p))
    n += ctx.strf("beaver_b")
    items = _dict_items(p, "beaver_b")
    n += ctx.seq(P.gates, None if items is None else len(items))

    def entry(item: Any) -> Any:
        key, v = (None, None) if item is None else item
        m = ctx.small(key)
        m += ctx.seq(3, None if v is None else len(v))
        m += ctx.strf("b_ct") + ctx.ct(None if v is None else v["b_ct"], P.te)
        m += ctx.strf("c_ct") + ctx.ct(None if v is None else v["c_ct"], P.te)
        m += ctx.strf("proof")
        m += _mult_proof(ctx, None if v is None else v["proof"])
        return m

    n += ctx.repeat(items, P.gates, entry)
    return n


def _b_masks(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    n = ctx.seq(2, None if p is None else len(p))

    # "helpers": (batch, kind, h) -> {ct, proof}; kinds left/right/gamma
    n += ctx.strf("helpers")
    helpers = _dict_items(p, "helpers")
    helper_count = P.batches * 3 * P.t
    n += ctx.seq(helper_count, None if helpers is None else len(helpers))

    def helper(item: Any) -> Any:
        key, v = (None, None) if item is None else item
        m = ctx.seq(3)  # the tuple key header
        m += ctx.small(None if key is None else key[0])
        m += ctx.strn(None if key is None else key[1], 5)
        m += ctx.small(None if key is None else key[2])
        m += ctx.seq(2, None if v is None else len(v))
        m += ctx.strf("ct") + ctx.ct(None if v is None else v["ct"], P.te)
        m += ctx.strf("proof") + _popk(ctx, None if v is None else v["proof"])
        return m

    n += ctx.repeat(helpers, helper_count, helper)

    # "masks": wire -> {ct, proof} for every input and every product wire
    n += ctx.strf("masks")
    masks = _dict_items(p, "masks")
    n += ctx.seq(P.inputs + P.gates, None if masks is None else len(masks))
    n += ctx.repeat(
        masks, P.inputs + P.gates,
        lambda it: _ct_proof_entry(ctx, it, _popk),
    )
    return n


def _b_partials(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    zpd = ctx.bind("Zpd", lambda: _max_pdec_bits(p))
    n = ctx.seq(2, None if p is None else len(p))
    n += ctx.strf("partials")
    items = _dict_items(p, "partials")
    n += ctx.seq(P.gates, None if items is None else len(items))

    def entry(item: Any) -> Any:
        key, v = (None, None) if item is None else item
        m = ctx.small(key)
        m += ctx.seq(2, None if v is None else len(v))
        m += ctx.strf("delta")
        m += _public_partial(ctx, None if v is None else v["delta"], zpd)
        m += ctx.strf("eps")
        m += _public_partial(ctx, None if v is None else v["eps"], zpd)
        return m

    n += ctx.repeat(items, P.gates, entry)
    n += ctx.strf("tsk")
    n += _resharing(ctx, None if p is None else p["tsk"])
    return n


def _b_reencrypt(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    zpd = ctx.bind("Zpd", lambda: _max_pdec_bits(p))
    n = ctx.seq(3, None if p is None else len(p))

    n += ctx.strf("input_shares")
    inputs = _dict_items(p, "input_shares")
    n += ctx.seq(P.inputs, None if inputs is None else len(inputs))
    n += ctx.repeat(
        inputs, P.inputs,
        lambda it: ctx.small(None if it is None else it[0])
        + _encrypted_partial(ctx, None if it is None else it[1], zpd),
    )

    n += ctx.strf("packed_shares")
    packed = _dict_items(p, "packed_shares")
    packed_count = 3 * P.n * P.batches
    n += ctx.seq(packed_count, None if packed is None else len(packed))

    def packed_entry(item: Any) -> Any:
        key, ep = (None, None) if item is None else item
        m = ctx.seq(3)  # (batch, recipient, kind) tuple key
        m += ctx.small(None if key is None else key[0])
        m += ctx.small(None if key is None else key[1])
        m += ctx.strn(None if key is None else key[2], 5)
        m += _encrypted_partial(ctx, ep, zpd)
        return m

    n += ctx.repeat(packed, packed_count, packed_entry)

    n += ctx.strf("tsk")
    n += _resharing(ctx, None if p is None else p["tsk"])
    return n


def _b_online_keys(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    zpd = ctx.bind("Zpd", lambda: _max_pdec_bits(p))
    kn = ctx.bind("Kn", lambda: len(p["kff"]))
    lk = ctx.bind(
        "Lk", lambda: sum(len(key.encode("utf-8")) for key in p["kff"])
    )
    prime_chunks = cdiv(cdiv(P.rb, 2), P.te - 1)
    n = ctx.seq(2, None if p is None else len(p))

    n += ctx.strf("kff")
    n += ctx.seq(kn, None if p is None else len(p["kff"]))
    n += ctx.str_pool(None if p is None else list(p["kff"]), kn, lk)

    def bundle(eps: Any) -> Any:
        m = ctx.seq(prime_chunks, None if eps is None else len(eps))
        m += ctx.repeat(
            eps, prime_chunks,
            lambda ep: _encrypted_partial(ctx, ep, zpd), strict=False,
        )
        return m

    n += ctx.repeat(
        None if p is None else list(p["kff"].values()), kn, bundle
    )

    n += ctx.strf("tsk")
    n += _resharing(ctx, None if p is None else p["tsk"])
    return n


def _b_keyed(
    section: str, count: str, bits: str
) -> Callable[[_SizeCtx, Any], Any]:
    """A one-section payload ``{section: {small key: int}}`` with ``count``
    entries of ``bits``-wide ints (the μ broadcasts, the IT μ^γ shares)."""

    def build(ctx: _SizeCtx, p: Any) -> Any:
        c = ctx.bind(count, lambda: len(p[section]))
        n = ctx.seq(1, None if p is None else len(p))
        n += ctx.strf(section)
        items = _dict_items(p, section)
        n += ctx.seq(c, None if items is None else len(items))
        n += ctx.keyed_ints(items, c, getattr(ctx.P, bits))
        return n

    return build


def _b_mu_shares(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    nb = ctx.bind("Nb", lambda: len(p["mu_shares"]))
    n = ctx.seq(1, None if p is None else len(p))
    n += ctx.strf("mu_shares")
    items = _dict_items(p, "mu_shares")
    n += ctx.seq(nb, None if items is None else len(items))

    def entry(item: Any) -> Any:
        key, v = (None, None) if item is None else item
        m = ctx.small(key)
        if P.robust:
            m += ctx.seq(1, None if v is None else len(v))
            m += ctx.strf("value")
            m += ctx.intv(None if v is None else v["value"], P.te)
        else:
            m += ctx.seq(2, None if v is None else len(v))
            m += ctx.strf("proof")
            m += ctx.byt(None if v is None else v["proof"], _proof_token_bytes())
            m += ctx.strf("value")
            m += ctx.intv(None if v is None else v["value"], P.te)
        return m

    n += ctx.repeat(items, nb, entry)
    return n


def _b_online_output(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    zpd = ctx.bind("Zpd", lambda: _max_pdec_bits(p))
    n = ctx.seq(1, None if p is None else len(p))
    n += ctx.strf("output")
    items = _dict_items(p, "output")
    n += ctx.seq(P.outputs, None if items is None else len(items))
    n += ctx.repeat(
        items, P.outputs,
        lambda it: ctx.small(None if it is None else it[0])
        + _encrypted_partial(ctx, None if it is None else it[1], zpd),
    )
    return n


def _b_cdn_setup(ctx: _SizeCtx, p: Any) -> Any:
    n = ctx.seq(1, None if p is None else len(p))
    n += ctx.strf("tpk")
    n += _key_announcement(ctx, None if p is None else p["tpk"], ctx.P.te)
    return n


def _b_cdn_input(ctx: _SizeCtx, p: Any) -> Any:
    ni = ctx.bind("Ni", lambda: len(p["inputs"]))
    n = ctx.seq(1, None if p is None else len(p))
    n += ctx.strf("inputs")
    items = _dict_items(p, "inputs")
    n += ctx.seq(ni, None if items is None else len(items))
    n += ctx.repeat(items, ni, lambda it: _ct_proof_entry(ctx, it, _popk))
    return n


def _b_cdn_eval(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    zpd = ctx.bind("Zpd", lambda: _max_pdec_bits(p))
    gd = ctx.bind("Gd", lambda: len(p["partials"]))
    n = ctx.seq(2, None if p is None else len(p))
    n += ctx.strf("partials")
    items = _dict_items(p, "partials")
    n += ctx.seq(gd, None if items is None else len(items))

    def entry(item: Any) -> Any:
        key, v = (None, None) if item is None else item
        m = ctx.small(key)
        m += ctx.seq(2, None if v is None else len(v))
        m += ctx.strf("delta")
        m += _public_partial(ctx, None if v is None else v["delta"], zpd)
        m += ctx.strf("eps")
        m += _public_partial(ctx, None if v is None else v["eps"], zpd)
        return m

    n += ctx.repeat(items, gd, entry)
    n += ctx.strf("tsk")
    n += _resharing(ctx, None if p is None else p["tsk"])
    return n


def _b_it_p1(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    deals = None if p is None else p["deals"]
    nb = ctx.bind("Nb", lambda: len(deals["left"]) // P.n)
    ni = ctx.bind("Ni", lambda: len(p["client_masks"]))
    n = ctx.seq(2, None if p is None else len(p))

    n += ctx.strf("client_masks")
    masks = _dict_items(p, "client_masks")
    n += ctx.seq(ni, None if masks is None else len(masks))
    n += ctx.keyed_ints(masks, ni, P.fb)

    n += ctx.strf("deals")
    n += ctx.seq(3, None if deals is None else len(deals))
    for kind in ("left", "out_2d", "right"):
        n += ctx.strf(kind)
        n += ctx.row(None if deals is None else deals[kind], nb * P.n, P.fb)
    return n


def _b_it_p2(ctx: _SizeCtx, p: Any) -> Any:
    P = ctx.P
    items = _dict_items(p, "transfers")
    nt = ctx.bind("Nt", lambda: len(items))
    nb = ctx.bind("Nb", lambda: len(items[0][1]) // P.n if items else 0)
    n = ctx.seq(1, None if p is None else len(p))
    n += ctx.strf("transfers")
    n += ctx.seq(nt, None if items is None else len(items))
    # kinds left/right/gamma: nominal five bytes
    n += ctx.repeat(
        items, nt,
        lambda item: ctx.strn(None if item is None else item[0], 5)
        + ctx.row(None if item is None else item[1], nb * P.n, P.fb),
    )
    return n


def _b_client_input(ctx: _SizeCtx, p: Any) -> Any:
    """ClientInput(client_id, epoch, ciphertexts, proofs) — one per client."""
    P = ctx.P
    lc = ctx.bind("Lc", lambda: len(p.client_id.encode("utf-8")))
    ni = ctx.bind("Ni", lambda: len(p.ciphertexts))
    n = ctx.obj(4)
    n += ctx.strv(None if p is None else p.client_id, lc)
    n += ctx.small(None if p is None else p.epoch)
    n += ctx.seq(ni, None if p is None else len(p.ciphertexts))
    n += ctx.repeat(
        None if p is None else p.ciphertexts, ni,
        lambda c: ctx.ct(c, P.te),
    )
    n += ctx.seq(ni, None if p is None else len(p.proofs))
    n += ctx.repeat(
        None if p is None else p.proofs, ni, lambda pr: _popk(ctx, pr)
    )
    return n


def _b_epoch_announcement(ctx: _SizeCtx, p: Any) -> Any:
    """EpochAnnouncement — the coordinator's epoch-opening post."""
    P = ctx.P
    lw = ctx.bind("Lw", lambda: len(p.workload.encode("utf-8")))
    n = ctx.obj(6)
    n += ctx.small(None if p is None else p.epoch)
    n += ctx.strv(None if p is None else p.workload, lw)
    n += ctx.small(None if p is None else p.slots)
    n += ctx.intv(None if p is None else p.input_window, 32)
    n += _key_announcement(ctx, None if p is None else p.key, P.te)
    n += ctx.intv(None if p is None else p.verification_base, 2 * P.te)
    return n


def _b_epoch_result(ctx: _SizeCtx, p: Any) -> Any:
    """EpochResult — published aggregate outputs plus contributor indices."""
    P = ctx.P
    lw = ctx.bind("Lw", lambda: len(p.workload.encode("utf-8")))
    ni = ctx.bind("Ni", lambda: len(p.outputs))
    nc = ctx.bind("Nc", lambda: len(p.contributors))
    n = ctx.obj(4)
    n += ctx.small(None if p is None else p.epoch)
    n += ctx.strv(None if p is None else p.workload, lw)
    n += ctx.seq(ni, None if p is None else len(p.outputs))
    n += ctx.ints(None if p is None else p.outputs, ni, P.te)
    n += ctx.seq(nc, None if p is None else len(p.contributors))
    n += ctx.ints(None if p is None else p.contributors, nc, 8)
    return n


def _b_service_reshare(ctx: _SizeCtx, p: Any) -> Any:
    """One member's encrypted tsk resharing to the next epoch's committee."""
    n = ctx.seq(1, None if p is None else len(p))
    n += ctx.strf("tsk")
    n += _resharing(ctx, None if p is None else p["tsk"])
    return n


def _proof_token_bytes() -> int:
    from repro.core.oracle import PROOF_TOKEN_BYTES

    return PROOF_TOKEN_BYTES


# -- the spec registry --------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeSpec:
    """One payload shape: a kind, a tag predicate, a dual-mode builder."""

    kind: str
    variant: str
    description: str
    builder: Callable[[_SizeCtx, Any], Any]
    matches: Callable[[str], bool]


def _tag_is(expected: str) -> Callable[[str], bool]:
    return lambda tag: tag == expected


def _tag_starts(prefix: str) -> Callable[[str], bool]:
    return lambda tag: tag.startswith(prefix)


_SPECS: tuple[EnvelopeSpec, ...] = (
    EnvelopeSpec(
        "setup.keys", "setup.keys",
        "tpk announcement, verification values, encrypted KFF primes",
        _b_setup_keys, _tag_is("setup-keys"),
    ),
    EnvelopeSpec(
        "offline.beaver_a", "offline.beaver_a",
        "Beaver a-contributions with PoPK, plus the tsk resharing",
        _b_beaver_a, _tag_is("Coff-A"),
    ),
    EnvelopeSpec(
        "offline.beaver_b", "offline.beaver_b",
        "Beaver b/c-contributions with multiplication proofs",
        _b_beaver_b, _tag_is("Coff-B"),
    ),
    EnvelopeSpec(
        "offline.masks", "offline.masks",
        "encrypted wire masks and packing helpers with PoPK",
        _b_masks, _tag_is("Coff-R"),
    ),
    EnvelopeSpec(
        "offline.partials", "offline.partials",
        "public ε/δ partial decryptions, plus the tsk resharing",
        _b_partials, _tag_is("Coff-dec"),
    ),
    EnvelopeSpec(
        "offline.reencrypt", "offline.reencrypt",
        "input and packed shares re-encrypted to KFFs, plus the tsk resharing",
        _b_reencrypt, _tag_is("Coff-reenc"),
    ),
    EnvelopeSpec(
        "online.keys", "online.keys",
        "KFF secrets re-encrypted to role keys, plus the tsk resharing",
        _b_online_keys, _tag_is("Con-keys"),
    ),
    EnvelopeSpec(
        "online.input", "online.input",
        "a client's μ = v + λ broadcast per input wire",
        _b_keyed("mu", "Ni", "te"), _tag_starts("input:"),
    ),
    EnvelopeSpec(
        "online.mu_shares", "online.mu_shares",
        "one member's μ^γ canonical shares (with proof tokens unless robust)",
        _b_mu_shares, _tag_starts("Con-mul-"),
    ),
    EnvelopeSpec(
        "online.output", "online.output",
        "output masks re-encrypted to the receiving clients",
        _b_online_output, _tag_is("Con-out"),
    ),
    EnvelopeSpec(
        "baseline.cdn", "cdn.triple_a",
        "CDN Beaver a-contributions, plus the tsk resharing",
        _b_beaver_a, _tag_is("Cdn-triple-A"),
    ),
    EnvelopeSpec(
        "baseline.cdn", "cdn.triple_b",
        "CDN Beaver b/c-contributions with multiplication proofs",
        _b_beaver_b, _tag_is("Cdn-triple-B"),
    ),
    EnvelopeSpec(
        "baseline.cdn", "cdn.eval",
        "CDN per-depth ε/δ partial decryptions, plus the tsk resharing",
        _b_cdn_eval, _tag_starts("Cdn-eval-"),
    ),
    EnvelopeSpec(
        "baseline.cdn", "cdn.output",
        "CDN output masks re-encrypted to the receiving clients",
        _b_online_output, _tag_is("Cdn-out"),
    ),
    EnvelopeSpec(
        "baseline.cdn_aux", "cdn.setup",
        "CDN threshold-key announcement",
        _b_cdn_setup, _tag_is("cdn-setup"),
    ),
    EnvelopeSpec(
        "baseline.cdn_aux", "cdn.input",
        "a CDN client's encrypted inputs with PoPK",
        _b_cdn_input, _tag_starts("cdn-input:"),
    ),
    EnvelopeSpec(
        "it.messages", "it.p1",
        "IT dealer shares (left/right/out_2d) and client mask shares",
        _b_it_p1, _tag_is("It-P1"),
    ),
    EnvelopeSpec(
        "it.messages", "it.p2",
        "IT degree-reduction transfers (left/right/gamma)",
        _b_it_p2, _tag_is("It-P2"),
    ),
    EnvelopeSpec(
        "it.messages", "it.input",
        "IT client μ broadcast per input wire",
        _b_keyed("mu", "Ni", "fb"), _tag_is("It-input"),
    ),
    EnvelopeSpec(
        "it.messages", "it.mul",
        "IT per-depth μ^γ field-element shares",
        _b_keyed("mu_shares", "Nb", "fb"), _tag_starts("It-mul-"),
    ),
    EnvelopeSpec(
        "service.client_input", "service.client_input",
        "a client's slot ciphertexts with plaintext-knowledge proofs",
        _b_client_input, _tag_starts("svc-input:"),
    ),
    EnvelopeSpec(
        "service.epoch", "service.epoch",
        "epoch opening: workload, input window, epoch key announcement",
        _b_epoch_announcement, _tag_starts("svc-epoch-"),
    ),
    EnvelopeSpec(
        "service.result", "service.result",
        "published aggregate outputs and decryption contributors",
        _b_epoch_result, _tag_starts("svc-result-"),
    ),
    EnvelopeSpec(
        "service.reshare", "service.reshare",
        "one member's encrypted tsk resharing to the next committee",
        _b_service_reshare, _tag_starts("svc-reshare-"),
    ),
)


def resolve_spec(kind: str, tag: str) -> EnvelopeSpec:
    """The spec describing a (kind, tag) envelope."""
    for spec in _SPECS:
        if spec.kind == kind and spec.matches(tag):
            return spec
    raise CostExactnessError(
        f"no symbolic size spec for kind {kind!r}, tag {tag!r}"
    )


def spec_variants(kind: str | None = None) -> tuple[EnvelopeSpec, ...]:
    """All specs, or the specs of one kind."""
    if kind is None:
        return _SPECS
    out = tuple(s for s in _SPECS if s.kind == kind)
    if not out:
        raise CostExactnessError(f"no symbolic size spec for kind {kind!r}")
    return out


# -- formulas -----------------------------------------------------------------

#: An evaluator compiled from a formula: symbol values (ints) -> bytes.
Evaluator = Callable[[dict[str, int]], int]

_FORMULA_CACHE: dict[tuple[str, bool], tuple[Any, Evaluator]] = {}


def envelope_formula(
    kind: str, variant: str | None = None, robust: bool = False
) -> Any:
    """The closed-form envelope size of a kind (sympy expression).

    The expression covers body and framing and subtracts the slack
    symbol ``S``; evaluated at the glossary symbols *and* the envelope's
    run bindings it yields the delivered byte count exactly.
    """
    specs = spec_variants(kind)
    if variant is None:
        if len(specs) > 1:
            raise CostExactnessError(
                f"kind {kind!r} has variants "
                f"{tuple(s.variant for s in specs)}; pick one"
            )
        variant = specs[0].variant
    elif not any(s.variant == variant for s in specs):
        raise CostExactnessError(f"kind {kind!r} has no variant {variant!r}")
    return _formula_for(variant, robust)[0]


def _formula_for(variant: str, robust: bool) -> tuple[Any, Evaluator]:
    """A variant's closed form and the evaluator compiled from it — from
    the expression object the catalog prints, not from a second reading
    of the builder."""
    key = (variant, robust)
    if key not in _FORMULA_CACHE:
        spec = next(s for s in _SPECS if s.variant == variant)
        wire_kind = kind_by_name(spec.kind)
        ctx = _SizeCtx(_Space(symbolic=True, robust=robust))
        body = spec.builder(ctx, None)
        framing = envelope_nominal(
            wire_kind.kind_id, wire_kind.version, sym("R"),
            sym("Ls"), sym("Lp"), sym("Lt"), body,
        )
        expr = body + framing - sym("S")
        _FORMULA_CACHE[key] = (expr, _compile_formula(expr, variant))
    return _FORMULA_CACHE[key]


def _compile_formula(expr: Any, variant: str) -> Evaluator:
    """``expr`` as one Python expression over exact ints.

    Every node kind the builders emit has an integer reading:
    ``ceiling(p/q)`` is ``-(-p // q)`` and ``Vlen`` is ``varint_len``;
    no float enters.  Any other node is refused here, at compile time.
    """
    import sympy

    vlen_type = vlen_function()

    def source(node: Any) -> str:
        if node.is_Symbol:
            return f"v[{node.name!r}]"
        if node.is_Integer:
            return f"({int(node)})"
        if node.is_Add:
            return "(" + " + ".join(map(source, node.args)) + ")"
        if node.is_Mul:
            return "(" + " * ".join(map(source, node.args)) + ")"
        if node.is_Pow and node.exp.is_Integer and node.exp >= 0:
            return f"({source(node.base)} ** {int(node.exp)})"
        if isinstance(node, vlen_type):
            return f"varint_len({source(node.args[0])})"
        if isinstance(node, sympy.ceiling):
            p, q = sympy.fraction(sympy.together(node.args[0]))
            return f"(-(-{source(p)} // {source(q)}))"
        raise CostExactnessError(
            f"{variant}: formula node {node} ({type(node).__name__}) has "
            f"no exact-integer reading"
        )

    compiled = eval(  # the source is built above, from glossary symbols only
        f"lambda v: {source(expr)}", {"varint_len": varint_len}
    )

    def evaluate(values: dict[str, int]) -> int:
        try:
            n_bytes: int = compiled(values)
        except KeyError as exc:
            raise CostExactnessError(
                f"{variant}: formula symbol {exc.args[0]!r} has no value — "
                f"a parameter or binding is missing"
            ) from None
        return n_bytes

    return evaluate


def formula_catalog(robust: bool = False) -> dict[str, Any]:
    """``variant -> formula`` for every registered payload shape."""
    return {s.variant: _formula_for(s.variant, robust)[0] for s in _SPECS}


# -- measurement and verification ---------------------------------------------

@dataclass(frozen=True)
class EnvelopeMeasurement:
    """One envelope's exact accounting: measured, walked, and nominal."""

    kind: str
    variant: str
    tag: str
    sender: str
    phase: str
    round: int
    measured: int       # delivered envelope bytes (the meter's truth)
    actual: int         # bottom-up walk over the decoded values + framing
    nominal: int        # structural closed form at this run's bindings
    slack: int          # nominal − actual (the S binding)
    bindings: dict[str, int]


def measure_post(post: Any, space: _Space) -> EnvelopeMeasurement:
    """Walk one board post and re-derive its size both ways."""
    spec = resolve_spec(post.kind, post.tag)
    wire_kind = kind_by_name(post.kind)
    envelope, payload = post.peek()
    ctx = _SizeCtx(space)
    body_nominal = spec.builder(ctx, payload)
    if ctx.actual != len(envelope.body):
        raise CostExactnessError(
            f"{spec.variant} ({post.tag!r} from {post.sender}): structural "
            f"walk computed {ctx.actual} body bytes, envelope body has "
            f"{len(envelope.body)} — the declared payload shape is stale"
        )
    framing_actual = envelope_wire_len(
        wire_kind.kind_id, wire_kind.version, envelope.round,
        envelope.sender, envelope.phase, envelope.tag, len(envelope.body),
    )
    actual = ctx.actual + framing_actual
    ls = len(envelope.sender.encode("utf-8"))
    lp = len(envelope.phase.encode("utf-8"))
    lt = len(envelope.tag.encode("utf-8"))
    nominal = body_nominal + envelope_nominal(
        wire_kind.kind_id, wire_kind.version, envelope.round,
        ls, lp, lt, body_nominal,
    )
    slack = nominal - actual
    bindings = {
        **ctx.bindings, "R": envelope.round, "Ls": ls, "Lp": lp, "Lt": lt, "S": slack,
    }
    return EnvelopeMeasurement(
        kind=post.kind, variant=spec.variant, tag=post.tag,
        sender=post.sender, phase=post.phase, round=post.round,
        measured=post.n_bytes, actual=actual, nominal=nominal,
        slack=slack, bindings=bindings,
    )


@dataclass(frozen=True)
class KindTotal:
    """Aggregated exactness evidence for one payload variant."""

    kind: str
    variant: str
    envelopes: int
    measured_bytes: int
    formula_bytes: int
    slack_bytes: int


@dataclass(frozen=True)
class ExactnessReport:
    """The outcome of a full-board cross-check."""

    envelopes: int
    total_measured: int
    totals: tuple[KindTotal, ...]

    def __str__(self) -> str:
        lines = [
            f"cost exactness: {self.envelopes} envelopes, "
            f"{self.total_measured} bytes, every kind formula-exact"
        ]
        for tot in self.totals:
            lines.append(
                f"  {tot.variant:<20} {tot.envelopes:>4} env  "
                f"{tot.measured_bytes:>10} B measured == formula "
                f"(slack {tot.slack_bytes} B)"
            )
        return "\n".join(lines)


def verify_cost_exactness(
    result: Any = None,
    *,
    bulletin: Any = None,
    space: _Space | None = None,
    start: int = 0,
) -> ExactnessReport:
    """Assert ``formula == measured bytes`` for every envelope on a board.

    Accepts an :class:`~repro.core.protocol.MpcResult`,
    :class:`~repro.baselines.cdn.CdnResult`, or
    :class:`~repro.extensions.it_yoso.ItYosoResult` (or an explicit
    bulletin + parameter space).  ``start`` skips the posts a caller has
    checked already (the service checks an epoch's posts at its close).
    Raises :class:`CostExactnessError` on the first deviating envelope;
    returns per-variant totals otherwise.
    """
    if result is not None:
        bulletin = getattr(result, "bulletin", None)
        if bulletin is None:
            raise CostExactnessError(
                "result carries no bulletin board; run with metering enabled"
            )
        space = _space_for(result)
    if bulletin is None or space is None:
        raise CostExactnessError("need a result, or a bulletin and a space")

    parameters = space.params()
    # (variant, kind) -> [envelopes, measured, formula, slack] bytes
    sums: dict[tuple[str, str], list[int]] = {}
    for post in islice(bulletin, start, None):
        m = measure_post(post, space)
        if m.actual != m.measured:
            raise CostExactnessError(
                f"{m.variant} ({m.tag!r} from {m.sender}): walked "
                f"{m.actual} bytes, delivered {m.measured}"
            )
        # S is bound to the measured slack, so the formula's value *is*
        # the expected envelope length.
        evaluate = _formula_for(m.variant, space.robust)[1]
        expected = evaluate({**parameters, **m.bindings})
        if expected != m.measured:
            raise CostExactnessError(
                f"{m.variant} ({m.tag!r} from {m.sender}): formula gives "
                f"{expected} bytes, wire delivered {m.measured}"
            )
        tot = sums.setdefault((m.variant, m.kind), [0, 0, 0, 0])
        tot[0] += 1
        tot[1] += m.measured
        tot[2] += expected
        tot[3] += m.slack

    totals = tuple(
        KindTotal(kind, variant, *tot)
        for (variant, kind), tot in sorted(sums.items())
    )
    return ExactnessReport(
        envelopes=sum(t.envelopes for t in totals),
        total_measured=sum(t.measured_bytes for t in totals),
        totals=totals,
    )


def check_run_costs(result: Any) -> None:
    """The evaluators' post-run tail: :func:`verify_cost_exactness` on an
    honest run's board.

    The checker is looked up on this module at call time: the benchmark
    harness and the tests wrap ``symbolic.verify_cost_exactness``.
    """
    verify_cost_exactness(result)


# -- parameter spaces ---------------------------------------------------------

@dataclass(frozen=True)
class CircuitShape:
    """The circuit statistics the cost model needs."""

    n_inputs: int
    n_multiplications: int
    n_outputs: int
    n_batches: int
    n_depths: int
    n_input_clients: int

    @classmethod
    def of_program(cls, program: CircuitProgram) -> CircuitShape:
        """Shape of a compiled program (no re-planning, no rescans)."""
        circuit = program.circuit
        return cls(
            n_inputs=circuit.n_inputs,
            n_multiplications=circuit.n_multiplications,
            n_outputs=circuit.n_outputs,
            n_batches=len(program.plan.mul_batches),
            n_depths=len(program.mul_depths),
            n_input_clients=len(program.input_segments),
        )


def _core_parameters(
    params: Any, shape: CircuitShape, proof_params: Any
) -> dict[str, int]:
    """Parameter-symbol values of a core-protocol configuration."""
    return {
        "n": params.n, "t": params.t, "k": params.k,
        "te": params.te_bits, "rb": params.role_key_bits,
        "ch": proof_params.challenge_bits,
        "st": proof_params.statistical_bits,
        "gates": shape.n_multiplications, "inputs": shape.n_inputs,
        "outputs": shape.n_outputs, "batches": shape.n_batches,
        "depths": shape.n_depths, "clients": shape.n_input_clients,
    }


def space_for_result(result: Any) -> _Space:
    """Concrete parameter space of a core-protocol :class:`MpcResult`."""
    return _Space(
        _core_parameters(
            result.params, CircuitShape.of_program(result.program),
            result.setup.proof_params,
        ),
        robust=result.params.robust_reconstruction,
    )


def space_for_cdn(result: Any) -> _Space:
    """Concrete parameter space of a CDN-baseline :class:`CdnResult`."""
    from repro.nizk.params import ProofParams

    circuit = result.circuit
    proof_params = ProofParams.for_modulus_bits(
        min(result.te_bits, result.role_key_bits)
    )
    return _Space(
        {
            "n": result.n, "t": result.t,
            "te": result.te_bits, "rb": result.role_key_bits,
            "ch": proof_params.challenge_bits,
            "st": proof_params.statistical_bits,
            "gates": circuit.n_multiplications,
            "inputs": circuit.n_inputs, "outputs": circuit.n_outputs,
        }
    )


def space_for_it(result: Any) -> _Space:
    """Concrete parameter space of an IT-prototype :class:`ItYosoResult`."""
    return _Space(
        {"n": result.n, "t": result.t, "k": result.k, "fb": result.field_bits}
    )


def space_for_service(
    *, n: int, t: int, te_bits: int, role_key_bits: int, proof_params: Any
) -> _Space:
    """Concrete parameter space of a service epoch's own envelopes.

    The service board carries no circuit-shaped posts of its own (the
    inner MPC has its own board and its own exactness hook), so only the
    committee and key parameters are needed.
    """
    return _Space(
        {
            "n": n, "t": t, "te": te_bits, "rb": role_key_bits,
            "ch": proof_params.challenge_bits,
            "st": proof_params.statistical_bits,
        }
    )


def _space_for(result: Any) -> _Space:
    if hasattr(result, "field_bits"):
        return space_for_it(result)
    if hasattr(result, "te_bits"):
        return space_for_cdn(result)
    return space_for_result(result)


# -- the per-phase symbolic model ---------------------------------------------

@dataclass(frozen=True)
class PhaseTotal:
    """A phase's predicted traffic: message count and closed-form bytes."""

    phase: str
    messages: int
    n_bytes: int


class SymbolicCostModel:
    """Per-phase communication totals evaluated from the kind formulas.

    Where the exactness check binds run symbols from real payloads, the
    model supplies *representative defaults* (documented per symbol in
    docs/COSTMODEL.md) — predictions are nominal, a few percent above
    the wire because slack is unknowable before the values exist, and
    extrapolations need no run at all.
    """

    def __init__(self, params: Any, shape: Any, proof_params: Any = None) -> None:
        from repro.nizk.params import ProofParams

        self.params = params
        self.shape = shape
        self.proof_params = (
            proof_params
            if proof_params is not None
            else ProofParams.for_modulus_bits(params.te_bits)
        )

    # -- symbol values -------------------------------------------------------

    def _tsk_share_bits(self) -> int:
        """Representative threshold-share width mid resharing chain."""
        import math

        p = self.params
        delta_bits = max(
            1, int(math.lgamma(p.n + 1) / math.log(2))
        )
        per_epoch = (
            self.proof_params.statistical_bits
            + delta_bits
            + (p.t + 1).bit_length()
        )
        return (
            2 * p.te_bits
            + self.proof_params.statistical_bits
            + 24
            + 2 * per_epoch
        )

    def default_bindings(self) -> dict[str, int]:
        """Representative run-symbol values for prediction (not exactness)."""
        p, s = self.params, self.shape
        share_bits = self._tsk_share_bits()
        depths = max(1, s.n_depths)
        clients = max(1, s.n_input_clients)
        return {
            "R": 1, "Lp": 7, "S": 0,
            "OB": share_bits + 1,
            "Zpd": share_bits
            + self.proof_params.challenge_bits
            + self.proof_params.statistical_bits
            + 1,
            "Ni": cdiv(s.n_inputs, clients) if s.n_inputs else 0,
            "Nb": cdiv(s.n_batches, depths),
            "Gd": cdiv(s.n_multiplications, depths),
            "Nt": 3,
            "Kn": depths * p.n + clients,
            "Lk": self._kff_tag_bytes(),
        }

    def _kff_tag_bytes(self) -> int:
        """Σ length of the KFF tags: mul-role tags plus client tags."""
        p, s = self.params, self.shape
        total = 0
        for d in range(max(1, s.n_depths)):
            prefix = len(f"Con-mul-{d}[]")
            total += p.n * prefix + digit_sum(p.n)
        total += max(1, s.n_input_clients) * len("client:xxxxx")
        return total

    # -- evaluation ----------------------------------------------------------

    def _eval(self, variant: str, **overrides: int) -> int:
        """One envelope's nominal bytes at the default bindings."""
        robust = getattr(self.params, "robust_reconstruction", False)
        evaluate = _formula_for(variant, robust)[1]
        return evaluate({
            **_core_parameters(self.params, self.shape, self.proof_params),
            **self.default_bindings(),
            **overrides,
        })

    def _committee_bytes(self, variant: str, tag: str, **overrides: int) -> int:
        """n members' envelopes, exact about per-member sender digits."""
        n = self.params.n
        ls0 = len(tag) + 3  # "Tag[i]" with a one-digit index
        per = self._eval(variant, Ls=ls0, Lt=len(tag), **overrides)
        # Ls appears with coefficient 1 (framing only): correct the digits.
        return n * per + (digit_sum(n) - n)

    def predict_setup(self) -> PhaseTotal:
        return PhaseTotal(
            "setup", 1,
            self._eval(
                "setup.keys", Ls=len("F-setup"), Lp=len("setup"),
                Lt=len("setup-keys"),
            ),
        )

    def predict_offline(self) -> PhaseTotal:
        total = (
            self._committee_bytes("offline.beaver_a", "Coff-A")
            + self._committee_bytes("offline.beaver_b", "Coff-B")
            + self._committee_bytes("offline.masks", "Coff-R")
            + self._committee_bytes("offline.partials", "Coff-dec")
            + self._committee_bytes("offline.reencrypt", "Coff-reenc")
        )
        return PhaseTotal("offline", 5 * self.params.n, total)

    def predict_online(self) -> PhaseTotal:
        s = self.shape
        clients = max(1, s.n_input_clients)
        depths = max(1, s.n_depths)
        total = self._committee_bytes("online.keys", "Con-keys")
        messages = self.params.n
        if s.n_inputs:
            total += clients * self._eval(
                "online.input", Ls=len("client:xxxxx[1]"),
                Lt=len("input:xxxxx"),
            )
            messages += clients
        if s.n_multiplications:
            total += self._mul_committee_total()
            messages += depths * self.params.n
        if s.n_outputs:
            total += self._committee_bytes("online.output", "Con-out")
            messages += self.params.n
        return PhaseTotal("online", messages, total)

    def predict_total(self) -> PhaseTotal:
        setup = self.predict_setup()
        offline = self.predict_offline()
        online = self.predict_online()
        return PhaseTotal(
            "total",
            setup.messages + offline.messages + online.messages,
            setup.n_bytes + offline.n_bytes + online.n_bytes,
        )

    # -- per-gate views ------------------------------------------------------

    def _mul_committee_total(self) -> int:
        """All mu_shares envelopes: every member speaks once per depth,
        and a depth's envelopes carry that depth's batches."""
        s = self.shape
        depths = max(1, s.n_depths)
        base, extra = divmod(s.n_batches, depths)
        total = 0
        for d in range(depths):
            total += self._committee_bytes(
                "online.mu_shares", f"Con-mul-{d}",
                Nb=base + (1 if d < extra else 0),
            )
        return total

    def online_mul_bytes_per_gate(self) -> float:
        """μ-share bytes per multiplication — entries *and* post framing,
        matching the meter's ``Con-mul-*`` records."""
        if not self.shape.n_multiplications:
            return 0.0
        return self._mul_committee_total() / self.shape.n_multiplications

    def offline_bytes_per_gate(self) -> float:
        if not self.shape.n_multiplications:
            return 0.0
        return self.predict_offline().n_bytes / self.shape.n_multiplications


def extrapolated_mu_bytes_per_gate(
    n: int, epsilon: float, k: int, te_bits: int = 2048
) -> float:
    """Online μ-share bytes per gate at deployment scale, formulas only.

    One batch of ``k`` gates costs the committee one round of mu_shares
    envelopes; no simulation is run — this is the ``online.mu_shares``
    closed form evaluated at (n, k, te).  ``k = 1`` gives the ε = 0
    baseline, so the ratio of the two is the paper's improvement factor.
    """
    from dataclasses import replace

    from repro.core.params import ProtocolParams

    params = replace(
        ProtocolParams.from_gap(n, epsilon, te_bits=te_bits), k=k
    )
    shape = CircuitShape(
        n_inputs=0, n_multiplications=k, n_outputs=0,
        n_batches=1, n_depths=1, n_input_clients=0,
    )
    return SymbolicCostModel(params, shape).online_mul_bytes_per_gate()
