"""Reproducibility: seeded runs are bit-for-bit deterministic."""

import hashlib
import math
import random

import pytest

from repro.baselines import CdnYosoMpc, TurbopackSimulator
from repro.circuits import CircuitBuilder, compile_circuit, dot_product_circuit
from repro.core import ProtocolParams, YosoMpc, run_mpc
from repro.engine import engine as engine_mod
from repro.engine import jobs as jobs_mod
from repro.extensions import ItYosoMpc
from repro.fields import Zmod
from repro.service import MpcService, ServiceClient


def _board_bytes(bulletin) -> list[bytes]:
    return [post.encoded for post in bulletin]


class TestDeterminism:
    def test_same_seed_same_everything(self):
        circuit = dot_product_circuit(2)
        inputs = {"alice": [3, 1], "bob": [4, 1]}
        a = run_mpc(circuit, inputs, n=4, epsilon=0.2, seed=7)
        b = run_mpc(circuit, inputs, n=4, epsilon=0.2, seed=7)
        assert a.outputs == b.outputs
        assert a.setup.tpk.n == b.setup.tpk.n
        assert [p.tag for p in a.bulletin] == [p.tag for p in b.bulletin]
        assert _board_bytes(a.bulletin) == _board_bytes(b.bulletin)

    def test_different_seeds_different_keys(self):
        circuit = dot_product_circuit(2)
        inputs = {"alice": [1, 1], "bob": [1, 1]}
        a = run_mpc(circuit, inputs, n=4, epsilon=0.2, seed=1)
        b = run_mpc(circuit, inputs, n=4, epsilon=0.2, seed=2)
        # Threshold modulus comes from fixtures (same), but all role keys,
        # masks and randomness differ — check a distinguishable artifact.
        a_posts = [r.n_bytes for r in a.meter.records]
        b_posts = [r.n_bytes for r in b.meter.records]
        assert a_posts != b_posts or a.offline.epsilon_delta != b.offline.epsilon_delta
        assert a.outputs == b.outputs  # correctness is seed-independent

    def test_seeded_protocol_object_reuse(self):
        circuit = dot_product_circuit(2)
        inputs = {"alice": [2, 2], "bob": [3, 3]}
        params = ProtocolParams.from_gap(4, 0.2)
        one = YosoMpc(params, rng=random.Random(5)).run(circuit, inputs)
        two = YosoMpc(params, rng=random.Random(5)).run(circuit, inputs)
        assert one.outputs == two.outputs == {"alice": [12]}


# -- the fixed-base table store never changes a byte ---------------------------
#
# 128-bit keys: N² has 256 bits, above the store's modulus floor, so the
# Σ-proofs' shared base v^Δ does earn a table in the runs below (asserted).

def _core_board():
    circuit = dot_product_circuit(2)
    params = ProtocolParams.from_gap(4, 0.2, te_bits=128, role_key_bits=128)
    result = YosoMpc(params, rng=random.Random(21)).run(
        circuit, {"alice": [3, 1], "bob": [4, 1]}
    )
    assert result.outputs == {"alice": [13]}
    return _board_bytes(result.bulletin)


def _cdn_board():
    circuit = dot_product_circuit(2)
    result = CdnYosoMpc(n=5, t=1, te_bits=128, rng=random.Random(22)).run(
        circuit, {"alice": [3, 1], "bob": [4, 1]}
    )
    assert result.outputs == {"alice": [13]}
    return _board_bytes(result.bulletin)


def _service_boards():
    rng = random.Random(23)
    with MpcService(workload="statistics", statistics_groups=2, te_bits=128,
                    role_key_bits=128, seed=24) as svc:
        announcement = svc.open_epoch()
        for i in range(6):
            client = ServiceClient(f"client-{i}", announcement, rng=rng)
            svc.submit(client.build_input(rng.randrange(50)))
        svc.ingest()
        summary = svc.close_epoch()
        outer = _board_bytes(svc.board)
    return outer + _board_bytes(summary.inner_result.bulletin)


def _builtin_pows(jobs):
    """The kernel's contract with no table and no Straus pass: ``pow`` alone."""
    return [
        math.prod(pow(b, x, m) for b, x in zip(base, e)) % m
        if isinstance(base, tuple) else pow(base, e, m)
        for base, e, m in jobs
    ]


@pytest.mark.parametrize("board", [_core_board, _cdn_board, _service_boards])
def test_board_bytes_identical_with_and_without_tables(board, monkeypatch):
    jobs_mod.clear_tables()
    with_tables = board()
    assert jobs_mod._TABLES.table_bytes > 0, "the run never built a table"
    monkeypatch.setattr(engine_mod, "compute_pows", _builtin_pows)
    jobs_mod.clear_tables()
    plain = board()
    assert jobs_mod._TABLES.table_bytes == 0
    assert plain == with_tables


# -- pinned transcripts --------------------------------------------------------
#
# sha256 over the delivered bytes of one seeded run per evaluator, stable
# across PYTHONHASHSEED.  A refactor that is meant to change nothing
# observable must leave all eight alone.  Two circuits: the dot product
# (one depth, full batches, ADD only — pinned at 584370e) and a wide one
# with all seven gate kinds, two multiplicative depths and a short batch
# ([2,1,1] at k=2, [3,1] at k=3 — pinned at 95ec28f, as were both Turbopack
# digests once they started covering the generator's end state).  Both CDN
# digests re-pinned at ccbd8d4: Beaver draws in core's order (EXPERIMENTS §S3).
# Both IT digests re-pinned when a deal became one uint64 row per kind
# (it.messages v2, TAG_FIELD_ROW): the framing moved, the draws did not —
# test_pinned_it_shares below holds the shares to their earlier values.

_PIN_INPUTS = {"alice": [3, 1], "bob": [4, 1]}
_WIDE_INPUTS = {"alice": [3, 1, 4], "bob": [1, 5, 9]}


def _wide_circuit():
    b = CircuitBuilder()
    a, c = b.inputs("alice", 3), b.inputs("bob", 3)
    s, d = b.add(a[0], c[0]), b.sub(a[1], c[1])
    m1 = b.mul(b.cadd(10, s), b.cmul(3, d))
    m2 = b.mul(a[2], c[2])
    m3 = b.mul(s, d)
    chain = b.cadd(7, b.cmul(5, b.sub(m1, m2)))
    b.output(b.mul(chain, m3), "alice")
    b.output(chain, "bob")
    return b.build()


def _board_digest(bulletin) -> str:
    h = hashlib.sha256()
    for post in bulletin:
        h.update(len(post.encoded).to_bytes(8, "big"))
        h.update(post.encoded)
    return h.hexdigest()


def _pinned_core(circuit, inputs, params, seed):
    result = YosoMpc(params, rng=random.Random(seed)).run(circuit, inputs)
    return result.outputs, result.setup.ring, _board_digest(result.bulletin)


def _pinned_cdn(circuit, inputs, seed):
    result = CdnYosoMpc(n=5, t=1, te_bits=64, rng=random.Random(seed)).run(
        circuit, inputs
    )
    ring = Zmod(result.modulus, assume_prime=False)
    return result.outputs, ring, _board_digest(result.bulletin)


def _pinned_it(circuit, inputs, k, seed):
    protocol = ItYosoMpc(n=11, t=1, k=k, rng=random.Random(seed))
    result = protocol.run(circuit, inputs)
    return result.outputs, protocol.ring, _board_digest(result.bulletin)


def _pinned_turbopack(circuit, inputs, seed):
    sim = TurbopackSimulator(n=7, t=1, k=3, rng=random.Random(seed))
    result = sim.run(circuit, inputs)
    # Message sizes alone cannot see a draw-order change; the generator's
    # end state can.
    records = [(r.phase, r.sender, r.tag, r.n_bytes) for r in result.meter.records]
    h = hashlib.sha256(repr(records).encode())
    h.update(hashlib.sha256(repr(sim.rng.getstate()).encode()).digest())
    return result.outputs, sim.ring, h.hexdigest()


@pytest.mark.parametrize("run, kwargs, wide, digest", [
    (_pinned_core, {"params": ProtocolParams.from_gap(4, 0.2), "seed": 21}, False,
     "a1490ec5976a5c882e6f6ac0d9ee33a459f29c71773dc19edfeb739a6a2fcb02"),
    (_pinned_cdn, {"seed": 22}, False,
     "76df529011d07bc4868fc737889bde7b127edc0e4e81ff689b77a3828bc1426f"),
    (_pinned_it, {"k": 5, "seed": 23}, False,
     "fece77eb9daffbe056cb2621084225e2b0e1ce340a1db64d52f1e43945f07f6c"),
    (_pinned_turbopack, {"seed": 24}, False,
     "a795b135a7df8764d63c971f795737183e4143df4896fa75ed5b13adb8f2f01c"),
    (_pinned_core, {"params": ProtocolParams.from_gap(5, 0.25), "seed": 31}, True,
     "94f7ac3868770e44f24d8ff694c5d4b7ae5b87de8ab2ca6b23eaa974d8f4c415"),
    (_pinned_cdn, {"seed": 32}, True,
     "e841921bf58e4aae67198439ca680541f56953c6d563e311599d18d86186aa6c"),
    (_pinned_it, {"k": 3, "seed": 33}, True,
     "e9fabf601debc393930d120b77b40710865201607d7859d37623ea6521d7d674"),
    (_pinned_turbopack, {"seed": 34}, True,
     "921728fdf7a62748da905adcc4ee1e511a7200d64fba7210eaf0aa49975adf41"),
], ids=["core", "cdn", "it", "turbopack",
        "core-wide", "cdn-wide", "it-wide", "turbopack-wide"])
def test_pinned_transcript(run, kwargs, wide, digest):
    circuit = _wide_circuit() if wide else dot_product_circuit(2)
    inputs = _WIDE_INPUTS if wide else _PIN_INPUTS
    outputs, ring, measured = run(circuit, inputs, **kwargs)
    expected = compile_circuit(circuit, 1).evaluate(ring, inputs).outputs
    assert outputs == {c: [int(v) for v in vs] for c, vs in expected.items()}
    assert measured == digest


# -- what the IT dealers drew, whatever its framing ------------------------------
#
# sha256 over every dealt (It-P1) and transferred (It-P2) share of the two
# pinned IT runs, in (post, kind, batch, member) order, with each post's
# sender and each kind's name.  The board digests above change when the
# framing of a deal changes; these change only when a draw or a share does.

def _it_share_digest(bulletin) -> str:
    h = hashlib.sha256()
    for post in bulletin:
        section = {"It-P1": "deals", "It-P2": "transfers"}.get(post.tag)
        if section is None:
            continue
        rows = post.payload[section]
        h.update(post.sender.encode())
        for kind, row in sorted(rows.items()):
            h.update(kind.encode())
            # A row is batch-major: batch by batch, member by member.
            for share in row.tolist():
                h.update(share.to_bytes(8, "big"))
    return h.hexdigest()


@pytest.mark.parametrize("k, seed, wide, digest", [
    (5, 23, False, "ec5ed37a65f33686cdf46ac29bce3602794ec0b3cb61a8d0ebfb70ff9dc699e2"),
    (3, 33, True, "0e33d5bbf99d473f2f5937a21864647911441d25935c4c27155dbaf3e2292db0"),
], ids=["it", "it-wide"])
def test_pinned_it_shares(k, seed, wide, digest):
    circuit = _wide_circuit() if wide else dot_product_circuit(2)
    inputs = _WIDE_INPUTS if wide else _PIN_INPUTS
    result = ItYosoMpc(n=11, t=1, k=k, rng=random.Random(seed)).run(circuit, inputs)
    assert _it_share_digest(result.bulletin) == digest
