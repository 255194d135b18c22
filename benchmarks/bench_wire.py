"""Micro-experiment M4: wire-codec throughput per envelope kind.

Every bulletin post crosses the codec twice (encode at post, decode at
read), so codec speed bounds how much of a run's wall clock the byte-real
board can cost.  Run as a script this times encode and decode for a
representative payload of every registered envelope kind and writes
``BENCH_wire.json`` (ops/s and MB/s per kind); under pytest-benchmark it
times the two dominant shapes (a μ-share bundle and a resharing-carrying
offline post).

Payloads use the 64-bit test moduli: the codec's own overhead is the
quantity here, not bignum arithmetic, and byte counts scale linearly with
the modulus width anyway.
"""

from __future__ import annotations

import argparse
import json
import random
import time

# Phase-module imports register every envelope kind (same side effect a
# protocol run relies on).
import repro.baselines.cdn  # noqa: F401
import repro.core.offline  # noqa: F401
import repro.core.online  # noqa: F401
import repro.core.setup  # noqa: F401
import repro.extensions.it_yoso  # noqa: F401
import repro.service.wire  # noqa: F401

from repro.core.reencrypt import EncryptedPartial, PublicPartial
from repro.core.resharing import EncryptedResharing, EncryptedSubshare
from repro.nizk.sigma import (
    MultiplicationProof,
    PartialDecryptionProof,
    PlaintextDlogEqualityProof,
    PlaintextKnowledgeProof,
)
from repro.paillier import generate_keypair
from repro.paillier.threshold import PartialDecryption
from repro.service.wire import ClientInput, EpochAnnouncement, EpochResult
from repro.wire import (
    Envelope,
    KeyAnnouncement,
    SocketTransport,
    WireCodec,
    decode_envelope,
    encode_envelope,
    kind_for_tag,
    registered_kinds,
)


def build_payloads(keypair):
    """kind name -> (bulletin tag, payload) mirroring the protocol's posts.

    The heavy leaves are shared instances — cheap to build and fine for
    throughput timing, where only widths matter.
    """
    public = keypair.public
    _ct = public.encrypt(1)

    def ct():
        return _ct

    def big():          # commitment / response-sized proof field
        return 7

    def echal():        # challenge-sized proof field
        return 5

    def word():         # plaintext-space (mod 2^te_bits) value
        return 123

    def popk():
        return PlaintextKnowledgeProof(big(), echal(), big())

    def pdec():
        return PartialDecryptionProof(big(), echal(), big())

    def pp():
        return PublicPartial(PartialDecryption(1, big(), 0), pdec())

    def ep():
        return EncryptedPartial(2, 0, (ct(), ct()), pdec())

    def sub():
        return EncryptedSubshare(
            1, (ct(),), (big(),),
            (PlaintextDlogEqualityProof(big(), echal(), big(), big()),),
        )

    def resh():
        return EncryptedResharing(
            3, 1, big(), (big(), big()), tuple(sub() for _ in range(4))
        )

    def mu_proof():
        return random.Random(5).randbytes(192)

    wires = range(4)
    return {
        "generic": ("debug-blob", {"note": "unregistered", "x": 1}),
        "setup.keys": ("setup-keys", {
            "te": {
                "tpk": KeyAnnouncement(public.n),
                "verification_base": 4,
                "tsk_verifications": [big(), big(), big()],
            },
            "kff": {f"Con-mul-1[{i}]": {
                "public_key": KeyAnnouncement(public.n),
                "encrypted_prime": [ct(), ct()],
            } for i in wires},
        }),
        "offline.beaver_a": ("Coff-A", {
            "beaver_a": {w: {"ct": ct(), "proof": popk()} for w in wires},
            "tsk": resh(),
        }),
        "offline.beaver_b": ("Coff-B", {
            "beaver_b": {w: {
                "b_ct": ct(), "c_ct": ct(),
                "proof": MultiplicationProof(big(), echal(), big(), big()),
            } for w in wires},
        }),
        "offline.masks": ("Coff-R", {
            "masks": {w: {"ct": ct(), "proof": popk()} for w in wires},
            "helpers": {(0, "eps", h): {"ct": ct(), "proof": popk()}
                        for h in wires},
        }),
        "offline.partials": ("Coff-dec", {
            "partials": {w: {"eps": pp(), "delta": pp()} for w in wires},
            "tsk": resh(),
        }),
        "offline.reencrypt": ("Coff-reenc", {
            "input_shares": {w: ep() for w in wires},
            "packed_shares": {(0, w, "eps"): ep() for w in wires},
            "tsk": resh(),
        }),
        "online.keys": ("Con-keys", {
            "kff": {f"Con-mul-1[{i}]": [ep(), ep()] for i in wires},
            "tsk": resh(),
        }),
        "online.input": ("input:alice", {"mu": {w: word() for w in wires}}),
        "online.mu_shares": ("Con-mul-1", {
            "mu_shares": {w: {"value": word(), "proof": mu_proof()}
                          for w in wires},
        }),
        "online.output": ("Con-out", {"output": {w: ep() for w in wires}}),
        "baseline.cdn": ("Cdn-triple-A", {
            "triples": {w: {"ct": ct(), "proof": popk()} for w in wires},
        }),
        "baseline.cdn_aux": ("cdn-setup", {"tpk": KeyAnnouncement(public.n)}),
        "it.messages": ("It-mul-1", {"mu_shares": {w: word() % 97 for w in wires}}),
        "service.client_input": ("svc-input:0:client-0000001", ClientInput(
            "client-0000001", 0, (ct(), ct()), (popk(), popk()),
        )),
        "service.epoch": ("svc-epoch-0", EpochAnnouncement(
            0, "statistics", 2, 1, KeyAnnouncement(public.n), 4,
        )),
        "service.result": ("svc-result-0", EpochResult(
            0, "statistics", (161, 26905, 984), (1, 2, 3),
        )),
        "service.reshare": ("svc-reshare-0-1", {"tsk": resh()}),
    }


def _encode(codec, tag, payload):
    body = codec.encode(payload)
    return encode_envelope(
        Envelope(kind_for_tag(tag).name, f"{tag}[1]", 0, "bench", tag, body)
    )


def _best_rate(fn, repeats, iterations):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, time.perf_counter() - start)
    return iterations / best


def sweep(repeats, iterations):
    keypair = generate_keypair(64)
    codec = WireCodec()
    codec.keyring.add(keypair.public)
    payloads = build_payloads(keypair)
    results = []
    for kind in registered_kinds():
        tag, payload = payloads[kind.name]
        encoded = _encode(codec, tag, payload)
        size = len(encoded)

        enc_ops = _best_rate(
            lambda: _encode(codec, tag, payload), repeats, iterations
        )

        def full_decode():
            codec.decode(decode_envelope(encoded).body)

        dec_ops = _best_rate(full_decode, repeats, iterations)
        results.append({
            "kind": kind.name,
            "kind_id": kind.kind_id,
            "envelope_bytes": size,
            "encode_ops_s": round(enc_ops),
            "decode_ops_s": round(dec_ops),
            "encode_mb_s": round(enc_ops * size / 1e6, 2),
            "decode_mb_s": round(dec_ops * size / 1e6, 2),
        })
        print(f"  {kind.name:20s} {size:6d} B   "
              f"enc {enc_ops:9.0f}/s ({enc_ops * size / 1e6:7.1f} MB/s)   "
              f"dec {dec_ops:9.0f}/s ({dec_ops * size / 1e6:7.1f} MB/s)")
    return results


def socket_roundtrip(repeats, iterations):
    """One cross-process delivery row: coordinator → worker → re-encode → back.

    Measures the full :class:`SocketTransport` round trip for the dominant
    online shape (a μ-share bundle), i.e. what one bulletin post costs
    once every party decodes in its own OS process.
    """
    keypair = generate_keypair(64)
    codec = WireCodec()
    codec.keyring.add(keypair.public)
    tag, payload = build_payloads(keypair)["online.mu_shares"]
    body = codec.encode(payload)
    envelope = Envelope(kind_for_tag(tag).name, f"{tag}[1]", 0, "bench", tag, body)
    encoded = encode_envelope(envelope)
    transport = SocketTransport(workers=2, mode="auto")
    try:
        transport.announce_keys([keypair.public.n])
        transport.deliver(envelope, encoded)  # warm up: spawn + handshake
        ops = _best_rate(
            lambda: transport.deliver(envelope, encoded), repeats, iterations
        )
        row = {
            "transport": transport.describe(),
            "envelope_bytes": len(encoded),
            "roundtrip_ops_s": round(ops),
            "roundtrip_mb_s": round(ops * len(encoded) / 1e6, 2),
        }
        print(f"  {'socket-transport':20s} {len(encoded):6d} B   "
              f"rt {ops:9.0f}/s ({ops * len(encoded) / 1e6:7.1f} MB/s)   "
              f"[{transport.describe()}]")
        return row
    finally:
        transport.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--out", default="BENCH_wire.json")
    args = parser.parse_args(argv)

    print(f"wire codec sweep: {len(registered_kinds())} kinds, "
          f"{args.iterations} iterations x {args.repeats} repeats")
    report = {
        "modulus_bits": 64,
        "repeats": args.repeats,
        "iterations": args.iterations,
        "kinds": sweep(args.repeats, args.iterations),
        "socket_transport": socket_roundtrip(
            args.repeats, max(1, args.iterations // 10)
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


# --- pytest-benchmark entry points (`make bench`) ---------------------------

_KEYPAIR = generate_keypair(64)
_CODEC = WireCodec()
_CODEC.keyring.add(_KEYPAIR.public)
_PAYLOADS = build_payloads(_KEYPAIR)


def test_mu_share_encode_speed(benchmark):
    tag, payload = _PAYLOADS["online.mu_shares"]
    benchmark(_encode, _CODEC, tag, payload)


def test_offline_post_decode_speed(benchmark):
    tag, payload = _PAYLOADS["offline.reencrypt"]
    encoded = _encode(_CODEC, tag, payload)
    result = benchmark(
        lambda: _CODEC.decode(decode_envelope(encoded).body)
    )
    assert result == _CODEC.decode(_CODEC.encode(result))


if __name__ == "__main__":
    raise SystemExit(main())
