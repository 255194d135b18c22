"""Property/fuzz tests for the wire layer.

Two properties anchor the codec's canonical-format contract:

1. **Round trip**: for every value the codec accepts,
   ``decode(encode(v)) == v`` and ``encode(decode(b)) == b``.
2. **Loud rejection**: *every* mutation of a valid byte string — any
   truncation, any single-bit flip — raises :class:`WireDecodeError`.
   A decoder that returns a wrong value instead of an error is the
   failure mode these tests exist to rule out.

The suite runs on a seeded ``random.Random`` generator so it is fully
deterministic in CI; when Hypothesis is installed an extra pass explores
the same properties with shrinking.
"""

import random

import pytest

from repro.errors import WireDecodeError
from repro.paillier import generate_keypair
from repro.wire import (
    Envelope,
    KeyAnnouncement,
    WireCodec,
    decode_envelope,
    encode_envelope,
    kind_for_tag,
)
from repro.wire.codec import TAG_LIST, TAG_TUPLE, read_varint, write_varint

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

SEED = 20260805  # fixed seed: CI runs are reproducible
N_RANDOM_VALUES = 150
N_ENVELOPE_MUTATIONS = 40


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(64)


@pytest.fixture(scope="module")
def codec(keypair):
    c = WireCodec()
    c.keyring.add(keypair.public)
    return c


# -- seeded value generator ---------------------------------------------------

def random_value(rng: random.Random, keypair, depth: int = 0):
    """One random codec-encodable value (containers shrink with depth)."""
    leaf_kinds = [
        "none", "bool", "small_int", "big_int", "neg_int",
        "bytes", "str", "announcement", "ciphertext",
    ]
    kinds = list(leaf_kinds)
    if depth < 3:
        kinds += ["list", "tuple", "dict"] * 2
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "small_int":
        return rng.randint(-300, 300)
    if kind == "big_int":
        return rng.getrandbits(rng.randint(1, 512))
    if kind == "neg_int":
        return -rng.getrandbits(rng.randint(1, 256)) - 1
    if kind == "bytes":
        return rng.randbytes(rng.randint(0, 40))
    if kind == "str":
        return "".join(
            rng.choice("abcdefghij κλμ 0123_") for _ in range(rng.randint(0, 20))
        )
    if kind == "announcement":
        return KeyAnnouncement(keypair.public.n)
    if kind == "ciphertext":
        return keypair.public.encrypt(rng.randint(0, 1000), rng=rng)
    if kind in ("list", "tuple"):
        items = [
            random_value(rng, keypair, depth + 1)
            for _ in range(rng.randint(0, 5))
        ]
        return items if kind == "list" else tuple(items)
    # dict: string keys (the codec's sectioned-message shape)
    return {
        f"k{rng.randint(0, 50)}": random_value(rng, keypair, depth + 1)
        for _ in range(rng.randint(0, 5))
    }


# -- varints ------------------------------------------------------------------

class TestVarintFuzz:
    def test_roundtrip_random_magnitudes(self):
        rng = random.Random(SEED)
        for _ in range(500):
            value = rng.getrandbits(rng.randint(0, 63))
            out = bytearray()
            write_varint(out, value)
            decoded, pos = read_varint(bytes(out), 0)
            assert decoded == value
            assert pos == len(out)

    def test_boundaries(self):
        for value in (0, 1, 127, 128, 16383, 16384, 2**21 - 1, 2**63 - 1):
            out = bytearray()
            write_varint(out, value)
            assert read_varint(bytes(out), 0) == (value, len(out))

    def test_non_minimal_rejected(self):
        # 0x80 0x00 is a padded zero — canonical form is a bare 0x00.
        with pytest.raises(WireDecodeError, match="non-minimal"):
            read_varint(b"\x80\x00", 0)

    def test_unterminated_rejected(self):
        with pytest.raises(WireDecodeError, match="truncated varint"):
            read_varint(b"\x80\x80", 0)

    def test_overlong_rejected(self):
        with pytest.raises(WireDecodeError, match="varint too long"):
            read_varint(b"\xff" * 10, 0)


# -- codec values -------------------------------------------------------------

class TestCodecFuzz:
    def test_random_values_roundtrip(self, codec, keypair):
        rng = random.Random(SEED)
        for _ in range(N_RANDOM_VALUES):
            value = random_value(rng, keypair)
            encoded = codec.encode(value)
            decoded = codec.decode(encoded)
            assert decoded == value
            # Canonical: re-encoding the decode is byte-identical.
            assert codec.encode(decoded) == encoded

    def test_int_vectors_roundtrip_and_truncate_loudly(self, codec):
        # The share-vector shape: runs of ints inside lists and tuples,
        # widths straddling the one-byte-length boundary (127 | 128 bytes),
        # with the values the inline path must hand on mixed in.
        rng = random.Random(SEED + 3)
        widths = [1, 7, 8, 61, 64, 256, 1009, 1016, 1017, 1024, 2048]
        for _ in range(60):
            items = []
            for _ in range(rng.randint(0, 12)):
                roll = rng.random()
                if roll < 0.7:
                    magnitude = rng.getrandbits(rng.choice(widths))
                    items.append(magnitude if rng.random() < 0.7 else -magnitude)
                elif roll < 0.8:
                    items.append(rng.random() < 0.5)
                elif roll < 0.9:
                    items.append([rng.getrandbits(61), (0, -1)])
                else:
                    items.append(None)
            value = items if rng.random() < 0.5 else tuple(items)
            encoded = codec.encode(value)
            # The reference: every element encoded on its own.
            header = bytearray([TAG_LIST if type(value) is list else TAG_TUPLE])
            write_varint(header, len(value))
            assert encoded == bytes(header) + b"".join(map(codec.encode, value))
            decoded = codec.decode(encoded)
            assert repr(decoded) == repr(value)
            for cut in range(len(encoded)):
                with pytest.raises(WireDecodeError):
                    codec.decode(encoded[:cut])

    def test_every_truncation_rejected(self, codec, keypair):
        rng = random.Random(SEED + 1)
        for _ in range(25):
            encoded = codec.encode(random_value(rng, keypair))
            for cut in range(len(encoded)):
                with pytest.raises(WireDecodeError):
                    codec.decode(encoded[:cut])

    def test_random_garbage_never_returns_silently_wrong(self, codec):
        # Garbage either decodes to *something* the codec would re-encode
        # to those exact bytes (i.e. it accidentally IS canonical), or it
        # raises — it never half-parses.
        rng = random.Random(SEED + 2)
        for _ in range(200):
            blob = rng.randbytes(rng.randint(1, 60))
            try:
                value = codec.decode(blob)
            except WireDecodeError:
                continue
            assert codec.encode(value) == blob


# -- envelope mutations -------------------------------------------------------

def _sample_envelope(codec, keypair, rng) -> bytes:
    payload = {
        "mu": {rng.randint(0, 9): rng.randint(0, 10**6)},
        "note": "fuzz",
        "ct": keypair.public.encrypt(rng.randint(0, 99), rng=rng),
    }
    body, _ = codec.encode_payload(payload)
    tag = "input:alice"
    kind = kind_for_tag(tag)
    envelope = Envelope(
        kind.name, f"input:alice[{rng.randint(1, 9)}]",
        rng.randint(0, 40), "online", tag, body,
    )
    return encode_envelope(envelope, kind=kind)


class TestEnvelopeFuzz:
    def test_every_bit_flip_raises(self, codec, keypair):
        """The tentpole integrity property: no flipped bit decodes quietly.

        Wire version 2 checksums the whole frame, so even flips in header
        fields that still parse structurally (round, kind version, sender
        text) are caught by the CRC rather than mis-decoding.
        """
        rng = random.Random(SEED + 3)
        data = _sample_envelope(codec, keypair, rng)
        for byte_index in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[byte_index] ^= 1 << bit
                with pytest.raises(WireDecodeError):
                    decode_envelope(bytes(flipped))

    def test_every_truncation_raises(self, codec, keypair):
        rng = random.Random(SEED + 4)
        data = _sample_envelope(codec, keypair, rng)
        for cut in range(len(data)):
            with pytest.raises(WireDecodeError):
                decode_envelope(data[:cut])

    def test_random_envelopes_roundtrip(self, codec, keypair):
        rng = random.Random(SEED + 5)
        for _ in range(N_ENVELOPE_MUTATIONS):
            data = _sample_envelope(codec, keypair, rng)
            decoded = decode_envelope(data)
            assert encode_envelope(decoded, kind=kind_for_tag(decoded.tag)) == data


# -- hypothesis pass (skipped when the library is absent) ---------------------

if HAVE_HYPOTHESIS:

    json_values = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**256), max_value=2**256)
        | st.binary(max_size=64)
        | st.text(max_size=32),
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=20,
    )

    class TestHypothesisPass:
        @settings(max_examples=200, deadline=None)
        @given(value=json_values)
        def test_roundtrip(self, value):
            codec = WireCodec()
            encoded = codec.encode(value)
            decoded = codec.decode(encoded)
            assert decoded == value
            assert codec.encode(decoded) == encoded

        @settings(max_examples=200, deadline=None)
        @given(value=st.integers(min_value=0, max_value=2**63 - 1))
        def test_varint_roundtrip(self, value):
            out = bytearray()
            write_varint(out, value)
            assert read_varint(bytes(out), 0) == (value, len(out))

        @settings(max_examples=100, deadline=None)
        @given(blob=st.binary(min_size=1, max_size=80))
        def test_garbage_never_half_parses(self, blob):
            codec = WireCodec()
            try:
                value = codec.decode(blob)
            except WireDecodeError:
                return
            assert codec.encode(value) == blob
