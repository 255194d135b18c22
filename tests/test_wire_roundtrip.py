"""Round-trip and rejection tests for the wire codec + envelope layer.

The canonical-format contract is ``encode(decode(b)) == b`` for every
accepted ``b`` and *loud* rejection of everything else.  These tests walk
every registered envelope kind with a representative payload and every
decode error path with hand-crafted malformed bytes.
"""

import zlib

import numpy as np
import pytest

# Importing the phase modules registers every envelope kind and every
# payload dataclass — the same side effect a protocol run relies on.
import repro.baselines.cdn  # noqa: F401
import repro.core.offline  # noqa: F401
import repro.core.online  # noqa: F401
import repro.core.setup  # noqa: F401
import repro.extensions.it_yoso  # noqa: F401
import repro.service.wire  # noqa: F401

from repro.core.reencrypt import EncryptedPartial, PublicPartial
from repro.core.resharing import EncryptedResharing, EncryptedSubshare
from repro.errors import WireDecodeError, WireEncodeError
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
    WireCodec,
    decode_envelope,
    encode_envelope,
    kind_for_tag,
    registered_kinds,
    roundtrip_check,
)
import repro.wire.codec as wire_codec
from repro.wire.codec import (
    MAX_ROW_ENTRIES,
    TAG_BYTES,
    TAG_DICT,
    TAG_FIELD_ROW,
    TAG_INT_NEG,
    TAG_INT_POS,
    TAG_LIST,
    TAG_OBJECT,
    TAG_TUPLE,
    write_varint,
)
from repro.wire.sizes import ints_wire_len, row_wire_len


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(64)


@pytest.fixture(scope="module")
def codec(keypair):
    c = WireCodec()
    c.keyring.add(keypair.public)
    return c


def _ct(keypair, value=1):
    return keypair.public.encrypt(value)


def _popk():
    return PlaintextKnowledgeProof(3, 5, 7)


def _pdec_proof():
    return PartialDecryptionProof(11, 13, 17)


def _public_partial():
    return PublicPartial(PartialDecryption(1, 9, 0), _pdec_proof())


def _encrypted_partial(keypair):
    return EncryptedPartial(2, 0, (_ct(keypair, 4), _ct(keypair, 5)), _pdec_proof())


def _resharing(keypair):
    sub = EncryptedSubshare(
        1, (_ct(keypair, 6),), (23,),
        (PlaintextDlogEqualityProof(1, 2, 3, 4),),
    )
    return EncryptedResharing(3, 1, 16, (29, 31), (sub, sub))


class TestScalarRoundTrip:
    @pytest.mark.parametrize("value", [
        None, True, False,
        0, 1, -1, 255, -256, 2**64, -(2**64), 2**521 - 1,
        b"", b"\x00", b"\x80\xff" * 9,
        "", "tag", "μ-shares ∑",
    ])
    def test_scalars(self, codec, value):
        encoded = roundtrip_check(codec, value)
        assert codec.decode(encoded) == value

    def test_containers(self, codec):
        value = {
            "list": [1, "two", None, [b"3"]],
            "tuple": (0, (1, 2), False),
            "nested": {(0, "eps"): {"ct": -5}, (0, "delta"): {}},
            "empty": [],
        }
        decoded = codec.decode(roundtrip_check(codec, value))
        assert decoded == value
        assert isinstance(decoded["tuple"], tuple)
        assert isinstance(decoded["list"], list)

    def test_dict_encoding_is_key_order_independent(self, codec):
        a = codec.encode({"x": 1, "y": 2, "z": 3})
        b = codec.encode({"z": 3, "x": 1, "y": 2})
        assert a == b

    def test_true_false_distinct_from_ints(self, codec):
        assert codec.decode(codec.encode(True)) is True
        assert codec.decode(codec.encode(1)) == 1
        assert codec.encode(True) != codec.encode(1)


M61 = (1 << 61) - 1


class TestIntVectorBytes:
    """Ints inside lists and tuples are written and read inline; the bytes
    are the ones the element-by-element encoder produced (pinned from it).
    A ``uint64`` row is its own tag, pinned here too."""

    PINNED = [
        (
            [0, -1, True, False, M61 - 1, -(1 << 60), 255, 256,
             [3, [0, -7], (True, 1)], None, "s"],
            "080b03050101020104081ffffffffffffffe05081000000000000000"
            "0401ff04020100080304010308020305010709020204010100070173",
        ),
        (
            (M61, 0, -M61, False, 1, (), [-128], b"\x01"),
            "090804081fffffffffffffff0305081fffffffffffffff010401010900"
            "0801050180060101",
        ),
    ]

    @pytest.mark.parametrize("value,pinned", PINNED, ids=["list", "tuple"])
    def test_mixed_container_bytes_pinned(self, codec, value, pinned):
        encoded = codec.encode(value)
        assert encoded.hex() == pinned
        decoded = codec.decode(encoded)
        assert decoded == value
        # == cannot tell True from 1: the types must survive too.
        assert repr(decoded) == repr(value)

    def test_length_byte_boundary_pinned(self, codec):
        # 1016-bit magnitudes (127 bytes) are the widest with a one-byte
        # length; 1024-bit ones carry a two-byte varint and take the
        # general path.  Both sides of the boundary, both signs.
        value = [1 << 1015, -(1 << 1015), 1 << 1023, [-(1 << 1023)]]
        pinned = (
            bytes.fromhex("0804" "047f80") + bytes(126)
            + bytes.fromhex("057f80") + bytes(126)
            + bytes.fromhex("04800180") + bytes(127)
            + bytes.fromhex("0801" "05800180") + bytes(127)
        )
        assert codec.encode(value) == pinned
        assert codec.decode(pinned) == value

    @pytest.mark.parametrize("container", [TAG_LIST, TAG_TUPLE])
    @pytest.mark.parametrize("sign", [TAG_INT_POS, TAG_INT_NEG])
    @pytest.mark.parametrize(
        "element,reason",
        [
            (b"\x02\x00\x01", "non-minimal integer encoding"),  # leading zero
            (b"\x00", "non-minimal integer encoding"),          # zero length
            (b"\x03\x01\x02", "truncated integer"),            # cut mid-element
            (b"", "truncated varint"),                          # no length byte
        ],
    )
    def test_bad_int_element_rejected_like_a_top_level_int(
        self, codec, container, sign, element, reason
    ):
        bad_int = bytes([sign]) + element
        with pytest.raises(WireDecodeError) as top_level:
            codec.decode(bad_int)
        assert str(top_level.value) == reason
        # Second of two elements, so the inline path is already running.
        with pytest.raises(WireDecodeError) as in_container:
            codec.decode(bytes([container, 2]) + codec.encode(7) + bad_int)
        assert str(in_container.value) == reason

    @staticmethod
    def _uint64_ints(value):
        """The ints of a pinned value (nested containers flattened) that a
        ``uint64`` row can hold, in order."""
        if isinstance(value, (list, tuple)):
            return [v for item in value for v in TestIntVectorBytes._uint64_ints(item)]
        if type(value) is int and 0 <= value < 1 << 64:
            return [value]
        return []

    @pytest.mark.parametrize("pin,pinned", [
        (
            PINNED[0][0],
            "0d0708" "0000000000000000" "feffffffffffff1f" "ff00000000000000"
            "0001000000000000" "0300000000000000" "0000000000000000"
            "0100000000000000",
        ),
        (PINNED[1][0], "0d0308" "ffffffffffffff1f" "0000000000000000" "0100000000000000"),
        (
            # The boundary case's widths do not fit uint64; its row shape
            # does: the widest entry (8 bytes) and 2^64 − 1.
            [1 << 56, (1 << 56) - 1, (1 << 64) - 1, 255, 0],
            "0d0508" "0000000000000001" "ffffffffffffff00" "ffffffffffffffff"
            "ff00000000000000" "0000000000000000",
        ),
    ], ids=["list", "tuple", "boundary"])
    def test_uint64_row_bytes_pinned(self, codec, pin, pinned):
        # A sharing-kernel row is one TAG_FIELD_ROW: count, width, then the
        # little-endian entries at that width; it decodes to a uint64 row.
        row = np.array(self._uint64_ints(pin), dtype=np.uint64)
        assert codec.encode(row).hex() == pinned
        decoded = codec.decode(bytes.fromhex(pinned))
        assert decoded.dtype == np.uint64 and decoded.tolist() == row.tolist()
        # Inside a payload dict too (the IT deals and transfers): the dict
        # framing around the same row bytes.
        keyed = codec.encode({"left": row})
        assert keyed == bytes([TAG_DICT, 1]) + codec.encode("left") + bytes.fromhex(pinned)

    @pytest.mark.parametrize("width", range(9))
    def test_row_width_is_the_widest_entry(self, codec, width):
        # Widths 0..8: every entry written at the width of the largest one
        # (0 for an all-zero row: the count alone).
        top = (1 << (8 * width - 1)) if width else 0
        row = np.array([top, 1 if width else 0, top], dtype=np.uint64)
        body = b"".join(int(v).to_bytes(8, "little")[:width] for v in row)
        pinned = bytes([TAG_FIELD_ROW, 3, width]) + body
        assert codec.encode(row) == pinned
        assert codec.decode(pinned).tolist() == row.tolist()
        assert row_wire_len(row) == len(pinned)  # the cost walk's reading

    def test_empty_row(self, codec):
        assert codec.encode(np.array([], dtype=np.uint64)) == b"\x0d\x00\x00"
        assert codec.decode(b"\x0d\x00\x00").shape == (0,)

    @pytest.mark.parametrize("body,reason", [
        (b"\x01\x09" + bytes(9), "row width 9 exceeds 8 bytes"),
        (b"\x01\x02\x01\x00", "non-minimal row width 2"),   # 1 fits one byte
        (b"\x02\x01\x00\x00", "non-minimal row width 1"),   # all zero: width 0
        (b"\x00\x01", "non-minimal row width 1"),             # empty: width 0
        (b"\x02\x08" + bytes(15), "truncated row"),           # count·w past the end
        (b"\x01", "truncated row width"),
        (b"\x80\x80\x80\x10\x00", "exceeds the row bound"),  # 2^25 zeros
    ], ids=["width-9", "non-minimal", "zero-row-width", "empty-row-width",
            "short-body", "no-width", "bomb"])
    def test_malformed_rows_rejected(self, codec, body, reason):
        with pytest.raises(WireDecodeError) as error:
            codec.decode(bytes([TAG_FIELD_ROW]) + body)
        assert reason in str(error.value)

    def test_row_past_the_bound_is_not_encoded(self, codec, monkeypatch):
        # Both ends refuse a row longer than the bound (a smaller bound
        # here, so the test allocates nothing large).
        monkeypatch.setattr(wire_codec, "MAX_ROW_ENTRIES", 4)
        with pytest.raises(WireEncodeError, match="row of 5 entries exceeds the row bound"):
            codec.encode(np.zeros(5, dtype=np.uint64))
        with pytest.raises(WireDecodeError, match="row of 5 entries exceeds the row bound"):
            codec.decode(bytes([TAG_FIELD_ROW, 5, 0]))
        assert MAX_ROW_ENTRIES == 1 << 24

    @pytest.mark.parametrize("array", [
        np.array([1.0, 2.0]),
        np.array([True, False]),
        np.array([[1, 2], [3, 4]], dtype=np.uint64),
        np.array(5, dtype=np.uint64),
        np.array([1, 2], dtype=object),
        np.array([1, 2], dtype=np.int64),
        np.array([1, 2], dtype=np.uint32),
    ], ids=["float", "bool", "2-d", "0-d", "object", "int64", "uint32"])
    def test_arrays_without_a_wire_form_are_refused(self, codec, array):
        # Only a one-dimensional uint64 row has a wire form.
        with pytest.raises(WireEncodeError, match="no wire form"):
            codec.encode(array)

    def test_ints_wire_len_is_the_encoded_length(self, codec):
        # The cost check's vector expression against the codec's loop.
        values = [0, 1, -1, 127, 128, 255, 256, -256, M61, -M61, (1 << 64) - 1,
                  1 << 1015, -(1 << 1015), 1 << 1023, -(1 << 1023), 1 << 131071]
        assert ints_wire_len(values) == sum(len(codec.encode(v)) for v in values)
        assert ints_wire_len([]) == 0


class TestCiphertextRoundTrip:
    def test_roundtrip_preserves_value_and_key(self, codec, keypair):
        ct = _ct(keypair, 42)
        decoded = codec.decode(roundtrip_check(codec, ct))
        assert decoded.value == ct.value
        assert decoded.public.n == keypair.public.n

    def test_fixed_width(self, codec, keypair):
        # Same length whatever the group element: 1 tag + 8 key id + element.
        width = 1 + 8 + keypair.public.ciphertext_bytes
        for v in (1, 2**100):
            assert len(codec.encode(_ct(keypair, v))) == width

    def test_unknown_key_id_rejected(self, codec, keypair):
        encoded = codec.encode(_ct(keypair))
        with pytest.raises(WireDecodeError, match="unknown key id"):
            WireCodec().decode(encoded)  # fresh codec: empty keyring

    def test_out_of_group_value_rejected(self, codec, keypair):
        encoded = bytearray(codec.encode(_ct(keypair)))
        encoded[9:] = b"\x00" * (len(encoded) - 9)  # element := 0
        with pytest.raises(WireDecodeError, match="outside"):
            codec.decode(bytes(encoded))


class TestObjectRoundTrip:
    def test_proofs_and_partials(self, codec, keypair):
        for obj in (
            _popk(),
            MultiplicationProof(1, 2, 3, 4),
            _pdec_proof(),
            PlaintextDlogEqualityProof(5, 6, 7, 8),
            PartialDecryption(2, 99, 1),
            _public_partial(),
            _encrypted_partial(keypair),
            _resharing(keypair),
        ):
            decoded = codec.decode(roundtrip_check(codec, obj))
            assert type(decoded) is type(obj)
            assert decoded == obj

    def test_unregistered_code_rejected(self, codec):
        raw = bytearray([TAG_OBJECT])
        write_varint(raw, 200)
        write_varint(raw, 0)
        with pytest.raises(WireDecodeError, match="unregistered wire object code"):
            codec.decode(bytes(raw))

    def test_field_count_mismatch_rejected(self, codec):
        encoded = bytearray(codec.encode(_popk()))
        # Header is TAG_OBJECT, code varint, field-count varint.
        assert encoded[0] == TAG_OBJECT
        encoded[2] += 1
        with pytest.raises(WireDecodeError, match="fields, wire carries"):
            codec.decode(bytes(encoded) + codec.encode(0))

    def test_unencodable_type_rejected(self, codec):
        with pytest.raises(WireEncodeError, match="no wire codec"):
            codec.encode(object())


# -- every registered envelope kind ------------------------------------------

def _representative_payloads(keypair):
    """kind name -> (bulletin tag, payload) mirroring the protocol's posts."""
    ct, popk = _ct(keypair), _popk()
    ep, resh = _encrypted_partial(keypair), _resharing(keypair)
    return {
        "generic": ("debug-blob", {"note": "unregistered tag", "x": 1}),
        "setup.keys": ("setup-keys", {
            "te": {
                "tpk": KeyAnnouncement(keypair.public.n),
                "verification_base": 4,
                "tsk_verifications": [9, 16, 25],
            },
            "kff": {"Con-mul-1[2]": {
                "public_key": KeyAnnouncement(keypair.public.n),
                "encrypted_prime": [ct],
            }},
        }),
        "offline.beaver_a": ("Coff-A", {
            "beaver_a": {3: {"ct": ct, "proof": popk}}, "tsk": resh,
        }),
        "offline.beaver_b": ("Coff-B", {
            "beaver_b": {3: {
                "b_ct": ct, "c_ct": ct, "proof": MultiplicationProof(1, 2, 3, 4),
            }},
        }),
        "offline.masks": ("Coff-R", {
            "masks": {4: {"ct": ct, "proof": popk}},
            "helpers": {(0, "eps", 1): {"ct": ct, "proof": popk}},
        }),
        "offline.partials": ("Coff-dec", {
            "partials": {5: {"eps": _public_partial(), "delta": _public_partial()}},
            "tsk": resh,
        }),
        "offline.reencrypt": ("Coff-reenc", {
            "input_shares": {6: ep},
            "packed_shares": {(0, 1, "eps"): ep},
            "tsk": resh,
        }),
        "online.keys": ("Con-keys", {
            "kff": {"Con-mul-1[2]": [ep, ep]}, "tsk": resh,
        }),
        "online.input": ("input:alice", {"mu": {7: 123}}),
        "online.mu_shares": ("Con-mul-1", {
            "mu_shares": {0: {"value": 7, "proof": b"\x01" * 192}},
        }),
        "online.output": ("Con-out", {"output": {8: ep}}),
        "baseline.cdn": ("Cdn-triple-A", {"triples": {0: {"ct": ct, "proof": popk}}}),
        "baseline.cdn_aux": ("cdn-setup", {"tpk": KeyAnnouncement(keypair.public.n)}),
        "it.messages": ("It-mul-1", {"mu_shares": {0: 42}}),
        "service.client_input": ("svc-input:4:client-0000009", ClientInput(
            "client-0000009", 4, (ct, ct), (popk, popk),
        )),
        "service.epoch": ("svc-epoch-4", EpochAnnouncement(
            4, "statistics", 2, 1, KeyAnnouncement(keypair.public.n), 9,
        )),
        "service.result": ("svc-result-4", EpochResult(
            4, "auction", (3, 1, 2), (1, 2, 4),
        )),
        "service.reshare": ("svc-reshare-4-2", {"tsk": resh}),
    }


def test_every_registered_kind_has_a_representative(keypair):
    reps = _representative_payloads(keypair)
    missing = [k.name for k in registered_kinds() if k.name not in reps]
    assert not missing, f"add representative payloads for {missing}"


@pytest.mark.parametrize(
    "kind", registered_kinds(), ids=lambda k: k.name
)
def test_kind_payload_roundtrips(kind, codec, keypair):
    tag, payload = _representative_payloads(keypair)[kind.name]
    assert kind_for_tag(tag).name == kind.name

    body = roundtrip_check(codec, payload)
    envelope = Envelope(
        kind=kind.name, sender=f"{tag}[1]", round=3, phase="online", tag=tag,
        body=body,
    )
    data = encode_envelope(envelope, kind=kind)
    decoded = decode_envelope(data)
    assert decoded == envelope
    assert encode_envelope(decoded, kind=kind) == data  # byte-identical
    assert codec.decode(decoded.body) == codec.decode(body)


# -- rejection: codec ---------------------------------------------------------

class TestCodecRejection:
    def test_trailing_bytes(self, codec):
        with pytest.raises(WireDecodeError, match="trailing bytes"):
            codec.decode(codec.encode(1) + b"\x00")

    def test_every_strict_prefix_rejected(self, codec, keypair):
        encoded = codec.encode({
            "a": [1, (2, b"x")], "b": _ct(keypair), "c": "s",
        })
        for cut in range(len(encoded)):
            with pytest.raises(WireDecodeError):
                codec.decode(encoded[:cut])

    def test_empty_input(self, codec):
        with pytest.raises(WireDecodeError, match="missing type tag"):
            codec.decode(b"")

    def test_unknown_type_tag(self, codec):
        with pytest.raises(WireDecodeError, match="unknown wire type tag"):
            codec.decode(b"\x7f")

    def test_non_minimal_varint(self, codec):
        with pytest.raises(WireDecodeError, match="non-minimal varint"):
            codec.decode(bytes([TAG_BYTES, 0x80, 0x00]))

    def test_varint_too_long(self, codec):
        with pytest.raises(WireDecodeError, match="varint too long"):
            codec.decode(bytes([TAG_BYTES]) + b"\x80" * 9 + b"\x01")

    def test_non_minimal_integer_leading_zero(self, codec):
        raw = bytearray([TAG_INT_POS])
        write_varint(raw, 2)
        raw += b"\x00\x01"
        with pytest.raises(WireDecodeError, match="non-minimal integer"):
            codec.decode(bytes(raw))

    def test_non_minimal_integer_empty_magnitude(self, codec):
        raw = bytearray([TAG_INT_POS])
        write_varint(raw, 0)
        with pytest.raises(WireDecodeError, match="non-minimal integer"):
            codec.decode(bytes(raw))

    def test_unsorted_dict_rejected(self, codec):
        raw = bytearray([TAG_DICT])
        write_varint(raw, 2)
        for key in ("b", "a"):  # wrong canonical order
            raw += codec.encode(key)
            raw += codec.encode(0)
        with pytest.raises(WireDecodeError, match="not in canonical order"):
            codec.decode(bytes(raw))

    def test_duplicate_dict_key_rejected(self, codec):
        raw = bytearray([TAG_DICT])
        write_varint(raw, 2)
        for _ in range(2):
            raw += codec.encode("a")
            raw += codec.encode(0)
        with pytest.raises(WireDecodeError, match="not in canonical order"):
            codec.decode(bytes(raw))

    def test_container_count_bomb_guard(self, codec):
        raw = bytearray([TAG_DICT])
        write_varint(raw, 2**40)
        with pytest.raises(WireDecodeError, match="exceeds input"):
            codec.decode(bytes(raw))

    def test_invalid_utf8_rejected(self, codec):
        encoded = bytearray(codec.encode("ab"))
        encoded[-1] = 0xFF
        with pytest.raises(WireDecodeError, match="invalid utf-8"):
            codec.decode(bytes(encoded))


# -- rejection: envelope ------------------------------------------------------

def _envelope_bytes(codec):
    body = codec.encode({"mu": {1: 2}})
    return encode_envelope(
        Envelope("online.input", "input:alice[1]", 2, "online", "input:alice", body)
    )


class TestEnvelopeRejection:
    def test_bad_magic(self, codec):
        data = bytearray(_envelope_bytes(codec))
        data[0] ^= 0xFF
        with pytest.raises(WireDecodeError, match="bad magic"):
            decode_envelope(bytes(data))

    def test_unsupported_version(self, codec):
        data = bytearray(_envelope_bytes(codec))
        data[2] = 99
        with pytest.raises(WireDecodeError, match="unsupported wire version"):
            decode_envelope(bytes(data))

    def test_unknown_kind_id(self, codec):
        data = bytearray(_envelope_bytes(codec))
        data[3] = 0x7D  # an unregistered kind id (single-byte varint)
        with pytest.raises(WireDecodeError):
            decode_envelope(bytes(data))

    def test_kind_version_mismatch(self, codec):
        data = bytearray(_envelope_bytes(codec))
        data[4] = 2  # registry has version 1
        with pytest.raises(WireDecodeError, match="version mismatch"):
            decode_envelope(bytes(data))

    def test_truncated_frame(self, codec):
        data = _envelope_bytes(codec)
        with pytest.raises(WireDecodeError):
            decode_envelope(data[:-1])

    def test_trailing_garbage(self, codec):
        data = _envelope_bytes(codec)
        with pytest.raises(WireDecodeError, match="does not match frame"):
            decode_envelope(data + b"\x00")

    def test_garbled_body_fails_checksum(self, codec):
        data = bytearray(_envelope_bytes(codec))
        data[-5] ^= 0x01  # last body byte (4 CRC bytes follow)
        with pytest.raises(WireDecodeError, match="checksum mismatch"):
            decode_envelope(bytes(data))

    def test_garbled_crc_fails_checksum(self, codec):
        data = bytearray(_envelope_bytes(codec))
        data[-1] ^= 0x01
        with pytest.raises(WireDecodeError, match="checksum mismatch"):
            decode_envelope(bytes(data))

    def test_crc_covers_full_frame(self, codec):
        # v2: the checksum is over everything before it, header included.
        data = _envelope_bytes(codec)
        assert int.from_bytes(data[-4:], "big") == zlib.crc32(data[:-4])

    def test_garbled_header_fails_loudly(self, codec):
        # A header flip that still parses structurally (e.g. the round
        # varint) must hit the full-frame checksum, not decode differently.
        data = bytearray(_envelope_bytes(codec))
        for i in range(3, len(data) - 4):
            flipped = bytearray(data)
            flipped[i] ^= 0x01
            with pytest.raises(WireDecodeError):
                decode_envelope(bytes(flipped))
