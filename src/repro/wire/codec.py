"""Canonical value codec for bulletin-board payloads.

A single self-describing binary format covers everything the protocol
posts: a one-byte type tag, then a minimal big-endian body.  The encoding
is *canonical* — each value has exactly one valid byte string, and the
decoder rejects everything else (non-minimal integers, unsorted dict
entries, trailing bytes) — so ``encode(decode(b)) == b`` for any accepted
``b`` and seeded transcripts are byte-identical across runs.

Scalars and containers are built in, and so is a sharing-kernel row (a
one-dimensional ``uint64`` array): a count, one width byte ``w``, then each
entry in ``w`` little-endian bytes.  Domain objects come in two forms:

* :class:`~repro.paillier.paillier.PaillierCiphertext` has its own tag —
  it is the dominant object on the wire, so it ships as an 8-byte key id
  plus the fixed-width group element, with moduli resolved through the
  codec's :class:`KeyRing` instead of being repeated in every message;
* every other payload dataclass (proofs, partial decryptions, resharing
  messages) registers through :func:`register_wire_dataclass` at its
  definition site and is framed as ``OBJECT code · field values``.

:class:`KeyAnnouncement` is the bridge between the two worlds: a tiny
registered dataclass carrying a public Paillier modulus whose decode
registers the key into the decoder's ring *mid-stream*.  Because the
canonical dict order is deterministic, a payload can be arranged so every
announcement decodes before the first ciphertext that needs it — which is
how a fresh process (a socket-transport worker) bootstraps an empty
:class:`KeyRing` from nothing but the bytes of the ``setup-keys`` post.
"""

from __future__ import annotations

import hashlib
from sys import intern
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from typing import Any

import numpy as np

from repro.errors import EncryptionError, WireDecodeError, WireEncodeError
from repro.paillier.paillier import PaillierCiphertext, PaillierPublicKey

# -- type tags ---------------------------------------------------------------

TAG_NONE = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT_ZERO = 0x03
TAG_INT_POS = 0x04
TAG_INT_NEG = 0x05
TAG_BYTES = 0x06
TAG_STR = 0x07
TAG_LIST = 0x08
TAG_TUPLE = 0x09
TAG_DICT = 0x0A
TAG_OBJECT = 0x0B
TAG_CIPHERTEXT = 0x0C
TAG_FIELD_ROW = 0x0D

#: Bytes of SHA-256(modulus) identifying a Paillier key on the wire.
KEY_ID_BYTES = 8

#: Tag and one-byte length: the head of every int of at most 127 bytes.
_POS_HEADS = tuple(bytes((TAG_INT_POS, n)) for n in range(0x80))
_NEG_HEADS = tuple(bytes((TAG_INT_NEG, n)) for n in range(0x80))

_VARINT_MAX_LEN = 9

#: Entries a field row may carry.  An all-zero row has no body to bound its
#: count by, as a list's is, so both ends refuse longer rows (≤ 128 MiB).
MAX_ROW_ENTRIES = 1 << 24


def row_width(row: np.ndarray) -> int:
    """Bytes per entry of a field row on the wire: the minimal width of its
    largest entry, 0 for an empty or all-zero row."""
    return (int(row.max()).bit_length() + 7) >> 3 if len(row) else 0


# -- varints -----------------------------------------------------------------

def write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint (canonical: no padding continuation bytes)."""
    if value < 0:
        raise WireEncodeError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        out.append(byte | (0x80 if value else 0x00))
        if not value:
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    start = pos
    while True:
        if pos >= len(data):
            raise WireDecodeError("truncated varint")
        if pos - start >= _VARINT_MAX_LEN:
            raise WireDecodeError("varint too long")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and pos - start > 1:
                raise WireDecodeError("non-minimal varint")
            return result, pos
        shift += 7


# -- key ring ----------------------------------------------------------------

def key_id(modulus: int) -> bytes:
    """Stable 8-byte wire identifier of a Paillier modulus."""
    n_bytes = modulus.to_bytes((modulus.bit_length() + 7) // 8, "big")
    return hashlib.sha256(n_bytes).digest()[:KEY_ID_BYTES]


class KeyRing:
    """The key directory resolving ciphertext key ids during decode.

    Encoding a ciphertext registers its public key; decoding looks the id
    back up.  Within one protocol session (one bulletin board) every key
    is seen at encode time before any decode needs it.  A cross-process
    decoder bootstraps the ring from the wire instead: role-key moduli
    announced by the transport plus the :class:`KeyAnnouncement` objects
    inside the ``setup-keys`` post.
    """

    def __init__(self) -> None:
        self._by_id: dict[bytes, PaillierPublicKey] = {}
        self._id_by_n: dict[int, bytes] = {}

    def add(self, public: PaillierPublicKey) -> bytes:
        kid = self._id_by_n.get(public.n)
        if kid is None:
            kid = key_id(public.n)
            self._id_by_n[public.n] = kid
            self._by_id[kid] = public
        return kid

    def resolve(self, kid: bytes) -> PaillierPublicKey:
        public = self._by_id.get(kid)
        if public is None:
            raise WireDecodeError(f"unknown key id {kid.hex()}")
        return public

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, kid: bytes) -> bool:
        return kid in self._by_id

    def known_ids(self) -> frozenset[bytes]:
        """The key ids currently resolvable (cross-process parity checks)."""
        return frozenset(self._by_id)


# -- object registry ---------------------------------------------------------

@dataclass(frozen=True)
class ObjectCodec:
    """Wire registration of one payload dataclass."""

    code: int
    cls: type
    field_names: tuple[str, ...]


_BY_CLASS: dict[type, ObjectCodec] = {}
_BY_CODE: dict[int, ObjectCodec] = {}
_domain_loaded = False


def register_wire_dataclass(code: int, cls: type) -> type:
    """Register ``cls`` (a dataclass) under a stable wire ``code``.

    Called at class-definition site, so any instance that exists in the
    process is guaranteed to be encodable.  Re-registration of the same
    class under the same code is a no-op; conflicting registrations raise.
    """
    if not (isinstance(cls, type) and is_dataclass(cls)):
        raise WireEncodeError(f"{cls!r} is not a dataclass type")
    names = tuple(f.name for f in dataclass_fields(cls))
    entry = ObjectCodec(code, cls, names)
    existing = _BY_CODE.get(code)
    if existing is not None and existing.cls is not cls:
        raise WireEncodeError(
            f"wire code {code} already taken by {existing.cls.__name__}"
        )
    previous = _BY_CLASS.get(cls)
    if previous is not None and previous.code != code:
        raise WireEncodeError(
            f"{cls.__name__} already registered under code {previous.code}"
        )
    _BY_CODE[code] = entry
    _BY_CLASS[cls] = entry
    return cls


@dataclass(frozen=True)
class KeyAnnouncement:
    """A public Paillier modulus announced into the decode stream.

    Travels as an ordinary registered dataclass, but decoding one has a
    side effect: the key registers into the decoding codec's ring, so any
    later ciphertext in the same stream resolves without shared state.
    The ``setup-keys`` payload places its announcements ahead of every
    dependent ciphertext (canonical dict order makes that arrangement
    stable), which is what lets a fresh process decode the post with an
    empty ring — the cross-process KeyRing bootstrap.
    """

    modulus: int

    def __post_init__(self) -> None:
        PaillierPublicKey(self.modulus)  # validate: same rules as a real key

    def public_key(self) -> PaillierPublicKey:
        return PaillierPublicKey(self.modulus)


#: Wire object code of :class:`KeyAnnouncement` (1–6 are the Σ-protocol
#: objects in ``repro.wire.domain``, 16–19 the re-encryption/resharing
#: messages).
KEY_ANNOUNCEMENT_CODE = 7

register_wire_dataclass(KEY_ANNOUNCEMENT_CODE, KeyAnnouncement)


def _ensure_domain_codecs() -> None:
    """Import the modules that register protocol payload codecs.

    Lazy so the wire package stays import-cycle-free: only a decoder that
    actually meets an unknown object code pays for it.
    """
    global _domain_loaded
    if _domain_loaded:
        return
    _domain_loaded = True
    import repro.wire.domain  # noqa: F401
    import repro.core.reencrypt  # noqa: F401
    import repro.core.resharing  # noqa: F401
    import repro.service.wire  # noqa: F401


# -- the codec ---------------------------------------------------------------

class WireCodec:
    """Encoder/decoder pair sharing one :class:`KeyRing`."""

    def __init__(self, keyring: KeyRing | None = None) -> None:
        self.keyring = keyring if keyring is not None else KeyRing()

    # -- encoding ------------------------------------------------------------

    def encode(self, value: Any) -> bytes:
        if type(value) is int and value:  # a dict key or value: no buffer
            magnitude = value if value > 0 else -value
            length = (magnitude.bit_length() + 7) >> 3
            if length < 0x80:
                head = (_POS_HEADS if value > 0 else _NEG_HEADS)[length]
                return head + magnitude.to_bytes(length, "big")
        out = bytearray()
        self._encode(value, out)
        return bytes(out)

    def encode_payload(
        self, payload: Any
    ) -> tuple[bytes, list[tuple[str, int]] | None]:
        """Encode a post payload, returning per-section byte spans.

        A non-empty dict with string keys is the standard *sectioned*
        message shape (a role's bundled single utterance); the returned
        spans let the meter attribute each section's exact bytes to
        ``tag.section`` while the envelope framing stays separate.
        """
        if (
            isinstance(payload, dict)
            and payload
            and all(type(k) is str for k in payload)
        ):
            pairs = sorted(
                (self.encode(k), self.encode(v), k) for k, v in payload.items()
            )
            out = bytearray([TAG_DICT])
            write_varint(out, len(pairs))
            sections = []
            for enc_key, enc_value, key in pairs:
                out += enc_key
                out += enc_value
                sections.append((key, len(enc_key) + len(enc_value)))
            return bytes(out), sections
        return self.encode(payload), None

    def _encode(self, value: Any, out: bytearray) -> None:
        if value is None:
            out.append(TAG_NONE)
        elif value is True:
            out.append(TAG_TRUE)
        elif value is False:
            out.append(TAG_FALSE)
        elif isinstance(value, int):
            self._encode_int(value, out)
        elif isinstance(value, (list, tuple)):
            self._encode_items(
                value, TAG_LIST if isinstance(value, list) else TAG_TUPLE, out
            )
        elif isinstance(value, np.ndarray):
            self._encode_row(value, out)
        elif isinstance(value, dict):
            pairs = sorted(
                (self.encode(k), self.encode(v)) for k, v in value.items()
            )
            out.append(TAG_DICT)
            write_varint(out, len(pairs))
            for enc_key, enc_value in pairs:
                out += enc_key
                out += enc_value
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(TAG_STR)
            write_varint(out, len(raw))
            out += raw
        elif isinstance(value, (bytes, bytearray)):
            out.append(TAG_BYTES)
            write_varint(out, len(value))
            out += value
        elif isinstance(value, PaillierCiphertext):
            self._encode_ciphertext(value, out)
        else:
            entry = _BY_CLASS.get(type(value))
            if entry is None:
                raise WireEncodeError(
                    f"no wire codec for payload type {type(value).__name__}"
                )
            out.append(TAG_OBJECT)
            write_varint(out, entry.code)
            write_varint(out, len(entry.field_names))
            for name in entry.field_names:
                self._encode(getattr(value, name), out)
            if type(value) is KeyAnnouncement:
                # Mirror the decode-side registration so both ends of a
                # stream end up with the same ring.
                self.keyring.add(value.public_key())

    def _encode_items(self, items: Any, tag: int, out: bytearray) -> None:
        out.append(tag)
        write_varint(out, len(items))
        append = out.append
        for item in items:
            # Runs of plain ints are written inline (what _encode would emit).
            if type(item) is int:
                if not item:
                    append(TAG_INT_ZERO)
                    continue
                magnitude = item if item > 0 else -item
                length = (magnitude.bit_length() + 7) >> 3
                if length < 0x80:
                    out += (_POS_HEADS if item > 0 else _NEG_HEADS)[length]
                    out += magnitude.to_bytes(length, "big")
                    continue
            self._encode(item, out)

    @staticmethod
    def _encode_row(row: np.ndarray, out: bytearray) -> None:
        """A sharing-kernel row: count, the width ``w`` of its largest entry
        (:func:`row_width`), then ``w`` little-endian bytes per entry.  No
        other array has a wire form."""
        if row.ndim != 1 or row.dtype != np.uint64:
            raise WireEncodeError(
                f"no wire form for a {row.ndim}-d {row.dtype} array "
                f"(only one-dimensional uint64 rows)"
            )
        if len(row) > MAX_ROW_ENTRIES:
            raise WireEncodeError(f"row of {len(row)} entries exceeds the row bound")
        width = row_width(row)
        out.append(TAG_FIELD_ROW)
        write_varint(out, len(row))
        out.append(width)
        words = np.ascontiguousarray(row, dtype="<u8").view(np.uint8).reshape(-1, 8)
        out += words[:, :width].tobytes()

    @staticmethod
    def _encode_int(value: int, out: bytearray) -> None:
        if value == 0:
            out.append(TAG_INT_ZERO)
            return
        magnitude = value if value > 0 else -value
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        out.append(TAG_INT_POS if value > 0 else TAG_INT_NEG)
        write_varint(out, len(raw))
        out += raw

    def _encode_ciphertext(self, ct: PaillierCiphertext, out: bytearray) -> None:
        out.append(TAG_CIPHERTEXT)
        out += self.keyring.add(ct.public)
        width = (ct.public.n_squared.bit_length() + 7) // 8
        out += ct.value.to_bytes(width, "big")

    # -- decoding ------------------------------------------------------------

    def decode(self, data: bytes) -> Any:
        value, pos = self._decode(data, 0)
        if pos != len(data):
            raise WireDecodeError(
                f"{len(data) - pos} trailing bytes after value"
            )
        return value

    def _decode(self, data: bytes, pos: int) -> tuple[Any, int]:
        if pos >= len(data):
            raise WireDecodeError("truncated value: missing type tag")
        tag = data[pos]
        pos += 1
        if tag == TAG_LIST or tag == TAG_TUPLE:
            count, pos = read_varint(data, pos)
            self._check_count(data, pos, count)
            items, pos = self._decode_items(data, pos, count)
            return (items if tag == TAG_LIST else tuple(items)), pos
        if tag == TAG_DICT:
            count, pos = read_varint(data, pos)
            self._check_count(data, pos, count)
            # Keys and values alternate: read them as one run of items,
            # then check the keys' encodings strictly increase.
            starts: list[int] = []
            items, pos = self._decode_items(data, pos, 2 * count, starts)
            starts.append(pos)
            previous_key_bytes = b""
            for i in range(0, 2 * count, 2):
                key_bytes = data[starts[i]:starts[i + 1]]
                if i and key_bytes <= previous_key_bytes:
                    raise WireDecodeError("dict entries not in canonical order")
                previous_key_bytes = key_bytes
            return dict(zip(items[0::2], items[1::2])), pos
        if tag == TAG_INT_POS or tag == TAG_INT_NEG:
            length, pos = read_varint(data, pos)
            raw = self._take(data, pos, length, "integer")
            pos += length
            if length == 0 or raw[0] == 0:
                raise WireDecodeError("non-minimal integer encoding")
            magnitude = int.from_bytes(raw, "big")
            return (magnitude if tag == TAG_INT_POS else -magnitude), pos
        if tag == TAG_INT_ZERO:
            return 0, pos
        if tag == TAG_FIELD_ROW:
            return self._decode_row(data, pos)
        if tag == TAG_STR:
            length, pos = read_varint(data, pos)
            raw = self._take(data, pos, length, "string")
            try:
                # Interned: a dict key repeated entry after entry is one object.
                return intern(raw.decode("utf-8")), pos + length
            except UnicodeDecodeError as exc:
                raise WireDecodeError(f"invalid utf-8 string: {exc}") from exc
        if tag == TAG_NONE:
            return None, pos
        if tag == TAG_TRUE:
            return True, pos
        if tag == TAG_FALSE:
            return False, pos
        if tag == TAG_BYTES:
            length, pos = read_varint(data, pos)
            raw = self._take(data, pos, length, "bytes")
            return bytes(raw), pos + length
        if tag == TAG_CIPHERTEXT:
            kid = bytes(self._take(data, pos, KEY_ID_BYTES, "key id"))
            pos += KEY_ID_BYTES
            public = self.keyring.resolve(kid)
            width = (public.n_squared.bit_length() + 7) // 8
            raw = self._take(data, pos, width, "ciphertext")
            pos += width
            value = int.from_bytes(raw, "big")
            if not 0 < value < public.n_squared:
                raise WireDecodeError("ciphertext value outside Z*_{N²}")
            try:
                return PaillierCiphertext(public, value), pos
            except EncryptionError as exc:
                raise WireDecodeError(str(exc)) from exc
        if tag == TAG_OBJECT:
            code, pos = read_varint(data, pos)
            entry = _BY_CODE.get(code)
            if entry is None:
                _ensure_domain_codecs()
                entry = _BY_CODE.get(code)
            if entry is None:
                raise WireDecodeError(f"unregistered wire object code {code}")
            count, pos = read_varint(data, pos)
            if count != len(entry.field_names):
                raise WireDecodeError(
                    f"{entry.cls.__name__} expects {len(entry.field_names)} "
                    f"fields, wire carries {count}"
                )
            values = []
            for _ in range(count):
                value, pos = self._decode(data, pos)
                values.append(value)
            try:
                value = entry.cls(*values)
            except Exception as exc:
                raise WireDecodeError(
                    f"invalid {entry.cls.__name__} on the wire: {exc}"
                ) from exc
            if type(value) is KeyAnnouncement:
                # Mid-stream bootstrap: later ciphertexts in this same
                # decode may already reference the announced key.
                self.keyring.add(value.public_key())
            return value, pos
        raise WireDecodeError(f"unknown wire type tag 0x{tag:02x}")

    def _decode_items(
        self, data: bytes, pos: int, count: int, starts: list[int] | None = None
    ) -> tuple[list[Any], int]:
        """``count`` consecutive values from ``pos`` (``starts`` collects
        where each begins).  Well-formed ints with a one-byte length are
        read inline; anything else, rejections included, takes the full
        path."""
        items: list[Any] = []
        append = items.append
        end = len(data)
        from_bytes = int.from_bytes
        for _ in range(count):
            if starts is not None:
                starts.append(pos)
            if pos + 1 < end:
                item_tag = data[pos]
                if item_tag == TAG_INT_POS or item_tag == TAG_INT_NEG:
                    length = data[pos + 1]
                    start, stop = pos + 2, pos + 2 + length
                    if 0 < length < 0x80 and stop <= end and data[start]:
                        magnitude = from_bytes(data[start:stop], "big")
                        append(magnitude if item_tag == TAG_INT_POS else -magnitude)
                        pos = stop
                        continue
                elif item_tag == TAG_INT_ZERO:
                    append(0)
                    pos += 1
                    continue
            item, pos = self._decode(data, pos)
            append(item)
        return items, pos

    def _decode_row(self, data: bytes, pos: int) -> tuple[np.ndarray, int]:
        count, pos = read_varint(data, pos)
        if count > MAX_ROW_ENTRIES:
            raise WireDecodeError(f"row of {count} entries exceeds the row bound")
        width = self._take(data, pos, 1, "row width")[0]
        if width > 8:
            raise WireDecodeError(f"row width {width} exceeds 8 bytes")
        if pos + 1 + count * width > len(data):
            raise WireDecodeError("truncated row")
        # One copy out of the input: the entries into zeroed 8-byte words.
        words = np.zeros((count, 8), dtype=np.uint8)
        words[:, :width] = np.frombuffer(
            data, np.uint8, count * width, pos + 1
        ).reshape(count, width)
        row = words.view("<u8").reshape(count).astype(np.uint64, copy=False)
        if row_width(row) != width:
            raise WireDecodeError(f"non-minimal row width {width}")
        return row, pos + 1 + count * width

    @staticmethod
    def _take(data: bytes, pos: int, length: int, what: str) -> bytes:
        if pos + length > len(data):
            raise WireDecodeError(f"truncated {what}")
        return data[pos:pos + length]

    @staticmethod
    def _check_count(data: bytes, pos: int, count: int) -> None:
        # Every element costs at least one byte: a cheap bomb guard.
        if count > len(data) - pos:
            raise WireDecodeError(f"container count {count} exceeds input")


def roundtrip_check(codec: WireCodec, value: Any) -> bytes:
    """Encode → decode → re-encode; raise unless byte-identical.

    The self-check behind the canonical-format guarantee; cheap enough for
    tests and debug posts, returns the canonical encoding on success.
    """
    encoded = codec.encode(value)
    again = codec.encode(codec.decode(encoded))
    if again != encoded:
        raise WireEncodeError(
            f"round-trip not canonical for {type(value).__name__}"
        )
    return encoded
