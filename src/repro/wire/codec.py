"""Canonical value codec for bulletin-board payloads.

A single self-describing binary format covers everything the protocol
posts: a one-byte type tag, then a minimal big-endian body.  The encoding
is *canonical* — each value has exactly one valid byte string, and the
decoder rejects everything else (non-minimal integers, unsorted dict
entries, trailing bytes) — so ``encode(decode(b)) == b`` for any accepted
``b`` and seeded transcripts are byte-identical across runs.

Scalars and containers are built in.  Domain objects come in two forms:

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
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from typing import Any

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

#: Bytes of SHA-256(modulus) identifying a Paillier key on the wire.
KEY_ID_BYTES = 8

_VARINT_MAX_LEN = 9


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
        elif isinstance(value, (bytes, bytearray)):
            out.append(TAG_BYTES)
            write_varint(out, len(value))
            out += value
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(TAG_STR)
            write_varint(out, len(raw))
            out += raw
        elif isinstance(value, (list, tuple)):
            out.append(TAG_LIST if isinstance(value, list) else TAG_TUPLE)
            write_varint(out, len(value))
            append = out.append
            for item in value:
                # Share vectors are runs of plain ints: write the ones with
                # a one-byte length inline (what _encode_int would emit).
                if type(item) is int and item:
                    magnitude = item if item > 0 else -item
                    length = (magnitude.bit_length() + 7) >> 3
                    if length < 0x80:
                        append(TAG_INT_POS if item > 0 else TAG_INT_NEG)
                        append(length)
                        out += magnitude.to_bytes(length, "big")
                        continue
                self._encode(item, out)
        elif isinstance(value, dict):
            pairs = sorted(
                (self.encode(k), self.encode(v)) for k, v in value.items()
            )
            out.append(TAG_DICT)
            write_varint(out, len(pairs))
            for enc_key, enc_value in pairs:
                out += enc_key
                out += enc_value
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
        if tag == TAG_NONE:
            return None, pos
        if tag == TAG_TRUE:
            return True, pos
        if tag == TAG_FALSE:
            return False, pos
        if tag == TAG_INT_ZERO:
            return 0, pos
        if tag in (TAG_INT_POS, TAG_INT_NEG):
            length, pos = read_varint(data, pos)
            raw = self._take(data, pos, length, "integer")
            pos += length
            if length == 0 or raw[0] == 0:
                raise WireDecodeError("non-minimal integer encoding")
            magnitude = int.from_bytes(raw, "big")
            return (magnitude if tag == TAG_INT_POS else -magnitude), pos
        if tag == TAG_BYTES:
            length, pos = read_varint(data, pos)
            raw = self._take(data, pos, length, "bytes")
            return bytes(raw), pos + length
        if tag == TAG_STR:
            length, pos = read_varint(data, pos)
            raw = self._take(data, pos, length, "string")
            try:
                return raw.decode("utf-8"), pos + length
            except UnicodeDecodeError as exc:
                raise WireDecodeError(f"invalid utf-8 string: {exc}") from exc
        if tag in (TAG_LIST, TAG_TUPLE):
            count, pos = read_varint(data, pos)
            self._check_count(data, pos, count)
            items = []
            end = len(data)
            from_bytes = int.from_bytes
            for _ in range(count):
                # A well-formed int with a one-byte length is read inline;
                # anything else (rejections included) takes the full path.
                if pos + 1 < end:
                    item_tag = data[pos]
                    if item_tag == TAG_INT_POS or item_tag == TAG_INT_NEG:
                        length = data[pos + 1]
                        start, stop = pos + 2, pos + 2 + length
                        if 0 < length < 0x80 and stop <= end and data[start]:
                            magnitude = from_bytes(data[start:stop], "big")
                            items.append(
                                magnitude if item_tag == TAG_INT_POS else -magnitude
                            )
                            pos = stop
                            continue
                item, pos = self._decode(data, pos)
                items.append(item)
            return (items if tag == TAG_LIST else tuple(items)), pos
        if tag == TAG_DICT:
            count, pos = read_varint(data, pos)
            self._check_count(data, pos, count)
            out: dict[Any, Any] = {}
            previous_key_bytes: bytes | None = None
            for _ in range(count):
                key_start = pos
                key, pos = self._decode(data, pos)
                key_bytes = data[key_start:pos]
                if previous_key_bytes is not None and key_bytes <= previous_key_bytes:
                    raise WireDecodeError("dict entries not in canonical order")
                previous_key_bytes = key_bytes
                value, pos = self._decode(data, pos)
                out[key] = value
            return out, pos
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
