"""Ideal NIZK oracle for the online μ-share correctness proofs.

The paper attaches a simulation-extractable SNARK to each published
μ-share, proving it was derived from the preprocessed (encrypted) mask
shares (§3.3/§5.3).  A SNARK over that statement is far outside a
pure-Python reproduction, so we substitute an *ideal* proof functionality,
the standard move in UC-style simulations (documented in DESIGN.md's
substitution table):

* when an honest role computes its share, the honest protocol code calls
  :meth:`MuShareOracle.attest`, obtaining a constant-size token (a keyed
  MAC over the statement — the oracle's key plays the CRS trapdoor);
* verification recomputes the MAC, so any adversarial mutation of the
  share value (or a token forged without the key) fails exactly as an
  unsound SNARK proof would;
* the token is constant-size (like a SNARK proof), keeping the
  communication accounting faithful.

Soundness inside the simulation is perfect, zero-knowledge is trivial
(tokens are independent of the witness), and the *online communication
pattern is identical* to the SNARK-based protocol.
"""

from __future__ import annotations

import hashlib
import hmac

#: Size of a proof token — the ballpark of a Groth16/Groth–Maller proof.
PROOF_TOKEN_BYTES = 192


class MuShareOracle:
    """Per-protocol-run attestation authority for online μ-shares."""

    def __init__(self, key: bytes):
        self._key = key

    def _mac(self, statement: bytes) -> bytes:
        digest = hmac.new(self._key, statement, hashlib.sha256).digest()
        # Stretch to a realistic SNARK-proof size for the meter.
        out = b""
        counter = 0
        while len(out) < PROOF_TOKEN_BYTES:
            out += hashlib.sha256(digest + counter.to_bytes(2, "big")).digest()
            counter += 1
        return out[:PROOF_TOKEN_BYTES]

    @staticmethod
    def _statement(batch_id: int, index: int, value: int) -> bytes:
        return f"mu-share|{batch_id}|{index}|{value}".encode()

    def attest(self, batch_id: int, index: int, value: int) -> bytes:
        """Issue a proof token for role ``index``'s share of batch ``batch_id``."""
        return self._mac(self._statement(batch_id, index, value))

    def verify(self, batch_id: int, index: int, value: int, token: bytes) -> bool:
        """Check a posted (share, token) pair; False on any mutation."""
        if not isinstance(token, (bytes, bytearray)):
            return False
        expected = self._mac(self._statement(batch_id, index, value))
        return hmac.compare_digest(bytes(token), expected)
