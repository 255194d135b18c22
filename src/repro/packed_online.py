"""The packed online evaluation (Turbopack's, paper §3.1; Protocol 5's core).

Every packed evaluator — the paper's protocol, the IT variant, the plain
Turbopack reference — runs the same online algebra over public values
``μ = v − λ``: clients publish μ for their inputs, linear gates are local,
and for each batch of k multiplications a member turns its packed shares
of (λ^α, λ^β, Γ = λ^α·λ^β − λ^γ) and the public vectors (μ^α, μ^β) into one
scalar; any ``t + 2(k−1) + 1`` of those open μ^γ for the whole batch.

That algebra lives here and nowhere else.  What an evaluator keeps is how
a member *obtains* its λ/Γ shares (KFF decryption, a sum of transfers, a
dealer) and how posted shares are *authenticated* before they are opened.
Field arithmetic and packed sharing only: nothing here encrypts, proves
or touches the YOSO runtime.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuits.layering import MultiplicationBatch
from repro.circuits.program import CircuitProgram
from repro.errors import ProtocolAbortError
from repro.fields.ring import Zmod, ZmodElement
from repro.sharing.packed import PackedShamirScheme


def mu_gamma_share(
    mu_left: int,
    mu_right: int,
    lam_left: int,
    lam_right: int,
    gamma: int,
    modulus: int,
) -> int:
    """One member's degree-(t+2(k−1)) share of a batch's μ^γ.

    ``μ^α_i·μ^β_i + μ^α_i·λ^β_i + μ^β_i·λ^α_i + Γ_i`` — slot-wise this is
    (μ^α + λ^α)(μ^β + λ^β) − λ^γ = v^γ − λ^γ.  Plain ints in, one
    reduction mod ``modulus`` out.
    """
    return (
        mu_left * mu_right + mu_left * lam_right + mu_right * lam_left + gamma
    ) % modulus


class MuTracker:
    """Public μ bookkeeping: every observer can maintain this identically."""

    def __init__(self, program: CircuitProgram, ring: Zmod):
        self.program = program
        self.ring = ring
        self._mu: list[ZmodElement | None] = [None] * program.n_gates

    def set(self, wire: int, value: int | ZmodElement) -> None:
        self._mu[wire] = self.ring.element(value)

    def known(self, wire: int) -> bool:
        return self._mu[wire] is not None

    def get(self, wire: int) -> ZmodElement:
        value = self._mu[wire]
        if value is None:
            raise ProtocolAbortError(f"μ for wire {wire} not yet public")
        return value

    def propagate(self) -> None:
        """Push μ through linear gates as far as currently possible."""
        self.program.propagate_linear(self.ring, self._mu, masks=False)

    def publish_inputs(
        self, client: str, wires: Sequence[int], payload: object
    ) -> None:
        """Record a client's broadcast ``{"mu": {wire: μ}}`` for its wires.

        μ = −λ of a silent client is unknowable publicly, so the
        functionality's default-input rule is approximated by aborting.
        """
        published = payload.get("mu", {}) if isinstance(payload, Mapping) else {}
        for wire in wires:
            value = published.get(wire)
            if not isinstance(value, int):
                raise ProtocolAbortError(
                    f"input client {client!r} failed to publish μ for wire {wire}"
                )
            self.set(wire, value)

    def canonical_shares(
        self,
        scheme: PackedShamirScheme,
        batches: Sequence[MultiplicationBatch],
        index: int | None = None,
    ) -> list[tuple]:
        """Per batch, the canonical degree-(k−1) sharing of (μ^α, μ^β).

        The public operand vectors are zero-padded to the packing width;
        with ``index`` each entry is that party's pair of int shares,
        without it the pair of n-share int rows — one cached-matrix
        product either way.
        """
        vectors = []
        for batch in batches:
            for wires in (batch.left_wires, batch.right_wires):
                values = [self.get(w).value for w in wires]
                vectors.append(values + [0] * (scheme.k - len(values)))
        shares = scheme.canonical_many(vectors, index=index)
        return list(zip(shares[0::2], shares[1::2]))

    def set_batch(
        self, batch: MultiplicationBatch, opened: Sequence[int | ZmodElement]
    ) -> None:
        """Record a batch's opened μ^γ vector (padding slots are dropped)."""
        for slot, wire in enumerate(batch.gate_wires):
            self.set(wire, opened[slot])

    def open_batches(
        self,
        scheme: PackedShamirScheme,
        batches: Sequence[MultiplicationBatch],
        shares: Sequence[Sequence[tuple[int, int]]],
        degree: int,
    ) -> None:
        """Open each batch's μ^γ from its first ``degree + 1`` shares.

        ``shares[j]`` holds batch j's authenticated ``(member, value)``
        pairs in member order; all batches reconstruct in one product.
        """
        for batch, posted in zip(batches, shares):
            if len(posted) < degree + 1:
                raise ProtocolAbortError(
                    f"batch {batch.batch_id}: only {len(posted)} usable μ "
                    f"shares, need {degree + 1}"
                )
        rows = scheme.reconstruct_many(
            [posted[: degree + 1] for posted in shares], degree
        )
        for batch, opened in zip(batches, rows):
            self.set_batch(batch, opened)
