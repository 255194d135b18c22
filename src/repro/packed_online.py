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
or touches the YOSO runtime.  Values are the sharing kernel's rows:
``uint64`` arrays over the IT/Turbopack field, Python ints over the
Paillier rings (:func:`repro.sharing.kernel.resolve_backend`).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.circuits.layering import MultiplicationBatch
from repro.circuits.program import CircuitProgram
from repro.errors import ProtocolAbortError
from repro.fields.ring import Zmod, ZmodElement
from repro.sharing.kernel import add_mod, mul_mod, row_dtype
from repro.sharing.packed import PackedShamirScheme


def mu_gamma_share(
    mu_left: Any,
    mu_right: Any,
    lam_left: Any,
    lam_right: Any,
    gamma: Any,
    modulus: int,
) -> Any:
    """One member's degree-(t+2(k−1)) share of a batch's μ^γ.

    ``μ^α_i·(μ^β_i + λ^β_i) + μ^β_i·λ^α_i + Γ_i`` — slot-wise this is
    (μ^α + λ^α)(μ^β + λ^β) − λ^γ = v^γ − λ^γ.  Ints in, an int out; or
    equal-shape rows in (many batches, or many members), one exact
    element-wise evaluation out.
    """
    return add_mod(
        mul_mod(mu_left, add_mod(mu_right, lam_right, modulus), modulus),
        add_mod(mul_mod(mu_right, lam_left, modulus), gamma, modulus),
        modulus,
    )


def slot_values(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``values`` at every slot's wire, zero on the padding slots (``-1``)."""
    out = np.zeros(slots.shape, dtype=values.dtype)
    real = slots >= 0
    out[real] = values[slots[real]]
    return out


class MuTracker:
    """Public μ bookkeeping: every observer can maintain this identically."""

    def __init__(self, program: CircuitProgram, ring: Zmod):
        self.program = program
        self.ring = ring
        self._mu = np.zeros(program.n_gates, dtype=row_dtype(ring.modulus))
        self._known = np.zeros(program.n_gates, dtype=bool)

    def set(self, wire: int, value: int | ZmodElement) -> None:
        self._mu[wire] = int(value) % self.ring.modulus
        self._known[wire] = True

    def known(self, wire: int) -> bool:
        return bool(self._known[wire])

    def get(self, wire: int) -> int:
        if not self._known[wire]:
            raise ProtocolAbortError(f"μ for wire {wire} not yet public")
        return int(self._mu[wire])

    def propagate(self) -> None:
        """Push μ through linear gates as far as currently possible."""
        self.program.propagate_linear(
            self._mu, self._known, self.ring.modulus, masks=False
        )

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
    ) -> tuple[Any, Any]:
        """The canonical degree-(k−1) sharings of every batch's μ^α and μ^β.

        The public operand vectors are zero-padded to the packing width;
        returns ``(left, right)``, one entry per batch in each: with
        ``index`` that party's share, without it the row of all n shares —
        one cached-matrix product either way.
        """
        slots = self.program.batch_wires[[b.batch_id for b in batches], :2]
        real = slots[slots >= 0]
        missing = ~self._known[real]
        if missing.any():
            wire = int(real[np.argmax(missing)])
            raise ProtocolAbortError(f"μ for wire {wire} not yet public")
        shares = scheme.canonical_many(
            slot_values(self._mu, slots.reshape(-1, scheme.k)), index=index
        )
        return shares[0::2], shares[1::2]

    def set_batch(
        self, batch: MultiplicationBatch, opened: Sequence[int | ZmodElement]
    ) -> None:
        """Record a batch's opened μ^γ vector (padding slots are dropped)."""
        wires = list(batch.gate_wires)
        self._mu[wires] = [int(v) for v in opened[: len(wires)]]
        self._known[wires] = True

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
