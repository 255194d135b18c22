"""Composite proofs and public resharing-consistency checks.

The paper bundles everything a role does in one SNARK over relation R
(Protocols 1–2).  Here a :class:`CompositeProof` is an ordered bundle of
labelled Σ-proofs, each verified against its own statement; the bundle
verifies iff every component does.  The *polynomial-level* consistency of a
resharing — that the broadcast verification values form a degree-t
exponent-sharing of the sender's committed key share — needs no witness at
all and is checked publicly by the two functions below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.engine.engine import exp_many
from repro.errors import ProofError
from repro.fields.lagrange import integer_lagrange_scaled
from repro.paillier.threshold import ResharingMessage, ThresholdPublicKey


@dataclass(frozen=True)
class CompositeProof:
    """An ordered bundle of labelled component proofs.

    ``components`` maps a label (e.g. ``"partial-dec"``, ``"subshare-3"``)
    to an arbitrary proof object; :meth:`verify` runs a caller-supplied
    verifier per label.  Stands in for the paper's single SNARK over the
    monolithic relation R (see DESIGN.md's substitution table).
    """

    components: tuple[tuple[str, object], ...]

    @classmethod
    def build(cls, items: Sequence[tuple[str, object]]) -> "CompositeProof":
        labels = [label for label, _ in items]
        if len(set(labels)) != len(labels):
            raise ProofError(f"duplicate component labels: {labels}")
        return cls(tuple(items))

    def component(self, label: str) -> object:
        for name, proof in self.components:
            if name == label:
                return proof
        raise ProofError(f"no component labelled {label!r}")

    def labels(self) -> list[str]:
        return [name for name, _ in self.components]

    def verify(self, verifiers: Mapping[str, Callable[[object], bool]]) -> bool:
        """True iff every component's verifier accepts.

        Every component must have a verifier and every verifier a component
        — a mismatch is a caller bug and raises, it does not return False.
        """
        have = set(self.labels())
        want = set(verifiers)
        if have != want:
            raise ProofError(
                f"verifier/component mismatch: extra={sorted(have - want)}, "
                f"missing={sorted(want - have)}"
            )
        return all(verifiers[name](proof) for name, proof in self.components)


def verify_exponent_polynomial(
    tpk: ThresholdPublicKey, verifications: Sequence[int] | ResharingMessage
) -> bool:
    """Check the broadcast verification values lie on a degree-t polynomial.

    ``v_{i,j} = v^(Δ·g_i(j))`` for an honest sender; any t+1 of them
    determine the rest, so for every j > t+1 we check
    ``v_{i,j}^Δ == Π_{l<=t+1} v_{i,l}^(Δλ_l(j))`` in Z*_{N²}.
    """
    t = tpk.threshold
    n2 = tpk.n_squared
    values = _verification_values(verifications)
    if len(values) != tpk.n_parties:
        return False
    if any(not 0 < v < n2 for v in values):
        return False
    base_points = list(range(1, t + 2))
    for j in range(t + 2, tpk.n_parties + 1):
        scaled, _ = integer_lagrange_scaled(base_points, at=j, delta=tpk.delta)
        actual, *powers = exp_many(
            [(values[j - 1], tpk.delta, n2)]
            + [(values[l - 1], lam, n2) for l, lam in zip(base_points, scaled)]
        )
        if actual != _product(powers, n2):
            return False
    return True


def verify_exponent_interpolates_share(
    tpk: ThresholdPublicKey,
    verifications: Sequence[int] | ResharingMessage,
    share_verification: int,
) -> bool:
    """Check the sub-sharing's constant term is the sender's key share.

    ``v_i = v^(Δ·d_i)`` is public (carried with the share / derivable from
    the previous resharing); an honest sub-sharing has ``g_i(0) = d_i``, so
    ``v_i^Δ == Π_{l<=t+1} v_{i,l}^(Δλ_l(0))``.
    """
    t = tpk.threshold
    n2 = tpk.n_squared
    values = _verification_values(verifications)
    if len(values) != tpk.n_parties:
        return False
    base_points = list(range(1, t + 2))
    scaled, _ = integer_lagrange_scaled(base_points, at=0, delta=tpk.delta)
    actual, *powers = exp_many(
        [(share_verification, tpk.delta, n2)]
        + [(values[l - 1], lam, n2) for l, lam in zip(base_points, scaled)]
    )
    return actual == _product(powers, n2)


def _product(values: Sequence[int], modulus: int) -> int:
    acc = 1
    for value in values:
        acc = acc * value % modulus
    return acc


def _verification_values(
    verifications: Sequence[int] | ResharingMessage,
) -> Sequence[int]:
    if isinstance(verifications, ResharingMessage):
        return verifications.verifications
    return verifications
