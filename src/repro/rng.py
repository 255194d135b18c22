"""The repository's single sanctioned randomness seam.

Transcript determinism (docs/PROTOCOL.md) requires that every random
draw a protocol run makes descends from the run's seed.  The static
analyzer (``repro lint``, rule DET001) therefore bans module-level
``random.*`` calls and unseeded ``random.Random()`` everywhere — this
module is the one place allowed to construct an entropy-seeded
generator, and only for the explicit "caller passed no seed" escape
hatch that demos and ad-hoc CLI invocations use.

Use :func:`seeded_rng` when a seed is in hand, :func:`derive_rng` to
fork an independent stream from a parent seed (two call sites must not
share one generator across interleaving orders), :func:`fork_rng` to
draw from a run's generator without advancing it, and :func:`fresh_rng`
only where nondeterminism is the *requested* behaviour.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["seeded_rng", "derive_rng", "fork_rng", "fresh_rng"]


def seeded_rng(seed: int) -> random.Random:
    """A deterministic generator for ``seed`` — the normal entry point."""
    return random.Random(seed)


def derive_rng(seed: int, *labels: int | str) -> random.Random:
    """An independent stream derived from ``seed`` and a label path.

    Digesting the labels into the seed (``hash()`` is per-process
    randomized, so SHA-256 instead) keeps sibling streams decorrelated
    without the fragile ``seed + 1`` arithmetic at call sites.
    """
    material = ":".join([str(seed), *map(str, labels)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def fork_rng(parent: random.Random) -> random.Random:
    """A generator at ``parent``'s current state; ``parent`` is not advanced.

    For a value that must descend from the run's seed but was added after
    transcripts were pinned: drawing it from a fork leaves every other
    draw of the run where it was.
    """
    fork = random.Random(0)
    fork.setstate(parent.getstate())
    return fork


def fresh_rng(seed: int | None = None) -> random.Random:
    """``seeded_rng(seed)``, or an entropy-seeded generator for ``None``.

    The ``None`` branch is the repository's only sanctioned unseeded
    construction; callers on protocol paths should always have a seed.
    """
    if seed is not None:
        return seeded_rng(seed)
    # repro-lint: disable=DET001 -- sanctioned escape hatch for seed=None
    return random.Random()
