"""Micro-experiment M2: threshold-Paillier (TE) operation costs (§4.1).

Times every algorithm of the TE interface at the test modulus size; byte
sizes scale with the modulus but operation *counts* in the protocol do not,
so these micro numbers anchor the communication model.
"""

import random

from repro.paillier import ThresholdPaillier
from repro.paillier.threshold import teval

RNG = random.Random(7)


def _setup(n=8, t=3):
    return ThresholdPaillier.keygen(n, t, bits=64, rng=RNG)


TPK, SHARES = _setup()
CT = TPK.encrypt(123456789, rng=RNG)


def test_tkgen_speed(benchmark):
    benchmark(ThresholdPaillier.keygen, 8, 3, 64, RNG)


def test_tenc_speed(benchmark):
    benchmark(TPK.encrypt, 42, None, RNG)


def test_tpdec_speed(benchmark):
    benchmark(ThresholdPaillier.partial_decrypt, TPK, SHARES[0], CT)


def test_tdec_speed(benchmark):
    partials = [
        ThresholdPaillier.partial_decrypt(TPK, s, CT) for s in SHARES[:4]
    ]
    assert benchmark(ThresholdPaillier.combine, TPK, partials) == 123456789


def test_teval_speed(benchmark):
    cts = [TPK.encrypt(i, rng=RNG) for i in range(8)]
    benchmark(teval, TPK, cts, list(range(1, 9)))


def test_tkres_speed(benchmark):
    benchmark(ThresholdPaillier.reshare, TPK, SHARES[0], RNG)


def test_tkrec_speed(benchmark):
    msgs = {s.index: ThresholdPaillier.reshare(TPK, s, rng=RNG) for s in SHARES}
    cset = list(range(1, 5))
    contributions = {i: msgs[i].subshares[0] for i in cset}
    benchmark(ThresholdPaillier.recombine, TPK, 1, contributions, 0, cset)


def test_simtpdec_speed(benchmark):
    corrupt = [
        ThresholdPaillier.partial_decrypt(TPK, s, CT) for s in SHARES[:3]
    ]
    benchmark(
        ThresholdPaillier.simulate_partials, TPK, CT, 999, SHARES[3:], corrupt
    )
