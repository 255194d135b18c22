"""The paper's claims as one table, and the one runner that evaluates it.

    python benchmarks/claims.py                # every row, exact and timed
    python benchmarks/claims.py --only E1,E3   # the named rows
    python benchmarks/claims.py --write        # regenerate the marked document regions
    python benchmarks/claims.py --check        # exit 1 on a failing claim or a stale region

A row of :data:`CLAIMS` is a claim id, where the paper states it, a recipe (the
protocol executions it reads — evaluator x dot-product circuit x parameters x
seed, each executed once however many rows read it — and the function that turns
their results into the rows of one table) and its expectations: a quantity read
off that table and the bound it must meet (a paper value, a closed form of
``repro.accounting.symbolic``, or an inequality with its tolerance).  ``exact``
rows are deterministic under their seeds: ``--write`` puts them between the
``<!-- claim:ID -->`` and ``<!-- /claim:ID -->`` markers of :data:`DOCUMENTS` and
``--check`` diffs them.  ``timed`` rows are machine-relative: printed with
``cpu_count``, never written, and left out of ``--write`` / ``--check`` unless
``--only`` names them.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro import engine, sortition, wire  # noqa: E402
from repro.accounting import symbolic  # noqa: E402
from repro.baselines import CdnYosoMpc  # noqa: E402
from repro.circuits import dot_product_circuit  # noqa: E402
from repro.core import ProtocolParams, YosoMpc  # noqa: E402
from repro.errors import ProtocolAbortError  # noqa: E402
from repro.extensions import ItYosoMpc  # noqa: E402
from repro.fields import Zmod  # noqa: E402
from repro.paillier import ThresholdPaillier, generate_keypair  # noqa: E402
from repro.paillier.threshold import teval  # noqa: E402
from repro.sharing import PackedShamirScheme  # noqa: E402
from repro.yoso.adversary import Adversary, CrashSpec, random_corruptions  # noqa: E402

#: Where ``--write`` / ``--check`` look for ``<!-- claim:ID -->`` regions.
DOCUMENTS = (ROOT / "EXPERIMENTS.md", ROOT / "docs" / "COSTMODEL.md")

Rows = list[dict[str, Any]]
Bound = tuple[str, Callable[[Any], bool]]  # how it prints, and whether a value meets it


# -- the vocabulary of a row ---------------------------------------------------

@dataclass(frozen=True)
class Run:
    """One protocol execution: evaluator x dot-product circuit x parameters x seed."""

    evaluator: str                  # "core" | "cdn" | "it"
    n: int
    seed: int
    alice: tuple[int, ...]
    bob: tuple[int, ...]
    epsilon: float = 0.25           # core: the gap; t and k follow from it unless given
    t: int | None = None
    k: int | None = None
    fail_stop: bool = False
    robust: bool = False
    attack: str | None = None       # a key of ATTACKS
    attack_seed: int = 0

    def params(self) -> ProtocolParams:
        if self.t is None:
            return ProtocolParams.from_gap(self.n, self.epsilon, fail_stop=self.fail_stop)
        return ProtocolParams(n=self.n, t=self.t, k=self.k, epsilon=self.epsilon,
                              robust_reconstruction=self.robust)

    def outcome(self, result: Any) -> str:
        """``result`` against the plaintext dot product (``None``: the run aborted)."""
        if result is None:
            return "aborted"
        expected = [sum(a * b for a, b in zip(self.alice, self.bob))]
        return "correct" if result.outputs["alice"] == expected else "WRONG"


@dataclass(frozen=True)
class Expect:
    """A quantity read off a claim's table, and the bound it must meet."""

    what: str
    value: Callable[[Rows], Any]
    bound: str
    holds: Callable[[Any], bool]


def below(x: float) -> Bound:
    return f"< {x:g}", lambda v: v < x


def above(x: float) -> Bound:
    return f"> {x:g}", lambda v: v > x


def within(lo: float, hi: float) -> Bound:
    return f"in [{lo:g}, {hi:g}]", lambda v: lo <= v <= hi


def equals(x: Any) -> Bound:
    return f"== {x}", lambda v: v == x


def col(rows: Rows, name: str) -> list[Any]:
    return [row[name] for row in rows]


def at(index: int, name: str) -> Callable[[Rows], Any]:
    return lambda rows: rows[index][name]


def ratio(name: str, over: int = 0, of: int = -1) -> Callable[[Rows], float]:
    """Row ``of`` over row ``over`` of a column (default: last over first)."""
    return lambda rows: round(rows[of][name] / rows[over][name], 3)


def every(holds: Callable[[dict[str, Any]], bool]) -> Callable[[Rows], bool]:
    return lambda rows: all(holds(row) for row in rows)


ALL_CORRECT = Expect("every output is the plaintext dot product",
                     every(lambda row: row["output"] == "correct"), *equals(True))
SAME_RESULTS = Expect("results equal the reference's (`pow`, the serial engine)",
                      every(lambda row: row["same results"]), *equals(True))


@dataclass(frozen=True)
class Claim:
    id: str
    title: str
    source: str                     # where the paper (or our docs) states it
    workload: str                   # the recipe in words
    table: Callable[..., Rows]      # the recipe: the results of `runs`, in order -> rows
    expect: tuple[Expect, ...]
    runs: tuple[Run, ...] = ()
    timed: bool = False             # machine-relative: printed, never written


# -- executing a Run -------------------------------------------------------------

def _crash(count: Callable[[ProtocolParams], int]) -> Callable[..., Adversary]:
    """Fail-stop ``count(params)`` honest members of the first mul committee."""
    def adversary(params: ProtocolParams, rng: random.Random, committees: dict) -> Adversary:
        mul = next(c for name, c in committees.items() if name.startswith("Con-mul"))
        return Adversary(crash_spec=CrashSpec.random_honest(mul, count(params), rng))
    return adversary


def _garble(role_id: Any, phase: str, tag: str, payload: Any) -> Any:
    """Flip every μ-share value (its proof stays) and bump every offline ciphertext."""
    if not isinstance(payload, dict):
        return payload
    out = dict(payload)
    if isinstance(payload.get("mu_shares"), dict):
        out["mu_shares"] = {batch: {**entry, "value": entry["value"] ^ 0xDEADBEEF}
                            for batch, entry in payload["mu_shares"].items()}
    for key in ("beaver_a", "masks", "helpers"):
        if isinstance(payload.get(key), dict):
            out[key] = {wire_id: {**v, "ct": v["ct"] + 1} if isinstance(v, dict) else v
                        for wire_id, v in payload[key].items()}
    return out


def _corrupt(mul_only: bool) -> Callable[..., Adversary]:
    """``t`` random members of every committee (or every mul committee) garble their posts."""
    def adversary(params: ProtocolParams, rng: random.Random, committees: dict) -> Adversary:
        targets = [c for name, c in committees.items()
                   if not mul_only or name.startswith("Con-mul")]
        random_corruptions(targets, params.t, rng)
        return Adversary(transform=_garble)
    return adversary


def past_budget(params: ProtocolParams) -> int:
    """Crashes that leave one fewer live member than the reconstruction threshold."""
    return params.n - params.reconstruction_threshold + 1


#: name -> (params, rng, {committee name: committee}) -> the run's Adversary
ATTACKS: dict[str, Callable[..., Adversary]] = {
    "crash-budget": _crash(lambda params: params.fail_stop_budget),
    "crash-past-budget": _crash(past_budget),
    "garble": _corrupt(mul_only=False),
    "garble-mul": _corrupt(mul_only=True),
}


def execute(run: Run) -> Any:
    """The run's result, or ``None`` when the protocol aborted."""
    circuit = dot_product_circuit(len(run.alice))
    inputs = {"alice": list(run.alice), "bob": list(run.bob)}
    rng = random.Random(run.seed)
    if run.evaluator == "cdn":
        return CdnYosoMpc(n=run.n, t=(run.n - 1) // 2, rng=rng).run(circuit, inputs)
    if run.evaluator == "it":
        return ItYosoMpc(n=run.n, t=run.t, k=run.k, rng=rng).run(circuit, inputs)
    params = run.params()

    def adversary(offline_committees: dict, online_committees: dict) -> Adversary:
        return ATTACKS[run.attack](params, random.Random(run.attack_seed),
                                   {**offline_committees, **online_committees})

    protocol = YosoMpc(params, rng=rng, adversary_factory=adversary if run.attack else None)
    try:
        return protocol.run(circuit, inputs)
    except ProtocolAbortError:
        return None


# -- exact rows: the sortition analysis (§6) -----------------------------------

TABLE1_FIELDS = {"t": "t", "c": "committee_size", "c′": "committee_size_no_gap",
                 "ε": "epsilon", "k": "packing_factor"}


def table1_rows() -> Rows:
    ours = {(r.c_param, r.f): r for r in sortition.generate_table1()}
    rows = []
    for paper in sortition.TABLE1_PAPER:
        row = {"C": paper.c_param, "f": paper.f}
        for name, field in TABLE1_FIELDS.items():
            pair = (getattr(ours[(paper.c_param, paper.f)], field), getattr(paper, field))
            row[name] = "/".join("⊥" if v is None else str(v) for v in pair)
        rows.append(row)
    return rows


def worst_gap(name: str) -> Callable[[Rows], int]:
    """Largest |ours − paper| of a Table 1 column over the feasible cells."""
    def gap(rows: Rows) -> int:
        pairs = [cell.split("/") for cell in col(rows, name) if "⊥" not in cell]
        return max(abs(int(mine) - int(paper)) for mine, paper in pairs)
    return gap


def scale_rows() -> Rows:
    """Table 1 cells: what the committee pays and what packing buys, both derivations."""
    rows = []
    for c_param, f in ((1000, 0.05), (20000, 0.2), (20000, 0.1), (5000, 0.1), (10000, 0.15),
                       (40000, 0.2)):
        g = sortition.analyze(c_param, f)
        n = round(g.committee_size)
        packed = symbolic.extrapolated_mu_bytes_per_gate(n, g.epsilon, g.packing_factor)
        unpacked = symbolic.extrapolated_mu_bytes_per_gate(n, g.epsilon, 1)
        rows.append({
            "C": c_param, "f": f, "c′ (ε=0)": round(g.committee_size_no_gap), "c = n": n,
            "growth %": round((g.committee_growth - 1) * 100, 1), "ε": round(g.epsilon, 3),
            "k": g.packing_factor, "ours B/gate": round(packed), "ε=0 B/gate": round(unpacked),
            "byte ratio": round(unpacked / packed),
            "GB per 10⁶ gates": round(packed * 1e6 / 1e9, 2),
        })
    return rows


def monte_carlo_rows() -> Rows:
    security = sortition.SecurityParameters(k1=1, k2=8, k3=8)
    paper = sortition.analyze(2000, 0.1, security)
    cons = sortition.analyze(2000, 0.1, security, conservative=True)

    def trials(g: Any, rng: random.Random) -> Any:
        return sortition.simulate_sortition(100000, 0.1, 2000, g.t, g.epsilon, 2000, rng)

    corruption = trials(paper, random.Random(5))
    rng = random.Random(6)
    gap_paper, gap_cons = trials(paper, rng), trials(cons, rng)
    return [
        {"bound": "Eq. (2) corruption threshold", "ε": round(paper.epsilon, 3),
         "violations": corruption.corruption_bound_failures,
         "rate": round(corruption.corruption_failure_rate, 4)},
        {"bound": "Eq. (6) gap, the paper's ε", "ε": round(paper.epsilon, 3),
         "violations": gap_paper.gap_bound_failures, "rate": round(gap_paper.gap_failure_rate, 4)},
        {"bound": "gap, conservative ε", "ε": round(cons.epsilon, 3),
         "violations": gap_cons.gap_bound_failures, "rate": round(gap_cons.gap_failure_rate, 4)},
    ]


# -- exact rows: metered protocol runs -------------------------------------------

SWEEP_NS = (6, 9, 12)
WIDTH = 12  # dot-product width of the sweep circuit = its multiplication gates
SWEEP_INPUTS = (tuple(range(1, WIDTH + 1)), tuple(range(2, WIDTH + 2)))
CORE_SWEEP = tuple(Run("core", n, 1, *SWEEP_INPUTS) for n in SWEEP_NS)
CDN_SWEEP = tuple(Run("cdn", n, 1, *SWEEP_INPUTS) for n in SWEEP_NS)
SWEEP = f"dot product of width {WIDTH}, ε = 0.25, n ∈ {{6, 9, 12}}, seed 1"


def online_rows(*sweep: Any) -> Rows:
    return [
        {"n": r.params.n, "k": r.params.k,
         "online B/gate": round(r.online_mul_bytes() / WIDTH, 1),
         "n/k": round(r.params.n / r.params.k, 2)}
        for r in sweep
    ]


def offline_rows(*sweep: Any) -> Rows:
    return [
        {"n": r.params.n, "offline B/gate": round(r.phase_bytes("offline") / WIDTH),
         "growth": round(r.phase_bytes("offline") / sweep[0].phase_bytes("offline"), 2),
         "n growth": round(r.params.n / sweep[0].params.n, 2),
         "offline / online": round(r.phase_bytes("offline") / r.phase_bytes("online"), 2)}
        for r in sweep
    ]


def versus_cdn_rows(*sweep: Any) -> Rows:
    return [
        {"n": ours.params.n, "k": ours.params.k,
         "ours B/gate": round(ours.online_mul_bytes() / WIDTH, 1),
         "CDN B/gate": round(cdn.online_mul_bytes() / WIDTH, 1),
         "win": round(cdn.online_mul_bytes() / ours.online_mul_bytes(), 2)}
        for ours, cdn in zip(sweep[:len(SWEEP_NS)], sweep[len(SWEEP_NS):])
    ]


def per_n_growth(name: str) -> Callable[[Rows], float]:
    """A column's growth over the sweep, per unit of n growth (n doubles)."""
    return lambda rows: round(ratio(name)(rows) / (SWEEP_NS[-1] / SWEEP_NS[0]), 2)


def model_rows(*sweep: Any) -> Rows:
    rows = []
    for r in sweep:
        model = symbolic.SymbolicCostModel(
            r.params, symbolic.CircuitShape.of_program(r.program), r.setup.proof_params)
        for phase, predicted in (("offline", model.predict_offline()),
                                 ("online", model.predict_online())):
            measured = r.phase_bytes(phase)
            rows.append({"n": r.params.n, "phase": phase, "predicted": predicted.n_bytes,
                         "measured": measured, "ratio": round(predicted.n_bytes / measured, 3)})
    return rows


def key_usage_rows(result: Any) -> Rows:
    return [{"phase": phase, "message kind": tag, "bytes": size}
            for phase in ("setup", "offline", "online")
            for tag, size in sorted(result.meter.by_tag(phase).items())]


def missing(phase: str, *needles: str) -> Callable[[Rows], list[str]]:
    """The ``needles`` that no message kind of ``phase`` contains."""
    def absent(rows: Rows) -> list[str]:
        tags = [row["message kind"] for row in rows if row["phase"] == phase]
        return [needle for needle in needles if not any(needle in tag for tag in tags)]
    return absent


E5_INPUTS = ((1, 2, 3, 4, 5, 6), (2,) * 6)
E5_RUNS = (
    Run("core", 8, 5, *E5_INPUTS, fail_stop=True, attack="crash-budget", attack_seed=6),
    Run("core", 8, 8, *E5_INPUTS, fail_stop=True, attack="crash-past-budget", attack_seed=7),
)


def failstop_rows(*results: Any) -> Rows:
    rows = []
    for run, result in zip(E5_RUNS, results):
        p = run.params()
        rows.append({
            "n": p.n, "t": p.t, "k (normal mode)": ProtocolParams.from_gap(p.n, run.epsilon).k,
            "k (fail-stop)": p.k, "crash budget ⌊nε⌋": p.fail_stop_budget,
            "t+2(k−1)+1": p.reconstruction_threshold, "n/2+1": p.n // 2 + 1,
            "honest crashes": p.fail_stop_budget if run.attack == "crash-budget" else past_budget(p),
            "output": run.outcome(result),
        })
    return rows


E6_INPUTS = ((3, 1, 4, 1, 5, 9), (2, 7, 1, 8, 2, 8))
E6_RUNS = (Run("core", 6, 11, *E6_INPUTS, epsilon=0.2),
           Run("core", 6, 11, *E6_INPUTS, epsilon=0.2, attack="garble", attack_seed=12))


def god_rows(honest: Any, attacked: Any) -> Rows:
    return [
        {"phase": phase, "honest B": honest.phase_bytes(phase),
         "attacked B": attacked.phase_bytes(phase),
         "ratio": round(attacked.phase_bytes(phase) / honest.phase_bytes(phase), 3),
         "output": E6_RUNS[1].outcome(attacked)}
        for phase in ("offline", "online")
    ]


A1_RUNS = tuple(Run("core", 12, 20 + k, SWEEP_INPUTS[0], (3,) * WIDTH, epsilon=0.33, t=2, k=k)
                for k in (1, 2, 3, 4))


def packing_rows(*results: Any) -> Rows:
    return [
        {"k": run.k, "online B/gate": round(r.online_mul_bytes() / WIDTH, 1),
         "online win vs k=1": round(results[0].online_mul_bytes() / r.online_mul_bytes(), 2),
         "offline B/gate": round(r.phase_bytes("offline") / WIDTH),
         "offline win vs k=1": round(
             results[0].phase_bytes("offline") / r.phase_bytes("offline"), 2),
         "shares needed (of n=12)": r.params.reconstruction_threshold,
         "output": run.outcome(r)}
        for run, r in zip(A1_RUNS, results)
    ]


A2_RUNS = tuple(Run("core", 8, 5, (2,) * 8, (3,) * 8, epsilon=0.2, t=1, k=2, robust=robust,
                    attack="garble-mul", attack_seed=3) for robust in (False, True))


def robust_rows(*results: Any) -> Rows:
    modes = (("oracle (proof tokens, the paper's SNARK slot)", "excluded"),
             ("robust (Berlekamp–Welch, no proofs)", "corrected"))
    return [
        {"mode": mode, "online mul B/gate": round(r.online_mul_bytes() / 8, 1),
         "shares needed": r.params.reconstruction_threshold + 2 * r.params.t * run.robust,
         "bad shares are": fate, "output": run.outcome(r)}
        for (mode, fate), run, r in zip(modes, A2_RUNS, results)
    ]


IT_INPUTS = ((1,) * 8, (2,) * 8)
IT_RUNS = tuple(Run("it", n, 1, *IT_INPUTS, t=2, k=k) for n, k in ((9, 2), (13, 3), (17, 4)))
IT_RUNS += (Run("core", 9, 2, *IT_INPUTS),)


def it_rows(*results: Any) -> Rows:
    rows = []
    for run, r in zip(IT_RUNS, results):
        prefix = "It-mul" if run.evaluator == "it" else "Con-mul"
        payload = sum(size for tag, size in r.meter.by_tag("online").items()
                      if tag.startswith(prefix) and tag.endswith(".mu_shares"))
        rows.append({
            "variant": "information-theoretic" if run.evaluator == "it" else "computational",
            "n": run.n, "k": run.k or r.params.k, "μ payload B/gate": round(payload / 8, 1),
            "framed B/gate": round(r.online_mul_bytes() / 8, 1), "output": run.outcome(r),
        })
    return rows


# -- timed rows: what no end-to-end workload measures ----------------------------

def best_seconds(fn: Callable[[], Any], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def packing_cost_rows() -> Rows:
    field, rng, rows = Zmod((1 << 61) - 1), random.Random(42), []
    for k in (1, 2, 4, 8):
        scheme = PackedShamirScheme(field, 24, k, default_degree=23 - k)
        secrets = list(range(k))
        sharing = scheme.share(secrets, rng=rng)
        factors = [scheme.share(secrets, degree=11, rng=rng) for _ in range(2)]
        ops = {"share": lambda: scheme.share(secrets, rng=rng),
               "reconstruct": lambda: scheme.reconstruct(sharing),
               "multiply": lambda: scheme.multiply(*factors)}
        rows.append({"k": k} | {f"{name} µs/secret": round(best_seconds(op, 10) * 1e6 / k, 1)
                                for name, op in ops.items()})
    return rows


def paillier_cost_rows() -> Rows:
    rng = random.Random(7)
    tpk, shares = ThresholdPaillier.keygen(8, 3, bits=64, rng=rng)
    ct = tpk.encrypt(123456789, rng=rng)
    partials = [ThresholdPaillier.partial_decrypt(tpk, share, ct) for share in shares[:4]]
    cts = [tpk.encrypt(i, rng=rng) for i in range(8)]
    resharings = {s.index: ThresholdPaillier.reshare(tpk, s, rng=rng) for s in shares}
    subshares = {i: resharings[i].subshares[0] for i in range(1, 5)}
    ops = {
        "TKGen": lambda: ThresholdPaillier.keygen(8, 3, 64, rng),
        "TEnc": lambda: tpk.encrypt(42, None, rng),
        "TPDec": lambda: ThresholdPaillier.partial_decrypt(tpk, shares[0], ct),
        "TDec (4 partials)": lambda: ThresholdPaillier.combine(tpk, partials),
        "TEval (8 terms)": lambda: teval(tpk, cts, list(range(1, 9))),
        "TKRes": lambda: ThresholdPaillier.reshare(tpk, shares[0], rng),
        "TKRec": lambda: ThresholdPaillier.recombine(tpk, 1, subshares, 0, list(range(1, 5))),
        "SimTPDec": lambda: ThresholdPaillier.simulate_partials(
            tpk, ct, 999, shares[3:], partials[:3]),
    }
    return [{"algorithm": name, "µs": round(best_seconds(op, 5) * 1e6, 1),
             "decrypts to": op() if name.startswith("TDec") else ""}
            for name, op in ops.items()]


def pow_jobs(count: int, bits: int, rng: random.Random, exponent_bits: int | None = None,
             shared_base: bool = False) -> list[tuple[int, int, int]]:
    """Deterministic full-width ``(base, exponent, modulus)`` jobs."""
    modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    base = rng.getrandbits(bits) % modulus
    width = exponent_bits or bits
    return [(base if shared_base else rng.getrandbits(bits) % modulus,
             rng.getrandbits(width) | (1 << (width - 1)), modulus) for _ in range(count)]


POOL_WORKERS = min(4, os.cpu_count() or 1)


def pool_rows() -> Rows:
    rows, serial, got = [], engine.SerialEngine(), {}
    with engine.ProcessPoolEngine(workers=POOL_WORKERS, min_parallel=1) as pool:
        pool.pow_many(pow_jobs(POOL_WORKERS, 2048, random.Random(1)))  # start the workers
        for size in (64, 256):
            jobs = pow_jobs(size, 2048, random.Random(2024 + size))
            serial_s = best_seconds(lambda: got.update(serial=serial.pow_many(jobs)), 1)
            pool_s = best_seconds(lambda: got.update(pool=pool.pow_many(jobs)), 1)
            rows.append({"batch": size, "serial s": round(serial_s, 3),
                         f"pool s ({POOL_WORKERS} workers)": round(pool_s, 3),
                         "speed-up": round(serial_s / pool_s, 2),
                         "same results": got["pool"] == got["serial"]})
    return rows


#: (modulus bits, exponent bits) of the v^Δ base: a 256-bit-key run (``core_dot_256``)
#: and a 2048-bit-key run.
FIXEDBASE_SHAPES = ((512, 650), (4096, 2300))


def fixedbase_rows() -> Rows:
    rows = []
    for modulus_bits, exponent_bits in FIXEDBASE_SHAPES:
        jobs = pow_jobs(24, modulus_bits, random.Random(7 * modulus_bits), exponent_bits,
                        shared_base=True)
        base, _, modulus = jobs[0]
        exponents = [e for _, e, _ in jobs]
        expected = [pow(base, e, modulus) for e in exponents]
        native_s = best_seconds(lambda: [pow(base, e, modulus) for e in exponents], 2) / 24
        picked = {name: engine.fixedbase.fitting_window(widest, exponent_bits, modulus)
                  for name, widest in (("promote", engine.fixedbase.PROMOTE_WINDOW),
                                       ("widen", engine.fixedbase.WIDEN_WINDOW))}
        for window in range(1, 9):
            table = engine.FixedBaseTable(base, modulus, window)
            build_s = best_seconds(lambda: table.grow(exponent_bits), 1)
            same = [table.pow(e) for e in exponents] == expected
            lookup_s = best_seconds(lambda: [table.pow(e) for e in exponents], 2) / 24
            rows.append({
                "modulus bits": modulus_bits, "window": window,
                "build (native pows)": round(build_s / native_s, 1),
                "lookup µs": round(lookup_s * 1e6, 1),
                "speed-up": round(native_s / lookup_s, 2),
                "break-even uses": round(build_s / (native_s - lookup_s), 1),
                "table MB": round(table.nbytes / 1e6, 2),
                "store picks at": " ".join(name for name, w in picked.items() if w == window),
                "same results": same,
            })
    return rows


def store_rows() -> Rows:
    modulus_bits, exponent_bits = FIXEDBASE_SHAPES[0]
    jobs = pow_jobs(2400, modulus_bits, random.Random(99), exponent_bits, shared_base=True)
    got = {}

    def through_cold_store() -> None:
        store = engine.FixedBaseStore()
        got["store"] = [store.pow(*job) for job in jobs]

    native_s = best_seconds(lambda: got.update(native=[pow(*job) for job in jobs]), 1)
    store_s = best_seconds(through_cold_store, 1)
    return [{"uses": len(jobs), "native s": round(native_s, 3), "store s": round(store_s, 3),
             "speed-up": round(native_s / store_s, 2),
             "same results": got["store"] == got["native"]}]


def socket_rows() -> Rows:
    keypair = generate_keypair(64)
    codec = wire.WireCodec()
    codec.keyring.add(keypair.public)
    token, tag = random.Random(5).randbytes(192), "Con-mul-1"
    body = codec.encode({"mu_shares": {w: {"value": 123, "proof": token} for w in range(4)}})
    envelope = wire.Envelope(wire.kind_for_tag(tag).name, f"{tag}[1]", 0, "bench", tag, body)
    encoded = wire.encode_envelope(envelope)
    transport = wire.SocketTransport(workers=2, mode="auto")
    try:
        transport.announce_keys([keypair.public.n])
        transport.deliver(envelope, encoded)  # spawn + handshake
        per_delivery = best_seconds(
            lambda: [transport.deliver(envelope, encoded) for _ in range(20)]) / 20
        return [{"transport": transport.describe(), "envelope bytes": len(encoded),
                 "round trips/s": round(1 / per_delivery),
                 "MB/s": round(len(encoded) / per_delivery / 1e6, 2)}]
    finally:
        transport.close()


# -- the table ---------------------------------------------------------------------

CLAIMS: tuple[Claim, ...] = (
    Claim(
        "T1", "Table 1 — sortition parameters, ours/paper per cell", "§6, Table 1",
        "all 25 (C, f) cells from Eqs. (2)–(6), k₁ = 64, k₂ = k₃ = 128", table1_rows,
        (
            Expect("cells with ⊥ on either side", lambda rows: sorted(
                {cell for name in TABLE1_FIELDS for cell in col(rows, name) if "⊥" in cell}),
                *equals(["⊥/⊥"])),
            Expect("largest |ours − paper| in t", worst_gap("t"), *equals(0)),
            Expect("largest |ours − paper| in k", worst_gap("k"), *equals(0)),
            Expect("largest |ours − paper| in c", worst_gap("c"), *within(0, 6)),
            Expect("largest |ours − paper| in c′", worst_gap("c′"), *within(0, 3)),
        ),
    ),
    Claim(
        "F1", "Figure 1 — message kinds per phase, from a metered run", "§3.2, Fig. 1",
        "core, the n = 6 run of the E1 sweep; bytes per bulletin tag", key_usage_rows,
        (
            Expect("setup kinds missing", missing("setup", "setup-keys"), *equals([])),
            Expect("offline kinds missing", missing(
                "offline", "beaver_a", "beaver_b", "masks", "partials", "packed_shares", ".tsk"),
                *equals([])),
            Expect("online kinds missing", missing(
                "online", "kff", "input", "mu_shares", "output"), *equals([])),
            Expect("Con-mul kinds that carry a tsk resharing", lambda rows: [
                tag for tag in col(rows, "message kind")
                if tag.startswith("Con-mul") and "tsk" in tag], *equals([])),
        ),
        runs=CORE_SWEEP[:1],
    ),
    Claim(
        "E1", "online communication O(1) per gate, independent of n", "Thm 1, §5.3",
        "core, " + SWEEP, online_rows,
        (Expect("online B/gate at n = 12 over n = 6 (n doubles)", ratio("online B/gate"),
                *below(1.5)),),
        runs=CORE_SWEEP,
    ),
    Claim(
        "E2", "offline communication O(n) per gate", "§5.2", "core, " + SWEEP, offline_rows,
        (
            Expect("offline growth per unit of n growth, n = 6 → 12",
                   per_n_growth("offline B/gate"), *within(0.6, 3.0)),
            Expect("smallest offline / online phase bytes",
                   lambda rows: min(col(rows, "offline / online")), *above(2)),
        ),
        runs=CORE_SWEEP,
    ),
    Claim(
        "E3", "the CDN baseline is Θ(n) per gate online; our win grows with n", "§1.1.1, §3",
        "core and the CDN baseline (t = ⌊(n−1)/2⌋), " + SWEEP, versus_cdn_rows,
        (
            Expect("smallest win", lambda rows: min(col(rows, "win")), *above(1.5)),
            Expect("win at n = 12 over win at n = 6", ratio("win"), *above(1.5)),
            Expect("CDN growth per unit of n growth, n = 6 → 12", per_n_growth("CDN B/gate"),
                   *above(0.8)),
        ),
        runs=CORE_SWEEP + CDN_SWEEP,
    ),
    Claim(
        "E4", "quoted improvement factors, the committee growth that buys them, and the "
        "extrapolation atlas", "§1.1.2, §6",
        "Table 1 analysis per (C, f); B/gate from the `online.mu_shares` closed form at "
        "2048-bit moduli, no simulation (ε=0: the same committee at k = 1); byte ratio = "
        "ε=0 over ours", scale_rows,
        (
            Expect("k at (1000, 0.05) — “28×”", at(0, "k"), *equals(28)),
            Expect("c′ at (1000, 0.05) — “committees of size 900”", at(0, "c′ (ε=0)"),
                   *within(880, 900)),
            Expect("c at (1000, 0.05) — “to 1000”", at(0, "c = n"), *within(940, 1000)),
            Expect("k at (20000, 0.2) — “>1000×”", at(1, "k"), *above(1000)),
            Expect("c′ at (20000, 0.2) — “≈18k”", at(1, "c′ (ε=0)"), *within(18000, 18500)),
            Expect("c at (20000, 0.2) — “≈20k”", at(1, "c = n"), *within(20000, 20600)),
            Expect("the byte ratio is k in every row",
                   every(lambda row: row["byte ratio"] == row["k"]), *equals(True)),
            Expect("largest committee growth %", lambda rows: max(col(rows, "growth %")),
                   *below(130)),
            Expect("k exceeds the growth % in every row",
                   every(lambda row: row["k"] > row["growth %"]), *equals(True)),
        ),
    ),
    Claim(
        "E5", "fail-stop tolerance: ⌊nε⌋ honest crashes survived, one past the bound is not",
        "§5.4",
        "core, dot product of width 6, n = 8, ε = 0.25, fail-stop mode; honest members of the "
        "first multiplication committee crash (run/crash seeds 5/6 and 8/7)", failstop_rows,
        (
            Expect("t+2(k−1)+1 ≤ n/2+1", every(lambda row: row["t+2(k−1)+1"] <= row["n/2+1"]),
                   *equals(True)),
            Expect("output with the full crash budget", at(0, "output"), *equals("correct")),
            Expect("second run's crashes beyond budget + t", lambda rows: (
                rows[1]["honest crashes"] - rows[1]["crash budget ⌊nε⌋"] - rows[1]["t"]),
                *above(0)),
            Expect("output one crash past the reconstruction bound", at(1, "output"),
                   *equals("aborted")),
        ),
        runs=E5_RUNS,
    ),
    Claim(
        "E6", "guaranteed output delivery under active corruption", "§5, Thm 1",
        "core, dot product of width 6, n = 6, ε = 0.2, seed 11: honest, and with t members of "
        "every committee garbling ciphertexts and μ-shares (seed 12)", god_rows,
        (
            Expect("largest |attacked / honest − 1| of a phase's bytes", lambda rows: round(
                max(abs(r - 1) for r in col(rows, "ratio")), 3), *below(0.2)),
            ALL_CORRECT,
        ),
        runs=E6_RUNS,
    ),
    Claim(
        "MC", "Monte-Carlo validation of the §6 tail bounds", "§6, Eqs. (2), (3), (6)",
        "2,000 sortition trials at N = 100,000, C = 2,000, f = 0.1, k₂ = k₃ = 8 (failure "
        "bound 2⁻⁸), seeds 5 and 6", monte_carlo_rows,
        (
            Expect("Eq. (2) violation rate", at(0, "rate"), *within(0, 2 ** -8 + 0.01)),
            Expect("conservative-ε gap violation rate", at(2, "rate"),
                   *within(0, 2 ** -8 + 0.01)),
            Expect("paper-ε minus conservative-ε gap violation rate",
                   lambda rows: round(rows[1]["rate"] - rows[2]["rate"], 4), *above(0)),
        ),
    ),
    Claim(
        "A1", "ablation — the packing factor k, isolated at fixed (n, t)", "§3.1, §7",
        "core, dot product of width 12, n = 12, t = 2, k ∈ {1, 2, 3, 4}, seed 20 + k",
        packing_rows,
        (
            Expect("online win at k = 4", at(-1, "online win vs k=1"), *above(3.5)),
            Expect("offline bytes at k = 4 over k = 1", ratio("offline B/gate"),
                   *within(0.301, 0.899)),
            Expect("online win minus offline win at k = 4", lambda rows: round(
                rows[-1]["online win vs k=1"] - rows[-1]["offline win vs k=1"], 2), *above(0)),
            Expect("shares needed at k = 4 — t + 2(k−1) + 1", at(-1, "shares needed (of n=12)"),
                   *equals(2 + 2 * 3 + 1)),
            Expect("largest shares needed — at most n − t",
                   lambda rows: max(col(rows, "shares needed (of n=12)")), *within(0, 10)),
            ALL_CORRECT,
        ),
        runs=A1_RUNS,
    ),
    Claim(
        "E7", "symbolic cost model against the meter", "§5.2/§5.3 analysis",
        "core, the E1 sweep; nominal (slack-free) phase predictions of `SymbolicCostModel` "
        "over metered phase bytes", model_rows,
        (
            Expect("smallest predicted / measured", lambda rows: min(col(rows, "ratio")),
                   *within(0.7, 1.25)),
            Expect("largest predicted / measured", lambda rows: max(col(rows, "ratio")),
                   *within(0.7, 1.25)),
        ),
        runs=CORE_SWEEP,
    ),
    Claim(
        "IT", "extension — the information-theoretic variant keeps the online pattern", "§7",
        "IT variant, dot product of width 8, t = 2, (n, k) ∈ {(9, 2), (13, 3), (17, 4)}, "
        "seed 1; core at n = 9, ε = 0.25, seed 2.  Payload = the μ-share sections, framed = "
        "with each post's envelope", it_rows,
        (
            Expect("largest over smallest IT μ payload B/gate", lambda rows: round(
                max(col(rows[:-1], "μ payload B/gate"))
                / min(col(rows[:-1], "μ payload B/gate")), 3), *within(1, 1.3)),
            Expect("computational over IT framed B/gate at n = 9",
                   ratio("framed B/gate"), *above(5)),
            ALL_CORRECT,
        ),
        runs=IT_RUNS,
    ),
    Claim(
        "A2", "ablation — proof tokens against Reed–Solomon correction", "§3.3, §5.3",
        "core, dot product of width 8, n = 8, t = 1, k = 2, seed 5; one member of every "
        "multiplication committee garbles its μ-shares (seed 3)", robust_rows,
        (
            Expect("oracle over robust online mul B/gate",
                   ratio("online mul B/gate", over=1, of=0), *above(3)),
            ALL_CORRECT,
        ),
        runs=A2_RUNS,
    ),
    Claim(
        "M1", "packed-Shamir operation cost per secret against k", "§3 (mechanism)",
        "61-bit prime field, n = 24, degree 23 − k (multiply: two degree-11 sharings)",
        packing_cost_rows,
        (Expect("share µs/secret at k = 8 over k = 1", ratio("share µs/secret"), *below(1)),),
        timed=True,
    ),
    Claim(
        "M2", "threshold-Paillier (TE) operation costs", "§4.1",
        "every algorithm of the TE interface at a 64-bit modulus, n = 8, t = 3",
        paillier_cost_rows,
        (Expect("TDec of Enc(123456789)", at(3, "decrypts to"), *equals(123456789)),),
        timed=True,
    ),
    Claim(
        "M3", "execution engine — serial against process pool", "docs/PERFORMANCE.md",
        "`pow_many` on full-width jobs at a 2048-bit modulus", pool_rows, (SAME_RESULTS,),
        timed=True,
    ),
    Claim(
        "M3b", "execution engine — fixed-base table per window", "docs/PERFORMANCE.md",
        "24 uses of one base per (modulus, exponent) shape: build, lookup, break-even uses, "
        "bytes, and the windows the store picks", fixedbase_rows, (SAME_RESULTS,),
        timed=True,
    ),
    Claim(
        "M3c", "execution engine — the fixed-base store end to end", "docs/PERFORMANCE.md",
        "2,400 uses of one base (what `core_dot_256` raises v^Δ to) through a cold "
        "`FixedBaseStore` — counting, both builds, lookups — against `pow`", store_rows,
        (SAME_RESULTS,),
        timed=True,
    ),
    Claim(
        "M4", "wire — cross-process socket transport round trip", "docs/WIRE.md",
        "one 4-batch μ-share bundle through `SocketTransport`: coordinator → worker decode "
        "and re-encode → reply", socket_rows, (), timed=True,
    ),
)


# -- the runner --------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    claim: Claim
    rows: Rows
    checks: tuple[tuple[Expect, Any, bool], ...]  # (expectation, measured value, met)

    @property
    def passed(self) -> bool:
        return all(met for _, _, met in self.checks)


def evaluate(claims: Sequence[Claim]) -> Iterator[Verdict]:
    """The one run-and-tabulate loop; each distinct Run executes once per call."""
    results: dict[Run, Any] = {}
    for claim in claims:
        for run in claim.runs:
            if run not in results:
                results[run] = execute(run)
        rows = claim.table(*(results[run] for run in claim.runs))
        values = [expect.value(rows) for expect in claim.expect]
        yield Verdict(claim, rows, tuple(
            (expect, value, bool(expect.holds(value)))
            for expect, value in zip(claim.expect, values)))


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    return f"{value:,}" if isinstance(value, (int, float)) else str(value)


def render(verdict: Verdict) -> str:
    """A verdict as markdown: provenance, the table, one PASS/FAIL line per expectation."""
    claim, headers = verdict.claim, list(verdict.rows[0])
    lines = [
        f"*Source:* {claim.source}.  *Workload:* {claim.workload}.  "
        f"*Regenerate:* `python benchmarks/claims.py --only {claim.id}`.",
        "",
        "| " + " | ".join(headers) + " |",
        "|" + "---|" * len(headers),
    ]
    lines += ["| " + " | ".join(_cell(row[h]) for h in headers) + " |" for row in verdict.rows]
    lines.append("")
    lines += [f"- **{'PASS' if met else 'FAIL'}** — {expect.what}: {_cell(value)} "
              f"(expected {expect.bound})" for expect, value, met in verdict.checks]
    return "\n".join(lines)


def _region(claim_id: str) -> re.Pattern[str]:
    marker = re.escape(claim_id)
    return re.compile(rf"(<!-- claim:{marker} -->\n).*?(<!-- /claim:{marker} -->)", re.DOTALL)


def regenerate(text: str, verdicts: Sequence[Verdict]) -> tuple[str, list[str]]:
    """``text`` with every verdict's region re-rendered, and the ids whose region changed."""
    stale = []
    for verdict in verdicts:
        body = render(verdict)
        updated = _region(verdict.claim.id).sub(lambda m: m[1] + body + "\n" + m[2], text)
        if updated != text:
            stale.append(verdict.claim.id)
        text = updated
    return text, stale


def main(argv: Sequence[str] | None = None, claims: Sequence[Claim] = CLAIMS,
         documents: Sequence[Path] = DOCUMENTS) -> int:
    parser = argparse.ArgumentParser(description="Evaluate the claims table.")
    parser.add_argument("--only", metavar="IDS", help="comma-separated claim ids")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="regenerate the marked regions")
    mode.add_argument("--check", action="store_true", help="also fail on a stale region")
    args = parser.parse_args(argv)
    by_id = {claim.id: claim for claim in claims}
    names = args.only.split(",") if args.only else [
        c.id for c in claims if not (c.timed and (args.write or args.check))]
    unknown = [name for name in names if name not in by_id]
    if unknown:
        parser.error(f"unknown claim id {', '.join(unknown)} (known: {', '.join(by_id)})")

    verdicts = []
    for verdict in evaluate([by_id[name] for name in names]):
        claim = verdict.claim
        timed = f"  (timed, cpu_count={os.cpu_count()})" if claim.timed else ""
        print(f"\n## {claim.id} — {claim.title}  [{'PASS' if verdict.passed else 'FAIL'}]"
              f"{timed}\n\n{render(verdict)}")
        verdicts.append(verdict)
    problems = [f"claim {v.claim.id} FAILED" for v in verdicts if not v.passed]

    if args.write or args.check:
        exact = [v for v in verdicts if not v.claim.timed]
        placed: set[str] = set()
        for path in documents:
            text = path.read_text()
            placed.update(v.claim.id for v in exact if _region(v.claim.id).search(text))
            updated, stale = regenerate(text, exact)
            if stale and args.write:
                path.write_text(updated)
                print(f"{path.name}: rewrote {', '.join(stale)}", file=sys.stderr)
            elif stale:
                problems.append(f"{path.name}: region {', '.join(stale)} is stale "
                                "(run `python benchmarks/claims.py --write`)")
        problems += [f"claim {v.claim.id} has no region in any document"
                     for v in exact if v.claim.id not in placed]

    print(f"\n{sum(v.passed for v in verdicts)}/{len(verdicts)} claims pass")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
