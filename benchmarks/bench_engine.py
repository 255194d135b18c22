"""Micro-experiment M3: execution-engine throughput (serial vs process pool).

The offline path is a stream of large modular exponentiations, so engine
throughput is measured directly on ``pow_many`` batches at a Paillier-sized
(2048-bit) modulus — no protocol machinery, no key generation.  Run as a
script this sweeps batch sizes over both engines, measures the fixed-base
table (build cost, lookup cost and break-even uses per window, at the
512-bit N² of ``core_dot_256`` and the 4096-bit N² of 2048-bit keys) and
the store's whole promote-then-widen path on a shared-base stream, and
writes ``BENCH_engine.json``; under pytest-benchmark it times one
representative batch per engine.

Speedups are hardware-dependent: the pool can only win where extra cores
exist (on a single-CPU box it measures pure dispatch overhead), which is
why the JSON records ``cpu_count`` next to every timing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro.engine import (
    FixedBaseStore,
    FixedBaseTable,
    ProcessPoolEngine,
    SerialEngine,
    compute_pows,
)
from repro.engine import fixedbase

DEFAULT_SIZES = (64, 256, 512)
DEFAULT_BITS = 2048
DEFAULT_WORKERS = 4

#: (modulus bits, exponent bits) of the fixed-base rows: the v^Δ base of a
#: 256-bit-key run (exponents 420–934 bits, 650 on average) and of a
#: 2048-bit-key run.
FIXEDBASE_SHAPES = ((512, 650), (4096, 2300))


def make_jobs(count, bits, rng, shared_base=False, exponent_bits=None):
    """Deterministic full-width jobs shaped like the offline path's r^N
    (or, with ``exponent_bits``, exponents of exactly that length)."""
    modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    base = rng.getrandbits(bits) % modulus

    def exponent():
        if exponent_bits is None:
            return rng.getrandbits(bits)
        return rng.getrandbits(exponent_bits) | (1 << (exponent_bits - 1))

    return [
        (base if shared_base else rng.getrandbits(bits) % modulus,
         exponent(), modulus)
        for _ in range(count)
    ]


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def sweep(sizes, bits, workers, repeats):
    results = []
    with ProcessPoolEngine(workers=workers, min_parallel=1) as pool:
        serial = SerialEngine()
        for size in sizes:
            jobs = make_jobs(size, bits, random.Random(2024 + size))
            assert serial.pow_many(jobs) == pool.pow_many(jobs)  # warm + check
            serial_s = _time(lambda: serial.pow_many(jobs), repeats)
            pool_s = _time(lambda: pool.pow_many(jobs), repeats)
            results.append({
                "batch_size": size,
                "serial_s": round(serial_s, 4),
                "pool_s": round(pool_s, 4),
                "speedup": round(serial_s / pool_s, 2),
            })
            print(f"  batch={size:4d}  serial={serial_s:7.3f}s  "
                  f"pool={pool_s:7.3f}s  speedup={serial_s / pool_s:.2f}x")
    return results


def fixedbase_rows(modulus_bits, exponent_bits, repeats, uses=24):
    """One row per window: build cost, lookup cost, break-even uses, bytes.

    ``breakeven_uses`` is build ÷ (native − lookup): how many uses of one
    base pay for building its table.  ``store_window`` marks the windows
    the store would pick at its two sighting thresholds for this shape
    (narrowed, if need be, to half the byte budget).
    """
    jobs = make_jobs(
        uses, modulus_bits, random.Random(7 * modulus_bits),
        shared_base=True, exponent_bits=exponent_bits,
    )
    base, _, modulus = jobs[0]
    exponents = [e for _, e, _ in jobs]
    expected = [pow(base, e, modulus) for e in exponents]
    native_s = _time(
        lambda: [pow(base, e, modulus) for e in exponents], repeats
    ) / uses
    picked = {
        "promote": fixedbase.fitting_window(
            fixedbase.PROMOTE_WINDOW, exponent_bits, modulus),
        "widen": fixedbase.fitting_window(
            fixedbase.WIDEN_WINDOW, exponent_bits, modulus),
    }
    rows = []
    for window in range(1, 9):
        table = FixedBaseTable(base, modulus, window)
        start = time.perf_counter()
        table.grow(exponent_bits)
        build_s = time.perf_counter() - start
        assert [table.pow(e) for e in exponents] == expected
        lookup_s = _time(lambda: [table.pow(e) for e in exponents], repeats) / uses
        rows.append({
            "window": window,
            "build_ms": round(build_s * 1e3, 2),
            "build_in_native_pows": round(build_s / native_s, 1),
            "lookup_us": round(lookup_s * 1e6, 1),
            "speedup": round(native_s / lookup_s, 2),
            "breakeven_uses": round(build_s / (native_s - lookup_s), 1),
            "table_mb": round(table.nbytes / 1e6, 2),
            "store_window": [k for k, w in picked.items() if w == window],
        })
        print(f"  {modulus_bits}-bit w={window}: build={build_s * 1e3:8.2f}ms "
              f"lookup={lookup_s * 1e6:9.1f}us x{native_s / lookup_s:4.1f} "
              f"breakeven={build_s / (native_s - lookup_s):5.1f} uses "
              f"{table.nbytes / 1e6:6.2f}MB {rows[-1]['store_window']}")
    return {
        "modulus_bits": modulus_bits,
        "exponent_bits": exponent_bits,
        "native_us": round(native_s * 1e6, 1),
        "windows": rows,
    }


def store_measurement(modulus_bits, exponent_bits, repeats, count=2400):
    """A shared-base stream through the kernel, cold store each time: what
    promote-at-32 / widen-at-512 delivers end to end, builds included."""
    jobs = make_jobs(
        count, modulus_bits, random.Random(99),
        shared_base=True, exponent_bits=exponent_bits,
    )

    def through_store():
        store = FixedBaseStore()
        return [store.pow(*job) for job in jobs]

    native_s = _time(lambda: [pow(b, e, m) for b, e, m in jobs], repeats)
    assert through_store() == [pow(b, e, m) for b, e, m in jobs]
    store_s = _time(through_store, repeats)
    return {
        "modulus_bits": modulus_bits,
        "exponent_bits": exponent_bits,
        "uses": count,
        "native_s": round(native_s, 4),
        "store_s": round(store_s, 4),
        "speedup": round(native_s / store_s, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument("--bits", type=int, default=DEFAULT_BITS)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args(argv)

    print(f"engine sweep: {args.bits}-bit modulus, workers={args.workers}, "
          f"cpu_count={os.cpu_count()}")
    report = {
        "modulus_bits": args.bits,
        "workers": args.workers,
        "cpu_count": os.cpu_count(),
        "repeats": args.repeats,
        "pow_many": sweep(args.sizes, args.bits, args.workers, args.repeats),
        "fixedbase_table": [
            fixedbase_rows(mbits, ebits, args.repeats)
            for mbits, ebits in FIXEDBASE_SHAPES
        ],
        # 2,400 uses: what core_dot_256 raises v^Δ to in one run.
        "fixedbase_store": store_measurement(*FIXEDBASE_SHAPES[0], args.repeats),
        "fixedbase_policy": {
            "promote": [fixedbase.PROMOTE_SIGHTINGS, fixedbase.PROMOTE_WINDOW],
            "widen": [fixedbase.WIDEN_SIGHTINGS, fixedbase.WIDEN_WINDOW],
            "table_budget_bytes": fixedbase.TABLE_BUDGET_BYTES,
            "min_modulus_bits": fixedbase.MIN_MODULUS_BITS,
            "min_exponent_bits": fixedbase.MIN_EXPONENT_BITS,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


# --- pytest-benchmark entry points (small batches; `make bench`) -----------

BENCH_JOBS = make_jobs(32, 1024, random.Random(5))


def test_serial_pow_many_speed(benchmark):
    engine = SerialEngine()
    benchmark(engine.pow_many, BENCH_JOBS)


def test_pool_pow_many_speed(benchmark):
    with ProcessPoolEngine(workers=2, min_parallel=1) as pool:
        assert benchmark(pool.pow_many, BENCH_JOBS) == compute_pows(BENCH_JOBS)


def test_fixedbase_table_speed(benchmark):
    jobs = make_jobs(32, 1024, random.Random(6), shared_base=True)
    base, _, modulus = jobs[0]

    def run():
        table = FixedBaseTable(base, modulus, 5)
        return [table.pow(e) for _, e, _ in jobs]

    assert benchmark(run) == [pow(b, e, m) for b, e, m in jobs]


if __name__ == "__main__":
    sys.exit(main())
