"""Tests for the crypto execution engine (repro.engine).

The engine's contract is strict: every backend returns results in job
order, bit-identical to ``[pow(b, e, m) ...]``, and never draws
randomness.  That contract is what lets the protocol swap worker counts
without changing a single transcript byte — the last test class checks
exactly that on a full protocol run.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    FixedBaseStore,
    FixedBaseTable,
    ProcessPoolEngine,
    SerialEngine,
    chunk_jobs,
    compute_pows,
    encrypt_many,
    make_engine,
    partial_decrypt_many,
    run_pow_chunk,
    scalar_mul_many,
    teval_many,
)
from repro.engine import engine as engine_mod
from repro.engine import fixedbase
from repro.engine import jobs as jobs_mod
from repro.errors import EncryptionError, ParameterError
from repro.observability import hooks as _hooks
from repro.observability.tracer import Tracer
from repro.paillier.threshold import ThresholdPaillier, teval


def _jobs(count, rng, bits=384):
    modulus = (rng.getrandbits(bits) | (1 << bits) | 1)
    return [
        (rng.getrandbits(bits) % modulus, rng.getrandbits(64), modulus)
        for _ in range(count)
    ]


def _outcome(power, *args):
    """A ``pow`` call as a value: its result, or the ValueError it raises."""
    try:
        return power(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


_moduli = st.integers(min_value=1, max_value=1 << 300).flatmap(
    # odd and even, positive and negative — everything but zero
    lambda m: st.sampled_from([m, -m])
)
_exponents = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=1 << 420),
    st.integers(min_value=-(1 << 200), max_value=-1),
)


class TestFixedBaseTable:
    @settings(max_examples=150, deadline=None)
    @given(
        base=st.one_of(
            st.sampled_from([0, 1]), st.integers(min_value=0, max_value=1 << 320)
        ),
        modulus=_moduli,
        window=st.integers(min_value=1, max_value=8),
        exponents=st.lists(_exponents, min_size=1, max_size=6),
    )
    def test_matches_builtin_pow(self, base, modulus, window, exponents):
        # One table serves the whole list, so later exponents meet rows
        # built for earlier ones and (when longer) make it grow.
        table = FixedBaseTable(base, modulus, window)
        for exponent in exponents:
            assert _outcome(table.pow, exponent) == _outcome(
                pow, base, exponent, modulus
            )

    def test_zero_exponent_and_trivial_bases(self):
        for modulus in (1, 2, 1000003, 1 << 64, -15):
            for base in (0, 1, modulus, modulus + 1):
                table = FixedBaseTable(base, modulus, 4)
                for exponent in (0, 1, 2, 1 << 70):
                    assert table.pow(exponent) == pow(base, exponent, modulus)

    def test_negative_exponent_with_and_without_inverse(self):
        invertible = FixedBaseTable(7, 1000003 * 1000033, 3)
        assert invertible.pow(-12345) == pow(7, -12345, 1000003 * 1000033)
        stuck = FixedBaseTable(1000003 * 5, 1000003 * 1000033, 3)
        with pytest.raises(ValueError) as builtin:
            pow(1000003 * 5, -3, 1000003 * 1000033)
        with pytest.raises(ValueError) as ours:
            stuck.pow(-3)
        assert str(ours.value) == str(builtin.value)

    def test_zero_modulus_rejected_like_the_builtin(self):
        with pytest.raises(ValueError) as builtin:
            pow(3, 5, 0)
        with pytest.raises(ValueError) as ours:
            FixedBaseTable(3, 0, 4)
        assert str(ours.value) == str(builtin.value)

    def test_rows_grow_to_the_longest_exponent_seen(self):
        modulus = (1 << 127) - 1
        table = FixedBaseTable(3, modulus, 4)
        assert table.rows == [] and table.nbytes == 0
        table.pow(1 << 15)
        assert len(table.rows) == 4 and table.bits == 16
        before = table.nbytes
        longer = (1 << 200) | 12345
        assert table.pow(longer) == pow(3, longer, modulus)
        assert len(table.rows) == 51 and table.nbytes > before
        # ... and a short exponent afterwards needs no more.
        table.pow(77)
        assert len(table.rows) == 51

    def test_layout(self):
        modulus, window = 1000003, 3
        table = FixedBaseTable(5, modulus, window)
        table.grow(12)
        for i, row in enumerate(table.rows):
            assert row == [
                pow(5, d << (window * i), modulus) for d in range(1 << window)
            ]


def _big_modulus(rng, bits=256):
    return rng.getrandbits(bits) | (1 << (bits - 1)) | 1


def _long_exponent(rng, bits=160):
    return rng.getrandbits(bits) | (1 << (bits - 1))


class TestFixedBaseStore:
    def test_promotion_and_widening_exactly_at_the_thresholds(self, rng):
        modulus = _big_modulus(rng)
        base = rng.randrange(modulus)
        store = FixedBaseStore()
        for sighting in range(1, fixedbase.WIDEN_SIGHTINGS + 10):
            exponent = _long_exponent(rng)
            assert store.pow(base, exponent, modulus) == pow(base, exponent, modulus)
            assert store.sightings(base, modulus) == sighting
            table = store.table(base, modulus)
            if sighting < fixedbase.PROMOTE_SIGHTINGS:
                assert table is None
            elif sighting < fixedbase.WIDEN_SIGHTINGS:
                assert table.window == fixedbase.PROMOTE_WINDOW
            else:
                assert table.window == fixedbase.WIDEN_WINDOW
            assert store.table_bytes == (table.nbytes if table else 0)

    def test_small_modulus_and_small_exponent_bypass(self, rng):
        store = FixedBaseStore()
        small_modulus = _big_modulus(rng, fixedbase.MIN_MODULUS_BITS - 1)
        modulus = _big_modulus(rng)
        for _ in range(fixedbase.PROMOTE_SIGHTINGS + 5):
            long_e = _long_exponent(rng)
            short_e = rng.getrandbits(fixedbase.MIN_EXPONENT_BITS - 1)
            assert store.pow(5, long_e, small_modulus) == pow(5, long_e, small_modulus)
            assert store.pow(5, short_e, modulus) == pow(5, short_e, modulus)
        assert store.sightings(5, small_modulus) == 0
        assert store.sightings(5, modulus) == 0
        assert store.table_bytes == 0

    def test_sighting_counts_are_an_lru(self, rng, monkeypatch):
        monkeypatch.setattr(fixedbase, "SIGHTING_KEYS", 4)
        modulus = _big_modulus(rng)
        store = FixedBaseStore()
        exponent = _long_exponent(rng)
        for base in (2, 3, 4, 5):
            store.pow(base, exponent, modulus)
        store.pow(2, exponent, modulus)       # 2 is now the most recent
        store.pow(6, exponent, modulus)       # pushes out 3, the oldest
        assert store.sightings(3, modulus) == 0
        assert store.sightings(2, modulus) == 2
        assert [store.sightings(b, modulus) for b in (4, 5, 6)] == [1, 1, 1]

    def test_lru_eviction_under_the_byte_budget(self, rng, monkeypatch):
        modulus = _big_modulus(rng)
        one_table = fixedbase.table_bytes(160, fixedbase.PROMOTE_WINDOW, modulus)
        # Room for two promoted tables, not three.
        monkeypatch.setattr(fixedbase, "TABLE_BUDGET_BYTES", 2 * one_table + 1)
        store = FixedBaseStore()

        def promote(base):
            for _ in range(fixedbase.PROMOTE_SIGHTINGS):
                exponent = _long_exponent(rng)
                assert store.pow(base, exponent, modulus) == pow(
                    base, exponent, modulus
                )

        promote(11)
        promote(13)
        assert store.table(11, modulus) and store.table(13, modulus)
        assert store.table_bytes == 2 * one_table
        store.pow(11, _long_exponent(rng), modulus)   # 13 is now the older
        promote(17)
        assert store.table(13, modulus) is None
        assert store.sightings(13, modulus) == 0      # must re-earn its table
        assert store.table(11, modulus) and store.table(17, modulus)
        assert store.table_bytes <= fixedbase.TABLE_BUDGET_BYTES

    def test_window_narrows_to_fit_half_the_budget(self, rng, monkeypatch):
        modulus = _big_modulus(rng)
        narrow = fixedbase.table_bytes(160, 2, modulus)
        monkeypatch.setattr(fixedbase, "TABLE_BUDGET_BYTES", 2 * narrow)
        store = FixedBaseStore()
        for _ in range(fixedbase.PROMOTE_SIGHTINGS):
            exponent = _long_exponent(rng)
            assert store.pow(9, exponent, modulus) == pow(9, exponent, modulus)
        table = store.table(9, modulus)
        assert table.window == 2
        # An exponent whose rows would not fit is answered natively and
        # leaves the table as it was.
        rows = len(table.rows)
        huge = _long_exponent(rng, 2000)
        assert store.pow(9, huge, modulus) == pow(9, huge, modulus)
        assert len(table.rows) == rows
        assert store.table_bytes <= fixedbase.TABLE_BUDGET_BYTES // 2

    def test_no_table_when_nothing_fits(self, rng, monkeypatch):
        monkeypatch.setattr(fixedbase, "TABLE_BUDGET_BYTES", 64)
        modulus = _big_modulus(rng)
        store = FixedBaseStore()
        for _ in range(fixedbase.PROMOTE_SIGHTINGS + 3):
            exponent = _long_exponent(rng)
            assert store.pow(9, exponent, modulus) == pow(9, exponent, modulus)
        assert store.table(9, modulus) is None and store.table_bytes == 0

    def test_negative_exponents_through_a_promoted_table(self, rng):
        p, q = (1 << 127) - 1, (1 << 89) - 1
        modulus = p * q
        store = FixedBaseStore()
        for base in (7, p * 3):                       # invertible, and not
            for _ in range(fixedbase.PROMOTE_SIGHTINGS + 4):
                exponent = -_long_exponent(rng)
                assert _outcome(store.pow, base, exponent, modulus) == _outcome(
                    pow, base, exponent, modulus
                )
            assert store.table(base, modulus) is not None
        assert store.table_bytes == sum(
            store.table(base, modulus).nbytes for base in (7, p * 3)
        )

    def test_clear(self, rng):
        modulus = _big_modulus(rng)
        store = FixedBaseStore()
        for _ in range(fixedbase.PROMOTE_SIGHTINGS):
            store.pow(3, _long_exponent(rng), modulus)
        assert store.table_bytes > 0
        store.clear()
        assert store.table_bytes == 0
        assert store.table(3, modulus) is None and store.sightings(3, modulus) == 0


def _mixed_jobs(rng):
    """Repeated and one-off bases, long and short exponents (negative ones
    too), moduli above and below the table floor."""
    modulus = _big_modulus(rng, 384)
    small = _big_modulus(rng, 96)
    hot = rng.randrange(modulus)
    jobs = []
    for i in range(120):
        jobs.append((hot, _long_exponent(rng, 300), modulus))
        jobs.append((rng.randrange(modulus), _long_exponent(rng, 300), modulus))
        jobs.append((hot, rng.getrandbits(40), modulus))
        jobs.append((hot % small, _long_exponent(rng, 200), small))
        if i % 10 == 0:
            jobs.append((hot | 1, -_long_exponent(rng, 120), (1 << 255) - 19))
    return hot, modulus, jobs


class TestComputePows:
    def test_matches_pow_map(self, rng):
        jobs = _jobs(40, rng)
        assert compute_pows(jobs) == [pow(b, e, m) for b, e, m in jobs]

    def test_repeated_base_uses_cache_and_matches(self, rng):
        hot, modulus, jobs = _mixed_jobs(rng)
        jobs_mod.clear_tables()
        assert compute_pows(jobs) == [pow(b, e, m) for b, e, m in jobs]
        assert jobs_mod._TABLES.table(hot, modulus) is not None
        # The table outlives the batch: a later batch starts on it.
        sightings = jobs_mod._TABLES.sightings(hot, modulus)
        later = [(hot, _long_exponent(rng, 300), modulus)]
        assert compute_pows(later) == [pow(*later[0])]
        assert jobs_mod._TABLES.sightings(hot, modulus) == sightings + 1

    def test_small_moduli_never_cached(self, rng):
        # Below the bit floor the kernel does not even count sightings.
        jobs = [(5, rng.getrandbits(200), 10007) for _ in range(40)]
        jobs_mod.clear_tables()
        assert compute_pows(jobs) == [pow(b, e, m) for b, e, m in jobs]
        assert jobs_mod._TABLES.sightings(5, 10007) == 0
        assert jobs_mod._TABLES.table_bytes == 0

    def test_a_run_starts_with_an_empty_store(self, rng):
        hot, modulus, jobs = _mixed_jobs(rng)
        compute_pows(jobs)
        assert jobs_mod._TABLES.table_bytes > 0
        with engine_mod.activated(SerialEngine()):
            assert jobs_mod._TABLES.table_bytes == 0
            assert jobs_mod._TABLES.sightings(hot, modulus) == 0

    def test_run_pow_chunk_is_compute_pows(self, rng):
        jobs = _jobs(8, rng)
        assert run_pow_chunk(jobs) == compute_pows(jobs)


def _product_of_pows(bases, exponents, modulus):
    """What a multi-exponentiation job is worth, by ``builtins.pow`` alone."""
    return math.prod(pow(b, e, modulus) for b, e in zip(bases, exponents)) % modulus


def _multi_jobs(count, rng, bits=256):
    """Batch-verification shaped jobs: 2n bases below a ``2·bits``-bit
    modulus, exponents alternating ``bits/2 - 2`` and ``bits - 4`` bits."""
    modulus = _big_modulus(rng, 2 * bits)
    short = bits // 2 - 2
    jobs = []
    for _ in range(count):
        n_bases = 2 * rng.randrange(1, 7)
        jobs.append((
            tuple(rng.randrange(modulus) for _ in range(n_bases)),
            tuple(rng.getrandbits(short * (1 + i % 2)) for i in range(n_bases)),
            modulus,
        ))
    return jobs


class TestMultiPow:
    """The multi-exponentiation job kind: ``Π pow(b, e, m) % m``, exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        operands=st.lists(
            st.tuples(
                st.integers(min_value=-(1 << 300), max_value=1 << 300),
                st.one_of(
                    st.just(0),
                    st.integers(min_value=0, max_value=1 << 126),
                    st.integers(min_value=0, max_value=1 << 252),
                    st.integers(min_value=-(1 << 64), max_value=-1),
                ),
            ),
            max_size=9,
        ),
        modulus=_moduli,
    )
    def test_matches_the_product_of_builtin_pows(self, operands, modulus):
        bases = tuple(b for b, _ in operands)
        exponents = tuple(e for _, e in operands)
        assert _outcome(jobs_mod.multi_pow, bases, exponents, modulus) == _outcome(
            _product_of_pows, bases, exponents, modulus
        )

    def test_batch_verification_widths(self, rng):
        # 252-bit next to 126-bit exponents: the short ones run out of
        # digits half way up the shared squaring chain.
        for bases, exponents, modulus in _multi_jobs(20, rng):
            assert {e.bit_length() > 126 for e in exponents} == {True, False}
            assert jobs_mod.multi_pow(bases, exponents, modulus) == _product_of_pows(
                bases, exponents, modulus
            )

    def test_degenerate_shapes(self, rng):
        modulus = _big_modulus(rng)
        base, exponent = rng.randrange(modulus), _long_exponent(rng)
        assert jobs_mod.multi_pow((), (), modulus) == 1
        assert jobs_mod.multi_pow((base,), (exponent,), modulus) == pow(
            base, exponent, modulus
        )
        assert jobs_mod.multi_pow((base, 7, 0), (0, 0, 0), modulus) == 1
        assert jobs_mod.multi_pow((base, 0), (exponent, 5), modulus) == 0
        assert jobs_mod.multi_pow((base, 7), (exponent, 0), 1) == 0
        assert jobs_mod.multi_pow((), (), 1) == 0

    def test_raises_what_pow_raises(self, rng):
        modulus = 3 * _big_modulus(rng)            # 3 has no inverse
        with pytest.raises(ValueError) as builtin:
            pow(3, -5, modulus)
        with pytest.raises(ValueError) as ours:
            jobs_mod.multi_pow((2, 3), (9, -5), modulus)
        assert str(ours.value) == str(builtin.value)
        assert jobs_mod.multi_pow((2, 5), (9, -5), modulus) == _product_of_pows(
            (2, 5), (9, -5), modulus
        )
        with pytest.raises(ValueError) as builtin:
            pow(2, 9, 0)
        with pytest.raises(ValueError) as ours:
            jobs_mod.multi_pow((2,), (9,), 0)
        assert str(ours.value) == str(builtin.value)
        with pytest.raises(ValueError):
            jobs_mod.multi_pow((2, 3), (9,), modulus)   # a base without an exponent

    def test_one_kernel_serves_both_job_kinds_in_order(self, rng):
        singles, multis = _jobs(6, rng), _multi_jobs(6, rng)
        jobs = [job for pair in zip(singles, multis) for job in pair]
        expected = [
            value
            for single, multi in zip(singles, multis)
            for value in (pow(*single), _product_of_pows(*multi))
        ]
        assert compute_pows(jobs) == expected

    def test_serial_and_pool_engines_are_bit_identical(self, rng):
        jobs = _multi_jobs(40, rng) + _jobs(8, rng)
        expected = [
            _product_of_pows(*job) if isinstance(job[0], tuple) else pow(*job)
            for job in jobs
        ]
        tracer = Tracer()
        with ProcessPoolEngine(workers=2, min_parallel=1) as pool, \
                _hooks.activated(tracer):
            assert pool.pow_many(jobs) == expected
        assert tracer.counter_totals()[_hooks.ENGINE_POOL_JOBS] == len(jobs)
        assert SerialEngine().pow_many(jobs) == expected

    def test_multi_exp_counts_every_base(self, rng):
        ((bases, exponents, modulus),) = _multi_jobs(1, rng)
        tracer = Tracer()
        with _hooks.activated(tracer):
            value = engine_mod.multi_exp(list(bases), list(exponents), modulus)
        assert value == _product_of_pows(bases, exponents, modulus)
        totals = tracer.counter_totals()
        # "exponentiations asked for": one per base; the engine saw one job.
        assert totals[_hooks.PAILLIER_EXP] == len(bases)
        assert totals[_hooks.ENGINE_JOBS] == 1 and totals[_hooks.ENGINE_BATCHES] == 1


class TestChunkJobs:
    def test_partition_preserves_order(self, rng):
        jobs = _jobs(23, rng)
        chunks = chunk_jobs(jobs, 5)
        assert [j for c in chunks for j in c] == jobs

    def test_balanced_sizes(self, rng):
        sizes = [len(c) for c in chunk_jobs(_jobs(23, rng), 5)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_jobs(self, rng):
        chunks = chunk_jobs(_jobs(3, rng), 10)
        assert [j for c in chunks for j in c] == [j for c in chunks for j in c]
        assert all(c for c in chunks)  # no empty chunks shipped

    def test_empty(self):
        assert chunk_jobs([], 4) == []


class TestEngines:
    def test_serial_matches_pow(self, rng):
        jobs = _jobs(10, rng)
        with SerialEngine() as engine:
            assert engine.pow_many(jobs) == [pow(b, e, m) for b, e, m in jobs]

    def test_pool_matches_serial(self, rng):
        jobs = _jobs(64, rng)
        with ProcessPoolEngine(workers=2, min_parallel=1) as pool:
            assert pool.pow_many(jobs) == SerialEngine().pow_many(jobs)

    def test_pool_matches_serial_on_a_mixed_batch(self, rng):
        # Each worker promotes the repeated base in its own store, on its
        # own share of the sightings; the values cannot tell.
        _, _, jobs = _mixed_jobs(rng)
        expected = [pow(b, e, m) for b, e, m in jobs]
        with ProcessPoolEngine(workers=2) as pool:
            assert pool.pow_many(jobs) == expected
            assert pool.pow_many(jobs) == expected    # warm worker stores
            assert "ok" in pool.describe()
        assert SerialEngine().pow_many(jobs) == expected

    def test_small_batch_stays_in_process(self, rng):
        jobs = _jobs(4, rng)
        tracer = Tracer()
        with ProcessPoolEngine(workers=2) as pool, _hooks.activated(tracer):
            pool.pow_many(jobs)
        totals = tracer.counter_totals()
        assert totals[_hooks.ENGINE_BATCHES] == 1
        assert totals[_hooks.ENGINE_JOBS] == 4
        assert _hooks.ENGINE_POOL_BATCHES not in totals

    def test_pool_counters(self, rng):
        jobs = _jobs(40, rng)
        tracer = Tracer()
        with ProcessPoolEngine(workers=2, min_parallel=1) as pool, \
                _hooks.activated(tracer):
            result = pool.pow_many(jobs)
        assert result == [pow(b, e, m) for b, e, m in jobs]
        totals = tracer.counter_totals()
        assert totals[_hooks.ENGINE_POOL_BATCHES] == 1
        assert totals[_hooks.ENGINE_POOL_JOBS] == 40
        assert totals[_hooks.ENGINE_CHUNKS] >= 2

    def test_broken_pool_falls_back_to_serial(self, rng):
        jobs = _jobs(64, rng)
        tracer = Tracer()
        pool = ProcessPoolEngine(workers=2, min_parallel=1,
                                 start_method="no-such-method")
        with pool, _hooks.activated(tracer):
            result = pool.pow_many(jobs)
        assert result == [pow(b, e, m) for b, e, m in jobs]
        assert tracer.counter_totals()[_hooks.ENGINE_FALLBACKS] == 1
        assert "broken" in pool.describe()

    def test_explicit_chunk_size(self, rng):
        jobs = _jobs(10, rng)
        with ProcessPoolEngine(workers=2, chunk_size=3, min_parallel=1) as pool:
            assert pool.pow_many(jobs) == [pow(b, e, m) for b, e, m in jobs]

    def test_make_engine(self):
        assert isinstance(make_engine(0), SerialEngine)
        pool = make_engine(3)
        assert isinstance(pool, ProcessPoolEngine) and pool.workers == 3
        pool.close()

    def test_activated_scopes_the_global(self):
        default = engine_mod.active()
        replacement = SerialEngine()
        with engine_mod.activated(replacement):
            assert engine_mod.active() is replacement
        assert engine_mod.active() is default

    def test_install_none_restores_default(self):
        replacement = SerialEngine()
        engine_mod.install(replacement)
        try:
            assert engine_mod.active() is replacement
        finally:
            engine_mod.install(None)
        assert isinstance(engine_mod.active(), SerialEngine)


class TestBatchApis:
    """Each batch API must be bit-identical to the single-op loop."""

    def test_encrypt_many(self, threshold_setup, rng):
        tpk, _ = threshold_setup
        pk = tpk.paillier
        messages = [rng.randrange(tpk.n) for _ in range(6)]
        randomizers = [pk.random_unit(rng) for _ in messages]
        batched = encrypt_many(pk, messages, randomizers)
        singles = [
            pk.encrypt(m, randomness=r) for m, r in zip(messages, randomizers)
        ]
        assert [c.value for c in batched] == [c.value for c in singles]

    def test_encrypt_many_via_public_key_method(self, threshold_setup, rng):
        tpk, _ = threshold_setup
        pk = tpk.paillier
        r = pk.random_unit(rng)
        assert pk.encrypt_many([5], [r])[0] == pk.encrypt(5, randomness=r)

    def test_encrypt_many_length_mismatch(self, threshold_setup):
        tpk, _ = threshold_setup
        with pytest.raises(ParameterError):
            encrypt_many(tpk.paillier, [1, 2], [3])

    def test_encrypt_many_non_unit_randomness(self, threshold_setup):
        tpk, _ = threshold_setup
        with pytest.raises(EncryptionError):
            encrypt_many(tpk.paillier, [1], [0])

    def test_partial_decrypt_many(self, threshold_setup, rng):
        tpk, shares = threshold_setup
        cts = [tpk.encrypt(i, rng=rng) for i in (1, 22, 333)]
        batched = partial_decrypt_many(tpk, shares[0], cts)
        singles = [
            ThresholdPaillier.partial_decrypt(tpk, shares[0], ct) for ct in cts
        ]
        assert batched == singles

    def test_partial_decrypt_many_foreign_key(self, threshold_setup,
                                              threshold_setup_t1, rng):
        tpk, shares = threshold_setup
        other_tpk, _ = threshold_setup_t1
        ct = other_tpk.encrypt(1, rng=rng)
        with pytest.raises(EncryptionError):
            partial_decrypt_many(tpk, shares[0], [ct])

    def test_teval_many(self, threshold_setup, rng):
        tpk, _ = threshold_setup
        cts = [tpk.encrypt(i, rng=rng) for i in (3, 5, 7)]
        groups = [(cts, [1, 2, 3]), (cts[:2], [4, -1])]
        batched = teval_many(tpk, groups)
        singles = [teval(tpk, cs, ls) for cs, ls in groups]
        assert [c.value for c in batched] == [c.value for c in singles]

    def test_teval_many_rejects_empty_group(self, threshold_setup):
        tpk, _ = threshold_setup
        with pytest.raises(ParameterError):
            teval_many(tpk, [([], [])])

    def test_teval_many_no_groups(self, threshold_setup):
        tpk, _ = threshold_setup
        assert teval_many(tpk, []) == []

    def test_scalar_mul_many(self, threshold_setup, rng):
        tpk, _ = threshold_setup
        cts = [tpk.encrypt(i, rng=rng) for i in (2, 9)]
        scalars = [17, -4]
        batched = scalar_mul_many(cts, scalars)
        singles = [ct * s for ct, s in zip(cts, scalars)]
        assert [c.value for c in batched] == [c.value for c in singles]

    def test_batch_counters_match_single_op_semantics(
        self, threshold_setup, rng
    ):
        tpk, shares = threshold_setup
        pk = tpk.paillier
        messages = [1, 2, 3]
        randomizers = [pk.random_unit(rng) for _ in messages]
        tracer = Tracer()
        with _hooks.activated(tracer):
            cts = encrypt_many(pk, messages, randomizers)
            partial_decrypt_many(tpk, shares[0], cts)
        totals = tracer.counter_totals()
        assert totals[_hooks.PAILLIER_ENCRYPT] == 3
        assert totals[_hooks.PAILLIER_PARTIAL_DECRYPT] == 3
        assert totals[_hooks.PAILLIER_EXP] == 6
        assert totals[_hooks.ENGINE_BATCHES] == 2
        assert totals[_hooks.ENGINE_JOBS] == 6

    def test_explicit_engine_overrides_global(self, threshold_setup, rng):
        tpk, _ = threshold_setup
        pk = tpk.paillier
        r = pk.random_unit(rng)
        with ProcessPoolEngine(workers=1, min_parallel=1) as pool:
            assert encrypt_many(pk, [9], [r], engine=pool)[0] == pk.encrypt(
                9, randomness=r
            )


class TestProtocolDeterminismAcrossEngines:
    """The acceptance bar: worker count never changes a transcript byte."""

    @staticmethod
    def _run(workers):
        from repro.circuits import dot_product_circuit
        from repro.core import run_mpc

        circuit = dot_product_circuit(2)
        result = run_mpc(
            circuit, {"alice": [2, 3], "bob": [5, 7]},
            n=4, epsilon=0.13, seed=99, workers=workers,
        )
        records = [
            (r.phase, r.tag, r.sender, r.n_bytes) for r in result.meter.records
        ]
        packed = {
            key: [c.value for c in cts]
            for key, cts in result.offline.packed_cipher.items()
        }
        return result.outputs, records, packed, dict(result.offline.epsilon_delta)

    def test_serial_and_pool_runs_are_identical(self):
        serial = self._run(0)
        pooled = self._run(2)
        assert serial == pooled
