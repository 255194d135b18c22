"""Tests for the ideal μ-share proof oracle."""

from repro.core.oracle import PROOF_TOKEN_BYTES, MuShareOracle

KEY = b"k" * 32


class TestOracle:
    def test_attest_verify_roundtrip(self):
        oracle = MuShareOracle(KEY)
        token = oracle.attest(3, 5, 123456)
        assert oracle.verify(3, 5, 123456, token)

    def test_token_has_snark_like_size(self):
        oracle = MuShareOracle(KEY)
        assert len(oracle.attest(0, 1, 2)) == PROOF_TOKEN_BYTES

    def test_value_mutation_rejected(self):
        oracle = MuShareOracle(KEY)
        token = oracle.attest(3, 5, 100)
        assert not oracle.verify(3, 5, 101, token)

    def test_statement_mutation_rejected(self):
        oracle = MuShareOracle(KEY)
        token = oracle.attest(3, 5, 100)
        assert not oracle.verify(4, 5, 100, token)
        assert not oracle.verify(3, 6, 100, token)

    def test_cross_oracle_tokens_rejected(self):
        a, b = MuShareOracle(KEY), MuShareOracle(b"j" * 32)
        token = a.attest(1, 1, 1)
        assert not b.verify(1, 1, 1, token)

    def test_non_bytes_token_rejected(self):
        oracle = MuShareOracle(KEY)
        assert not oracle.verify(1, 1, 1, "not-bytes")
        assert not oracle.verify(1, 1, 1, None)

    def test_deterministic_with_fixed_key(self):
        a = MuShareOracle(key=KEY)
        b = MuShareOracle(key=KEY)
        assert a.attest(1, 2, 3) == b.attest(1, 2, 3)
