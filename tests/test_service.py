"""End-to-end, adversarial, and lifecycle tests for ``repro.service``.

The service is the long-lived client-aided deployment shape: clients
post encrypted inputs once, epoch committees aggregate homomorphically,
evaluate the workload circuit under YOSO MPC, publish, and reshare the
threshold key to the next committee.  These tests drive full epochs —
with client churn, a committee fail-stop crash, and byte-exact cost
accounting — and then attack the ingest pipeline with every malformed
submission shape, checking each is rejected with its own error type and
never reaches evaluation.
"""

import gc
import random
import weakref

import pytest

from repro.accounting.symbolic import CostExactnessError
from repro.errors import (
    EpochMismatchError,
    InvalidProofError,
    MalformedSubmissionError,
    OversizedCiphertextError,
    ReplayedClientError,
    ServiceError,
    ServiceOverloaded,
)
from repro.paillier import generate_keypair
from repro.service import (
    ClientInput,
    EpochAnnouncement,
    MpcService,
    ServiceClient,
    encode_slots,
    make_workload,
    proof_context,
)
from repro.wire import KeyAnnouncement

STATS_CLIENTS = 24
CHURN = 0.25          # 6 of 24 ids replaced between epochs


def _submit_clients(svc, announcement, values, rng):
    for client_id, value in values.items():
        client = ServiceClient(client_id, announcement, rng=rng)
        svc.submit(client.build_input(value))
    svc.ingest()


# -- statistics: two epochs, churn, one fail-stop crash -----------------------

@pytest.fixture(scope="module")
def stats_run():
    """Two full statistics epochs: crash in epoch 0, churned ids in 1."""
    rng = random.Random(99)
    runs = []
    with MpcService(workload="statistics", statistics_groups=2,
                    seed=1234) as svc:
        for index in range(2):
            announcement = svc.open_epoch()
            offset = round(index * CHURN * STATS_CLIENTS)
            values = {
                f"client-{i:04d}": rng.randrange(100)
                for i in range(offset, offset + STATS_CLIENTS)
            }
            _submit_clients(svc, announcement, values, rng)
            summary = svc.close_epoch(crash=3 if index == 0 else None)
            runs.append((values, summary))
    return runs, [summary.cost_report for _, summary in runs]


class TestStatisticsService:
    def test_both_epochs_exact(self, stats_run):
        runs, _ = stats_run
        for values, summary in runs:
            xs = list(values.values())
            n, s = len(xs), sum(xs)
            q = sum(x * x for x in xs)
            assert summary.population == STATS_CLIENTS
            assert summary.rejections == {}
            assert summary.decoded["sum"] == s
            assert summary.decoded["mean"] == pytest.approx(s / n)
            assert summary.decoded["variance"] == pytest.approx(
                (n * q - s * s) / n**2
            )

    def test_crash_excludes_member_from_decrypt_and_reshare(self, stats_run):
        runs, _ = stats_run
        _, epoch0 = runs[0]
        _, epoch1 = runs[1]
        assert 3 not in epoch0.contributors
        assert 3 not in epoch0.reshare_contributors
        assert len(epoch0.reshare_contributors) == 4
        # The next committee is fresh: all five members are back.
        assert len(epoch1.reshare_contributors) == 5

    def test_churned_population_still_evaluates(self, stats_run):
        runs, _ = stats_run
        ids0 = set(runs[0][0])
        ids1 = set(runs[1][0])
        replaced = len(ids0 - ids1)
        assert replaced >= round(0.10 * STATS_CLIENTS)
        assert runs[1][1].epoch == 1

    def test_cost_exactness_on_memory_transport(self, stats_run):
        _, reports = stats_run
        # Announcements, >=10^1 client inputs per epoch, results, and
        # resharings all matched their closed-form byte formulas, each at
        # the close of the epoch that posted them.
        for report in reports:
            assert report.envelopes > STATS_CLIENTS
            variants = {tot.variant for tot in report.totals}
            assert "service.client_input" in variants

    def test_epochs_advance_and_key_rotates(self, stats_run):
        runs, _ = stats_run
        key0 = runs[0][1].result.epoch
        assert key0 == 0
        assert runs[1][1].result.epoch == 1


# -- auction ------------------------------------------------------------------

@pytest.fixture(scope="module")
def auction_run():
    rng = random.Random(5)
    bids = {f"bidder-{i:03d}": rng.randrange(4) for i in range(12)}
    with MpcService(workload="auction", auction_levels=4, seed=777) as svc:
        announcement = svc.open_epoch()
        _submit_clients(svc, announcement, bids, rng)
        summary = svc.close_epoch()
    return bids, summary


class TestAuctionService:
    def test_vickrey_outcome(self, auction_run):
        bids, summary = auction_run
        ranked = sorted(bids.values(), reverse=True)
        assert summary.decoded["winner_level"] == ranked[0]
        assert summary.decoded["price"] == ranked[1]
        assert summary.decoded["winner_count"] == ranked.count(ranked[0])

    def test_population_matches(self, auction_run):
        bids, summary = auction_run
        assert summary.population == len(bids)
        assert summary.rejections == {}


# -- cost exactness over the sim transport ------------------------------------

def test_cost_exactness_on_sim_transport():
    rng = random.Random(11)
    with MpcService(workload="statistics", statistics_groups=2,
                    seed=31, transport="sim") as svc:
        announcement = svc.open_epoch()
        values = {f"c-{i}": rng.randrange(50) for i in range(6)}
        _submit_clients(svc, announcement, values, rng)
        summary = svc.close_epoch()
    assert summary.population == 6
    assert {tot.variant for tot in summary.cost_report.totals} >= {
        "service.client_input", "service.epoch",
        "service.result", "service.reshare",
    }


def _run_epochs(svc, count, rng, clients=5, before_close=None):
    summaries = []
    for index in range(count):
        announcement = svc.open_epoch()
        values = {f"e{index}-{i}": rng.randrange(50) for i in range(clients)}
        _submit_clients(svc, announcement, values, rng)
        if before_close is not None:
            before_close(index)
        summaries.append(svc.close_epoch())
    return summaries


def test_epoch_cost_reports_partition_the_board():
    """Each close checks its own epoch's posts: once each, none skipped."""
    with MpcService(workload="statistics", statistics_groups=2, seed=41) as svc:
        board_sizes = []
        summaries = _run_epochs(
            svc, 3, random.Random(23),
            before_close=lambda _: board_sizes.append(len(svc.board)),
        )
        reports = [summary.cost_report for summary in summaries]
        assert sum(r.envelopes for r in reports) == len(svc.board)
        assert sum(r.total_measured for r in reports) == (
            svc.board.encoded_total_bytes()
        )
        # Flat per epoch, not growing with the board: epoch i's report
        # covers the posts between close i−1 and close i.
        closes = [0] + [
            sum(r.envelopes for r in reports[: i + 1]) for i in range(3)
        ]
        for i, size_before_close in enumerate(board_sizes):
            assert closes[i] < size_before_close < closes[i + 1]
        assert len({r.envelopes for r in reports}) == 1
        # Nothing is left for an extra audit call.
        assert svc.verify_costs().envelopes == 0
        # The walk decoded every client input without pinning it to the board.
        inputs = [p for p in svc.board if p.tag.startswith("svc-input:")]
        assert len(inputs) == 15 and not any(p._decoded for p in inputs)
        assert inputs[0].peek()[1] == inputs[0].payload and inputs[0]._decoded


def test_closed_epoch_keeps_ids_not_submissions():
    """A service that lives for many epochs must not hold every decoded
    submission: after the close, the ledger names who got in and the
    board has their bytes."""
    rng = random.Random(37)
    with MpcService(workload="statistics", statistics_groups=2, seed=47) as svc:
        announcement = svc.open_epoch()
        submissions = [
            ServiceClient(f"k-{i}", announcement, rng=rng).build_input(i)
            for i in range(5)
        ]
        alive = [weakref.ref(item) for item in submissions]
        for item in submissions:
            svc.submit(item)
        del submissions, item
        summary = svc.close_epoch()
        gc.collect()
        assert not any(ref() is not None for ref in alive)
        assert svc.ledger(summary.epoch).accepted == {f"k-{i}" for i in range(5)}
        assert summary.population == 5
        assert summary.decoded["sum"] == sum(range(5))


def test_corrupted_post_caught_at_its_own_epoch_close():
    with MpcService(workload="statistics", statistics_groups=2, seed=43) as svc:
        rng = random.Random(29)
        _run_epochs(svc, 1, rng)
        clean = len(svc.board)

        def corrupt(index):
            # Epoch 2's first client input claims one byte it does not have.
            post = next(
                p for p in list(svc.board)[clean:]
                if p.tag.startswith("svc-input:")
            )
            post.n_bytes += 1

        with pytest.raises(CostExactnessError, match="walked"):
            _run_epochs(svc, 1, rng, before_close=corrupt)


def test_service_over_socket_transport():
    # The regression here is key announcement: client inputs arrive under
    # the epoch key, resharings under the *next* committee's role keys,
    # and cross-process decoders must learn both before first use.
    rng = random.Random(17)
    with MpcService(workload="statistics", statistics_groups=2, seed=13,
                    transport="socket:workers=2") as svc:
        announcement = svc.open_epoch()
        values = {f"s-{i}": rng.randrange(50) for i in range(8)}
        _submit_clients(svc, announcement, values, rng)
        summary = svc.close_epoch(crash=2)
    assert summary.population == 8
    assert summary.decoded["sum"] == sum(values.values())
    assert 2 not in summary.reshare_contributors


# -- adversarial ingest -------------------------------------------------------

@pytest.fixture(scope="module")
def adversarial_run():
    """Three honest clients and five distinct attacks, one epoch."""
    rng = random.Random(21)
    with MpcService(workload="statistics", statistics_groups=2,
                    seed=4242) as svc:
        announcement = svc.open_epoch()
        honest = {"alice": 5, "bob": 7, "carol": 9}
        payloads = {
            cid: ServiceClient(cid, announcement, rng=rng).build_input(v)
            for cid, v in honest.items()
        }
        for payload in payloads.values():
            svc.submit(payload)

        # Replay: alice's accepted submission posted again verbatim.
        svc.submit(payloads["alice"])

        # Wrong epoch tag: a well-formed input bound to a future epoch.
        stale = ServiceClient("dave", announcement, rng=rng).build_input(3)
        object.__setattr__(stale, "epoch", announcement.epoch + 5)
        svc.submit(stale)

        # Foreign (wrong-size) key: ciphertexts under a 128-bit modulus
        # nobody announced.
        foreign = generate_keypair(128)
        fake = EpochAnnouncement(
            epoch=announcement.epoch,
            workload=announcement.workload,
            slots=announcement.slots,
            input_window=announcement.input_window,
            key=KeyAnnouncement(foreign.public.n),
            verification_base=4,
        )
        svc.submit(ServiceClient("mallory", fake, rng=rng).build_input(2))

        # Undecodable bytes.
        svc.submit(b"\x0bgarbage")

        # Proof/context mismatch: slot proofs swapped between slots, so
        # each verifies against the other slot's binding context.
        honest_input = ServiceClient("erin", announcement,
                                     rng=rng).build_input(4)
        swapped = ClientInput(
            client_id="erin",
            epoch=honest_input.epoch,
            ciphertexts=honest_input.ciphertexts,
            proofs=(honest_input.proofs[1], honest_input.proofs[0]),
        )
        svc.submit(swapped)

        svc.ingest()
        ledger = svc.ledger()
        summary = svc.close_epoch()
    return honest, ledger, summary


class TestAdversarialIngest:
    def test_each_attack_gets_its_own_error(self, adversarial_run):
        _, ledger, _ = adversarial_run
        assert ledger.rejection_counts() == {
            "EpochMismatchError": 1,
            "InvalidProofError": 1,
            "MalformedSubmissionError": 1,
            "OversizedCiphertextError": 1,
            "ReplayedClientError": 1,
        }

    def test_rejected_submissions_never_reach_evaluation(
        self, adversarial_run
    ):
        honest, ledger, summary = adversarial_run
        assert set(ledger.accepted) == set(honest)
        assert summary.population == len(honest)
        assert summary.decoded["sum"] == sum(honest.values())

    def test_rejections_carry_client_ids(self, adversarial_run):
        _, ledger, _ = adversarial_run
        by_error = {r.error: r.client_id for r in ledger.rejections}
        assert by_error["ReplayedClientError"] == "alice"
        assert by_error["EpochMismatchError"] == "dave"
        assert by_error["OversizedCiphertextError"] == "mallory"
        assert by_error["InvalidProofError"] == "erin"


# -- backpressure and lifecycle guards ----------------------------------------

class TestBackpressure:
    def test_bounded_queue_sheds_loudly(self):
        with MpcService(queue_capacity=4, seed=8) as svc:
            svc.open_epoch()
            for _ in range(4):
                svc.submit(b"x")
            with pytest.raises(ServiceOverloaded, match="retry"):
                svc.submit(b"x")
            # Draining (which rejects the garbage) frees the queue.
            assert svc.ingest() == 0
            svc.submit(b"x")

    def test_submit_requires_open_epoch(self):
        with MpcService(seed=9) as svc:
            with pytest.raises(ServiceError, match="no open epoch"):
                svc.submit(b"x")

    def test_crash_guard_preserves_threshold(self):
        with MpcService(seed=10) as svc:
            svc.open_epoch()
            coordinator = svc.coordinator
            indices = [m.index for m in coordinator.committee.surviving()]
            headroom = len(indices) - (svc.t + 1)
            for index in indices[:headroom]:
                coordinator.crash(index)
                coordinator.crash(index)  # idempotent
            with pytest.raises(ServiceError, match="t\\+1"):
                coordinator.crash(indices[headroom])

    def test_unknown_override_rejected(self):
        with pytest.raises(ServiceError, match="unknown service option"):
            MpcService(seed=11, nonsense=True)


class TestDeterminism:
    def test_same_seed_same_announcement(self):
        with MpcService(seed=55) as a, MpcService(seed=55) as b:
            ann_a = a.open_epoch()
            ann_b = b.open_epoch()
        assert ann_a == ann_b
        assert a.board.codec.encode(ann_a) == b.board.codec.encode(ann_b)

    def test_different_seed_different_announcement(self):
        # The 64-bit test modulus comes from a fixture, so the *sharing*
        # (verification base and share polynomial), not the modulus, is
        # what the seed drives.
        with MpcService(seed=55) as a, MpcService(seed=56) as b:
            ann_a, ann_b = a.open_epoch(), b.open_epoch()
        assert ann_a.verification_base != ann_b.verification_base


# -- client-side encoding -----------------------------------------------------

class TestClientEncoding:
    def test_statistics_slots(self):
        assert encode_slots("statistics", 2, 31) == [31, 961]

    def test_statistics_value_bound(self):
        with pytest.raises(MalformedSubmissionError, match="statistics"):
            encode_slots("statistics", 2, 1024)

    def test_auction_one_hot(self):
        assert encode_slots("auction", 4, 2) == [0, 0, 1, 0]

    def test_auction_bid_bound(self):
        with pytest.raises(MalformedSubmissionError, match="level"):
            encode_slots("auction", 4, 4)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ServiceError, match="unknown workload"):
            make_workload("poker")

    def test_proof_context_binds_epoch_client_slot(self):
        contexts = {
            proof_context(e, c, s)
            for e in (0, 1) for c in ("a", "b") for s in (0, 1)
        }
        assert len(contexts) == 8
