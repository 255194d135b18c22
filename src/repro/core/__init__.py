"""The paper's YOSO MPC protocol (setup / offline / online).

Public entry points:

* :class:`YosoMpc` / :func:`run_mpc` — run the full protocol on a circuit;
* :class:`ProtocolParams` — size a protocol instance from (n, ε) with the
  paper's constraints (including the §5.4 fail-stop variant);
* the phase functions (:func:`run_setup`, :func:`run_offline`,
  :func:`run_online`, ...) for tests and benchmarks that need to observe
  intermediate state.
"""

from repro.core.params import ProtocolParams
from repro.core.protocol import AdversaryFactory, MpcResult, YosoMpc, run_mpc
from repro.core.setup import (
    OFFLINE_A,
    OFFLINE_B,
    OFFLINE_DEC,
    OFFLINE_R,
    OFFLINE_REENC,
    ONLINE_KEYS,
    ONLINE_OUT,
    KffEntry,
    SetupArtifacts,
    client_tag,
    mul_committee_name,
    role_tag,
    run_setup,
)
from repro.core.offline import (
    OfflineState,
    run_offline,
    run_reencryption_bridge,
    sample_offline_committees,
)
from repro.core.online import OnlineState, run_online, sample_online_committees
from repro.core.oracle import MuShareOracle
from repro.core.reencrypt import (
    EncryptedPartial,
    PublicPartial,
    combine_public,
    public_decrypt_contributions,
    recover_reencrypted,
    reencrypt_contributions,
)
from repro.core.resharing import (
    EncryptedResharing,
    EncryptedSubshare,
    Handoff,
    build_resharing,
    next_verifications,
    receive_share,
    verified_contributors,
    verify_resharing,
)

__all__ = [
    "ProtocolParams",
    "AdversaryFactory",
    "MpcResult",
    "YosoMpc",
    "run_mpc",
    "KffEntry",
    "SetupArtifacts",
    "run_setup",
    "OfflineState",
    "run_offline",
    "run_reencryption_bridge",
    "sample_offline_committees",
    "OnlineState",
    "run_online",
    "sample_online_committees",
    "MuShareOracle",
    "EncryptedPartial",
    "PublicPartial",
    "combine_public",
    "public_decrypt_contributions",
    "recover_reencrypted",
    "reencrypt_contributions",
    "EncryptedResharing",
    "EncryptedSubshare",
    "Handoff",
    "build_resharing",
    "next_verifications",
    "receive_share",
    "verified_contributors",
    "verify_resharing",
    "client_tag",
    "mul_committee_name",
    "role_tag",
    "OFFLINE_A",
    "OFFLINE_B",
    "OFFLINE_R",
    "OFFLINE_DEC",
    "OFFLINE_REENC",
    "ONLINE_KEYS",
    "ONLINE_OUT",
]
