"""Experiment: Figure 1 — key usage across the protocol phases.

The paper's Figure 1 is a structural diagram of which key encrypts what in
each phase.  This bench reconstructs the matrix from an *actual execution*
(the metered bulletin) and asserts the structure: tpk-encrypted material in
setup/offline, KFF-targeted re-encryptions bridging offline→online, role-key
targeted KFF distribution and μ broadcasts online.
"""

from repro.accounting import format_table

from conftest import print_banner


PHASES = ("setup", "offline", "online")


def test_key_usage_by_phase(benchmark, ours_sweep):
    meter = ours_sweep[6].meter

    matrix = benchmark(lambda: {phase: meter.by_tag(phase) for phase in PHASES})

    rows = []
    for phase in PHASES:
        for tag, size in sorted(matrix[phase].items()):
            rows.append((phase, tag, size))
    print_banner("Fig. 1 — message kinds per phase (from a metered run)")
    print(format_table(["phase", "message kind", "bytes"], rows))

    setup_tags = set(matrix["setup"])
    offline_tags = set(matrix["offline"])
    online_tags = set(matrix["online"])

    # Setup publishes the threshold key and the KFF registry.
    assert any("setup-keys" in t for t in setup_tags)
    # Offline: Beaver contributions, masks, decryption partials, the
    # re-encryptions to KFFs, and the tsk hand-off.
    assert any("beaver_a" in t for t in offline_tags)
    assert any("beaver_b" in t for t in offline_tags)
    assert any("masks" in t for t in offline_tags)
    assert any("partials" in t for t in offline_tags)
    assert any("packed_shares" in t for t in offline_tags)
    assert any(".tsk" in t for t in offline_tags)
    # Online: KFF secret-key distribution to role keys, client μ posts,
    # μ-shares from the mul committees, output re-encryptions.
    assert any("kff" in t for t in online_tags)
    assert any("input" in t for t in online_tags)
    assert any("mu_shares" in t for t in online_tags)
    assert any("output" in t for t in online_tags)
    # tsk is never used by the mul committees (the KFF point): no Con-mul
    # tag carries a tsk resharing.
    assert not any(t.startswith("Con-mul") and "tsk" in t for t in online_tags)
