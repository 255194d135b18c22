"""Experiment E7 (extension): analytic cost model vs measurement, and
deployment-scale extrapolation.

The model counts every message the protocol posts and sizes it from the
parameters; cross-validating it against the metered runs pins the
implementation to the paper's §5.2/§5.3 communication analysis, and the
extrapolation shows what Table 1's committees would pay per gate at
production moduli — the regime no simulation can reach.
"""

from repro.accounting import format_table
from repro.accounting.symbolic import (
    CircuitShape,
    SymbolicCostModel,
    extrapolated_mu_bytes_per_gate,
)
from repro.sortition import analyze

from conftest import print_banner


def test_model_vs_measurement(benchmark, ours_sweep):
    def validate():
        rows = []
        for n, result in ours_sweep.items():
            model = SymbolicCostModel(
                result.params,
                CircuitShape.of_program(result.program),
                result.setup.proof_params,
            )
            for phase, predicted in (
                ("offline", model.predict_offline().n_bytes),
                ("online", model.predict_online().n_bytes),
            ):
                measured = result.phase_bytes(phase)
                rows.append((n, phase, predicted, measured,
                             round(predicted / measured, 3)))
        return rows

    rows = benchmark(validate)
    print_banner("E7 — analytic model vs metered bytes")
    print(format_table(["n", "phase", "predicted", "measured", "ratio"], rows))
    for _, _, _, _, ratio in rows:
        assert 0.7 <= ratio <= 1.25


def test_extrapolation_to_table1_scales(benchmark):
    """Per-gate online bytes at the paper's own committee sizes (2048-bit),
    from the per-envelope wire formulas: the improvement *factor* must
    agree exactly with the packing factor.
    """
    rows = benchmark(atlas_rows)
    print_banner(
        "E7b — extrapolated online B/gate at Table 1 scales (2048-bit TE)"
    )
    print(format_table(
        ["C", "f", "n", "k", "ours B/gate", "eps=0 B/gate", "factor",
         "GB per 10^6 gates"],
        rows,
    ))
    for _, _, _, k, _, _, factor, _ in rows:
        assert factor == k  # the improvement factor IS the packing factor


# -- cost atlas ----------------------------------------------------------------
#
# ``make cost-atlas`` regenerates the extrapolation tables embedded in
# docs/COSTMODEL.md from the same code paths the E7 benchmarks assert on,
# so the documented numbers can never drift from the tested ones.

ATLAS_BEGIN = "<!-- cost-atlas:begin (make cost-atlas) -->"
ATLAS_END = "<!-- cost-atlas:end -->"


def atlas_rows(te_bits: int = 2048) -> list[tuple]:
    """(C, f, n, k, wire B/gate, eps=0 B/gate, factor, GB per 10^6 gates)."""
    rows = []
    for c_param, f in ((1000, 0.05), (20000, 0.10), (20000, 0.20)):
        g = analyze(c_param, f)
        n = round(g.committee_size)
        ours = extrapolated_mu_bytes_per_gate(
            n, g.epsilon, g.packing_factor, te_bits
        )
        nogap = extrapolated_mu_bytes_per_gate(n, g.epsilon, 1, te_bits)
        rows.append((
            c_param, f, n, g.packing_factor,
            round(ours), round(nogap), round(nogap / ours),
            round(ours * 1e6 / 1e9, 2),
        ))
    return rows


def render_atlas(te_bits: int = 2048) -> str:
    """The markdown block docs/COSTMODEL.md embeds between the markers."""
    lines = [
        f"Online μ-share bytes per multiplication gate at Table 1 scales,",
        f"evaluated from the `online.mu_shares` formula at {te_bits}-bit",
        "threshold-encryption moduli (no simulation):",
        "",
        "| C | f | n | k | ours B/gate | ε=0 B/gate | factor | GB per 10⁶ gates |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for c, f, n, k, ours, nogap, factor, gb in atlas_rows(te_bits):
        lines.append(
            f"| {c:,} | {f} | {n:,} | {k:,} | {ours:,} | {nogap:,} "
            f"| {factor:,}× | {gb} |"
        )
    return "\n".join(lines)


def write_atlas(path: str = "docs/COSTMODEL.md", te_bits: int = 2048) -> None:
    """Replace the marked block in ``path`` with a fresh atlas."""
    with open(path) as fh:
        text = fh.read()
    begin = text.index(ATLAS_BEGIN) + len(ATLAS_BEGIN)
    end = text.index(ATLAS_END)
    updated = text[:begin] + "\n" + render_atlas(te_bits) + "\n" + text[end:]
    with open(path, "w") as fh:
        fh.write(updated)


if __name__ == "__main__":
    import argparse
    import pathlib
    import sys

    parser = argparse.ArgumentParser(description="cost atlas emitter")
    parser.add_argument(
        "--write", metavar="PATH", nargs="?",
        const=str(pathlib.Path(__file__).resolve().parent.parent
                  / "docs" / "COSTMODEL.md"),
        help="rewrite the marked atlas block in PATH "
             "(default: docs/COSTMODEL.md)",
    )
    parser.add_argument("--te-bits", type=int, default=2048)
    ns = parser.parse_args()
    if ns.write:
        write_atlas(ns.write, ns.te_bits)
        print(f"cost atlas rewritten in {ns.write}", file=sys.stderr)
    else:
        print(render_atlas(ns.te_bits))
