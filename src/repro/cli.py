"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``       regenerate the paper's Table 1 next to the published values
``plan C f``     committee planning for a deployment (gap, k, sizes)
``circuit``      compile a circuit: layer counts, batches, slot utilization
``run``          execute the MPC protocol on a serialized circuit
``demo``         a self-contained dot-product run
``trace``        traced run: per-phase wall-clock + op counters + comm bytes
``cost``         symbolic cost model: formulas, evaluation, extrapolation
``serve``        client-aided service: epochs of ingest → evaluate → reshare
``announce``     write the epoch-0 announcement a ``serve`` run will open
``submit``       build one client submission from an announcement file
``lint``         protocol static analysis: determinism / YOSO / wire rules
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.accounting import (
    dumps_report,
    format_table,
    loads_report,
    report_from_mpc_result,
)
from repro.analysis.cli import add_lint_arguments, run_lint
from repro.errors import ParameterError, ReproError, SortitionError
from repro.rng import derive_rng, seeded_rng


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.sortition import TABLE1_PAPER, generate_table1

    ours = {(r.c_param, r.f): r for r in generate_table1()}
    rows = []
    for paper in TABLE1_PAPER:
        mine = ours[(paper.c_param, paper.f)]
        if paper.feasible:
            rows.append(
                (paper.c_param, paper.f,
                 f"{mine.t}/{paper.t}",
                 f"{mine.committee_size}/{paper.committee_size}",
                 f"{mine.committee_size_no_gap}/{paper.committee_size_no_gap}",
                 f"{mine.epsilon}/{paper.epsilon}",
                 f"{mine.packing_factor}/{paper.packing_factor}")
            )
        else:
            rows.append((paper.c_param, paper.f, "⊥", "⊥", "⊥", "⊥", "⊥"))
    print("Table 1 — ours/paper per cell")
    print(format_table(["C", "f", "t", "c", "c'", "eps", "k"], rows))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.sortition import analyze

    try:
        g = analyze(args.C, args.f, conservative=args.conservative)
    except SortitionError as exc:
        print(f"infeasible: {exc}")
        return 1
    print(format_table(
        ["C", "f", "t", "committee c", "c' (eps=0)", "eps", "k (online win)"],
        [(args.C, args.f, round(g.t), round(g.committee_size),
          round(g.committee_size_no_gap), round(g.epsilon, 3),
          g.packing_factor)],
    ))
    return 0


def _shape_args(args: argparse.Namespace, default: list[int]) -> list[int]:
    if not args.shape:
        return default
    return [int(x) for x in args.shape.split(",") if x]


def _circuit_for_args(args: argparse.Namespace):
    """The circuit a ``repro circuit`` invocation names (file or workload)."""
    if args.circuit:
        from repro.circuits import loads as load_circuit

        with open(args.circuit) as fh:
            return load_circuit(fh.read())
    from repro.circuits import (
        dot_product_circuit,
        matmul_circuit,
        mlp_circuit,
        second_price_auction_circuit,
        statistics_circuit,
    )

    if args.workload == "dot":
        (width,) = _shape_args(args, [8])
        return dot_product_circuit(width)
    if args.workload == "auction":
        bidders, bits = _shape_args(args, [4, 8])
        return second_price_auction_circuit(
            bits, [f"bidder{i}" for i in range(bidders)]
        )
    if args.workload == "statistics":
        (parties,) = _shape_args(args, [8])
        return statistics_circuit(parties)
    if args.workload == "matmul":
        m, p, q = _shape_args(args, [8, 8, 8])
        return matmul_circuit(m, p, q)
    # mlp
    sizes = _shape_args(args, [8, 8, 4])
    return mlp_circuit(sizes)


def _cmd_circuit(args: argparse.Namespace) -> int:
    import time

    from repro.circuits import compile_circuit, digest, dumps_program

    circuit = _circuit_for_args(args)
    started = time.perf_counter()
    program = compile_circuit(circuit, args.k)
    compile_ms = (time.perf_counter() - started) * 1e3

    if args.action == "compile":
        text = dumps_program(program)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"program written to {args.out} ({len(text):,} B)",
                  file=sys.stderr)
        else:
            print(text)
        return 0

    by_kind: dict[str, int] = {}
    for gate in circuit.gates:
        by_kind[gate.kind.value] = by_kind.get(gate.kind.value, 0) + 1
    kinds = " ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
    print(f"circuit     {len(circuit.gates):,} gates ({kinds})")
    print(f"digest      {digest(circuit)[:16]}…")
    print(f"compile     {compile_ms:.1f} ms at k={args.k} "
          f"({program.n_layers} layers, {program.n_runs} kind-runs)")
    print(f"packing     {len(program.plan.mul_batches)} mul batch(es) over "
          f"{len(program.mul_depths)} depth(s), "
          f"{len(program.plan.input_batches)} input batch(es)")
    print(f"slots       {program.slot_utilization():.1%} utilization overall")
    rows = []
    for depth in program.mul_depths:
        n_gates = len(program.muls_by_depth[depth])
        n_batches = len(program.depth_batches[depth])
        util = program.utilization_by_depth()[depth]
        rows.append((depth, n_gates, n_batches, f"{util:.1%}"))
    if rows:
        print()
        print(format_table(["depth", "mul gates", "batches", "slot util"], rows))
    return 0


def _load_circuit_and_inputs(args: argparse.Namespace):
    """The ``--circuit`` / ``--inputs`` files of a ``run`` or ``trace``."""
    from repro.circuits import loads as load_circuit

    with open(args.circuit) as fh:
        circuit = load_circuit(fh.read())
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    if not isinstance(inputs, dict):
        raise ParameterError("inputs file must map client names to value lists")
    return circuit, inputs


def _write_report(result, path: str) -> None:
    text = dumps_report(report_from_mpc_result(result))
    loads_report(text)  # never export a document the reader rejects
    with open(path, "w") as fh:
        fh.write(text)
    print(f"report written to {path}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core import run_mpc

    circuit, inputs = _load_circuit_and_inputs(args)
    result = run_mpc(
        circuit, inputs, n=args.n, epsilon=args.epsilon, seed=args.seed,
        fail_stop=args.fail_stop, workers=args.workers,
        transport=args.transport, quorum_timeout_s=args.quorum_timeout,
    )
    print(json.dumps(result.outputs, indent=2, sort_keys=True))
    if args.report:
        _write_report(result, args.report)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.circuits import dot_product_circuit
    from repro.core import run_mpc

    circuit = dot_product_circuit(3)
    result = run_mpc(
        circuit, {"alice": [2, 3, 5], "bob": [7, 11, 13]},
        n=args.n, epsilon=args.epsilon, seed=args.seed, workers=args.workers,
        transport=args.transport, quorum_timeout_s=args.quorum_timeout,
    )
    print(f"parameters: {result.params.describe()}")
    print(f"outputs:    {result.outputs}")
    print("phase bytes:", dict(sorted(result.meter.by_phase().items())))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core import run_mpc
    from repro.observability import Tracer

    if args.circuit:
        if not args.inputs:
            print("--inputs is required with --circuit", file=sys.stderr)
            return 1
        circuit, inputs = _load_circuit_and_inputs(args)
    else:
        from repro.circuits import dot_product_circuit

        # The quickstart workload: Alice · Bob over `width`-vectors.
        circuit = dot_product_circuit(args.width)
        inputs = {
            "alice": list(range(1, args.width + 1)),
            "bob": list(range(2, args.width + 2)),
        }

    tracer = Tracer()
    result = run_mpc(
        circuit, inputs, n=args.n, epsilon=args.epsilon, seed=args.seed,
        tracer=tracer, workers=args.workers, transport=args.transport,
        quorum_timeout_s=args.quorum_timeout,
    )

    print(f"parameters: {result.params.describe()}")
    print(f"outputs:    {result.outputs}")
    print()

    counters = tracer.counters_by_phase()
    wall = tracer.wall_s_by_phase()
    comm = result.meter.by_phase()
    phases = sorted(set(counters) | set(wall) | set(comm))
    rows = []
    for phase in phases:
        c = counters.get(phase, {})
        rows.append((
            phase,
            f"{wall.get(phase, 0.0):.3f}",
            f"{comm.get(phase, 0):,}",
            c.get("paillier.encrypt", 0),
            c.get("paillier.decrypt", 0),
            c.get("paillier.partial_decrypt", 0),
            c.get("paillier.exp", 0),
            c.get("reencrypt.recovery", 0),
        ))
    print(format_table(
        ["phase", "wall s", "comm B", "enc", "dec", "pdec", "exp", "recov"],
        rows,
    ))

    gates = max(circuit.n_multiplications, 1)
    mul = counters.get("online.mul", {})
    offline = counters.get("offline", {})
    print(
        f"\nper multiplication gate ({circuit.n_multiplications} gates, "
        f"k={result.params.k}):"
    )
    print(
        f"  online.mul  {mul.get('reencrypt.recovery', 0) / gates:8.1f} "
        f"packed-share recoveries/gate   — independent of n (Thm 1)"
    )
    print(
        f"  offline     {offline.get('paillier.encrypt', 0) / gates:8.1f} "
        f"Paillier encryptions/gate      — grows with n (§5.2)"
    )
    util = result.program.slot_utilization()
    print(
        f"  packing     {util:8.1%} slot utilization               "
        f"— {len(result.program.plan.mul_batches)} batch(es) of k="
        f"{result.params.k}"
    )

    if args.report:
        _write_report(result, args.report)
    return 0


def _cost_catalog(args: argparse.Namespace) -> int:
    from repro.accounting.symbolic import envelope_formula, spec_variants

    print("Per-envelope size formulas (bytes on the wire; symbol glossary")
    print("and derivations: docs/COSTMODEL.md).  Substituting the run's")
    print("parameters and bindings gives the delivered size *exactly*.\n")
    for spec in spec_variants():
        expr = envelope_formula(spec.kind, spec.variant, robust=args.robust)
        print(f"{spec.kind} [{spec.variant}] — {spec.description}")
        print(f"    {expr}\n")
    return 0


def _cost_evaluate(args: argparse.Namespace) -> int:
    from repro.accounting.symbolic import CircuitShape, SymbolicCostModel
    from repro.circuits import compile_circuit, dot_product_circuit
    from repro.core.params import ProtocolParams

    params = ProtocolParams.from_gap(
        args.n, args.epsilon, te_bits=args.te_bits,
        role_key_bits=args.role_key_bits,
    )
    circuit = dot_product_circuit(args.width)
    shape = CircuitShape.of_program(compile_circuit(circuit, params.k))
    model = SymbolicCostModel(params, shape)
    phases = [
        model.predict_setup(), model.predict_offline(),
        model.predict_online(), model.predict_total(),
    ]
    print(f"parameters: {params.describe()}")
    print(f"workload:   dot-product width {args.width} "
          f"({shape.n_multiplications} mult gates, "
          f"{shape.n_batches} batches, {shape.n_depths} depth(s))\n")
    print(format_table(
        ["phase", "messages", "predicted B"],
        [(p.phase, p.messages, f"{p.n_bytes:,}") for p in phases],
    ))
    print(f"\nonline μ-share B/gate: "
          f"{model.online_mul_bytes_per_gate():,.1f}")
    print(f"offline B/gate:        {model.offline_bytes_per_gate():,.1f}")
    print("\n(nominal closed forms — metered runs land a few percent under;")
    print(" the exactness check reconciles the gap per envelope.)")
    return 0


def _cost_extrapolate(args: argparse.Namespace) -> int:
    from repro.accounting.symbolic import extrapolated_mu_bytes_per_gate
    from repro.sortition import analyze

    points = []
    for c_param, f in ((1000, 0.05), (20000, 0.10), (20000, 0.20)):
        g = analyze(c_param, f)
        points.append(
            (c_param, f, round(g.committee_size), g.epsilon, g.packing_factor)
        )
    if args.n is not None:  # one more row, at the caller's own (n, ε)
        k = max(1, int(args.n * args.epsilon))
        points.append(("", "", args.n, args.epsilon, k))
    rows = []
    for c_param, f, n, epsilon, k in points:
        ours = extrapolated_mu_bytes_per_gate(n, epsilon, k, args.te_bits)
        nogap = extrapolated_mu_bytes_per_gate(n, epsilon, 1, args.te_bits)
        rows.append((c_param, f, n, k, round(ours), round(nogap),
                     round(nogap / ours)))
    print(f"Improvement factors at Table 1 scales "
          f"({args.te_bits}-bit TE), from the formulas alone:")
    print(format_table(
        ["C", "f", "n", "k", "ours B/gate", "eps=0 B/gate", "factor"], rows
    ))
    if args.skip_measured:
        return 0
    # Overlay a measured point: a real metered run at simulation scale,
    # reconciled against the same closed forms it extrapolates from.
    from repro.circuits import dot_product_circuit
    from repro.core import run_mpc

    n, epsilon, width = 6, 0.25, 8
    result = run_mpc(
        dot_product_circuit(width),
        {"alice": list(range(1, width + 1)), "bob": [2] * width},
        n=n, epsilon=epsilon, seed=7,
    )
    gates = result.circuit.n_multiplications
    measured = result.online_mul_bytes() / gates
    from repro.accounting.symbolic import CircuitShape, SymbolicCostModel

    model = SymbolicCostModel(
        result.params,
        CircuitShape.of_program(result.program),
        result.setup.proof_params,
    )
    formula = model.online_mul_bytes_per_gate()
    print(f"\nMeasured overlay (n={n}, eps={epsilon}, "
          f"te={result.params.te_bits}-bit, {gates} gates):")
    print(format_table(
        ["source", "online μ B/gate"],
        [("metered run", f"{measured:,.1f}"),
         ("formula (nominal)", f"{formula:,.1f}"),
         ("ratio", f"{formula / measured:.3f}")],
    ))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    if args.extrapolate:
        return _cost_extrapolate(args)
    if args.n is not None:
        return _cost_evaluate(args)
    return _cost_catalog(args)


def _service_config(args) -> "ServiceConfig":
    from repro.service import ServiceConfig

    return ServiceConfig(
        workload=args.workload,
        n=args.n,
        epsilon=args.epsilon,
        te_bits=args.te_bits,
        role_key_bits=args.role_key_bits,
        statistics_groups=args.groups,
        auction_levels=args.levels,
        queue_capacity=args.queue_capacity,
        batch_size=args.batch_size,
        seed=args.seed,
        transport=args.transport or "memory",
    )


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    """The service parameters that must agree between serve and announce.

    ``announce`` + ``submit`` + ``serve`` form the cross-process flow: key
    generation is deterministic in ``--seed`` (safe-prime fixtures plus a
    seeded RNG), so ``announce`` with the same parameters writes the very
    announcement a later ``serve`` opens, and submissions built against it
    verify there.
    """
    parser.add_argument("--workload", choices=("statistics", "auction"),
                        default="statistics")
    parser.add_argument("--n", type=int, default=5, help="committee size")
    parser.add_argument("--epsilon", type=float, default=0.25,
                        help="sortition corruption gap")
    parser.add_argument("--te-bits", type=int, default=64)
    parser.add_argument("--role-key-bits", type=int, default=64)
    parser.add_argument("--groups", type=int, default=4,
                        help="statistics aggregation groups (panel width)")
    parser.add_argument("--levels", type=int, default=8,
                        help="auction bid levels (slots per submission)")
    parser.add_argument("--queue-capacity", type=int, default=8192)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--transport", default=None, metavar="SPEC",
                        help="bulletin transport spec (default: memory)")


def _summary_dict(summary) -> dict:
    return {
        "epoch": summary.epoch,
        "workload": summary.workload,
        "population": summary.population,
        "rejections": summary.rejections,
        "outputs": list(summary.result.outputs),
        "decoded": summary.decoded,
        "contributors": list(summary.contributors),
        "reshare_contributors": list(summary.reshare_contributors),
        "ingest_seconds": round(summary.ingest_seconds, 3),
        "ingest_rate": round(summary.ingest_rate, 1),
        "evaluate_seconds": round(summary.evaluate_seconds, 3),
        "reshare_seconds": round(summary.reshare_seconds, 3),
        "online_bytes_per_gate": round(summary.online_bytes_per_gate, 1),
        "board_bytes": summary.board_bytes,
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    import glob
    import os

    from repro.errors import ServiceOverloaded
    from repro.service import MpcService, ServiceClient

    svc = MpcService(_service_config(args))
    client_rng = derive_rng(args.seed, "clients")
    summaries = []

    def submit_with_backpressure(item):
        try:
            svc.submit(item)
        except ServiceOverloaded:
            svc.ingest()  # drain the full queue, then retry once
            svc.submit(item)

    try:
        for index in range(args.epochs):
            announcement = svc.open_epoch()
            print(f"epoch {announcement.epoch}: workload "
                  f"{announcement.workload!r}, {announcement.slots} slot(s), "
                  f"committee n={args.n} t={svc.t}")
            if index == 0 and args.announce_out:
                with open(args.announce_out, "wb") as fh:
                    fh.write(svc.board.codec.encode(announcement))
                print(f"  announcement written to {args.announce_out}")
            if index == 0 and args.submissions:
                pattern = os.path.join(args.submissions, "*.bin")
                for path in sorted(glob.glob(pattern)):
                    with open(path, "rb") as fh:
                        submit_with_backpressure(fh.read())
                print(f"  queued {len(glob.glob(pattern))} submission file(s) "
                      f"from {args.submissions}")

            # Simulated client population; each epoch replaces a `--churn`
            # fraction of ids (new clients join, old ones leave).
            offset = round(index * args.churn * args.clients)
            vmax = args.levels if args.workload == "auction" else 100
            for i in range(offset, offset + args.clients):
                client = ServiceClient(
                    f"client-{i:07d}", announcement, rng=client_rng
                )
                submit_with_backpressure(
                    client.build_input(client_rng.randrange(vmax))
                )
            svc.ingest()

            crash = args.n if args.crash and index == 0 else None
            if crash is not None:
                print(f"  fail-stop: crashing committee member {crash}")
            summary = svc.close_epoch(crash=crash)
            summaries.append(_summary_dict(summary))
            rejected = sum(summary.rejections.values())
            print(f"  accepted {summary.population} "
                  f"(rejected {rejected}: {summary.rejections or '{}'}) at "
                  f"{summary.ingest_rate:,.0f} submissions/s")
            print(f"  result: {summary.decoded}")
            print(f"  inner MPC: {summary.online_bytes_per_gate:,.0f} online "
                  f"B/gate; reshared to epoch {svc.epoch} via "
                  f"{len(summary.reshare_contributors)} contributors; "
                  f"board {summary.board_bytes:,} B")
    finally:
        svc.close()

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"epochs": summaries}, fh, indent=2)
            fh.write("\n")
        print(f"summaries written to {args.json}", file=sys.stderr)
    return 0


def _cmd_announce(args: argparse.Namespace) -> int:
    from repro.service import MpcService

    svc = MpcService(_service_config(args))
    try:
        announcement = svc.open_epoch()
        encoded = svc.board.codec.encode(announcement)
    finally:
        svc.close()
    with open(args.out, "wb") as fh:
        fh.write(encoded)
    print(f"epoch {announcement.epoch} announcement "
          f"({announcement.workload!r}, {announcement.slots} slot(s), "
          f"{announcement.key.modulus.bit_length()}-bit key) "
          f"written to {args.out}")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import EpochAnnouncement, ServiceClient
    from repro.wire import WireCodec

    codec = WireCodec()
    with open(args.announce, "rb") as fh:
        announcement = codec.decode(fh.read())
    if not isinstance(announcement, EpochAnnouncement):
        print(f"error: {args.announce} is not an epoch announcement",
              file=sys.stderr)
        return 1
    rng = seeded_rng(args.seed) if args.seed is not None else None
    client = ServiceClient(args.client_id, announcement, rng=rng)
    payload = client.build_input(args.value)
    encoded = codec.encode(payload)
    with open(args.out, "wb") as fh:
        fh.write(encoded)
    print(f"submission for client {args.client_id!r} "
          f"(epoch {announcement.epoch}, {len(payload.ciphertexts)} slot(s), "
          f"{len(encoded)} B) written to {args.out}")
    return 0


def _add_execution_options(
    parser: argparse.ArgumentParser, seed_default: int | None
) -> None:
    """The shared execution knobs of every protocol-running subcommand.

    ``--seed`` drives every random choice of the run (committee sortition,
    key generation, encryption randomness): for a fixed seed the full
    bulletin transcript is byte-identical between repeats — including
    across ``--workers`` counts, since the engine only reorders *work*,
    never randomness.  ``run`` defaults to a fresh nondeterministic seed;
    the demo/trace commands default to 42 so their output is reproducible.
    """
    parser.add_argument(
        "--seed", type=int, default=seed_default,
        help=f"RNG seed for a reproducible run (default: {seed_default})",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="crypto-engine worker processes, 0 = serial (default: 0)",
    )
    parser.add_argument(
        "--transport", default=None, metavar="SPEC",
        help=(
            "bulletin transport: 'memory' (default), "
            "'sim[:drop=R,seed=S,latency=L,jitter=J,bandwidth=B]' — a "
            "seeded lossy/delayed byte transport whose drops surface as "
            "fail-stop silence — or "
            "'socket[:workers=K,mode=tcp|pipe|auto,timeout=S,mute=A|B]' — "
            "parties decode in separate OS processes, byte parity enforced"
        ),
    )
    parser.add_argument(
        "--quorum-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-round deadline for asynchronous transports; a party whose "
            "post has not arrived when it expires is fail-stop crashed "
            "(default: 30)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable YOSO MPC via packed secret-sharing (PODC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="regenerate Table 1").set_defaults(fn=_cmd_table1)

    plan = sub.add_parser("plan", help="committee planning for (C, f)")
    plan.add_argument("C", type=int, help="expected committee size")
    plan.add_argument("f", type=float, help="global corruption ratio")
    plan.add_argument("--conservative", action="store_true",
                      help="use the validated Chernoff tail bound")
    plan.set_defaults(fn=_cmd_plan)

    circuit = sub.add_parser(
        "circuit",
        help="compile a circuit: layers, batches, slot utilization",
        description=(
            "Lower a circuit to its CircuitProgram and report the compiled "
            "shape (stats), or write the format-v2 circuit+program document "
            "(compile).  Name the circuit with --circuit FILE or pick a "
            "built-in workload with --workload/--shape."
        ),
    )
    circuit.add_argument("action", choices=["stats", "compile"])
    circuit.add_argument("--circuit", help="circuit JSON path")
    circuit.add_argument(
        "--workload", default="dot",
        choices=["dot", "auction", "statistics", "matmul", "mlp"],
        help="built-in workload (ignored with --circuit)",
    )
    circuit.add_argument(
        "--shape",
        help="comma-separated workload shape: dot WIDTH, auction "
             "BIDDERS,BITS, statistics PARTIES, matmul M,P,Q, mlp D0,D1,...",
    )
    circuit.add_argument("--k", type=int, default=4, help="packing factor")
    circuit.add_argument("--out", metavar="FILE",
                         help="compile: write the program JSON here")
    circuit.set_defaults(fn=_cmd_circuit)

    run = sub.add_parser("run", help="run the protocol on a circuit file")
    run.add_argument("--circuit", required=True, help="circuit JSON path")
    run.add_argument("--inputs", required=True, help="inputs JSON path")
    run.add_argument("--n", type=int, default=6, help="committee size")
    run.add_argument("--epsilon", type=float, default=0.2, help="the gap")
    _add_execution_options(run, seed_default=None)
    run.add_argument("--fail-stop", action="store_true")
    run.add_argument("--report", help="write a JSON run report here")
    run.set_defaults(fn=_cmd_run)

    demo = sub.add_parser("demo", help="self-contained dot-product run")
    demo.add_argument("--n", type=int, default=6)
    demo.add_argument("--epsilon", type=float, default=0.2)
    _add_execution_options(demo, seed_default=42)
    demo.set_defaults(fn=_cmd_demo)

    trace = sub.add_parser(
        "trace",
        help="traced run: per-phase wall-clock, op counters, comm bytes",
    )
    trace.add_argument("--circuit", help="circuit JSON path (default: built-in)")
    trace.add_argument("--inputs", help="inputs JSON path (with --circuit)")
    trace.add_argument("--width", type=int, default=3,
                       help="dot-product width of the built-in circuit")
    trace.add_argument("--n", type=int, default=6, help="committee size")
    trace.add_argument("--epsilon", type=float, default=0.2, help="the gap")
    _add_execution_options(trace, seed_default=42)
    trace.add_argument("--report",
                       help="write the JSON run report (with its trace) here")
    trace.set_defaults(fn=_cmd_trace)

    cost = sub.add_parser(
        "cost",
        help="symbolic cost model: print formulas, evaluate, extrapolate",
        description=(
            "No flags: print the per-envelope size formula catalog.  With "
            "--n: evaluate the per-phase predictions at those parameters.  "
            "With --extrapolate: reproduce the paper's improvement-factor "
            "table from the formulas alone (plus a row at --n/--epsilon when "
            "given), with a measured run overlaid."
        ),
    )
    cost.add_argument("--n", type=int, default=None, help="committee size")
    cost.add_argument("--epsilon", type=float, default=0.25, help="the gap")
    cost.add_argument("--width", type=int, default=8,
                      help="dot-product width of the evaluated workload")
    cost.add_argument("--te-bits", type=int, default=2048,
                      help="threshold-encryption modulus bits")
    cost.add_argument("--role-key-bits", type=int, default=2048)
    cost.add_argument("--robust", action="store_true",
                      help="formulas for robust-reconstruction mode")
    cost.add_argument("--extrapolate", action="store_true",
                      help="Table 1 improvement factors from the formulas")
    cost.add_argument("--skip-measured", action="store_true",
                      help="skip the metered overlay run")
    cost.set_defaults(fn=_cmd_cost)

    serve = sub.add_parser(
        "serve",
        help="client-aided service: epochs of ingest → evaluate → reshare",
        description=(
            "Run the long-lived MPC service: announce an epoch, ingest "
            "batched client submissions (simulated in-process and/or read "
            "from --submissions files), evaluate the aggregate workload "
            "under YOSO MPC, publish the result, and reshare the threshold "
            "key to the next epoch's committee.  Every envelope on the "
            "service board is checked against its symbolic size formula."
        ),
    )
    _add_service_options(serve)
    serve.add_argument("--clients", type=int, default=1000,
                       help="simulated clients per epoch (default: 1000)")
    serve.add_argument("--epochs", type=int, default=2)
    serve.add_argument("--churn", type=float, default=0.1,
                       help="client turnover fraction per epoch")
    serve.add_argument("--crash", action="store_true",
                       help="fail-stop one committee member in epoch 0")
    serve.add_argument("--submissions", metavar="DIR",
                       help="ingest *.bin submission files (epoch 0)")
    serve.add_argument("--announce-out", metavar="FILE",
                       help="write the epoch-0 announcement bytes here")
    serve.add_argument("--json", metavar="FILE",
                       help="write per-epoch summaries here")
    serve.set_defaults(fn=_cmd_serve)

    announce = sub.add_parser(
        "announce",
        help="write the epoch-0 announcement a `serve` run will open",
    )
    _add_service_options(announce)
    announce.add_argument("--out", required=True, metavar="FILE")
    announce.set_defaults(fn=_cmd_announce)

    submit = sub.add_parser(
        "submit",
        help="build one client submission from an announcement file",
    )
    submit.add_argument("--announce", required=True, metavar="FILE",
                        help="announcement bytes from `repro announce`")
    submit.add_argument("--client-id", required=True)
    submit.add_argument("--value", type=int, required=True,
                        help="the private input (a measurement or bid level)")
    submit.add_argument("--seed", type=int, default=None,
                        help="seed the client's randomness (for tests)")
    submit.add_argument("--out", required=True, metavar="FILE")
    submit.set_defaults(fn=_cmd_submit)

    lint = sub.add_parser(
        "lint",
        help="protocol static analysis: determinism / YOSO / wire rules",
    )
    add_lint_arguments(lint)
    lint.set_defaults(fn=run_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
