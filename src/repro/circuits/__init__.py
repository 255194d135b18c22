"""Arithmetic circuits: representation, builder DSL, batching, and a library.

The protocol evaluates layered arithmetic circuits over the plaintext ring;
multiplication gates are *batched* into groups of ``k`` (the packing factor)
so a whole batch costs what a single gate costs online (paper §3.1).
"""

from repro.circuits.circuit import (
    Circuit,
    Gate,
    GateType,
    CircuitEvaluation,
)
from repro.circuits.builder import CircuitBuilder
from repro.circuits.layering import BatchPlan, MultiplicationBatch, InputBatch, plan_batches
from repro.circuits.program import (
    CircuitProgram,
    GateRun,
    InputSegment,
    Layer,
    OutputSegment,
    compile_circuit,
)
from repro.circuits.bitwise import (
    comparison_circuit,
    maximum_circuit,
    second_price_auction_circuit,
)
from repro.circuits.linalg import (
    bias_add,
    matmul,
    matmul_circuit,
    matvec,
    mlp_circuit,
    relu_from_bits,
    square_activation,
)
from repro.circuits.serialize import (
    circuit_from_dict,
    circuit_to_dict,
    digest,
    dumps,
    dumps_program,
    loads,
    loads_program,
    program_from_dict,
    program_to_dict,
)
from repro.circuits.library import (
    dot_product_circuit,
    inner_product_sum_circuit,
    linear_model_circuit,
    masked_membership_circuit,
    matrix_vector_circuit,
    polynomial_eval_circuit,
    statistics_circuit,
    random_circuit,
)
from repro.circuits.workloads import (
    AuctionOutcome,
    InferenceOutcome,
    StatisticsOutcome,
    flatten_model,
    grouped_statistics_circuit,
    histogram_second_price_circuit,
    run_private_inference,
    run_private_statistics,
    run_sealed_bid_auction,
)

__all__ = [
    "Circuit",
    "Gate",
    "GateType",
    "CircuitEvaluation",
    "CircuitBuilder",
    "BatchPlan",
    "MultiplicationBatch",
    "InputBatch",
    "plan_batches",
    "CircuitProgram",
    "GateRun",
    "InputSegment",
    "Layer",
    "OutputSegment",
    "compile_circuit",
    "comparison_circuit",
    "maximum_circuit",
    "second_price_auction_circuit",
    "bias_add",
    "matmul",
    "matmul_circuit",
    "matvec",
    "mlp_circuit",
    "relu_from_bits",
    "square_activation",
    "circuit_from_dict",
    "circuit_to_dict",
    "digest",
    "dumps",
    "dumps_program",
    "loads",
    "loads_program",
    "program_from_dict",
    "program_to_dict",
    "dot_product_circuit",
    "inner_product_sum_circuit",
    "linear_model_circuit",
    "masked_membership_circuit",
    "matrix_vector_circuit",
    "polynomial_eval_circuit",
    "statistics_circuit",
    "random_circuit",
    "AuctionOutcome",
    "InferenceOutcome",
    "StatisticsOutcome",
    "flatten_model",
    "grouped_statistics_circuit",
    "histogram_second_price_circuit",
    "run_private_inference",
    "run_private_statistics",
    "run_sealed_bid_auction",
]
