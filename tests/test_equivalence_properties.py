"""Cross-schedule equivalence properties.

The core soundness claim of a fusion compiler: every schedule of a program
computes the same function.  These tests generate random sparse operator
chains and check that unfused, partially fused, and fully fused schedules
(and, where applicable, the global-iteration rewrite and random dataflow
orders) all agree with a dense numpy oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.einsum.parser import parse_program
from repro.core.schedule.autotune import contiguous_partitions
from repro.core.schedule.schedule import cs_rewrite, fully_fused, fused_groups, unfused
from repro.ftree import SparseTensor, csr, dense
from repro.driver.session import Session

# One shared session: its compile cache spans this module's tests.
run = Session().run


def _chain_program(n_layers, dims, ops):
    """Build  Y = f_n(... f_1(A @ X) W ...)  style chains."""
    lines = [f"tensor A({dims[0]}, {dims[0]}): csr", f"tensor X({dims[0]}, {dims[1]}): dense"]
    stmt_lines = ["T0(i0, j0) = A(i0, k0) * X(k0, j0)"]
    prev = "T0"
    prev_dim = dims[1]
    for layer in range(n_layers):
        op = ops[layer % len(ops)]
        if op == "matmul":
            out_dim = dims[(layer + 2) % len(dims)] or 4
            lines.append(f"tensor W{layer}({prev_dim}, {out_dim}): dense")
            stmt_lines.append(
                f"T{layer + 1}(i{layer + 1}, j{layer + 1}) = "
                f"{prev}(i{layer + 1}, k{layer + 1}) * W{layer}(k{layer + 1}, j{layer + 1})"
            )
            prev_dim = out_dim
        elif op == "bias":
            lines.append(f"tensor b{layer}({prev_dim}): dense")
            stmt_lines.append(
                f"T{layer + 1}(i{layer + 1}, j{layer + 1}) = "
                f"{prev}(i{layer + 1}, j{layer + 1}) + b{layer}(j{layer + 1})"
            )
        else:  # unary
            stmt_lines.append(
                f"T{layer + 1}(i{layer + 1}, j{layer + 1}) = "
                f"{op}({prev}(i{layer + 1}, j{layer + 1}))"
            )
        prev = f"T{layer + 1}"
    return parse_program("\n".join(lines + stmt_lines)), prev


def _reference(program, binding, out_name):
    """Dense numpy oracle evaluated statement by statement."""
    env = {name: tensor.to_dense() for name, tensor in binding.items()}
    unary = {"relu": lambda x: np.maximum(x, 0.0), "exp": np.exp, "abs": np.abs}
    for stmt in program.statements:
        if stmt.kind == "unary":
            env[stmt.lhs.tensor] = unary[stmt.op](env[stmt.operands[0].tensor])
        elif stmt.op == "add":
            a = env[stmt.operands[0].tensor]
            b = env[stmt.operands[1].tensor]
            env[stmt.lhs.tensor] = a + b
        else:
            a = env[stmt.operands[0].tensor]
            b = env[stmt.operands[1].tensor]
            env[stmt.lhs.tensor] = a @ b
    return env[out_name]


@settings(max_examples=12, deadline=None)
@given(
    n_layers=st.integers(1, 4),
    density=st.sampled_from([0.2, 0.5, 0.9]),
    # Unary ops restricted to zero-preserving functions: the machine applies
    # unaries to *stored* values only (sparse masked semantics, see
    # UnaryALU), so exp/sigmoid on implicit zeros intentionally differ from
    # a dense oracle.
    ops=st.lists(
        st.sampled_from(["matmul", "bias", "relu", "abs"]),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 10_000),
)
def test_all_schedules_agree(n_layers, density, ops, seed):
    dims = (6, 5, 4, 3)
    program, out_name = _chain_program(n_layers, dims, ops)
    rng = np.random.default_rng(seed)
    binding = {}
    for name, decl in program.decls.items():
        data = rng.random(decl.shape)
        if decl.fmt.name() == "csr":
            data = data * (rng.random(decl.shape) < density)
        binding[name] = SparseTensor.from_dense(data, decl.fmt, name)
    expected = _reference(program, binding, out_name)

    n = len(program.statements)
    schedules = [unfused(program), fully_fused(program)]
    # One arbitrary contiguous partial partition.
    partitions = contiguous_partitions(n, max_partitions=8)
    schedules.append(fused_groups(program, partitions[seed % len(partitions)]))
    for schedule in schedules:
        result = run(program, binding, schedule)
        out = result.tensors[out_name].to_dense()
        np.testing.assert_allclose(out, expected, atol=1e-9, err_msg=schedule.name)


@settings(max_examples=10, deadline=None)
@given(
    density=st.sampled_from([0.15, 0.4, 0.8]),
    seed=st.integers(0, 10_000),
)
def test_global_rewrite_matches_factored(density, seed):
    """C+S global iteration and FuseFlow factored iteration agree."""
    program = parse_program(
        """
tensor A(5, 6): csr
tensor B(6, 4): dense
tensor C(4, 3): dense
E(i, j) = A(i, k) * B(k, j)
D(i, l) = E(i, j2) * C(j2, l)
"""
    )
    rng = np.random.default_rng(seed)
    a = (rng.random((5, 6)) < density) * rng.random((5, 6))
    b = rng.random((6, 4))
    c = rng.random((4, 3))
    binding = {
        "A": SparseTensor.from_dense(a, csr(), "A"),
        "B": SparseTensor.from_dense(b, dense(2), "B"),
        "C": SparseTensor.from_dense(c, dense(2), "C"),
    }
    expected = a @ b @ c
    for schedule in (fully_fused(program), cs_rewrite(program, [[0, 1]])):
        result = run(program, binding, schedule)
        np.testing.assert_allclose(
            result.tensors["D"].to_dense(), expected, atol=1e-9,
            err_msg=schedule.name,
        )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_metrics_invariants(seed):
    """Simulation metrics satisfy basic sanity invariants for any input."""
    rng = np.random.default_rng(seed)
    a = (rng.random((7, 7)) < 0.4) * rng.random((7, 7))
    x = rng.random((7, 5))
    program = parse_program(
        "tensor A(7, 7): csr\ntensor X(7, 5): dense\nT(i, j) = A(i, k) * X(k, j)"
    )
    binding = {
        "A": SparseTensor.from_dense(a, csr(), "A"),
        "X": SparseTensor.from_dense(x, dense(2), "X"),
    }
    result = run(program, binding, fully_fused(program))
    metrics = result.metrics
    assert metrics.cycles > 0
    assert metrics.flops >= 0
    assert metrics.dram_bytes > 0
    # Gustavson SpMM work: exactly 2 flops per (nnz(A) row entry, column).
    assert metrics.flops == 2 * np.count_nonzero(a) * x.shape[1] - np.count_nonzero(
        (a != 0).sum(axis=1)
    ) * x.shape[1]
