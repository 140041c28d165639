"""Quickstart: compile one sparse kernel with FuseFlow and simulate it.

Builds SpMM (the paper's Figure 9 running example) from Einsum text,
compiles it through the driver Session — cross-expression fusion + fusion
tables, run as the compile flow — into a SAMML dataflow graph, runs the
Comal-like simulator, and verifies against numpy.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Session, fully_fused, parse_program
from repro.ftree import SparseTensor, csr, dense

# 1. Write the kernel as Einsum statements with sparse format annotations.
program = parse_program(
    """
tensor A(64, 64): csr
tensor X(64, 16): dense
T(i, j) = A(i, k) * X(k, j)
""",
    name="spmm",
)

# 2. Compile under a schedule (a single fused region here) through a
#    Session.  The result is an Executable: callable, introspectable, and
#    cached by the program/schedule fingerprint.
session = Session()
exe = session.compile(program, fully_fused(program))
print(exe.compiled.describe())
print()
print("What each compiler pass did (order fallback, timings, skips):")
print(exe.diagnostics.describe())
print()
print("The fusion table the compiler planned (paper Section 6):")
print(exe.regions[0].table_text)
print()
print("The generated SAMML dataflow graph (paper Figure 9d):")
print(exe.regions[0].graph.describe())

# 3. Bind data and simulate by calling the executable.
rng = np.random.default_rng(0)
a = (rng.random((64, 64)) < 0.05) * rng.random((64, 64))
x = rng.random((64, 16))
binding = {
    "A": SparseTensor.from_dense(a, csr(), "A"),
    "X": SparseTensor.from_dense(x, dense(2), "X"),
}
result = exe(binding)

# 4. Inspect results and metrics.
out = result.tensors["T"].to_dense()
error = np.abs(out - a @ x).max()
metrics = result.metrics
print()
print(f"cycles            : {metrics.cycles:.0f}")
print(f"flops             : {metrics.flops}")
print(f"DRAM bytes        : {metrics.dram_bytes}")
print(f"operational intensity: {metrics.operational_intensity():.3f} flops/byte")
print(f"max |error| vs numpy : {error:.2e}")
assert error < 1e-9

# 5. Recompiling the same program+schedule is a cache hit — the session
#    hands back the very same Executable object.
assert session.compile(program, fully_fused(program)) is exe
print(f"compile cache     : {session.cache_info()}")
print("OK")
