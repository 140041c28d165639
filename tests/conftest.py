"""Shared pytest configuration for the tier-1 suite."""

import os

# The tier-1 suite runs with per-stream protocol validation on: every
# stream produced by every simulated node is check_stream()-verified.
# Production/benchmark runs leave this off (it is the hot-path validation
# the debug flag gates).
os.environ.setdefault("FUSEFLOW_DEBUG_STREAMS", "1")


def pytest_configure(config):
    # The autotune truncation warning fires once per (n, cap) per process;
    # tests that assert it reset the seen-set first (pytest.warns captures
    # regardless of filters).  Everywhere else it is expected noise from
    # bounded enumeration, so filter it to keep real warnings visible.
    config.addinivalue_line(
        "filterwarnings",
        "ignore:contiguous_partitions. kept:UserWarning",
    )


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help=(
            "rewrite the golden simulator traces under tests/golden/ from "
            "the current engine instead of comparing against them (use after "
            "an intentional timing-model change, then review the diff)"
        ),
    )

