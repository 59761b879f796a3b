"""Concurrent workload driver for real throughput benchmarking.

See :mod:`repro.workload.driver` for the client harness and
:mod:`repro.workload.mixes` for the operation mixes (read-only
map-search, and the read/write mix behind J-X4).
"""

from repro.workload.driver import (
    ClientReport,
    WorkloadConfig,
    WorkloadReport,
    render_workload,
    run_round,
    run_workload,
    write_workload_telemetry,
)
from repro.workload.mixes import MIXES, Operation, get_mix

__all__ = [
    "ClientReport",
    "MIXES",
    "Operation",
    "WorkloadConfig",
    "WorkloadReport",
    "get_mix",
    "render_workload",
    "run_round",
    "run_workload",
    "write_workload_telemetry",
]
