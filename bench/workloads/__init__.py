"""The four workloads, by name. Why each exists is in ``BENCHMARK.json``."""

from workloads.durable import DurableMixed
from workloads.served import ServedBrowse
from workloads.topo import topo_exact, topo_mbr

WORKLOADS = {
    "topo_exact": topo_exact,
    "topo_mbr": topo_mbr,
    "served_browse": ServedBrowse,
    "durable_mixed": DurableMixed,
}
