"""Cluster substrate: machines, the dynamic straggler process and occupancy bookkeeping."""

from repro.cluster.machine import Machine
from repro.cluster.stragglers import DynamicStragglers
from repro.cluster.state import ClusterState

__all__ = [
    "Machine",
    "ClusterState",
    "DynamicStragglers",
]
