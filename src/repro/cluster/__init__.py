"""Multi-machine deployment of XingTian (simulated or real TCP wire)."""

from .machine import SimulatedMachine
from .cluster import Cluster, build_cluster
from .wire import WireRunReport, run_wire_session, two_machine_wire_config
from .processes import run_process_session

__all__ = [
    "SimulatedMachine",
    "Cluster",
    "build_cluster",
    "WireRunReport",
    "run_wire_session",
    "run_process_session",
    "two_machine_wire_config",
]
