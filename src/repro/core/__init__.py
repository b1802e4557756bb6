"""The core of the reproduction: the digital-twin simulator and controller.

Contains the discrete event engine, the request scheduler and traffic
management policies of Section 4.1, the full-system library simulation of
Section 7, and the metrics it reports.
"""

from .events import Event, Process, Resource, Simulation, SimulationError, drain
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    SLO_SECONDS,
    CompletionStats,
    Counter,
    DriveUtilization,
    Gauge,
    Histogram,
    MetricsRegistry,
    ResilienceMetrics,
    ShuttleMetrics,
    SimulationReport,
)
from .deployment_sim import DeploymentConfig, DeploymentReport, DeploymentSimulation
from .end_to_end import EndToEndReport, compose_with_decode
from .replication import ReplicatedMetric, replicate, replicate_tail_hours
from .requests import SimRequest
from .scheduler import RequestScheduler
from .tape_baseline import TapeConfig, TapeLibrarySimulation, TapeReport
from .sim import SimConfig, SimContext, SimKernel
from .traffic import (
    Partition,
    PartitionedPolicy,
    ReservationTable,
    ShortestPathsPolicy,
    TrafficPolicy,
    TripPlan,
)

__all__ = [
    "Event",
    "Process",
    "Resource",
    "Simulation",
    "SimulationError",
    "drain",
    "DEFAULT_TIME_BUCKETS",
    "SLO_SECONDS",
    "CompletionStats",
    "Counter",
    "DriveUtilization",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ResilienceMetrics",
    "ShuttleMetrics",
    "SimulationReport",
    "DeploymentConfig",
    "EndToEndReport",
    "compose_with_decode",
    "DeploymentReport",
    "DeploymentSimulation",
    "ReplicatedMetric",
    "replicate",
    "replicate_tail_hours",
    "SimRequest",
    "RequestScheduler",
    "TapeConfig",
    "TapeLibrarySimulation",
    "TapeReport",
    "SimConfig",
    "SimContext",
    "SimKernel",
    "Partition",
    "PartitionedPolicy",
    "ReservationTable",
    "ShortestPathsPolicy",
    "TrafficPolicy",
    "TripPlan",
]
