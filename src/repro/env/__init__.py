"""``repro.env`` — the air-ground spatial-crowdsourcing simulator."""

from .airground import AirGroundEnv, StepResult
from .config import EnvConfig
from .entities import UAV, UGV, Sensor
from .events import Event, EventLog
from .metrics import (
    MetricSnapshot,
    collection_ratio,
    cooperation_factor,
    efficiency,
    energy_ratio,
    jain_fairness,
)
from .observation import (
    ObservationBuilder,
    UAVObsArrays,
    UAVObservation,
    UGVObsArrays,
    UGVObservation,
)
from .vector import VecAirGroundEnv, VecStepResult, replica_seed

__all__ = [
    "AirGroundEnv",
    "StepResult",
    "VecAirGroundEnv",
    "VecStepResult",
    "replica_seed",
    "EnvConfig",
    "Sensor",
    "UGV",
    "UAV",
    "Event",
    "EventLog",
    "MetricSnapshot",
    "collection_ratio",
    "jain_fairness",
    "cooperation_factor",
    "energy_ratio",
    "efficiency",
    "ObservationBuilder",
    "UGVObservation",
    "UAVObservation",
    "UGVObsArrays",
    "UAVObsArrays",
]
