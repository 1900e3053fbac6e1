"""odfuse: fuse sparse sensor counts with aggregated mobility flows into
hourly per-category origin-destination matrices."""

__version__ = "0.1.0"

from .core import (
    CountsByCategory,
    Direction,
    HourKey,
    NodeKind,
    RoadTag,
    RoutingReportObservation,
    TollboothObservation,
    VehicleCategory,
    VehicleType,
    category_of_length,
    make_hour_key,
    map_vehicle_type,
)
from .errors import ConfigError, DataError, InternalError, OdfuseError

__all__ = [
    "__version__",
    "CountsByCategory",
    "Direction",
    "HourKey",
    "NodeKind",
    "RoadTag",
    "RoutingReportObservation",
    "TollboothObservation",
    "VehicleCategory",
    "VehicleType",
    "category_of_length",
    "make_hour_key",
    "map_vehicle_type",
    "ConfigError",
    "DataError",
    "InternalError",
    "OdfuseError",
]
