"""Network configuration: nodes, routing phases and destination groups.

The routing engine is geography-agnostic; everything location-specific
(which booths are paired, which destinations each traffic scenario may
reach, how the boundary booth splits the area) lives in one JSON document.
``NETWORK_RULES`` is its checked schema: keys, types, allowed values and
defaults. ``NetworkConfig`` then checks the cross-references. What the
schema does not say:

* A node's ``kind`` lives only here: ``NetworkConfig`` checks the routing
  phases against it, and the synthetic generator writes tollbooth series
  for stations alone. The CSV files and the input tables name their nodes
  and carry no kind.
* A node's ``scale`` is the synthetic generator's mean peak-hour volume.
  Each of a station's ``directions`` is a series of its own, with count
  key ``<name>|<direction>``.
* ``boundary`` is the booth between the two local sub-regions. Its
  ``positive`` and ``negative`` net directions each consume a ramp and
  route to their groups. A missing or null ``boundary`` or ``ramps``
  disables that phase.
* ``scenario_subsets`` maps ``LocalInflow``, ``LocalOutflow`` and
  ``PassthroughNet`` to group labels; the internal phase uses the
  boundary's groups instead.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .core import Direction, NodeKind, RoadTag, read_json, series_key
from .errors import NUMBER, STRING, ConfigError, Default, Each, check, is_text, one_of

__all__ = [
    "NetworkNode",
    "BoundaryDirection",
    "BoundaryConfig",
    "RampConfig",
    "PassthroughPair",
    "NetworkConfig",
    "load_network",
    "trondheim_fixture",
]


@dataclass(frozen=True)
class NetworkNode:
    name: str
    kind: NodeKind
    road_tag: RoadTag
    scale: float
    directions: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundaryDirection:
    label: str
    consumes: str  # "onramp" or "offramp"
    groups: tuple[str, ...]


@dataclass(frozen=True)
class BoundaryConfig:
    node: str
    inbound_key: str
    outbound_key: str
    positive: BoundaryDirection
    negative: BoundaryDirection


@dataclass(frozen=True)
class RampConfig:
    onramp: str
    offramp: str


@dataclass(frozen=True)
class PassthroughPair:
    upstream: str
    downstream: str
    axis: str


@dataclass(frozen=True)
class NetworkConfig:
    name: str
    nodes: tuple[NetworkNode, ...]
    destination_groups: dict[str, tuple[str, ...]]
    passthrough_pairs: tuple[PassthroughPair, ...]
    scenario_subsets: dict[str, tuple[str, ...]]
    boundary: BoundaryConfig | None = None
    ramps: RampConfig | None = None
    _by_name: dict[str, NetworkNode] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if not all(names):
            raise ConfigError("node name cannot be empty")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"duplicate node names: {dupes}")
        object.__setattr__(self, "_by_name", {n.name: n for n in self.nodes})
        self._validate()

    def _validate(self) -> None:
        for pair in self.passthrough_pairs:
            for name in (pair.upstream, pair.downstream):
                node = self._require(name, f"passthrough pair {pair.axis!r}")
                if node.kind is not NodeKind.MAIN_TOLLBOOTH:
                    raise ConfigError(
                        f"passthrough pair member {name!r} must be a main tollbooth"
                    )
        dest_names = {n.name for n in self.nodes if n.kind is NodeKind.INFERRED_DESTINATION}
        grouped: set[str] = set()
        for label, members in self.destination_groups.items():
            for m in members:
                if m not in dest_names:
                    raise ConfigError(
                        f"destination group {label!r} references unknown destination {m!r}"
                    )
                grouped.add(m)
        ungrouped = dest_names - grouped
        if ungrouped:
            raise ConfigError(f"destinations missing from every group: {sorted(ungrouped)}")
        for scenario, labels in self.scenario_subsets.items():
            self._check_groups(f"scenario {scenario!r}", labels)
        if self.ramps is not None:
            for scenario in ("LocalInflow", "LocalOutflow"):
                if scenario not in self.scenario_subsets:
                    raise ConfigError(f"ramps configured but scenario_subsets lacks {scenario!r}")
        if self.passthrough_pairs and "PassthroughNet" not in self.scenario_subsets:
            raise ConfigError("passthrough pairs configured but scenario_subsets lacks 'PassthroughNet'")
        if self.boundary is not None:
            self._require(self.boundary.node, "boundary")
            for d in (self.boundary.positive, self.boundary.negative):
                self._check_groups(f"boundary direction {d.label!r}", d.groups)
            if self.ramps is None:
                raise ConfigError("boundary phase requires ramps")
        # Every node writes one series per direction, destinations included.
        series = [(n.kind, series_key(n.name, Direction(d))) for n in self.nodes
                  for d in n.directions or (Direction.UNDIRECTED.value,)]
        keys = [key for _, key in series]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        if repeated:
            raise ConfigError(f"repeated series keys {repeated}: each node and direction needs a key of its own")
        counted = {key for kind, key in series if kind is not NodeKind.INFERRED_DESTINATION}
        unknown = [key for key in self.referenced_count_keys() if key not in counted]
        if unknown:
            raise ConfigError(f"count keys {unknown} are not the series key of any station")

    def _check_groups(self, context: str, labels: tuple[str, ...]) -> None:
        """Routed volume is split over these groups' members, so each group
        must exist and hold a destination."""
        if not labels:
            raise ConfigError(f"{context} names no destination group")
        for label in labels:
            if label not in self.destination_groups:
                raise ConfigError(f"{context} references unknown group {label!r}")
            if not self.destination_groups[label]:
                raise ConfigError(f"{context} references empty destination group {label!r}")

    def _require(self, name: str, context: str) -> NetworkNode:
        node = self._by_name.get(name)
        if node is None:
            raise ConfigError(f"{context} references unknown node {name!r}")
        return node

    def destinations(self) -> list[NetworkNode]:
        return [n for n in self.nodes if n.kind is NodeKind.INFERRED_DESTINATION]

    def destination_names(self) -> list[str]:
        return [n.name for n in self.destinations()]

    def group_members(self, labels: tuple[str, ...] | list[str]) -> list[str]:
        """Union of the groups' members, in config order, without duplicates."""
        seen: dict[str, None] = {}
        for label in labels:
            for m in self.destination_groups[label]:
                seen.setdefault(m)
        return list(seen)

    def referenced_count_keys(self) -> list[str]:
        """All count keys the routing phases read, in phase order."""
        keys: list[str] = []
        if self.boundary is not None:
            keys += [self.boundary.inbound_key, self.boundary.outbound_key]
        if self.ramps is not None:
            keys += [self.ramps.onramp, self.ramps.offramp]
        for pair in self.passthrough_pairs:
            keys += [pair.upstream, pair.downstream]
        return keys


_NAMES = Each(STRING)
_NODE = {
    "name": (lambda v: is_text(v) and v != "", "a non-empty string", None),  # as NetworkConfig requires
    "kind": one_of(tuple(kind.value for kind in NodeKind)),
    "road_tag": one_of(tuple(tag.value for tag in RoadTag)),
    "scale": Default(NUMBER, 100.0),
    "directions": Default(Each(one_of(tuple(d.value for d in Direction))), []),
}
_BOUNDARY_DIRECTION = {"label": STRING, "consumes": one_of(("onramp", "offramp")), "groups": _NAMES}

# What network_from_dict accepts (see errors.check for the rule forms).
NETWORK_RULES: dict = {
    "name": Default(STRING, "unnamed"),
    "nodes": Each(_NODE),
    "destination_groups": Each(_NAMES, keyed=True),
    "boundary": Default({"node": STRING, "inbound_key": STRING, "outbound_key": STRING,
                         "positive": _BOUNDARY_DIRECTION, "negative": _BOUNDARY_DIRECTION}, None),
    "ramps": Default({"onramp": STRING, "offramp": STRING}, None),
    "passthrough_pairs": Default(Each({"upstream": STRING, "downstream": STRING, "axis": STRING}), []),
    "scenario_subsets": Default(Each(_NAMES, keyed=True), {}),
}


def network_from_dict(doc: dict) -> NetworkConfig:
    """The network a JSON document describes; a copy of ``doc`` is checked against NETWORK_RULES."""
    doc = copy.deepcopy(doc)
    check("network", doc, NETWORK_RULES)
    boundary, ramps = doc["boundary"], doc["ramps"]
    if boundary is not None:
        sides = {side: BoundaryDirection(**{**boundary[side], "groups": tuple(boundary[side]["groups"])})
                 for side in ("positive", "negative")}
        boundary = BoundaryConfig(**{**boundary, **sides})
    nodes = tuple(
        NetworkNode(name=n["name"], kind=NodeKind(n["kind"]), road_tag=RoadTag(n["road_tag"]),
                    scale=float(n["scale"]), directions=tuple(n["directions"]))
        for n in doc["nodes"]
    )
    return NetworkConfig(
        name=doc["name"],
        nodes=nodes,
        destination_groups={k: tuple(v) for k, v in doc["destination_groups"].items()},
        passthrough_pairs=tuple(PassthroughPair(**p) for p in doc["passthrough_pairs"]),
        scenario_subsets={k: tuple(v) for k, v in doc["scenario_subsets"].items()},
        boundary=boundary,
        ramps=RampConfig(**ramps) if ramps is not None else None,
    )


def load_network(path: str | Path) -> NetworkConfig:
    return network_from_dict(read_json(path, "network config", ConfigError))


def trondheim_fixture() -> NetworkConfig:
    """The bundled Trondheim study-area network."""
    ref = resources.files("odfuse.data").joinpath("trondheim_network.json")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    return network_from_dict(doc)
