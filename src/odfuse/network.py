"""Network configuration: nodes, routing phases and destination groups.

The routing engine is geography-agnostic; everything location-specific
(which booths are paired, which destinations each traffic scenario may
reach, how the boundary booth splits the area) lives in a JSON document
with the schema below.

Top-level keys:

* ``name``: free-form label.
* ``nodes``: list of ``{name, kind, road_tag, scale, directions?}``.
  ``kind`` is one of ``main_tollbooth``, ``county_tollbooth``,
  ``inferred_destination``. ``scale`` is the synthetic generator's mean
  peak-hour volume for the node. ``directions`` (optional) lists
  directional series emitted for the station, e.g. ``["Inbound",
  "Outbound"]``; each series is a distinct count key named
  ``<name>|<direction>``.
* ``destination_groups``: map group label -> list of destination names.
* ``boundary``: the booth separating the two local sub-regions:
  ``{node, inbound_key, outbound_key, positive, negative}`` where
  ``positive``/``negative`` describe the two net directions as
  ``{label, consumes, groups}`` (``consumes`` is ``onramp`` or
  ``offramp``). Optional; ``null`` disables the internal phase.
* ``ramps``: ``{onramp, offramp}`` count keys. Optional.
* ``passthrough_pairs``: list of ``{upstream, downstream, axis}``.
* ``scenario_subsets``: map scenario name (``Internal`` uses the
  boundary's per-direction groups instead) -> list of group labels:
  ``LocalInflow``, ``LocalOutflow``, ``PassthroughNet``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .core import Direction, NodeId, NodeKind, RoadTag
from .errors import ConfigError

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
    node: NodeId
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
        names = [n.node.name for n in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"duplicate node names: {dupes}")
        object.__setattr__(self, "_by_name", {n.node.name: n for n in self.nodes})
        self._validate()

    def _validate(self) -> None:
        for pair in self.passthrough_pairs:
            for name in (pair.upstream, pair.downstream):
                node = self._require(name, f"passthrough pair {pair.axis!r}")
                if node.node.kind is not NodeKind.MAIN_TOLLBOOTH:
                    raise ConfigError(
                        f"passthrough pair member {name!r} must be a main tollbooth"
                    )
        dest_names = {
            n.node.name for n in self.nodes if n.node.kind is NodeKind.INFERRED_DESTINATION
        }
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
                if d.consumes not in ("onramp", "offramp"):
                    raise ConfigError(
                        f"boundary direction {d.label!r} must consume onramp or offramp"
                    )
                self._check_groups(f"boundary direction {d.label!r}", d.groups)
            if self.ramps is None:
                raise ConfigError("boundary phase requires ramps")

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

    def node_named(self, name: str) -> NetworkNode:
        return self._require(name, "lookup")

    def stations(self) -> list[NetworkNode]:
        return [n for n in self.nodes if n.node.kind is not NodeKind.INFERRED_DESTINATION]

    def destinations(self) -> list[NetworkNode]:
        return [n for n in self.nodes if n.node.kind is NodeKind.INFERRED_DESTINATION]

    def destination_names(self) -> list[str]:
        return [n.node.name for n in self.destinations()]

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


_DIRECTIONS = tuple(d.value for d in Direction)


def _parse_node(raw: dict) -> NetworkNode:
    try:
        kind = NodeKind(raw["kind"])
        tag = RoadTag.parse(raw["road_tag"])
        directions = raw.get("directions", [])
        if not isinstance(directions, list) or not all(d in _DIRECTIONS for d in directions):
            raise ConfigError(f"node {raw['name']!r}: directions must be a list of {list(_DIRECTIONS)}")
        return NetworkNode(
            node=NodeId(name=raw["name"], kind=kind),
            road_tag=tag,
            scale=float(raw.get("scale", 100.0)),
            directions=tuple(directions),
        )
    except KeyError as exc:
        raise ConfigError(f"node entry missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad node entry {raw.get('name')!r}: {exc}") from exc


def _parse_boundary(raw: dict | None) -> BoundaryConfig | None:
    if raw is None:
        return None
    def direction(d: dict) -> BoundaryDirection:
        return BoundaryDirection(
            label=d["label"], consumes=d["consumes"], groups=tuple(d["groups"])
        )
    try:
        return BoundaryConfig(
            node=raw["node"],
            inbound_key=raw["inbound_key"],
            outbound_key=raw["outbound_key"],
            positive=direction(raw["positive"]),
            negative=direction(raw["negative"]),
        )
    except KeyError as exc:
        raise ConfigError(f"boundary config missing field {exc}") from exc


def network_from_dict(doc: dict) -> NetworkConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"network config must be an object, got {type(doc).__name__}")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ConfigError(f"network name must be a string, got {name!r}")
    for key in ("destination_groups", "scenario_subsets"):
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"network {key} must be an object, got {doc[key]!r}")
    try:
        nodes = tuple(_parse_node(n) for n in doc["nodes"])
        groups = {k: tuple(v) for k, v in doc["destination_groups"].items()}
        pairs = tuple(
            PassthroughPair(upstream=p["upstream"], downstream=p["downstream"], axis=p["axis"])
            for p in doc.get("passthrough_pairs", ())
        )
        subsets = {k: tuple(v) for k, v in doc.get("scenario_subsets", {}).items()}
        ramps_raw = doc.get("ramps")
        ramps = RampConfig(**ramps_raw) if ramps_raw else None
        return NetworkConfig(
            name=name,
            nodes=nodes,
            destination_groups=groups,
            passthrough_pairs=pairs,
            scenario_subsets=subsets,
            boundary=_parse_boundary(doc.get("boundary")),
            ramps=ramps,
        )
    except KeyError as exc:
        raise ConfigError(f"network config missing field {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"malformed network config: {exc}") from exc


def load_network(path: str | Path) -> NetworkConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"network config not found: {p}")
    with open(p, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {p}: {exc}") from exc
    return network_from_dict(doc)


def trondheim_fixture() -> NetworkConfig:
    """The bundled Trondheim study-area network."""
    ref = resources.files("odfuse.data").joinpath("trondheim_network.json")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    return network_from_dict(doc)
