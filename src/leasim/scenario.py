"""Scenario files: the YAML schema and its validation.

A scenario is the complete, deterministic description of one simulated world:
chain parameters, economics, latency model, topology, services, owners,
renters with their campaign intents, and the host's adversarial script
(cuts, delays, kills, eclipse feeds). Validation is strict; a bad field
raises SchemaError naming the exact path.

Each section is a dataclass, and each of its fields states once, through
``_field``, its check, its default (none: the key is required) and its YAML
key when that differs from the field name. ``_parse`` reads any section from
those declarations. Checks that relate one section to another run after
parsing, in ``_check_references``.
"""
from __future__ import annotations

import gc
import sys
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import cache
from pathlib import Path

import yaml
from yaml.constructor import ConstructorError
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .coins import coins, rate
from .parties import OWNER_PROFILES
from .services import SERVICE_KINDS, VOTE_POLICIES
from .simnet import CUT_POINTS

_STR, _SEQ, _MAP = (f"tag:yaml.org,2002:{kind}" for kind in ("str", "seq", "map"))


class TreeWalk:
    """Builds a document from the composed node tree in one walk, in place of
    PyYAML's generic constructor: a ``!!str`` scalar is its ``node.value``, a
    ``!!seq`` node a list, and a ``!!map`` node whose keys are all ``!!str``
    scalars a dict. Every other node (ints, floats, bools, nulls, timestamps,
    ``!!binary``, unknown tags, a map with any other key, ``<<`` merge keys
    included) goes whole to PyYAML's own ``construct_object``, which raises
    every YAML error it raises without the walk. Both keep what they build in
    ``constructed_objects``, so an alias is the same object wherever it is
    used, a collection that holds itself loads as it does under
    ``yaml.SafeLoader``, and the base class still finishes the document (its
    deferred fills, then its reset).

    PyYAML's constructors raise a plain Python error on a tagged scalar they
    cannot build (``!!int x``: ValueError, ``!!bool maybe``: KeyError,
    ``!!timestamp x``: AttributeError); ``construct_object`` raises it as
    the YAML error it is, marked with the node's place in the file."""

    def construct_document(self, node):
        self._build(node)
        return super().construct_document(node)

    def _build(self, node):
        kind, tag = type(node), node.tag
        if kind is ScalarNode and tag == _STR:
            return node.value
        built = self.constructed_objects
        if node in built:
            return built[node]
        if kind is SequenceNode and tag == _SEQ:
            # entered before its items are built, so an alias to it finds it
            data = built[node] = []
            data.extend([self._build(item) for item in node.value])
            return data
        if kind is MappingNode and tag == _MAP and all(
                type(key) is ScalarNode and key.tag == _STR for key, _ in node.value):
            data = built[node] = {}
            for key, value in node.value:
                data[key.value] = self._build(value)
            return data
        return self.construct_object(node)

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (AttributeError, LookupError, ValueError) as exc:
            raise ConstructorError(None, None, f"cannot build {node.tag}: "
                                   f"{type(exc).__name__}: {exc}", node.start_mark) from None


# The scenario loader: libyaml composes the node tree in C when PyYAML was
# built with it (yaml.SafeLoader's pure-Python composer when not), and
# TreeWalk, not PyYAML's generic construction step, builds the document from
# it, the same objects yaml.safe_load builds. load_scenario runs it with the
# cyclic collector paused (see there).
SAFE_LOADER = type("SafeLoader", (TreeWalk, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})

MODES = ("centralized", "distributed", "p2p")


class SchemaError(Exception):
    def __init__(self, field_path: str, cause: str):
        self.field = field_path
        self.cause = cause
        super().__init__(f"{field_path}: {cause}")


# -- checks: each takes (value, path) and returns the parsed value ------


def _bounds(value, path: str, minimum, maximum) -> None:
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SchemaError(path, f"must be <= {maximum}, got {value}")


def _number(minimum=None, maximum=None):
    def check(value, path: str) -> float:
        # the range test also fails for nan, inf and ints too large for a float
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not -sys.float_info.max <= value <= sys.float_info.max):
            raise SchemaError(path, f"expected a finite number, got {value!r}")
        _bounds(value, path, minimum, maximum)
        return float(value)
    return check


def _integer(minimum=None, maximum=None):
    def check(value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(path, f"expected an integer, got {value!r}")
        _bounds(value, path, minimum, maximum)
        return value
    return check


def _text(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(path, f"expected a non-empty string, got {value!r}")
    return value


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, f"expected true or false, got {value!r}")
    return value


def _coins(value, path: str) -> int:
    try:
        return coins(value)
    except (ValueError, ArithmeticError) as exc:
        raise SchemaError(path, str(exc)) from None


def _rate(value, path: str) -> Fraction:
    try:
        return rate(value)
    except (ValueError, ArithmeticError) as exc:
        raise SchemaError(path, str(exc)) from None


def _choice(*options):
    def check(value, path: str):
        # True == 1, so a bare membership test would read `true` as cut point 1
        if isinstance(value, bool) or value not in options:
            raise SchemaError(
                path, f"expected one of {', '.join(map(str, options))}, got {value!r}")
        return value
    return check


def _list(item_check):
    def check(value, path: str) -> list:
        if not isinstance(value, list):
            raise SchemaError(path, f"expected a list, got {type(value).__name__}")
        return [item_check(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _pair(value, path: str) -> tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(path, "expected a [a, b] pair")
    a, b = (_text(v, path) for v in value)
    return a, b


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _section(cls):
    return lambda value, path: _parse(cls, value, path)


def _field(check, default=MISSING, *, factory=MISSING, key: str | None = None):
    """A section field: its check, its default (none: required) and its YAML
    key when that differs from the field name. A null value is accepted
    where the default is null."""
    return field(default=default, default_factory=factory,
                 metadata={"check": check, "key": key})


# ----------------------------------------------------------------------


@dataclass
class ChainSpec:
    difficulty_bits: int = _field(_integer(1, 28), 12)
    block_interval: float = _field(_number(0.001), 15.0)
    confirmation_depth: int = _field(_integer(1), 6)


@dataclass
class EconomicsSpec:
    deposit_rate: Fraction = _field(_rate, Fraction(1, 10))
    fee_rate: Fraction = _field(_rate, Fraction(1, 20))


@dataclass
class LatencySpec:
    model: str = _field(_choice("fixed", "normal"), "fixed")


@dataclass
class TimingSpec:
    poll_interval: float = _field(_number(0.001), 30.0)
    liveness_window: float = _field(_number(0.001), 60.0)
    horizon: float = _field(_number(1.0), 3600.0)


@dataclass
class TopologySpec:
    mode: str = _field(_choice(*MODES), "centralized")
    service_enclaves: int = _field(_integer(1, 64), 1)
    payment_enclaves: int = _field(_integer(1, 64), 1)
    interfaces: list[str] = _field(_list(_text), factory=list)  # distributed / p2p
    edges: list[tuple[str, str]] = _field(_list(_pair), factory=list)
    gossip_interval: float = _field(_number(0.001), 60.0)


@dataclass
class ServiceSpec:
    service_id: str = _field(_text, key="id")
    kind: str = _field(_choice(*SERVICE_KINDS))
    items: list[str] = _field(_list(_text), factory=list)
    ghosts: list[str] = _field(_list(_text), factory=list)
    policy: str = _field(_choice(*VOTE_POLICIES), VOTE_POLICIES[0])
    candidates: list[str] = _field(_list(_text), factory=list)
    coerced: list[str] = _field(_list(_text), factory=list)


def _service(raw, path: str) -> ServiceSpec:
    """A ``services[]`` entry, which may name only its own kind's ``FIELDS``."""
    spec = _parse(ServiceSpec, raw, path)
    foreign = raw.keys() - {"id", "kind", *SERVICE_KINDS[spec.kind].FIELDS}
    if foreign:
        raise SchemaError(f"{path}.{min(foreign)}", f"not a field of a {spec.kind} service")
    return spec


@dataclass
class OwnerServiceSpec:
    service_id: str = _field(_text, key="service")
    username: str = _field(_text)
    password: str = _field(_text)
    price: int = _field(_coins)  # base units per action
    allowed: list[str] = _field(_list(_text))
    accepts_revert_window: bool = _field(_flag, True)
    whitelist: list[str] | None = _field(_list(_text), None)  # None: any target


@dataclass
class OwnerSpec:
    owner_id: str = _field(_text, key="id")
    profile: str = _field(_choice(*OWNER_PROFILES), "honest")
    polls: bool = _field(_flag, True)
    revert_delay: float = _field(_number(0.0), 1.0)
    home_interface: str = _field(_text, "")  # distributed / p2p: enrolling node
    cpu: str = _field(_text, "")  # p2p registration identity
    services: list[OwnerServiceSpec] = _field(_list(_section(OwnerServiceSpec)),
                                              factory=list)

    def __post_init__(self):
        if not self.cpu:
            self.cpu = f"cpu:{self.owner_id}"  # one identity per owner


@dataclass
class CampaignSpec:
    service_id: str = _field(_text, key="service")
    action_kind: str = _field(_text, key="action")
    action_target: str = _field(_text, key="target")
    count: int = _field(_integer(1, 10_000))
    revert_window: float = _field(_number(0.0), 0.0)


@dataclass
class RenterSpec:
    renter_id: str = _field(_text, key="id")
    balance: int = _field(_coins)
    view: str = _field(_choice("honest_tip", "forged_fork"), "honest_tip")
    campaigns: list[CampaignSpec] = _field(_list(_section(CampaignSpec)), factory=list)


@dataclass
class CutSpec:
    cut_point: int | None = _field(_choice(*CUT_POINTS), None)
    kind: str | None = _field(_text, None)
    src: str | None = _field(_text, None)
    dst: str | None = _field(_text, None)
    # 0-based over all renters' campaigns, in file order
    campaign_index: int | None = _field(_integer(0), None)
    owner_id: str | None = _field(_text, None)
    step: int | None = _field(_integer(1), None)
    from_time: float = _field(_number(0.0), 0.0)
    until_time: float | None = _field(_number(0.0), None)
    rule_owner: str = _field(_text, "host")


@dataclass
class DelaySpec:
    extra: float = _field(_number(0.0))
    cut_point: int | None = _field(_choice(*CUT_POINTS), None)
    kind: str | None = _field(_text, None)
    dst: str | None = _field(_text, None)
    rule_owner: str = _field(_text, "host")


@dataclass
class KillSpec:
    actor: str = _field(_text)
    at: float = _field(_number(0.0))


@dataclass
class EclipseSpec:
    owner_id: str = _field(_text, key="owner")
    source: str = _field(_choice("renter_fork", "stale"))
    renter_id: str = _field(_text, "", key="renter")  # renter_fork
    height: int = _field(_integer(0), 0)  # stale: serve the honest chain truncated here


@dataclass
class HostSpec:
    cuts: list[CutSpec] = _field(_list(_section(CutSpec)), factory=list)
    delays: list[DelaySpec] = _field(_list(_section(DelaySpec)), factory=list)
    kills: list[KillSpec] = _field(_list(_section(KillSpec)), factory=list)
    eclipse: list[EclipseSpec] = _field(_list(_section(EclipseSpec)), factory=list)


@dataclass
class ScenarioSpec:
    name: str = _field(_text)
    seed: int = _field(_integer(0), 0)
    chain: ChainSpec = _field(_section(ChainSpec), factory=ChainSpec)
    economics: EconomicsSpec = _field(_section(EconomicsSpec), factory=EconomicsSpec)
    latency: LatencySpec = _field(_section(LatencySpec), factory=LatencySpec)
    timing: TimingSpec = _field(_section(TimingSpec), factory=TimingSpec)
    topology: TopologySpec = _field(_section(TopologySpec), factory=TopologySpec)
    services: list[ServiceSpec] = _field(_list(_service), factory=list)
    owners: list[OwnerSpec] = _field(_list(_section(OwnerSpec)), factory=list)
    renters: list[RenterSpec] = _field(_list(_section(RenterSpec)), factory=list)
    host: HostSpec = _field(_section(HostSpec), factory=HostSpec)
    maintainer_address: str = _field(_text, "maintainer")


# ----------------------------------------------------------------------


@cache
def _keys(cls) -> tuple[dict, tuple[str, ...]]:
    """YAML key -> (field name, check) for one section class, and the keys
    it requires."""
    table, required = {}, []
    for f in fields(cls):
        key, check = f.metadata["key"] or f.name, f.metadata["check"]
        table[key] = (f.name, _optional(check) if f.default is None else check)
        if f.default is MISSING and f.default_factory is MISSING:
            required.append(key)
    return table, tuple(required)


def _parse(cls, raw, path: str):
    if not isinstance(raw, dict):
        raise SchemaError(path, f"expected a mapping, got {type(raw).__name__}")
    keys, required = _keys(cls)
    unknown = raw.keys() - keys.keys()
    if unknown:
        raise SchemaError(f"{path}.{min(unknown, key=str)}", "unknown field")
    for key in required:
        if key not in raw:
            raise SchemaError(f"{path}.{key}", "missing required field")
    values = {}
    for key, value in raw.items():
        name, check = keys[key]
        values[name] = check(value, f"{path}.{key}")
    return cls(**values)


def _unique(ids: list[str], path: str, what: str) -> set[str]:
    if len(set(ids)) != len(ids):
        raise SchemaError(path, f"duplicate {what} id")
    return set(ids)


def _known(value: str, known, path: str, what: str) -> None:
    if value not in known:
        raise SchemaError(path, f"unknown {what} {value!r}")


def _check_references(spec: ScenarioSpec, source: str) -> None:
    """The checks that relate one section to another."""
    topology = spec.topology
    for i, (a, b) in enumerate(topology.edges):
        path = f"{source}.topology.edges[{i}]"
        _known(a, topology.interfaces, path, "interface")
        _known(b, topology.interfaces, path, "interface")
        if a == b:
            raise SchemaError(path, "an edge joins two different interfaces")
    if topology.mode in ("distributed", "p2p") and not topology.interfaces:
        raise SchemaError(f"{source}.topology.interfaces",
                          f"{topology.mode} mode needs interface nodes")
    if topology.mode == "centralized" and topology.interfaces:
        raise SchemaError(f"{source}.topology.interfaces",
                          "centralized mode takes no interface list")
    if topology.mode == "p2p":
        for key in ("cuts", "delays", "kills", "eclipse"):
            if getattr(spec.host, key):
                raise SchemaError(f"{source}.host.{key}", "p2p mode sends nothing over "
                                  "the simulated wire, so it takes no host script")

    service_ids = _unique([s.service_id for s in spec.services],
                          f"{source}.services", "service")
    for i, owner in enumerate(spec.owners):
        path = f"{source}.owners[{i}]"
        if owner.home_interface:
            _known(owner.home_interface, topology.interfaces,
                   f"{path}.home_interface", "interface")
        for j, entry in enumerate(owner.services):
            _known(entry.service_id, service_ids, f"{path}.services[{j}].service", "service")
            if not entry.allowed:
                raise SchemaError(f"{path}.services[{j}].allowed", "expected a non-empty list")
    owner_ids = _unique([o.owner_id for o in spec.owners], f"{source}.owners", "owner")

    campaigns = 0
    for i, renter in enumerate(spec.renters):
        for j, campaign in enumerate(renter.campaigns):
            _known(campaign.service_id, service_ids,
                   f"{source}.renters[{i}].campaigns[{j}].service", "service")
        campaigns += len(renter.campaigns)
    renter_ids = _unique([r.renter_id for r in spec.renters], f"{source}.renters", "renter")

    for i, cut in enumerate(spec.host.cuts):
        path = f"{source}.host.cuts[{i}]"
        if cut.owner_id is not None:
            _known(cut.owner_id, owner_ids, f"{path}.owner_id", "owner")
        if cut.campaign_index is not None:
            _bounds(cut.campaign_index, f"{path}.campaign_index", None, campaigns - 1)
    for i, entry in enumerate(spec.host.eclipse):
        path = f"{source}.host.eclipse[{i}]"
        _known(entry.owner_id, owner_ids, f"{path}.owner", "owner")
        if entry.source == "renter_fork":
            _known(entry.renter_id, renter_ids, f"{path}.renter", "renter")


def parse_scenario(raw: dict, source: str = "scenario") -> ScenarioSpec:
    spec = _parse(ScenarioSpec, raw, source)
    _check_references(spec, source)
    return spec


def load_scenario(path: str | Path, seed_override: int | None = None) -> ScenarioSpec:
    """Read, parse and validate one scenario file. A file that cannot be
    read, is not YAML or breaks the schema raises SchemaError.

    SAFE_LOADER composes the file into a node tree and builds the document
    in one walk of it (TreeWalk): text scalars, lists, and maps with only
    text keys it builds itself; numbers, booleans, nulls, timestamps, other
    tags and maps with any other key it hands to PyYAML's own constructors,
    so a node that PyYAML refuses, with a YAML error or with a Python error
    on a tagged scalar it cannot build, is "not valid YAML" here.

    The YAML parse and the validation run with the cyclic collector paused,
    and it is turned back on only if it was on when the call began. Neither
    the YAML tree nor the spec holds a cycle, so reference counting frees
    them. With the collector on, every young collection would rescan the
    growing tree, and the survivors would bring the next full collection
    forward into the run."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(str(path), f"cannot read the file: {exc}") from None
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            raw = yaml.load(text, Loader=SAFE_LOADER)
        except yaml.YAMLError as exc:
            raise SchemaError(str(path), f"not valid YAML: {exc}") from None
        spec = parse_scenario(raw, source=Path(path).stem)
    finally:
        if collecting:
            gc.enable()
    if seed_override is not None:
        spec.seed = seed_override
    return spec
