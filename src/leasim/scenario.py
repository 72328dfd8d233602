"""Scenario files: the YAML schema and its validation.

A scenario is the complete, deterministic description of one simulated world:
chain parameters, economics, latency model, topology, services, owners,
renters with their campaign intents, and the host's adversarial script
(cuts, delays, kills, eclipse feeds). Validation is strict; a bad field
raises SchemaError naming the exact path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import yaml

from .coins import coins, rate
from .gossip import MODES
from .parties import OWNER_PROFILES
from .simnet import CUT_POINTS

# libyaml's safe loader, when PyYAML was built with it: it builds the same
# objects as yaml.SafeLoader about ten times faster on large scenario files.
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class SchemaError(Exception):
    def __init__(self, field_path: str, cause: str):
        self.field = field_path
        self.cause = cause
        super().__init__(f"{field_path}: {cause}")


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown field")


def _number(value, path: str, *, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SchemaError(path, f"must be <= {maximum}, got {value}")
    return float(value)


def _integer(value, path: str, *, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    _number(value, path, minimum=minimum, maximum=maximum)
    return value


def _text(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(path, f"expected a non-empty string, got {value!r}")
    return value


def _optional_text(value, path: str) -> str | None:
    return None if value is None else _text(value, path)


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


# ----------------------------------------------------------------------


@dataclass
class ChainSpec:
    difficulty_bits: int = 12
    block_interval: float = 15.0
    confirmation_depth: int = 6


@dataclass
class EconomicsSpec:
    deposit_rate: Fraction = Fraction(1, 10)
    fee_rate: Fraction = Fraction(1, 20)


@dataclass
class LatencySpec:
    model: str = "fixed"  # fixed | normal


@dataclass
class TimingSpec:
    poll_interval: float = 30.0
    liveness_window: float = 60.0
    horizon: float = 3600.0


@dataclass
class TopologySpec:
    mode: str = "centralized"
    service_enclaves: int = 1
    payment_enclaves: int = 1
    interfaces: list[str] = field(default_factory=list)  # distributed / p2p
    edges: list[tuple[str, str]] = field(default_factory=list)
    gossip_interval: float = 60.0


@dataclass
class ServiceSpec:
    service_id: str
    kind: str  # social | voting
    collusion: bool = False
    items: list[str] = field(default_factory=list)
    hidden_items: list[str] = field(default_factory=list)
    ghosts: list[str] = field(default_factory=list)
    policy: str = "first_counts"  # voting only
    candidates: list[str] = field(default_factory=list)
    coerced: list[str] = field(default_factory=list)


@dataclass
class OwnerServiceSpec:
    service_id: str
    username: str
    password: str
    price: int  # base units per action
    allowed: list[str]
    accepts_revert_window: bool = True
    whitelist: list[str] | None = None


@dataclass
class OwnerSpec:
    owner_id: str
    profile: str = "honest"
    polls: bool = True
    revert_delay: float = 1.0
    home_interface: str = ""  # distributed / p2p: enrolling node
    cpu: str = ""  # p2p registration identity; defaults to one per owner
    services: list[OwnerServiceSpec] = field(default_factory=list)


@dataclass
class CampaignSpec:
    service_id: str
    action_kind: str
    action_target: str
    count: int
    revert_window: float = 0.0


@dataclass
class RenterSpec:
    renter_id: str
    balance: int
    view: str = "honest_tip"
    campaigns: list[CampaignSpec] = field(default_factory=list)


@dataclass
class CutSpec:
    cut_point: int | None = None
    kind: str | None = None
    src: str | None = None
    dst: str | None = None
    campaign_index: int | None = None  # 0-based over all renters' campaigns, in file order
    owner_id: str | None = None
    step: int | None = None
    from_time: float = 0.0
    until_time: float | None = None
    rule_owner: str = "host"


@dataclass
class DelaySpec:
    extra: float
    cut_point: int | None = None
    kind: str | None = None
    dst: str | None = None
    rule_owner: str = "host"


@dataclass
class KillSpec:
    actor: str
    at: float


@dataclass
class EclipseSpec:
    owner_id: str
    source: str  # renter_fork | stale
    renter_id: str = ""  # renter_fork
    height: int = 0  # stale: serve the honest chain truncated here


@dataclass
class HostSpec:
    cuts: list[CutSpec] = field(default_factory=list)
    delays: list[DelaySpec] = field(default_factory=list)
    kills: list[KillSpec] = field(default_factory=list)
    eclipse: list[EclipseSpec] = field(default_factory=list)


@dataclass
class ScenarioSpec:
    name: str
    seed: int
    chain: ChainSpec
    economics: EconomicsSpec
    latency: LatencySpec
    timing: TimingSpec
    topology: TopologySpec
    services: list[ServiceSpec]
    owners: list[OwnerSpec]
    renters: list[RenterSpec]
    host: HostSpec
    maintainer_address: str = "maintainer"

    def service(self, service_id: str) -> ServiceSpec:
        for spec in self.services:
            if spec.service_id == service_id:
                return spec
        raise KeyError(service_id)


# ----------------------------------------------------------------------


def parse_scenario(raw: dict, source: str = "scenario") -> ScenarioSpec:
    if not isinstance(raw, dict):
        raise SchemaError(source, "top level must be a mapping")
    _check_keys(raw, {
        "name", "seed", "chain", "economics", "latency", "timing", "topology",
        "services", "owners", "renters", "host", "maintainer_address",
    }, source)

    name = _text(_require(raw, "name", source), f"{source}.name")
    seed = _integer(raw.get("seed", 0), f"{source}.seed", minimum=0)

    chain = _parse_chain(raw.get("chain", {}), f"{source}.chain")
    economics = _parse_economics(raw.get("economics", {}), f"{source}.economics")
    latency = _parse_latency(raw.get("latency", {}), f"{source}.latency")
    timing = _parse_timing(raw.get("timing", {}), f"{source}.timing")
    topology = _parse_topology(raw.get("topology", {}), f"{source}.topology")

    services = [
        _parse_service(entry, f"{source}.services[{i}]")
        for i, entry in enumerate(raw.get("services", []))
    ]
    service_ids = {s.service_id for s in services}
    if len(service_ids) != len(services):
        raise SchemaError(f"{source}.services", "duplicate service id")

    owners = [
        _parse_owner(entry, f"{source}.owners[{i}]", service_ids, topology)
        for i, entry in enumerate(raw.get("owners", []))
    ]
    owner_ids = {o.owner_id for o in owners}
    if len(owner_ids) != len(owners):
        raise SchemaError(f"{source}.owners", "duplicate owner id")

    renters = [
        _parse_renter(entry, f"{source}.renters[{i}]", service_ids)
        for i, entry in enumerate(raw.get("renters", []))
    ]
    renter_ids = {r.renter_id for r in renters}
    if len(renter_ids) != len(renters):
        raise SchemaError(f"{source}.renters", "duplicate renter id")

    host = _parse_host(raw.get("host", {}), f"{source}.host", owner_ids, renter_ids,
                       sum(len(r.campaigns) for r in renters))

    eclipsed_owners = {e.owner_id for e in host.eclipse}
    for i, owner in enumerate(owners):
        if owner.profile == "eclipsed" and owner.owner_id not in eclipsed_owners:
            raise SchemaError(f"{source}.owners[{i}].profile",
                              "eclipsed owner has no host.eclipse entry")

    return ScenarioSpec(
        name=name, seed=seed, chain=chain, economics=economics, latency=latency,
        timing=timing, topology=topology, services=services, owners=owners,
        renters=renters, host=host,
        maintainer_address=_text(raw.get("maintainer_address", "maintainer"),
                                 f"{source}.maintainer_address"),
    )


def load_scenario(path: str | Path, seed_override: int | None = None) -> ScenarioSpec:
    text = Path(path).read_text()
    try:
        raw = yaml.load(text, Loader=SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError(str(path), f"not valid YAML: {exc}") from None
    spec = parse_scenario(raw, source=Path(path).stem)
    if seed_override is not None:
        spec.seed = seed_override
    return spec


# -- section parsers ---------------------------------------------------


def _parse_chain(raw: dict, path: str) -> ChainSpec:
    _check_keys(raw, {"difficulty_bits", "block_interval", "confirmation_depth"}, path)
    return ChainSpec(
        difficulty_bits=_integer(raw.get("difficulty_bits", 12),
                                 f"{path}.difficulty_bits", minimum=1, maximum=28),
        block_interval=_number(raw.get("block_interval", 15.0),
                               f"{path}.block_interval", minimum=0.001),
        confirmation_depth=_integer(raw.get("confirmation_depth", 6),
                                    f"{path}.confirmation_depth", minimum=1),
    )


def _parse_economics(raw: dict, path: str) -> EconomicsSpec:
    _check_keys(raw, {"deposit_rate", "fee_rate"}, path)
    return EconomicsSpec(
        deposit_rate=_rate(raw.get("deposit_rate", "0.1"), f"{path}.deposit_rate"),
        fee_rate=_rate(raw.get("fee_rate", "0.05"), f"{path}.fee_rate"),
    )


def _parse_latency(raw: dict, path: str) -> LatencySpec:
    _check_keys(raw, {"model"}, path)
    model = raw.get("model", "fixed")
    if model not in ("fixed", "normal"):
        raise SchemaError(f"{path}.model", f"expected fixed or normal, got {model!r}")
    return LatencySpec(model=model)


def _parse_timing(raw: dict, path: str) -> TimingSpec:
    _check_keys(raw, {"poll_interval", "liveness_window", "horizon"}, path)
    return TimingSpec(
        poll_interval=_number(raw.get("poll_interval", 30.0),
                              f"{path}.poll_interval", minimum=0.001),
        liveness_window=_number(raw.get("liveness_window", 60.0),
                                f"{path}.liveness_window", minimum=0.001),
        horizon=_number(raw.get("horizon", 3600.0), f"{path}.horizon", minimum=1.0),
    )


def _parse_topology(raw: dict, path: str) -> TopologySpec:
    _check_keys(raw, {"mode", "service_enclaves", "payment_enclaves",
                      "interfaces", "edges", "gossip_interval"}, path)
    mode = raw.get("mode", "centralized")
    if mode not in MODES:
        raise SchemaError(f"{path}.mode", f"unknown mode {mode!r}")
    interfaces = [
        _text(v, f"{path}.interfaces[{i}]")
        for i, v in enumerate(raw.get("interfaces", []))
    ]
    edges = []
    for i, pair in enumerate(raw.get("edges", [])):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}.edges[{i}]", "expected a [a, b] pair")
        a, b = (_text(v, f"{path}.edges[{i}]") for v in pair)
        for end in (a, b):
            if end not in interfaces:
                raise SchemaError(f"{path}.edges[{i}]", f"unknown interface {end!r}")
        edges.append((a, b))
    if mode in ("distributed", "p2p") and not interfaces:
        raise SchemaError(f"{path}.interfaces", f"{mode} mode needs interface nodes")
    if mode == "centralized" and interfaces:
        raise SchemaError(f"{path}.interfaces", "centralized mode takes no interface list")
    return TopologySpec(
        mode=mode,
        service_enclaves=_integer(raw.get("service_enclaves", 1),
                                  f"{path}.service_enclaves", minimum=1, maximum=64),
        payment_enclaves=_integer(raw.get("payment_enclaves", 1),
                                  f"{path}.payment_enclaves", minimum=1, maximum=64),
        interfaces=interfaces,
        edges=edges,
        gossip_interval=_number(raw.get("gossip_interval", 60.0),
                                f"{path}.gossip_interval", minimum=0.001),
    )


def _parse_service(raw: dict, path: str) -> ServiceSpec:
    _check_keys(raw, {"id", "kind", "collusion", "items", "hidden_items",
                      "ghosts", "policy", "candidates", "coerced"}, path)
    kind = _text(_require(raw, "kind", path), f"{path}.kind")
    if kind not in ("social", "voting"):
        raise SchemaError(f"{path}.kind", f"expected social or voting, got {kind!r}")
    policy = raw.get("policy", "first_counts")
    if policy not in ("first_counts", "last_counts"):
        raise SchemaError(f"{path}.policy", f"unknown vote policy {policy!r}")
    return ServiceSpec(
        service_id=_text(_require(raw, "id", path), f"{path}.id"),
        kind=kind,
        collusion=_flag(raw.get("collusion", False), f"{path}.collusion"),
        items=[_text(v, f"{path}.items[{i}]") for i, v in enumerate(raw.get("items", []))],
        hidden_items=[_text(v, f"{path}.hidden_items[{i}]")
                      for i, v in enumerate(raw.get("hidden_items", []))],
        ghosts=[_text(v, f"{path}.ghosts[{i}]") for i, v in enumerate(raw.get("ghosts", []))],
        policy=policy,
        candidates=[_text(v, f"{path}.candidates[{i}]")
                    for i, v in enumerate(raw.get("candidates", []))],
        coerced=[_text(v, f"{path}.coerced[{i}]")
                 for i, v in enumerate(raw.get("coerced", []))],
    )


def _parse_owner(raw: dict, path: str, service_ids: set[str],
                 topology: TopologySpec) -> OwnerSpec:
    _check_keys(raw, {"id", "profile", "polls", "revert_delay",
                      "home_interface", "cpu", "services"}, path)
    profile = raw.get("profile", "honest")
    if profile not in OWNER_PROFILES:
        raise SchemaError(f"{path}.profile", f"unknown profile {profile!r}")
    home = raw.get("home_interface", "")
    if home and home not in topology.interfaces:
        raise SchemaError(f"{path}.home_interface", f"unknown interface {home!r}")
    owner_id = _text(_require(raw, "id", path), f"{path}.id")
    services = []
    for i, entry in enumerate(raw.get("services", [])):
        spath = f"{path}.services[{i}]"
        _check_keys(entry, {"service", "username", "password", "price", "allowed",
                            "accepts_revert_window", "whitelist"}, spath)
        sid = _text(_require(entry, "service", spath), f"{spath}.service")
        if sid not in service_ids:
            raise SchemaError(f"{spath}.service", f"unknown service {sid!r}")
        allowed = entry.get("allowed", [])
        if not isinstance(allowed, list) or not allowed:
            raise SchemaError(f"{spath}.allowed", "expected a non-empty list")
        whitelist = entry.get("whitelist")
        if whitelist is not None:
            whitelist = [_text(v, f"{spath}.whitelist[{j}]")
                         for j, v in enumerate(whitelist)]
        services.append(OwnerServiceSpec(
            service_id=sid,
            username=_text(_require(entry, "username", spath), f"{spath}.username"),
            password=_text(_require(entry, "password", spath), f"{spath}.password"),
            price=_coins(_require(entry, "price", spath), f"{spath}.price"),
            allowed=[_text(v, f"{spath}.allowed[{j}]") for j, v in enumerate(allowed)],
            accepts_revert_window=_flag(entry.get("accepts_revert_window", True),
                                        f"{spath}.accepts_revert_window"),
            whitelist=whitelist,
        ))
    return OwnerSpec(
        owner_id=owner_id,
        profile=profile,
        polls=_flag(raw.get("polls", True), f"{path}.polls"),
        revert_delay=_number(raw.get("revert_delay", 1.0), f"{path}.revert_delay",
                             minimum=0.0),
        home_interface=home,
        cpu=_text(raw.get("cpu", f"cpu:{owner_id}"), f"{path}.cpu"),
        services=services,
    )


def _parse_renter(raw: dict, path: str, service_ids: set[str]) -> RenterSpec:
    _check_keys(raw, {"id", "balance", "view", "campaigns"}, path)
    view = raw.get("view", "honest_tip")
    if view not in ("honest_tip", "forged_fork"):
        raise SchemaError(f"{path}.view", f"unknown view {view!r}")
    campaigns = []
    for i, entry in enumerate(raw.get("campaigns", [])):
        cpath = f"{path}.campaigns[{i}]"
        _check_keys(entry, {"service", "action", "target", "count", "revert_window"},
                    cpath)
        sid = _text(_require(entry, "service", cpath), f"{cpath}.service")
        if sid not in service_ids:
            raise SchemaError(f"{cpath}.service", f"unknown service {sid!r}")
        campaigns.append(CampaignSpec(
            service_id=sid,
            action_kind=_text(_require(entry, "action", cpath), f"{cpath}.action"),
            action_target=_text(_require(entry, "target", cpath), f"{cpath}.target"),
            count=_integer(_require(entry, "count", cpath), f"{cpath}.count",
                           minimum=1, maximum=10_000),
            revert_window=_number(entry.get("revert_window", 0.0),
                                  f"{cpath}.revert_window", minimum=0.0),
        ))
    return RenterSpec(
        renter_id=_text(_require(raw, "id", path), f"{path}.id"),
        balance=_coins(_require(raw, "balance", path), f"{path}.balance"),
        view=view,
        campaigns=campaigns,
    )


def _parse_host(raw: dict, path: str, owner_ids: set[str],
                renter_ids: set[str], campaigns: int) -> HostSpec:
    _check_keys(raw, {"cuts", "delays", "kills", "eclipse"}, path)
    cuts = []
    for i, entry in enumerate(raw.get("cuts", [])):
        cpath = f"{path}.cuts[{i}]"
        _check_keys(entry, {"cut_point", "kind", "src", "dst", "campaign_index",
                            "owner_id", "step", "from_time", "until_time",
                            "rule_owner"}, cpath)
        cut_point = entry.get("cut_point")
        if cut_point is not None and cut_point not in CUT_POINTS:
            raise SchemaError(f"{cpath}.cut_point", f"unknown cut point {cut_point}")
        owner_id = entry.get("owner_id")
        if owner_id is not None and owner_id not in owner_ids:
            raise SchemaError(f"{cpath}.owner_id", f"unknown owner {owner_id!r}")
        index, step = entry.get("campaign_index"), entry.get("step")
        if index is not None:
            _integer(index, f"{cpath}.campaign_index", minimum=0, maximum=campaigns - 1)
        if step is not None:
            _integer(step, f"{cpath}.step", minimum=1)
        until = entry.get("until_time")
        cuts.append(CutSpec(
            cut_point=cut_point,
            kind=_optional_text(entry.get("kind"), f"{cpath}.kind"),
            src=_optional_text(entry.get("src"), f"{cpath}.src"),
            dst=_optional_text(entry.get("dst"), f"{cpath}.dst"),
            campaign_index=index,
            owner_id=owner_id,
            step=step,
            from_time=_number(entry.get("from_time", 0.0), f"{cpath}.from_time",
                              minimum=0.0),
            until_time=None if until is None else _number(
                until, f"{cpath}.until_time", minimum=0.0),
            rule_owner=_text(entry.get("rule_owner", "host"), f"{cpath}.rule_owner"),
        ))
    delays = []
    for i, entry in enumerate(raw.get("delays", [])):
        dpath = f"{path}.delays[{i}]"
        _check_keys(entry, {"extra", "cut_point", "kind", "dst", "rule_owner"}, dpath)
        cut_point = entry.get("cut_point")
        if cut_point is not None and cut_point not in CUT_POINTS:
            raise SchemaError(f"{dpath}.cut_point", f"unknown cut point {cut_point}")
        delays.append(DelaySpec(
            extra=_number(_require(entry, "extra", dpath), f"{dpath}.extra",
                          minimum=0.0),
            cut_point=cut_point,
            kind=_optional_text(entry.get("kind"), f"{dpath}.kind"),
            dst=_optional_text(entry.get("dst"), f"{dpath}.dst"),
            rule_owner=_text(entry.get("rule_owner", "host"), f"{dpath}.rule_owner"),
        ))
    kills = []
    for i, entry in enumerate(raw.get("kills", [])):
        kpath = f"{path}.kills[{i}]"
        _check_keys(entry, {"actor", "at"}, kpath)
        kills.append(KillSpec(
            actor=_text(_require(entry, "actor", kpath), f"{kpath}.actor"),
            at=_number(_require(entry, "at", kpath), f"{kpath}.at", minimum=0.0),
        ))
    eclipse = []
    for i, entry in enumerate(raw.get("eclipse", [])):
        epath = f"{path}.eclipse[{i}]"
        _check_keys(entry, {"owner", "source", "renter", "height"}, epath)
        owner_id = _text(_require(entry, "owner", epath), f"{epath}.owner")
        if owner_id not in owner_ids:
            raise SchemaError(f"{epath}.owner", f"unknown owner {owner_id!r}")
        source = _text(_require(entry, "source", epath), f"{epath}.source")
        if source not in ("renter_fork", "stale"):
            raise SchemaError(f"{epath}.source", f"unknown eclipse source {source!r}")
        renter_id = entry.get("renter", "")
        if source == "renter_fork":
            if renter_id not in renter_ids:
                raise SchemaError(f"{epath}.renter", f"unknown renter {renter_id!r}")
        eclipse.append(EclipseSpec(
            owner_id=owner_id, source=source, renter_id=renter_id,
            height=_integer(entry.get("height", 0), f"{epath}.height", minimum=0),
        ))
    return HostSpec(cuts=cuts, delays=delays, kills=kills, eclipse=eclipse)
