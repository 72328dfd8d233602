"""Benchmark workloads: the inputs each run hands to leasim.

Every workload is a list of scenario files. The bundled one is the scenario
pack shipped with leasim; the other two are generated here from the workload
seed and written as YAML, so the program only ever sees a scenario file,
loaded through the same ``load_scenario`` path a user's ``leasim run`` takes.

- ``bundled``: the 14 protocol stories, short and dominated by PoW mining and
  set-up. A PoW-kernel change shows here; an event-loop change barely does.
- ``ladder``: one honest social campaign of 800 slots with ``normal`` latency.
  Owner polls grow as n^2, so message send/deliver, event-log emission and
  memory dominate and mining is a minor share.
- ``hostile``: the same campaign shape at 400 slots plus 1/8 spare owners
  under a host script (owner-scoped cut-2 and cut-5 rules, a cut-3 delay and
  a payment-enclave kill mid-settlement). Every send walks ~90 drop rules, and
  the run adds substitution, key-escrow recovery, burns and mixed verdicts.
"""
from __future__ import annotations

import random
from pathlib import Path

import yaml

from leasim.service_enclave import LatencyModel

WORKLOADS = ("bundled", "ladder", "hostile")

LADDER_SLOTS = 800
HOSTILE_SLOTS = 400
SERVICE_ENCLAVES = 4
PAYMENT_ENCLAVES = 4
PRICES = ("1.5", "2", "2.5", "3", "3.5")

_BLOCK_INTERVAL = 15.0
_CONFIRMATIONS = 6
# Virtual seconds used only to place the kill in the middle of the
# settlement phase: a payment enclave proves one settlement per
# LatencyModel.snark_mean seconds on average, and under this host script a
# service enclave spends about 6.3 s per slot (pipeline, the cut-3 delay,
# verification), measured at 400 slots. The benchmark's tests check that the
# kill lands between payment_start and payment_end.
_HOSTILE_SLOT_S = 6.3


def bundled_paths(src: Path) -> list[Path]:
    """The bundled scenario pack in sorted order."""
    return sorted((src / "leasim" / "scenarios").glob("*.yaml"))


def _campaign(name: str, seed: int, slots: int, owners: int) -> tuple[dict, random.Random]:
    rng = random.Random(f"{name}:{seed}")
    owner_list = []
    for i in range(1, owners + 1):
        owner_list.append({
            "id": f"o{i:04d}",
            "services": [{
                "service": "social",
                "username": f"user{i:04d}",
                "password": f"pw-{i:04d}",
                "price": rng.choice(PRICES),
                "allowed": ["upvote"],
            }],
        })
    raw = {
        "name": f"{name}{slots}",
        "seed": rng.randrange(1 << 30),
        "chain": {"difficulty_bits": 12, "block_interval": _BLOCK_INTERVAL,
                  "confirmation_depth": _CONFIRMATIONS},
        "latency": {"model": "normal"},
        "timing": {"horizon": 10.0 * slots + 600.0},
        "topology": {"mode": "centralized", "service_enclaves": SERVICE_ENCLAVES,
                     "payment_enclaves": PAYMENT_ENCLAVES},
        "services": [{"id": "social", "kind": "social", "items": ["item1"]}],
        "owners": owner_list,
        "renters": [{
            "id": "r1",
            "balance": str(10 * slots),
            "campaigns": [{"service": "social", "action": "upvote",
                           "target": "item1", "count": slots}],
        }],
    }
    return raw, rng


def ladder(seed: int, slots: int = LADDER_SLOTS) -> dict:
    """One honest campaign: every owner serves one slot, no host script."""
    raw, _rng = _campaign("ladder", seed, slots, slots)
    return raw


def hostile(seed: int, slots: int = HOSTILE_SLOTS) -> dict:
    """The ladder's campaign shape with spares, under a host script."""
    owners = slots + slots // 8
    raw, rng = _campaign("hostile", seed, slots, owners)
    ids = [o["id"] for o in raw["owners"]]
    picked = rng.sample(ids, 2 * (owners // 10))
    half = len(picked) // 2
    cuts = [{"cut_point": 2, "owner_id": oid} for oid in sorted(picked[:half])]
    cuts += [{"cut_point": 5, "owner_id": oid} for oid in sorted(picked[half:])]
    per_service = -(-slots // SERVICE_ENCLAVES)
    per_payment = -(-slots // PAYMENT_ENCLAVES)
    settle_mid = (1.0 + _BLOCK_INTERVAL * _CONFIRMATIONS + per_service * _HOSTILE_SLOT_S
                  + per_payment * LatencyModel().snark_mean / 2)
    raw["host"] = {
        "cuts": cuts,
        "delays": [{"cut_point": 3, "extra": 1.0}],
        "kills": [{"actor": "payenc:0:1", "at": round(settle_mid, 3)}],
    }
    return raw


def scenario_files(workload: str, seed: int, src: Path, out_dir: Path) -> list[Path]:
    """Paths of the scenario files one pass of the workload runs."""
    if workload == "bundled":
        return bundled_paths(src)
    raw = {"ladder": ladder, "hostile": hostile}[workload](seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-{seed}.yaml"
    path.write_text(render(raw))
    return [path]


def render(raw: dict) -> str:
    return yaml.safe_dump(raw, sort_keys=False, default_flow_style=None)
