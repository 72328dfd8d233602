"""Check that this tree's reports match another revision's, byte for byte.

Usage (from the repository root): ``python tools/same_output.py REV``

Exports ``src/`` of the git revision REV into a temporary directory and
writes the benchmark's generated scenarios there, ``ladder`` and ``hostile``
at seeds 0-23, through ``perfbench/workloads.py``. Then one child process per
side (REV's ``src/`` and this tree's ``src/``, each with ``PYTHONHASHSEED=0``)
runs the 14 bundled scenarios of this tree and the 48 generated ones, and for
each prints the SHA-256 of the JSON report (``canonical_json``), of the text
report (``render_report``), of the ``leasim verify`` lines and of the run's
outcome: the verdicts with their evidence, the party balances, each
campaign's phase marks, each slot's status and whether its settlement
landed, which ``verify`` checks passed, and a p2p world's registrations,
CPU bindings and flood results (``report["p2p"]``). Both sides run the same scenario
files, so only the program differs.

A change to message plumbing moves the event log, and so every report's
``event_digest``, without moving any outcome: for each scenario whose bytes
differ, the tool also says whether its outcome is equal.

Exit status: 0 with "62 scenarios identical"; 1 with one line per scenario
whose output differs, then "K of 62 scenarios differ" and how many of them
differ in outcome; 2 when a child fails.
"""
from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(24)

# Run in each child with argv = scenario paths; prints one line per scenario.
CHILD = """
import hashlib, sys
from leasim.report import build_report, canonical_json, render_report, verify_world
from leasim.runner import run_scenario
from leasim.scenario import load_scenario

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()

for path in sys.argv[1:]:
    world = run_scenario(load_scenario(path))
    report = build_report(world)
    results = verify_world(world)
    checks = "".join(f"{'PASS' if ok else 'FAIL'} {name}: {why}\\n"
                     for name, ok, why in results)
    outcome = {
        "verdicts": report["verdicts"],
        "parties": report["parties"],
        "campaigns": [
            {"phases": c["phases"],
             "slots": [[s["slot_id"], s["status"], s["settlement"]["landed"]]
                       for s in c["slots"]]}
            for c in report["campaigns"]],
        "verify": [[name, ok] for name, ok, _why in results],
        "p2p": report.get("p2p"),
    }
    print(sha(canonical_json(report)), sha(render_report(report)), sha(checks),
          sha(canonical_json(outcome)), flush=True)
"""


def export_src(rev: str, dest: Path) -> Path:
    """Unpack ``src/`` of ``rev`` under ``dest``; returns that ``src``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def scenarios(out_dir: Path) -> list[tuple[str, Path]]:
    """(name, path) of the bundled scenarios and the generated ones."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    found = [(p.stem, p) for p in workloads.bundled_paths(ROOT / "src")]
    for workload in ("ladder", "hostile"):
        for seed in SEEDS:
            path, = workloads.scenario_files(workload, seed, ROOT / "src", out_dir)
            found.append((f"{workload}-{seed}", path))
    return found


def start(src: Path, paths: list[Path]) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", CHILD, *map(str, paths)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        try:
            theirs = export_src(rev, tmp_path)
        except subprocess.CalledProcessError as exc:
            print(f"git archive {rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        found = scenarios(tmp_path / "scenarios")
        paths = [path for _name, path in found]
        children = [(rev, start(theirs, paths)), ("this tree", start(ROOT / "src", paths))]
        results = [(side, *child.communicate(), child.returncode)
                   for side, child in children]
    outputs = []
    for side, out, err, code in results:
        if code != 0:
            print(f"{side}: child exited {code}\n{err}", file=sys.stderr)
            return 2
        outputs.append(out.splitlines())
    differ = moved = 0
    for (name, _path), base, ours in zip(found, *outputs):
        *ours, our_outcome = ours.split()
        *base, base_outcome = base.split()
        if ours != base:
            differ += 1
            kinds = [kind for kind, a, b in zip(("json", "text", "verify"), ours, base)
                     if a != b]
            same = our_outcome == base_outcome
            moved += not same
            print(f"{name}: {', '.join(kinds)} output differs from {rev}; "
                  f"outcome {'equal' if same else 'differs'}")
    if differ:
        print(f"{differ} of {len(found)} scenarios differ, "
              f"{moved} of them in outcome")
        return 1
    print(f"{len(found)} scenarios identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
