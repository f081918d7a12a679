"""Compare two sets of end-to-end results; keep the benchmark's history.

Both commands read the JSON records ``run.py --out`` writes (one file
per run, any names, ``*.json``).  From the repository root::

    python3 benchmarks/e2e/compare.py diff PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py record RESULTS_DIR [--commit SHA]

``diff`` pairs the i-th parent run with the i-th change run of each
workload (by start time) and prints one row per workload and metric.
A change is a ``gain`` only when there are at least 10 pairs, it wins
at least 9 in 10 of them (ties count for neither side) and the medians
differ by more than the parent's interquartile range.  Otherwise an
end-to-end metric is a ``regression`` when the change's median is worse
by more than the metric's bound in ``BENCHMARK.json`` and either both
sides' spreads (IQR over median) are within the bound or every change
run is worse than every parent run; ``unresolved`` when a spread
exceeds the bound and not every change run beats every parent run; and
``within bound`` else.
Run the pairs alternating which side goes first; ``diff`` says whether
they did.

``record`` appends one line (commit, environment, per-workload medians,
spreads and verdict digests) to ``history.jsonl`` beside this file.
The file is append-only: it keeps the benchmark's trajectory across
commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HISTORY = HERE / "history.jsonl"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[tuple[str, bool], list[dict]]:
    """Records grouped by ``(workload, traced)``, oldest first."""
    groups: dict[tuple[str, bool], list[dict]] = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        groups[record["workload"], record["trace"]].append(record)
    for records in groups.values():
        records.sort(key=lambda r: r["unix_time"])
    return groups


def declared() -> dict[str, dict]:
    """Every metric ``BENCHMARK.json`` declares, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: list[float], change: list[float], better: str,
          bound: float | None) -> dict:
    """Apply the pairing rule to one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (cm - pm) > p3 - p1):
        verdict = "gain"
    elif bound is None:
        verdict = "-"
    elif worse > bound and (all_worse or spread <= bound):
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "delta": (cm - pm) / abs(pm) if pm else 0.0,
            "wins": wins, "pairs": len(pairs), "spread": spread,
            "verdict": verdict}


def alternates(parent: list[dict], change: list[dict]) -> bool:
    """Did consecutive pairs alternate which side ran first?"""
    firsts = [p["unix_time"] < c["unix_time"] for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def diff(parent_dir: Path, change_dir: Path) -> int:
    parents, changes = load(parent_dir), load(change_dir)
    metrics = declared()
    header = (f"{'workload':<12} {'metric':<28} {'parent median [q1, q3]':>34} "
              f"{'change median':>14} {'delta':>8} {'wins':>7}  verdict")
    print(header)
    regressions = 0
    for key in sorted(set(parents) & set(changes)):
        p_runs, c_runs = parents[key], changes[key]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        for name in p_runs[0]["metrics"]:
            spec = metrics.get(name)
            if spec is None or any(name not in r["metrics"] for r in c_runs):
                continue
            row = judge([r["metrics"][name]["value"] for r in p_runs],
                        [r["metrics"][name]["value"] for r in c_runs],
                        spec["better"], spec.get("bound"))
            regressions += row["verdict"] == "regression"
            q1, med, q3 = row["parent"]
            parent = f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
            wins = f"{row['wins']}/{row['pairs']}"
            print(f"{key[0]:<12} {name:<28} {parent:>34} "
                  f"{row['change'][1]:>14.6g} {row['delta']:>+8.2%} "
                  f"{wins:>7}  {row['verdict']}")
        if not alternates(p_runs, c_runs):
            print(f"{key[0]:<12} (pairs did not alternate which side ran "
                  "first)")
        if {r["digest"] for r in p_runs} != {r["digest"] for r in c_runs}:
            print(f"{key[0]:<12} (verdict digests differ between the sets)")
    return 1 if regressions else 0


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(results_dir: Path, sha: str | None, note: str | None) -> dict:
    """Append one history line summarizing a set of runs."""
    workloads: dict[str, dict] = {}
    environment = None
    for (name, traced), runs in sorted(load(results_dir).items()):
        environment = environment or runs[0]["environment"]
        entry = workloads.setdefault(name, {"runs": 0, "digests": {},
                                            "median": {}, "spread": {}})
        entry["runs"] += len(runs)
        entry["digests"].update({str(r["seed"]): r["digest"] for r in runs})
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            entry["median"][metric] = med
            entry["spread"][metric] = (q3 - q1) / abs(med) if med else 0.0
    line = {"commit": sha or commit(), "recorded_unix": time.time(),
            "note": note, "environment": environment,
            "workloads": workloads}
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_diff = sub.add_parser("diff", help="compare two sets of runs")
    p_diff.add_argument("parent", type=Path)
    p_diff.add_argument("change", type=Path)
    p_rec = sub.add_parser("record", help="append a set to history.jsonl")
    p_rec.add_argument("results", type=Path)
    p_rec.add_argument("--commit", default=None)
    p_rec.add_argument("--note", default=None)
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.parent, args.change)
    line = record(args.results, args.commit, args.note)
    print(f"appended {len(line['workloads'])} workloads to {HISTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
