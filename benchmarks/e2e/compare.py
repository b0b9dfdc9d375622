"""Same-host A/B of two commits through this checkout's ``run.py``.

Usage (from a git checkout)::

    python3 benchmarks/e2e/compare.py --base main [--pairs 10] [--workload figures]

The base commit's ``src/`` is exported with ``git archive`` into a working
directory under ``.e2e-out/`` (removed at the end); the working tree's
``src/`` is the head.  For each pair ``run.py`` (always this checkout's, so
both sides run identical benchmark code) runs once with
``--src`` on each side, alternating which side goes first.  Per
(end-to-end metric, workload) it prints both medians and quartiles, the
share of pairs the head won, and a verdict:

``improved``
    the head won at least 9 of every 10 pairs and the medians differ by
    more than the base's own interquartile distance;
``regressed``
    the head's median is worse than the base's by more than the bound in
    ``BENCHMARK.json``;
``unresolved``
    the base's own spread is wider than the bound, and not every head run
    beat every base run;
``within bound``
    anything else.

The default seed is 1: seeds 1 and 2 are held out from development, so a
claimed gain must show on one of them.  Exits 1 when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import percentile  # noqa: E402


def export_src(rev: str, dest: Path) -> str:
    """Extract *rev*'s ``src/`` into *dest*; returns the full commit id."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", "--format=tar", sha, "src"],
        stdout=subprocess.PIPE,
    )
    # extraction filters exist from Python 3.10.12 / 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, **safe)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_side(src: Path, label: str, workload: str, args, out: Path) -> dict:
    """One ``run.py`` run; returns its metric values by name."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--src", str(src), "--out", str(out),
            "--commit", label,
        ],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed on {label}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{label} produced incorrect output on {workload}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict (see the module docstring) for one metric's paired runs;
    returns (verdict, share of pairs the head won)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head, strict=True))
    win_share = wins / len(base)
    base_median, head_median = percentile(base, 0.5), percentile(head, 0.5)
    base_iqr = percentile(base, 0.75) - percentile(base, 0.25)
    gain = sign * (head_median - base_median)
    if win_share >= 0.9 and gain > base_iqr:
        return "improved", win_share
    dominates = min(head) > max(base) if sign > 0 else max(head) < min(base)
    if base_iqr > bound * abs(base_median) and not dominates:
        return "unresolved", win_share
    if -gain > bound * abs(base_median):
        return "regressed", win_share
    return "within bound", win_share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--workload", action="append", choices=workloads.WORKLOADS,
        help="workload to compare (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    work = ROOT / ".e2e-out" / ("compare-" + re.sub(r"[^A-Za-z0-9_.-]", "_", args.base))
    shutil.rmtree(work, ignore_errors=True)
    head_src = ROOT / "src"
    try:
        sha = export_src(args.base, work / "base")
        sides = {"base": (work / "base" / "src", sha), "head": (head_src, "working tree")}
        report = {"base": sha, "pairs": args.pairs, "seed": args.seed, "rows": []}
        for workload in args.workload or workloads.WORKLOADS:
            values = {"base": [], "head": []}
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    src, label = sides[side]
                    out = work / "runs" / f"{workload}-{pair}-{side}"
                    values[side].append(run_side(src, label, workload, args, out))
            for metric in metrics:
                name = metric["name"]
                base = [v[name] for v in values["base"]]
                head = [v[name] for v in values["head"]]
                outcome, win_share = verdict(base, head, metric["better"], metric["bound"])
                row = {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": [percentile(base, q) for q in (0.25, 0.5, 0.75)],
                    "head": [percentile(head, q) for q in (0.25, 0.5, 0.75)],
                    "head_win_share": win_share,
                    "verdict": outcome,
                }
                report["rows"].append(row)
                b, h = row["base"], row["head"]
                print(
                    f"{workload:9} {name:12} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                    f"head {h[1]:.6g} [{h[0]:.6g}, {h[2]:.6g}] {metric['unit']}  "
                    f"wins {win_share:.0%}  {outcome}",
                    flush=True,
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = ROOT / ".e2e-out" / f"compare-{sha[:12]}.json"
    out.write_text(json.dumps(report, indent=2))
    print(f"wrote {out}")
    return 1 if any(row["verdict"] == "regressed" for row in report["rows"]) else 0


if __name__ == "__main__":
    sys.exit(main())
