#!/usr/bin/env python
"""Same-host A/B of one ``perfbench`` workload: a git ref against this tree.

Checks REF out into a temporary ``git worktree`` (removed when the
comparison ends, also on failure or Ctrl-C), then runs both trees'
``perfbench/run.py --trace 0`` in pairs, alternating which side goes
first so slow drift of the host hits both sides alike::

    python benchmarks/perfbench_ab.py HEAD~1 --workload dense-500-bursty --pairs 10
    python benchmarks/perfbench_ab.py main --workload fig12-paper --pairs 10 --seed 2

For every end-to-end metric declared in ``BENCHMARK.json`` it prints
each side's median and quartiles, the change of the medians, and how
many pairs this tree won (by the metric's declared direction).  It also
prints each side's ``result_digest`` lines, which must agree when the
change is meant to be faithful.  The exit code is 1 when any run failed
or reported a failed check, else 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig12-paper", "dense-500-bursty", "faulty-auto", "sweep-replay")
#: Fewer pairs than this never count as a gain, however they read.
MIN_PAIRS_FOR_GAIN = 10


def end_to_end_metrics(root: Path = REPO_ROOT) -> List[dict]:
    """The ``end_to_end`` entries (name, unit, better) of ``BENCHMARK.json``."""
    return json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    return q1, mid, q3


def summarise(ref_runs: List[dict], cand_runs: List[dict], metrics: List[dict]) -> List[dict]:
    """One row per metric from paired runs.

    ``ref_runs[i]`` and ``cand_runs[i]`` are the ``metrics`` objects of
    pair ``i`` (``{name: {"value": ...}}``).  A pair is a win when the
    candidate is strictly better in the metric's ``better`` direction;
    ``change`` is the relative change of the candidate median against
    the reference median.  ``gain`` holds when at least ten pairs ran,
    the candidate won at least nine tenths of them and its median is
    better than the reference median by more than the reference's
    quartile distance.
    """
    if len(ref_runs) != len(cand_runs) or not ref_runs:
        raise ValueError("need the same, non-zero number of runs on each side")
    rows = []
    for spec in metrics:
        name = spec["name"]
        ref = [run[name]["value"] for run in ref_runs]
        cand = [run[name]["value"] for run in cand_runs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - r) > 0 for r, c in zip(ref, cand))
        ref_q = quartiles(ref)
        cand_q = quartiles(cand)
        margin = sign * (cand_q[1] - ref_q[1])
        rows.append(
            {
                "name": name,
                "unit": spec["unit"],
                "better": spec["better"],
                "ref": ref_q,
                "cand": cand_q,
                "change": (cand_q[1] - ref_q[1]) / ref_q[1] if ref_q[1] else float("nan"),
                "wins": wins,
                "pairs": len(ref),
                "gain": len(ref) >= MIN_PAIRS_FOR_GAIN
                and wins >= 0.9 * len(ref)
                and margin > ref_q[2] - ref_q[0],
            }
        )
    return rows


def format_rows(rows: List[dict]) -> str:
    """The summary table: median [q1, q3] per side, change, wins, gain."""
    lines = [
        f"{'metric':<13}{'unit':<13}{'ref median [q1, q3]':>30}"
        f"{'this tree median [q1, q3]':>30}{'change':>9}{'wins':>7}  gain"
    ]
    for row in rows:
        ref = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["ref"])
        cand = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["cand"])
        lines.append(
            f"{row['name']:<13}{row['unit']:<13}{ref:>30}{cand:>30}"
            f"{row['change']:>+9.1%}{row['wins']:>4}/{row['pairs']:<2}"
            f"  {'yes' if row['gain'] else 'no'}"
        )
    return "\n".join(lines)


def run_side(tree: Path, args: argparse.Namespace) -> dict:
    """One untraced ``perfbench/run.py`` run in ``tree``; its parsed result."""
    command = [
        sys.executable,
        str(tree / "perfbench" / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{tree}: perfbench exited {done.returncode} without a result")
    result["ok"] = done.returncode == 0 and result.get("correct", False)
    result["digest"] = [line for line in lines if line.startswith("result_digest:")]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref to compare this tree against")
    parser.add_argument("--workload", default="dense-500-bursty", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    workdir = Path(tempfile.mkdtemp(prefix="perfbench-ab-"))
    ref_tree = workdir / "ref"
    sides = {"ref": [], "cand": []}
    try:
        subprocess.run(
            ["git", "-C", str(REPO_ROOT), "worktree", "add", "--detach", str(ref_tree), args.ref],
            check=True,
            capture_output=True,
        )
        trees = {"ref": ref_tree, "cand": REPO_ROOT}
        for index in range(args.pairs):
            order = ("ref", "cand") if index % 2 == 0 else ("cand", "ref")
            for side in order:
                sides[side].append(run_side(trees[side], args))
            values = {
                side: sides[side][-1]["metrics"]["cells_per_s"]["value"] for side in order
            }
            print(f"pair {index + 1}/{args.pairs} ({order[0]} first): "
                  f"cells_per_s ref {values['ref']:.5g}, this tree {values['cand']:.5g}",
                  flush=True)
    finally:
        subprocess.run(
            ["git", "-C", str(REPO_ROOT), "worktree", "remove", "--force", str(ref_tree)],
            capture_output=True,
        )
        subprocess.run(["git", "-C", str(REPO_ROOT), "worktree", "prune"], capture_output=True)
        shutil.rmtree(workdir, ignore_errors=True)

    rows = summarise(
        [run["metrics"] for run in sides["ref"]],
        [run["metrics"] for run in sides["cand"]],
        end_to_end_metrics(),
    )
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, ref {args.ref}")
    print(format_rows(rows))
    digests: Dict[str, set] = {
        side: {line for run in runs for line in run["digest"]} for side, runs in sides.items()
    }
    for side in ("ref", "cand"):
        print(f"{side}: {' | '.join(sorted(digests[side]))}")
    return 0 if all(run["ok"] for runs in sides.values() for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
