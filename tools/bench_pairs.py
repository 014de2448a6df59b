"""Alternating parent/change pairs of benchmark runs, written to one JSON file.

    python tools/bench_pairs.py --parent REV [--change REV] --workload NAME \\
        [--pairs N] [--seconds S] [--first-seed N] --output BENCH_<n>.json

Each side runs its own checkout's ``perfbench/run.py --trace 0``: a revision
is exported with ``git archive`` to ``.bench_trees/<commit>/`` at the root of
the repository (git-ignored, reused by later calls), and without --change the
change side is the working tree itself.  Pair i runs both sides with seed
first_seed + i, the parent first in even pairs and the change first in odd
ones.  From every run the file keeps the exit status, the last stdout line
(the JSON result) and the stderr lines that begin ``unscaled:`` and
``machine:``.  Per end-to-end metric of BENCHMARK.json it gives each side's
median and quartiles and the pairs that each side won (in the metric's
``better`` direction; a tie counts for neither).  The output file holds one
entry per workload, so calls with different workloads fill one file.

Only the standard library and git are used.  The exit status is 1 when a run
fails or reads "correct": false, after the file is written.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ROOT / ".bench_trees"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str) -> Path:
    """The committed files of ``commit`` under .bench_trees/, exported once."""
    tree = TREES / commit
    if not tree.is_dir():
        TREES.mkdir(exist_ok=True)
        archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        staging = Path(tempfile.mkdtemp(dir=TREES, prefix=".export-"))
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(staging, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                       else {}))
        staging.rename(tree)  # a tree that exists is complete
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``, as the file records it."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    kept = {"returncode": done.returncode, "result": result}
    for line in done.stderr.splitlines():
        for prefix in ("unscaled", "machine"):
            if line.startswith(prefix + ": "):
                kept[prefix] = line[len(prefix) + 2:]
    return kept


def succeeded(run: dict) -> bool:
    return (run["returncode"] == 0 and isinstance(run["result"], dict)
            and run["result"].get("correct") is True)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(trees: dict, workload: str, pairs: int, seconds: float, first_seed: int,
            metrics: list[dict], runner) -> dict:
    """Run the pairs on trees {"parent": path, "change": path} and summarize them.

    ``runner(tree, workload, seed, seconds)`` returns one run's record, as
    run_once does.
    """
    runs = []
    for pair in range(pairs):
        seed = first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs.append({"pair": pair, "side": side, "seed": seed,
                         **runner(trees[side], workload, seed, seconds)})
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: {} for side in trees}
        for run in runs:
            value = ((run["result"] or {}).get("metrics", {}).get(name) or {}).get("value")
            if value is not None:
                values[run["side"]][run["pair"]] = value
        both = sorted(set(values["parent"]) & set(values["change"]))
        gaps = [sign * (values["change"][pair] - values["parent"][pair]) for pair in both]
        summary[name] = {
            "better": metric["better"],
            **{side: spread(list(values[side].values())) for side in trees
               if values[side]},
            "pairs": len(both),
            "change_won": sum(gap > 0 for gap in gaps),
            "parent_won": sum(gap < 0 for gap in gaps),
        }
    return {"pairs": pairs, "seconds": seconds, "first_seed": first_seed,
            "machine": sorted({run["machine"] for run in runs if "machine" in run}),
            "summary": summary, "runs": runs,
            "all_correct": all(succeeded(run) for run in runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", help="the changed revision (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--output", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        parser.error("--pairs must be positive and --first-seed non-negative")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commits = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
               "change": (git("rev-parse", "--verify", args.change + "^{commit}")
                          if args.change else None)}
    trees = {side: export(commit) if commit else ROOT for side, commit in commits.items()}
    entry = compare(trees, args.workload, args.pairs, args.seconds, args.first_seed,
                    benchmark["end_to_end"], run_once)
    entry = {"parent": {"rev": args.parent, "commit": commits["parent"]},
             "change": {"rev": args.change or "working tree", "commit": commits["change"]},
             **entry}
    document = (json.loads(args.output.read_text(encoding="utf-8"))
                if args.output.is_file() else {"workloads": {}})
    document["workloads"][args.workload] = entry
    temporary = args.output.with_name(args.output.name + ".tmp")
    temporary.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    os.replace(temporary, args.output)
    for name, row in entry["summary"].items():
        sides = "  ".join(f"{side} {row[side]['median']:.6g}" for side in ("parent", "change")
                          if side in row)
        print(f"{args.workload} {name}: {sides}  change won {row['change_won']}"
              f" of {row['pairs']}")
    if not entry["all_correct"]:
        print("error: a run failed or read \"correct\": false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
