#!/usr/bin/env python3
"""Run the benchmark in pairs at two revisions and summarize each
end-to-end metric.

    python tools/bench_pair.py BASE HEAD --workload W --seeds A-B

BASE and HEAD are git revisions of the repository that holds this file;
each is exported with ``git archive`` (``cli_bytes.export``) into a
temporary directory.  There is one pair per seed from A to B: pair i runs
``bench/run.py --trace 0`` in both trees with seed A + i, the base first
in even pairs and the head first in odd ones.  Every run lasts
``run_seconds`` of this repository's ``BENCHMARK.json``, which also names
the end-to-end metrics, the direction in which each is better and its
bound.

Each run's result is printed to stderr as one JSON line when it ends.
Then one JSON line per end-to-end metric goes to stdout: each side's
median and quartiles, whether all its runs were correct, and its failed
and attempted operations summed over its runs; the change's wins out of
the pairs (a tie counts for neither side), its median gain in the better
direction, the parent's quartile spread, the metric's bound and the
verdict.  The verdict is "incorrect" if any run on either side was not
correct, "more failed" if the change failed a larger share of its
operations than the parent, else "resolved" when the change wins at least
9 in 10 pairs and its median gain is larger than the parent's quartile
spread, else "unresolved".  A usage error exits with status 2; a git
error or a run that fails stops the tool with a message and status 1.

Standard library and git only; the trees need what ``bench/run.py`` needs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_bytes import REPO, export

RUN_TIMEOUT_S = 3600


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _side(runs: list[dict], name: str) -> dict:
    q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
    return {"median": median, "q1": q1, "q3": q3,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs)}


def summarize(metric: dict, base: list[dict], head: list[dict]) -> dict:
    """The summary of one end-to-end metric over paired runs: ``metric``
    is its ``BENCHMARK.json`` entry, ``base[i]`` and ``head[i]`` the
    result lines of ``bench/run.py`` in pair i."""
    name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
    b, h = _side(base, name), _side(head, name)
    wins = sum(sign * (hr["metrics"][name]["value"] - br["metrics"][name]["value"]) > 0
               for br, hr in zip(base, head))
    gain, spread = sign * (h["median"] - b["median"]), b["q3"] - b["q1"]
    if not (b["correct"] and h["correct"]):
        verdict = "incorrect"
    elif h["failed"] * b["attempted"] > b["failed"] * h["attempted"]:
        verdict = "more failed"
    elif 10 * wins >= 9 * len(base) and gain > spread:
        verdict = "resolved"
    else:
        verdict = "unresolved"
    return {"metric": name, "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "pairs": len(base), "base": b, "head": h,
            "wins": wins, "gain": gain, "spread": spread, "verdict": verdict}


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py --trace 0`` run in ``tree``."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"bench_pair: bench/run.py in {tree} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def _seeds(text: str) -> range:
    first, sep, last = text.partition("-")
    if not sep or int(last) < int(first):
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, not {text!r}")
    return range(int(first), int(last) + 1)


def main(argv: list[str]) -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", type=_seeds, required=True)
    args = parser.parse_args(argv)
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="bench_pair.") as tmp:
        trees = {}
        for side in runs:
            trees[side] = Path(tmp) / side
            commit = export(getattr(args, side), trees[side])
            print(f"{side}: {getattr(args, side)} = {commit}", file=sys.stderr)
        for i, seed in enumerate(args.seeds):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                result = run_bench(trees[side], args.workload, seed,
                                   benchmark["run_seconds"])
                runs[side].append(result)
                print(json.dumps({"side": side, "seed": seed, **result}), file=sys.stderr)
    for metric in benchmark["end_to_end"]:
        print(json.dumps({"workload": args.workload,
                          **summarize(metric, runs["base"], runs["head"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
