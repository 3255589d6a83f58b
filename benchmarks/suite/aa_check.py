"""A/A check: does the suite repeat on the same code and the same inputs?

Runs the untraced pass of every workload ``--runs`` times back to back,
every run with the same ``--seed``, and prints per workload and
end-to-end metric the median, the quartiles, the largest deviation
between any two runs ``(max - min) / median`` and the inter-quartile
spread ``(q3 - q1) / median`` (the figure the driver bounds).  For
timings the deviation of the raw (un-normalised) twin is printed next
to it, so the benefit of the probe normalisation stays on record.

A row FAILS when its largest pairwise deviation exceeds half of the
metric's bound in ``BENCHMARK.json`` — for all three metrics.  Exits
non-zero on any FAIL row, on a failed run, or when the output digest of
a workload differs between runs.  ``--report`` writes the table as
Markdown.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import REPO, spawn

RAW_TWIN = {"unit_p50_ms": "raw.unit_p50_ms", "setup_s": "raw.setup_s"}


def deviation(values: list[float]) -> float:
    """Largest difference between any two values, as a share of the median."""
    return (max(values) - min(values)) / statistics.median(values)


def table(spec: dict, runs: dict[str, list[dict]]) -> tuple[list[str], bool]:
    """Markdown rows per (workload, metric) and whether any row FAILS."""
    failed = False
    lines = ["| workload | metric | median | q1 | q3 | max deviation "
             "| raw max deviation | spread | bound / 2 | verdict |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for name, records in runs.items():
        if len(records) < 5:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [run["values"][key] for run in records]
            q1, med, q3 = statistics.quantiles(values, n=4)
            twin = RAW_TWIN.get(key)
            raw = (f"{deviation([run['values'][twin] for run in records]):.3f}"
                   if twin else "-")
            ok = deviation(values) <= metric["bound"] / 2
            failed |= not ok
            lines.append(
                f"| {name} | {key} | {med:.5g} | {q1:.5g} | {q3:.5g} "
                f"| {deviation(values):.3f} | {raw} | {(q3 - q1) / med:.3f} "
                f"| {metric['bound'] / 2:g} | {'ok' if ok else 'FAIL'} |")
    return lines, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=".bench_build/suite")
    parser.add_argument("--report", help="write the table here (Markdown)")
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]

    runs: dict[str, list[dict]] = {w["name"]: [] for w in spec["workloads"]}
    status = 0
    for r in range(args.runs):
        for name, records in runs.items():
            record = spawn(name, args.seed, seconds, 0, args.out, quiet=True)
            if record is None:
                print(f"run {r} of {name} failed")
                status = 1
            else:
                records.append(record)
    for name, records in runs.items():
        if len({record["digest"] for record in records}) > 1:
            print(f"{name}: output digest differs between runs")
            status = 1

    with open(Path(args.out) / "aa_runs.json", "w") as fh:
        json.dump(runs, fh, indent=1)

    rows, failed = table(spec, runs)
    text = "\n".join(
        [f"A/A over {args.runs} runs of {seconds:g} s, seed {args.seed}; "
         "max deviation = (max - min) / median, "
         "spread = (q3 - q1) / median.", ""] + rows)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    return int(bool(status or failed))


if __name__ == "__main__":
    sys.exit(main())
