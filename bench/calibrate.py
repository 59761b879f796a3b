"""Run the whole benchmark several times on unchanged code and show how
far each end-to-end metric moves by itself.

    python3 bench/calibrate.py --sets 2 --runs 10            # measure
    python3 bench/calibrate.py --sets 2 --runs 10 --write    # and set bounds

One *set* is every workload run ``--runs`` times, each with another
seed (the driver's procedure). Per metric × workload it prints the
median, the quartile distance as a share of the median (the number the
driver holds against the bound), the full range, and how far the second
set's median sits from the first in the metric's bad direction; then how
the quartile distance would have come out had the run's value been the
fastest block or the median block instead of the quiet quartile.
``--write`` sets each bound in ``BENCHMARK.json`` to
``max(0.05, 1.5 × range, 3 × quartile distance)`` over all workloads and
sets, rounded up to a hundredth. The contract's ceiling is 0.25: a
metric that needs more is named, nothing is written and the exit code
is 1 — steady the metric or take it out of ``end_to_end``; a bound is
never clamped to fit. ``setup_s`` is the exception the contract makes:
its spread is not held against its bound and it is to have the largest
one, so its bound is the ceiling and what it needs is its quartile
distance alone. Raw values go to ``bench/out/calibration.json``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from harness import OUT_DIR, REPO_ROOT, spread

SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
#: the largest bound the driver's contract accepts
CEILING = 0.25
#: the issue's target; metrics above it are listed, not hidden
TARGET = 0.10


def run_once(spec, workload, seed, trace=0):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True,
                          text=True, timeout=900)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    with open(os.path.join(OUT_DIR, f"{workload}.report.json"),
              encoding="utf-8") as handle:
        result["statistic"] = json.load(handle)["report"]["statistic"]
    return result


def relative_range(values):
    return (max(values) - min(values)) / statistics.median(values)


def worsening(first, second, better):
    """How much worse the second median is than the first (≤ 0: not)."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def measure(spec, sets, runs, first_seed, only):
    """``data[workload][metric][set]`` = the runs' values, and the same
    under each candidate statistic in ``choices[statistic]``."""
    data, choices = {}, {}
    for index in range(sets):
        for workload in (w["name"] for w in spec["workloads"]):
            if only and workload not in only:
                continue
            for run in range(runs):
                seed = first_seed + index * runs + run
                result = run_once(spec, workload, seed)
                if result["failed"]:
                    raise RuntimeError(
                        f"{workload} seed {seed}: {result['failed']} failed ops"
                    )
                for name, entry in result["metrics"].items():
                    data.setdefault(workload, {}).setdefault(
                        name, [[] for _ in range(sets)]
                    )[index].append(entry["value"])
                for statistic, values in result["statistic"].items():
                    for name, value in values.items():
                        choices.setdefault(statistic, {}).setdefault(
                            (workload, name), [[] for _ in range(sets)]
                        )[index].append(value)
                print(f"set {index + 1} {workload} seed {seed} "
                      f"{result['wall_s']:.1f} s", file=sys.stderr, flush=True)
    return data, choices


def statistic_table(choices):
    """Mean and worst quartile distance over metric × workload × set for
    each way of choosing the run's value across blocks."""
    lines = ["| statistic across blocks | mean quartile distance | worst |",
             "|---|---|---|"]
    for statistic, series in choices.items():
        spreads = [spread(values) for per_set in series.values()
                   for values in per_set]
        lines.append(f"| {statistic} | {statistics.mean(spreads):.4f} "
                     f"| {max(spreads):.3f} |")
    return lines


def table(spec, data):
    """Markdown rows, and per metric the bound it needs and the
    workload that sets it."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    needed = {}
    lines = [
        "| workload | metric | median | quartile distance | range "
        "| set 2 vs set 1 | needs |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, metrics in data.items():
        for name, per_set in metrics.items():
            spreads = [spread(values) for values in per_set]
            ranges = [relative_range(values) for values in per_set]
            shift = (worsening(per_set[0], per_set[1], better[name])
                     if len(per_set) > 1 else float("nan"))
            if name == "setup_s":
                need = max(0.05, max(spreads))
            else:
                need = max(0.05, 1.5 * max(ranges), 3.0 * max(spreads))
            lines.append(
                f"| {workload} | {name} "
                f"| {statistics.median(per_set[0]):.4g} "
                f"| {' / '.join(f'{s:.3f}' for s in spreads)} "
                f"| {' / '.join(f'{r:.3f}' for r in ranges)} "
                f"| {shift:+.3f} | {need:.3f} |"
            )
            if need > needed.get(name, (0.0, None))[0]:
                needed[name] = (need, workload)
    return lines, needed


def bounds(needed):
    """The bound of each metric: what it needs, rounded up to a
    hundredth; for ``setup_s`` no less than the ceiling."""
    rounded = {name: math.ceil(need * 100 - 1e-9) / 100
               for name, (need, _workload) in needed.items()}
    rounded["setup_s"] = max(rounded["setup_s"], CEILING)
    return rounded


def write_bounds(spec, rounded):
    for metric in spec["end_to_end"]:
        metric["bound"] = rounded[metric["name"]]
    with open(SPEC_PATH, "w", encoding="utf-8") as handle:
        handle.write(format_spec(spec))


def format_spec(spec):
    """``BENCHMARK.json`` with one workload or metric per line."""
    parts = []
    for key, value in spec.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            rows = ",\n".join(f"    {json.dumps(row)}" for row in value)
            parts.append(f'  "{key}": [\n{rows}\n  ]')
        else:
            parts.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append", default=[],
                        help="measure only this workload (repeatable)")
    parser.add_argument("--write", action="store_true",
                        help="write the bounds into BENCHMARK.json")
    options = parser.parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    data, choices = measure(spec, options.sets, options.runs,
                            options.first_seed, options.workload)
    with open(os.path.join(OUT_DIR, "calibration.json"), "w",
              encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
    lines, needed = table(spec, data)
    print("\n".join(lines))
    print()
    print("\n".join(statistic_table(choices)))
    print()
    rounded = bounds(needed)
    unresolved = []
    for name, (need, workload) in needed.items():
        note = ""
        if rounded[name] > CEILING:
            note = f"  UNRESOLVED: above the contract's ceiling {CEILING}"
            unresolved.append(name)
        elif rounded[name] > TARGET:
            note = f"  above the issue's target {TARGET}"
        print(f"{name}: needs {need:.3f} (set by {workload}), "
              f"bound {rounded[name]:.2f}{note}")
    if unresolved:
        print("no bound covers " + ", ".join(unresolved) + ": two sets of "
              "runs of one commit can disagree by more than any bound the "
              "driver accepts; nothing written", file=sys.stderr)
        return 1
    if options.write:
        write_bounds(spec, rounded)
    return 0


if __name__ == "__main__":
    sys.exit(main())
