"""Run one benchmark workload: set up, check answers, measure, report.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` replays the workload's first block with the benchmark's
own spans around calls at successive public depths and reports the
per-layer metrics. The last line printed is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. Definitions are in
``bench/README.md``; names, units and bounds in ``BENCHMARK.json``.
"""

import argparse
import gc
import json
import os
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import harness  # noqa: E402

#: set-up cycles per run: each phase's time is the median over them
#: (one load in ten is off by a tenth or more). Only the last one, the
#: instance that is measured, runs the warm-up pass, which for the
#: topology workloads costs seconds; the others cost 0.1-0.7 s each.
SETUP_CYCLES = 5
MIN_BLOCKS = 4


class NothingCompleted(Exception):
    """A timed block in which every op failed has no latency to report."""


def load_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=42,
                        help="drives every op stream and statement order")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small scale and short blocks (smoke test)")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's answers as the golden "
                             "answers in bench/expected/ (after a change "
                             "that is meant to change them)")
    parser.add_argument("--workdir", default=None,
                        help="where durable_mixed puts its database "
                             "(default: a fresh directory under bench/out/)")
    options = parser.parse_args(argv)
    if options.seconds is None:
        options.seconds = 1.0 if options.quick else float(spec["run_seconds"])
    return options


def import_program(reference):
    """First import of the program's packages, timed: part of set-up."""
    def load():
        import repro.datagen  # noqa: F401
        import repro.dbapi  # noqa: F401
        import repro.engines  # noqa: F401
        import repro.service  # noqa: F401

    phases = harness.Phases(reference)
    phases.run("import", load)
    return phases


def build(options):
    from workloads import WORKLOADS

    return WORKLOADS[options.workload](options)


def set_up(workload, cycles):
    """Run ``cycles`` set-ups, keeping the last one standing."""
    samples = []
    for cycle in range(cycles):
        if cycle:
            workload.teardown()
            gc.collect()
        samples.append(workload.setup(warm=cycle == cycles - 1))
    return samples


def phase_seconds(samples, scaled=True):
    """Each set-up phase's median time over the cycles that ran it."""
    phases = {}
    for sample in samples:
        for name, seconds in (sample.scaled if scaled else sample.raw).items():
            phases.setdefault(name, []).append(seconds)
    return {name: harness.median(seconds)
            for name, seconds in phases.items()}


def run_measured(workload, options, spec, imported):
    cycles = 1 if options.quick else SETUP_CYCLES
    samples = set_up(workload, cycles)
    min_blocks = 2 if options.quick else MIN_BLOCKS
    blocks = []
    begin = time.perf_counter()
    while (len(blocks) < min_blocks
           or time.perf_counter() - begin < options.seconds):
        blocks.append(workload.run_block(len(blocks)))
    # before finish(): its checks (a recovered copy of the database, an
    # embedded twin) are the harness's memory, not the engine's
    peak_rss_mb = workload.peak_rss_mb()
    details = workload.finish()
    if any(len(b.failed) == len(b.raw) for b in blocks):
        raise NothingCompleted

    # the block metrics under each way of choosing across blocks; the
    # run's values are the quiet quartile's (calibrate.py compares them)
    statistic = {
        name: harness.end_to_end(blocks, workload.is_read, pick)
        for name, pick in (("fastest", harness.fastest),
                           ("quiet_quartile", harness.quiet),
                           ("median", harness.middle))
    }
    values = dict(statistic["quiet_quartile"])
    values["setup_s"] = imported.scaled["import"] + sum(
        phase_seconds(samples).values()
    )
    values["load_rows_per_s"] = harness.median(
        [phases.rows / phases.scaled["load"] for phases in samples]
    )
    values["peak_rss_mb"] = peak_rss_mb
    report = {
        "blocks": harness.block_table(blocks),
        "statistic": statistic,
        "raw": {
            "setup_s": imported.raw["import"] + sum(
                phase_seconds(samples, scaled=False).values()
            ),
            "block_wall_s": harness.median([b.raw_wall for b in blocks]),
        },
        "setup_phases_s": phase_seconds(samples),
        "host_speed": options.reference.speed(),
        "details": details,
    }
    return values, report


def write_expected(workload, options, spec, imported):
    """One set-up and the end-of-run checks, trusting no stored answer;
    what the program answered becomes the golden file."""
    workload.expected = {}
    set_up(workload, 1)
    workload.finish()
    path = os.path.join(BENCH_DIR, "expected", f"{workload.name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workload.golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return {}, {"details": {"wrote": os.path.relpath(path, REPO_ROOT)}}


def run_traced(workload, options, spec, imported):
    phases = set_up(workload, 1)[0]
    probes = harness.Probes()
    tracer = harness.Tracer()
    probes.values["datagen.generate_s"] = phases.raw["generate"]
    probes.values["storage.attach_s"] = phases.raw.get("attach", 0.0)
    steps = None
    try:
        steps = harness.ladder(tracer, workload.trace(probes, tracer))
        probes.set({
            "trace.unattributed_share": steps["unattributed_share"],
            "trace.overhead_ratio": steps["overhead_ratio"],
        })
    except Exception as exc:  # boundary: an entry point the ladder needs moved
        reason = f"{type(exc).__name__}: {exc}"
        for metric in spec["per_layer"]:
            if metric["name"] not in probes.values:
                probes.unavailable.setdefault(metric["name"], reason)
    details = workload.finish()
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in probes.unavailable:
            values[name] = None  # null, with the reason in the report
        else:
            # a layer this workload never enters did no work
            values[name] = probes.values.get(name, 0.0)
    report = {
        "ladder": steps,
        "spans_file": os.path.relpath(tracer.write(workload.name), REPO_ROOT),
        "unavailable": probes.unavailable,
        "details": details,
    }
    return values, report


def print_report(options, spec, values, report, workload):
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {options.workload}  seed {options.seed}  "
          f"trace {options.trace}{'  quick' if options.quick else ''}")
    for name, value in values.items():
        if value is None:
            print(f"  {name:36s} {'null':>14s} {units.get(name, '')}"
                  f"   {report['unavailable'][name]}")
        else:
            print(f"  {name:36s} {value:14.6g} {units.get(name, '')}")
    for name, row in report.get("blocks", {}).items():
        print(f"  [{name}: n={row['n']} q25={row['q25']:.6g} "
              f"median={row['median']:.6g} q75={row['q75']:.6g}]")
    if "raw" in report:
        print(f"  host speed {report['host_speed']:.3f} of nominal; unscaled: "
              f"setup {report['raw']['setup_s']:.4g} s, "
              f"block wall {report['raw']['block_wall_s']:.4g} s")
        print("  set-up phases (s): " + "  ".join(
            f"{name} {seconds:.4g}"
            for name, seconds in report["setup_phases_s"].items()))
    steps = report.get("ladder")
    if steps:
        print("  layer self times of the traced block:")
        for layer, seconds in sorted(
            steps["layers"].items(), key=lambda item: -item[1]
        ):
            print(f"    {layer:12s} {seconds:10.4f} s "
                  f"{seconds / steps['untraced_s']:7.1%}")
        print(f"    {'sum':12s} {steps['attributed_s']:10.4f} s   "
              f"untraced end to end {steps['untraced_s']:.4f} s   "
              f"unattributed_share {steps['unattributed_share']:.4f}   "
              f"trace_overhead_ratio {steps['overhead_ratio']:.4f}")
        print(f"  spans: {report['spans_file']}")
    for key, value in report.get("details", {}).items():
        print(f"  {key}: {value}")
    print(f"  ops attempted {workload.attempted}  failed {workload.failed}")
    for line in workload.failures:
        print(f"  FAILED {line}")


def main(argv=None):
    spec = load_spec()
    options = parse_args(argv, spec)
    # a terminated run still unwinds through the finally blocks below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    options.reference = harness.Reference()
    imported = import_program(options.reference)
    workload = build(options)
    try:
        runner = run_traced if options.trace else run_measured
        if options.write_expected:
            runner = write_expected
        values, report = runner(workload, options, spec, imported)
    except NothingCompleted:
        print(f"no op completed in a timed block; {workload.failed} of "
              f"{workload.attempted} ops failed", file=sys.stderr)
        for line in workload.failures:
            print(f"  FAILED {line}", file=sys.stderr)
        return 1
    finally:
        workload.teardown()
    print_report(options, spec, values, report, workload)
    if options.write_expected:
        return 0
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with open(os.path.join(harness.OUT_DIR, f"{options.workload}.report.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"values": values, "report": report}, handle, indent=1)
    units = {m["name"]: m["unit"] for m in
             spec["per_layer" if options.trace else "end_to_end"]}
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
