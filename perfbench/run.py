#!/usr/bin/env python3
"""The repository benchmark: builds `chora-perfbench` from source and runs it.

One run (the form `BENCHMARK.json` names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark package (release, offline) and runs one workload; the
last line of stdout is the JSON result.  Every workload together:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs each workload untraced (end-to-end metrics) and traced (per-layer
metrics, table and Chrome trace in `.bench_out/`), prints both tables, fails
on any correctness violation, and regenerates `BENCHMARK.json` and
`perfbench/meta.json` from the benchmark's own definition.  Run-to-run
spread:

    python3 perfbench/run.py --spread 10 [--workloads a,b] [--seconds S]

runs each workload on seeds 1..10 and reports, per end-to-end metric, every
run's value and the interquartile range as a share of the median, next to
the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
OUT = os.path.join(ROOT, ".bench_out")

NOTES = [
    "`chora bench --server` warm req/s measures only rendered-response cache echoes "
    "(every warm request repeats a cached source; 0 summary-store hits) and is "
    "superseded by the serve-edits workload, whose every request misses the parse "
    "and response caches.",
    "error_rate is reported as the result line's failed/attempted and as "
    "success_rate = 1 - error_rate, an end-to-end metric that is never 0.",
    "Latency is reported as p50 and p90 on every workload: batch-fresh yields a "
    "few hundred requests per run, too few for p99; stderr states each run's "
    "sample count and p99.",
    "suite/subset_sum.imp is left out of batch-fresh: the order of terms in its "
    "depth bound follows symbol interning order, so a renamed copy does not answer "
    "the same modulo names.",
    "Throughput and latency are medians over rounds (suite passes, or 2 s slices), "
    "each round's times divided by the machine slowdown a fixed calibration kernel "
    "measures before it (stats::slowdown); set-up times likewise. Raw figures are "
    "printed on stderr.",
    "run.py starts the benchmark with MALLOC_ARENA_MAX=2 so peak RSS repeats from "
    "run to run; peak_rss_mb is read after set-up and a fixed number of operations.",
]


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path or exits non-zero."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return os.path.join(target_dir(), "release", "chora-perfbench")


def run_binary(binary, *args, capture=False):
    cmd = [binary, "--root", ROOT, *map(str, args)]
    # One glibc malloc arena per core, as on a 2-core machine: with the
    # default (8 per core) the arenas threads land in vary from run to run,
    # and so does peak RSS, by about 10%.
    env = dict(os.environ, MALLOC_ARENA_MAX="2")
    if not capture:
        return subprocess.run(cmd, env=env).returncode
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(binary):
    out = subprocess.run([binary, "--describe"], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


def command_output(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_manifests(spec):
    bench = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": spec["run_seconds"],
        "workloads": spec["workloads"],
        "end_to_end": spec["end_to_end"],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in spec["per_layer"]],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")
    meta = {
        "dev_seed": spec["dev_seed"],
        "held_out_seed": spec["held_out_seed"],
        "workloads": spec["workloads"],
        "end_to_end": spec["end_to_end"],
        "per_layer": spec["per_layer"],
        "environment": {
            "nproc": os.cpu_count(),
            "rustc": command_output(["rustc", "--version"]),
            "commit": command_output(["git", "rev-parse", "HEAD"]),
        },
        "notes": NOTES,
    }
    with open(os.path.join(HERE, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<38} {value:>16.4f} {unit}")


def run_all(binary, seed, seconds):
    spec = describe(binary)
    ok = True
    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain = run_binary(binary, "--workload", name, "--seed", seed, "--seconds", seconds,
                           "--trace", 0, capture=True)
        traced = run_binary(binary, "--workload", name, "--seed", seed, "--seconds", seconds,
                            "--trace", 1, "--out", OUT, capture=True)
        for result in (plain, traced):
            ok &= result["correct"]
        summary[name] = {"end_to_end": plain, "per_layer": traced}
        m = plain["metrics"]
        print_table(f"{name} (seed {seed}, {plain['attempted']} operations and checks, "
                    f"{plain['failed']} failed)",
                    [(k, v["value"], v["unit"]) for k, v in m.items()])
        print_table(f"{name} per layer (traced)",
                    [(k, v["value"], v["unit"]) for k, v in traced["metrics"].items()])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    write_manifests(spec)
    print(f"wrote BENCHMARK.json, perfbench/meta.json and {OUT}/")
    if not ok:
        sys.exit("run.py: a correctness check failed")


def run_spread(binary, seeds, workloads, seconds):
    spec = describe(binary)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = workloads or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for name in names:
        values = {}
        for seed in range(1, seeds + 1):
            result = run_binary(binary, "--workload", name, "--seed", seed, "--seconds", seconds,
                                "--trace", 0, capture=True)
            if not result["correct"]:
                sys.exit(f"run.py: {name} seed {seed} failed its checks")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{name}: {seeds} seeds")
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[k] / 3 else "  <-- above bound/3"
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print(f"  {k:<22} median {med:>12.4f}  iqr/median {spread:.4f}  bound {bounds[k]}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--spread", type=int, default=0, metavar="SEEDS")
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    binary = build()
    seconds = args.seconds
    if args.all or args.spread:
        seconds = seconds or describe(binary)["run_seconds"]
    if args.all:
        run_all(binary, args.seed if args.seed is not None else 1, seconds)
    elif args.spread:
        run_spread(binary, args.spread, [w for w in args.workloads.split(",") if w], seconds)
    elif args.workload:
        flags = ["--workload", args.workload, "--trace", args.trace]
        if args.seed is not None:
            flags += ["--seed", args.seed]
        if seconds is not None:
            flags += ["--seconds", seconds]
        sys.exit(run_binary(binary, *flags))
    else:
        parser.error("give --workload NAME, --all, or --spread SEEDS")


if __name__ == "__main__":
    main()
