#!/usr/bin/env python3
"""Builds the commit under test and runs the repository benchmark.

One workload:

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0

The last stdout line is the JSON result. Build output goes to stderr.

Every workload, untraced then traced, with tracing overhead:

    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

Run-to-run spread of the end-to-end metrics over seeds 1..N:

    python3 perfbench/run.py --spread serve-fleet [--runs 5] [--seconds 10]

Run it from the root of a checkout. Binaries land in $CARGO_TARGET_DIR
(default .bench_build); working files in .bench_work.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve-steady", "serve-drift", "serve-fleet", "pipeline"]


def files_under(path):
    """Every file under `path` (or `path` itself), sorted, build output aside."""
    if os.path.isfile(path):
        return [path]
    out = []
    for d, dirs, fs in os.walk(path):
        dirs[:] = [x for x in dirs if x not in ("target", "__pycache__")]
        out.extend(os.path.join(d, f) for f in fs)
    return sorted(out)


def source_id():
    """A digest of the sources that build the daemon and the benchmark."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", ".cargo", "src", "crates", "perfbench"]:
        for f in files_under(os.path.join(ROOT, top)):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def commit():
    """Git HEAD, when the checkout is a git repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build():
    """Builds `lahd` from the workspace and the benchmark package."""
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "lahd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return (os.path.join(target, "release", "lahd"),
            os.path.join(target, "release", "lahd-perfbench"))


def run_one(exes, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns its parsed result line."""
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    lahd, bench = exes
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--lahd", lahd, "--source", source_id(), "--commit", commit()]
    proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), proc.stdout


def e2e_of(stdout):
    """The end-to-end figures a run printed (both runs print them)."""
    for line in stdout.splitlines():
        if line.startswith("e2e-json: "):
            return json.loads(line[len("e2e-json: "):])
    return {}


def run_all(exes, seed, seconds):
    """Each workload untraced, then traced; prints the tracing overhead."""
    ok = True
    for w in WORKLOADS:
        print(f"=== {w} (untraced) ===", flush=True)
        plain, plain_out = run_one(exes, w, seed, seconds, 0)
        print(f"=== {w} (traced) ===", flush=True)
        traced, traced_out = run_one(exes, w, seed, seconds, 1)
        ok &= plain["correct"] and traced["correct"]
        a, b = e2e_of(plain_out), e2e_of(traced_out)
        print(f"tracing overhead ({w}): traced vs untraced end-to-end figures")
        for k, v in a.items():
            if k in b and v["value"]:
                d = b[k]["value"] / v["value"] - 1
                print(f"  {k:<14} {v['value']:>12.4f} -> {b[k]['value']:>12.4f} {v['unit']:<5} "
                      f"({d:+.1%})")
    print("all workloads correct" if ok else "SOME WORKLOAD FAILED ITS CHECKS")
    return 0 if ok else 1


def spread(exes, workload, runs, seconds):
    """Quartile spread of each end-to-end metric over seeds 1..runs."""
    values = {}
    for seed in range(1, runs + 1):
        res, _ = run_one(exes, workload, seed, seconds, 0, echo=False)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:<14} median {med:.4g}  IQR/median {(q3 - q1) / med if med else 0:.3f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--spread", choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=5)
    a = p.parse_args()
    if not (a.workload or a.all or a.spread):
        p.error("give --workload, --all or --spread")
    os.chdir(ROOT)
    exes = build()
    if a.all:
        return run_all(exes, a.seed, a.seconds)
    if a.spread:
        return spread(exes, a.spread, a.runs, a.seconds)
    run_one(exes, a.workload, a.seed, a.seconds, a.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
