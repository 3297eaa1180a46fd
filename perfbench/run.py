#!/usr/bin/env python3
"""The FIFL round benchmark: one command for every workload.

    python3 perfbench/run.py --workload sim-train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

Run from the root of a checkout. The first call builds the fifl libraries
and the benchmark into .bench_build/ (or $CARGO_TARGET_DIR). Each
measured run is a fresh fifl_perfbench process, so process-global metrics
and peak RSS never mix across runs. With --trace 0 the last line of
stdout is the end-to-end metrics, with --trace 1 the per-layer metrics;
names and units come from BENCHMARK.json. Any failed correctness gate
exits 1, a refused set-up (sanitizer build, tracing or forced-ISA
environment) exits 3, any other failure 2. See perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up-only processes per --trace 0 invocation. setup_s is the median
# of their set-ups and the untraced run's own, each the first thing its
# process does.
SETUP_RUNS = 4
# Time budgets of one invocation: the runs must end within 180 s, and the
# first call of a checkout also builds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 850

# Per-layer metric name prefixes each kind of workload measures; every
# other per-layer metric reads 0 there (the layer is not on its path).
SIM_LAYERS = ("data.", "fl.", "core.", "chain.", "trace_overhead_share")
CLUSTER_LAYERS = ("data.", "chain.records_per_block", "net.", "node.", "wire_",
                  "trace_overhead_share")
CLUSTER_WORKLOADS = ("cluster-audit",)


class BenchError(Exception):
    """A failure that leaves no result: the invocation exits 2."""


class Refused(Exception):
    """A set-up the benchmark must not measure: the invocation exits 3."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets, deadline):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no fifl source tree at {ROOT}: the benchmark builds the "
                         "program from the checkout it sits in")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, f"-DPERFBENCH_JOBS={jobs}"])
    steps.append(["cmake", "--build", out, "--parallel", jobs, "--target", *targets])
    for cmd in steps:
        remaining = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"build timed out: {' '.join(cmd)}") from exc
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-6000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return out


def run_binary(binary, deadline, **flags):
    cmd = [binary]
    for key, value in flags.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("time budget exhausted before " + " ".join(cmd[1:]))
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("run timed out: " + " ".join(cmd[1:])) from exc
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode == 3:
        raise Refused(done.stderr.strip())
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchError(f"exit {done.returncode}: " + " ".join(cmd[1:]))
    return json.loads(lines[-1])


def compare_hashes(a, b, what, failures, checked, need_last=False):
    """Model hashes two runs recorded after the same round must agree."""
    checked.append("hashes: " + what)
    common = sorted(set(a["hashes"]) & set(b["hashes"]), key=int)
    if not common:
        failures.append(f"{what}: no common round to compare")
        return
    if need_last and str(a["completed"]) not in common:
        failures.append(f"{what}: final round {a['completed']} not compared")
    bad = [r for r in common if a["hashes"][r] != b["hashes"][r]]
    if bad:
        failures.append(f"{what}: model hashes differ after rounds {bad[:5]}")


def gate_failures(result):
    return [f"{result['mode']}: {g['name']}: {g['detail']}"
            for g in result["gates"] if not g["ok"]]


def measure(args, binary, deadline):
    """Runs the sub-runs of one invocation.

    Returns the summary line, the untraced run's result, the metrics to
    report and the failed gates."""
    cluster = args.workload in CLUSTER_WORKLOADS
    common = dict(workload=args.workload, seed=args.seed)
    failures, checked, setups = [], [], []
    if args.trace == 0:
        untraced = run_binary(binary, deadline, **common, seconds=args.seconds,
                              mode="untraced")
        setups += [untraced["metrics"]["setup_s"]] + [
            run_binary(binary, deadline, **common, rounds=1, mode="setup")
            ["metrics"]["setup_s"] for _ in range(SETUP_RUNS)]
        # The untraced run records a hash after its check round as well as
        # the final one; a traced run of that length checks it.
        check = run_binary(binary, deadline, **common, rounds=untraced["check_round"],
                           mode="traced", require_tail=0)
        runs = [untraced, check]
        compare_hashes(untraced, check, "untraced vs traced", failures, checked)
    else:
        # Half-length pair: the traced run repeats the untraced run's rounds
        # and the cluster adds a replay, so a full-length pair would not
        # fit the time one invocation has.
        untraced = run_binary(binary, deadline, **common, seconds=args.seconds / 2,
                              mode="untraced")
        traced = run_binary(binary, deadline, **common, rounds=untraced["rounds"],
                            mode="traced")
        runs = [untraced, traced]
        compare_hashes(untraced, traced, "untraced vs traced", failures, checked,
                       need_last=True)
    if cluster:
        replay = run_binary(binary, deadline, **common, rounds=untraced["rounds"],
                            mode="replay")
        runs.append(replay)
        for run in runs[:-1]:
            compare_hashes(run, replay, f"cluster {run['mode']} vs in-process replay",
                           failures, checked, need_last=run is untraced)
    for run in runs:
        failures += gate_failures(run)
        checked += [f"{run['mode']}: {g['name']}" for g in run["gates"]]

    if args.trace == 0:
        metrics = dict(untraced["metrics"])
        metrics["setup_s"] = statistics.median(setups)
    else:
        metrics = dict(traced["metrics"])
        metrics["trace_overhead_share"] = (
            traced["metrics"]["round_ms_p50"] / untraced["metrics"]["round_ms_p50"] - 1.0)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_samples_s": setups,
        "rounds": untraced["rounds"], "env": untraced["env"],
        "round_samples": int(untraced["metrics"].get("round_samples", 0)),
        "round_p90_beyond": int(untraced["metrics"].get("round_p90_beyond", 0)),
        "gates": checked,
    }
    if cluster and args.trace == 0:
        summary["wire_bytes_per_round"] = untraced["metrics"]["wire_bytes_per_round"]
        summary["wire_msgs_per_round"] = untraced["metrics"]["wire_msgs_per_round"]
    return summary, untraced, metrics, failures


def select_metrics(spec, trace, workload, measured):
    layers = CLUSTER_LAYERS if workload in CLUSTER_WORKLOADS else SIM_LAYERS
    out = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif trace and not name.startswith(layers):
            value = 0.0
        else:
            raise BenchError(f"metric {name} was not measured on {workload}")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    start = time.monotonic()

    for var in ("FIFL_TRACE_OUT", "FIFL_TRACE_DIR", "FIFL_KERNEL_ISA"):
        if os.environ.get(var):
            log(f"refusing to measure: {var} is set (program-side tracing or a "
                "forced kernel ISA would enter the end-to-end numbers)")
            return 3

    try:
        if args.test:
            out = build(["perfbench_tests"], start + BUILD_BUDGET_S)
            return subprocess.run([os.path.join(out, "perfbench_tests")], cwd=ROOT).returncode

        # Any workload fifl_perfbench knows: those in BENCHMARK.json, and
        # sim-swarm, kept out of it as too unsteady to gate (README.md).
        if not args.workload:
            raise BenchError("--workload is required")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        out = build(["fifl_perfbench"], start + BUILD_BUDGET_S)
        binary = os.path.join(out, "fifl_perfbench")
        summary, untraced, measured, failures = measure(
            args, binary, time.monotonic() + RUN_BUDGET_S)
        metrics = select_metrics(spec, args.trace, args.workload, measured)
    except Refused as exc:
        log(str(exc))
        return 3
    except (BenchError, OSError, KeyError, ValueError) as exc:
        log(f"error: {exc}")
        return 2

    summary["failures"] = failures
    print(json.dumps(summary), flush=True)
    for failure in failures:
        log("gate failed: " + failure)
    print(json.dumps({"correct": not failures, "attempted": untraced["attempted"],
                      "failed": untraced["failed"], "metrics": metrics}), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
