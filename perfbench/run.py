#!/usr/bin/env python3
"""bcclb benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a bcclb source tree. Builds the `bcclb` binary and the
`bcclb_perf` harness from source (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer
list (a layer the workload does not touch reads 0). --selftest builds and
runs the harness's own tests. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures once, then builds `targets`; compiler output goes to stderr."""
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no bcclb source tree here (missing %s)" % required, 2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at %s" % ROOT, 2)
    with open(path) as f:
        return json.load(f)


def declared_metrics(result, trace):
    """Selects BENCHMARK.json's metrics for this mode from the harness result."""
    declared = benchmark_spec()["per_layer" if trace else "end_to_end"]
    measured = result["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        fail("harness reported undeclared metrics: %s" % ", ".join(unknown))
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}  # layer not on this workload's path
        if got["unit"] != m["unit"]:
            fail("metric %s in %s, declared in %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out = build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_test")], timeout=RUN_TIMEOUT_S).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, --seed >= 0, --seconds >= 1 and --trace are required")

    out = build(["bcclb", "bcclb_perf"])
    workdir = os.path.join(out, "runs", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    command = [os.path.join(out, "bcclb_perf"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--bcclb", os.path.join(out, "bcclb_tools", "bcclb"),
               "--workdir", workdir, "--result", result_path]
    # Its own process group, so a timeout also stops the daemon it spawned.
    harness = subprocess.Popen(command, start_new_session=True)
    try:
        rc = harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    if rc != 0 or not os.path.isfile(result_path):
        fail("harness exited with status %d" % rc)
    with open(result_path) as f:
        result = json.load(f)

    for name, m in result["end_to_end"].items():
        print("%s %s = %.6g %s" % (args.workload, name, m["value"], m["unit"]))
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": declared_metrics(result, args.trace),
    }
    sys.stdout.flush()
    print(json.dumps(final))


if __name__ == "__main__":
    main()
