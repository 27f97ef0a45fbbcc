#!/usr/bin/env python3
"""Repository benchmark: build the toolchain from source, run one workload,
print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/CMakeLists.txt (which builds the library through the root
CMakeLists.txt) into .bench_build/perfbench; later runs only re-check the
build.  Each run is its own process, so set-up time, peak memory and
process-wide state belong to one workload.

Workloads (BENCHMARK.json says why each exists):
    cold_sweep   closed batch: 8 app/board pairs x 3 compiler seeds x 2
                 scheduler objectives into a fresh engine, repeated
    service_mix  open-loop Poisson stream at 40/s of cache-warm requests,
                 every 400th one cold, mixed priority classes, no deadlines
    remote_warm  closed loop, 2 in flight, over loopback TCP to a
                 ShardServer re-reading a pre-filled result store

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (spans go to .bench_build/work/spans-*.jsonl).
Every output is checked against perfbench/golden/<workload>.txt; a
mismatch makes the run exit 1.

    python3 perfbench/run.py --selftest   # the benchmark's own checks
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("cold_sweep", "service_mix", "remote_warm")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def expected_metrics(spec, trace):
    """name -> unit of the metrics a run must print."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no toolchain sources next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "perfbench_selftest", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def check_result(result, spec, trace):
    if set(result) != RESULT_KEYS:
        raise BenchError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise BenchError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise BenchError("failed must be a whole number >= 0")
    want = expected_metrics(spec, trace)
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise BenchError(f"{name}: value is not a number")


def run(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload}")
    build()
    os.makedirs(WORK, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden", os.path.join(HERE, "golden",
                                        args.workload + ".txt"),
               "--work-dir", WORK]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"perfbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    check_result(result, spec, args.trace == 1)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


def selftest():
    build()
    subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True)
    subprocess.run([sys.executable, "-m", "unittest", "-q",
                    "test_perfbench"], cwd=HERE, check=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
