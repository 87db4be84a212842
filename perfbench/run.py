#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see METRICS.md).

Run from the repository root:

    python3 perfbench/run.py --workload hot_point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

The first form builds `perfbench` into `.bench_build/` (incrementally) and
passes its arguments through; the last stdout line is the result object.
`--selfcheck` is the determinism self-check and smoke: for every workload
the same seed must give the same stream and reference hashes, another seed
a different stream, and a short untraced and traced run must be correct
and report every metric named in BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["hot_point", "cold_compile", "big_batch"]


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: xptc sources not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(args):
    """Runs the binary; returns its stdout lines (stderr passes through)."""
    done = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if done.returncode != 0:
        sys.exit("perfbench: %s exited with %d" % (" ".join(args), done.returncode))
    return done.stdout.strip().splitlines()


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for wl in WORKLOADS:
        hashes = [json.loads(run(["--workload", wl, "--seed", str(s),
                                  "--hash-only"])[-1]) for s in (1, 1, 2)]
        if hashes[0] != hashes[1]:
            failures.append("%s: seed 1 hashes differ between runs" % wl)
        if hashes[0]["stream_hash"] == hashes[2]["stream_hash"]:
            failures.append("%s: seeds 1 and 2 give the same stream" % wl)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = run(["--workload", wl, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s trace %d: wrong answers" % (wl, trace))
            got = result["metrics"]
            wrong = [m["name"] for m in spec[key]
                     if got.get(m["name"], {}).get("unit") != m["unit"]]
            if wrong or len(got) != len(spec[key]):
                failures.append("%s trace %d: metrics missing, extra or with "
                                "the wrong unit: %s" % (wl, trace, wrong))
        print("%s: stream %s reference %s" % (
            wl, hashes[0]["stream_hash"], hashes[0]["reference_hash"]))
    for f in failures:
        print("FAIL " + f)
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    build()
    if sys.argv[1:] == ["--selfcheck"]:
        return selfcheck()
    for line in run(sys.argv[1:]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
