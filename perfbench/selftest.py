#!/usr/bin/env python3
"""The benchmark's own tests (run with `python3 perfbench/run.py --self-test`).

Pins two properties of every workload's generated input:
  * the same seed gives the same request stream (equal stream hash);
  * a different seed gives a different stream;
and checks that the metric names and units the binary reports match the
end_to_end / per_layer lists of BENCHMARK.json.

usage: selftest.py <wrbpg_perfbench binary> <expected-answer dir>
"""
import json
import os
import subprocess
import sys

WORKLOADS = ["serve-hot", "solve-cold", "solve-deadline", "explore-sweep"]


def stream_hash(binary, data, workload, seed):
    out = subprocess.run(
        [binary, "--data", data, "--stream-hash", "--workload", workload,
         "--seed", str(seed)],
        check=True, capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


def main(binary, data):
    failures = []
    for workload in WORKLOADS:
        a = stream_hash(binary, data, workload, 1)
        b = stream_hash(binary, data, workload, 1)
        c = stream_hash(binary, data, workload, 2)
        if a != b:
            failures.append(f"{workload}: seed 1 gave {a} then {b}")
        if a == c:
            failures.append(f"{workload}: seeds 1 and 2 gave the same stream")
        print(f"{workload}: seed1={a} seed2={c}")

    manifest_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    reported = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        reported[kind].append((name, unit))
    for kind in reported:
        declared = [(m["name"], m["unit"]) for m in manifest[kind]]
        if sorted(declared) != sorted(reported[kind]):
            failures.append(f"{kind}: BENCHMARK.json and the binary disagree")

    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
