#!/usr/bin/env python3
"""Checks that BENCHMARK.json and perfbench/workloads.json agree with the
metrics and workloads the benchmark binary reports.

    python3 perfbench/tests/check_config.py <path to the perfbench binary>
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    listed = subprocess.run([sys.argv[1], "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    catalog = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        catalog[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
        config = json.load(f)
    errors = []
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in bench[kind]]
        if declared != catalog[kind]:
            errors.append(f"BENCHMARK.json {kind} differs from the binary's "
                          f"catalog: {declared} vs {catalog[kind]}")
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(config["workloads"]):
        errors.append(f"workloads differ: {names} vs {sorted(config['workloads'])}")
    if sorted(config["end_to_end"]) != sorted(n for n, _ in catalog["end_to_end"]):
        errors.append("workloads.json end_to_end definitions do not match")
    mapped = {m for row in config["layer_map"] for m in row["layers"]}
    missing = [n for n, _ in catalog["per_layer"] if n not in mapped]
    if missing:
        errors.append(f"layer_map misses {missing}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"]):
        errors.append("setup_s (s, lower) missing")
    top = max(m["bound"] for m in bench["end_to_end"])
    if next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s") != top:
        errors.append("setup_s must have the largest bound")
    for e in errors:
        print("error:", e, file=sys.stderr)
    print("config consistent" if not errors else f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
