#!/usr/bin/env python3
"""Checks BENCHMARK.json against the ptar_bench binary.

    python3 ptar_bench/config_check.py --binary=.bench_build/ptar_bench \\
        --benchmark=BENCHMARK.json

Fails (exit 1) unless
  - BENCHMARK.json is well formed: its keys, name/unit syntax, bounds and
    the required setup_s metric;
  - its workloads (name, why) and its end-to-end and per-layer metrics
    (name, unit, better) are exactly the binary's registry, in order;
  - a bogus --workload, a non-numeric --seed and a missing --workload each
    exit nonzero with an `error:` line and print no result.
"""

import argparse
import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
MAX_BOUND = 0.25


def check_format(bench, errors):
    if set(bench) != TOP_KEYS:
        errors.append(f"top-level keys are {sorted(bench)}")
        return
    if not (isinstance(bench["run_seconds"], int)
            and 1 <= bench["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number in [1, 60]")
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("there must be 2 to 8 workloads")
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"}:
            errors.append(f"workload {w} must have exactly name and why")
            continue
        names.append(w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: why must be one line "
                          "of at most 200 characters")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in bench[section]:
            if set(m) != keys:
                errors.append(f"{section} metric {m} must have keys "
                              f"{sorted(keys)}")
                continue
            names.append(m["name"])
            if not UNIT.match(m["unit"]):
                errors.append(f"bad unit {m['unit']!r} on {m['name']}")
            if m["better"] not in ("higher", "lower"):
                errors.append(f"bad direction on {m['name']}")
            if section == "end_to_end" and not (
                    0 <= m["bound"] <= MAX_BOUND):
                errors.append(f"bound of {m['name']} must be in [0, 0.25]")
    for n in names:
        if not NAME.match(n):
            errors.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        errors.append("names must be unique")
    setup = [m for m in bench["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("end_to_end must contain setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s must have the largest bound")


def check_registry(bench, registry, errors):
    def strip(metrics):
        return [(m["name"], m["unit"], m["better"]) for m in metrics]

    if [(w["name"], w["why"]) for w in bench["workloads"]] != \
            [(w["name"], w["why"]) for w in registry["workloads"]]:
        errors.append("workloads differ from the binary's registry")
    for section in ("end_to_end", "per_layer"):
        want = strip(registry[section])
        have = strip(bench[section])
        if have != want:
            missing = sorted(set(want) - set(have))
            extra = sorted(set(have) - set(want))
            errors.append(f"{section} differs from the binary's registry "
                          f"(missing {missing}, unexpected {extra})")


def check_rejects(binary, errors):
    cases = {
        "bogus workload": ["--workload=bogus", "--seed=1"],
        "non-numeric seed": ["--workload=rush-ch", "--seed=abc"],
        "missing workload": ["--seed=1"],
    }
    for label, args in cases.items():
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=60, check=False)
        if proc.returncode == 0:
            errors.append(f"{label}: exited 0")
        if not any(line.startswith("error: ")
                   for line in proc.stderr.splitlines()):
            errors.append(f"{label}: no 'error:' line on stderr")
        if '"correct"' in proc.stdout:
            errors.append(f"{label}: printed a result")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    registry = json.loads(subprocess.run(
        [args.binary, "--print_registry"], capture_output=True, text=True,
        check=True, timeout=60).stdout)

    errors = []
    check_format(bench, errors)
    if not errors:
        check_registry(bench, registry, errors)
    check_rejects(args.binary, errors)
    for e in errors:
        print(f"FAIL: {e}")
    if errors:
        return 1
    print(f"bench_config_check OK: {len(bench['workloads'])} workloads, "
          f"{len(bench['end_to_end'])} end-to-end and "
          f"{len(bench['per_layer'])} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
