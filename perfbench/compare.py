#!/usr/bin/env python3
"""Compares saved benchmark results (.bench_out/*.json written by run.py).

    python3 perfbench/compare.py --old A1.json A2.json --new B1.json B2.json

Prints, per metric, each side's median with its quartiles and the change of
the medians. Results measured on different hosts or build types are not
comparable: the command refuses to compare them.
"""
import argparse
import json
import statistics
import sys

# Signature fields that must agree; the source identity is expected to differ.
HOST_KEYS = ("cpu_model", "isa", "cores", "llc_bytes", "build_type")


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def host_sig(result):
    return tuple(result["signature"].get(k) for k in HOST_KEYS)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    old, new = load(args.old), load(args.new)
    sigs = {host_sig(r) for r in old + new}
    if len(sigs) > 1:
        print("compare: refusing to compare results from different host/build "
              "signatures:", file=sys.stderr)
        for s in sorted(sigs, key=str):
            print("  " + json.dumps(dict(zip(HOST_KEYS, s))), file=sys.stderr)
        return 2
    workloads = {r["workload"] for r in old + new}
    if len(workloads) > 1:
        print("compare: results mix workloads %s" % sorted(workloads), file=sys.stderr)
        return 2
    names = sorted(set.intersection(*(set(r["metrics"]) for r in old + new)))
    print("%-36s %-8s %28s %28s %8s" % ("metric", "unit", "old q1/med/q3",
                                         "new q1/med/q3", "change"))
    for n in names:
        a = [r["metrics"][n]["value"] for r in old]
        b = [r["metrics"][n]["value"] for r in new]
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] / qa[1] - 1.0) * 100 if qa[1] else float("nan")
        print("%-36s %-8s %28s %28s %+7.1f%%" % (
            n, old[0]["metrics"][n]["unit"], "%.4g/%.4g/%.4g" % qa,
            "%.4g/%.4g/%.4g" % qb, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
