#!/usr/bin/env python3
"""Repository benchmark: builds the library and the benchmark binary from source, runs
one workload and prints one JSON result line.

    python3 perfbench/run.py --workload stream-cache --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics
(and a chrome trace under .bench_out/). Every result is also saved with its
host and build signature under .bench_out/ for perfbench/compare.py.
See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
# An untraced run: fresh processes of the binary sharing the run's seconds;
# their cold set-ups are the samples whose median is setup_s.
PROCESSES = 5


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = d if os.path.isabs(d) else os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build():
    """Configures and builds the benchmark binary (Release); returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to perfbench/ (run from a full checkout)")
    bdir = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", bdir, "--target", "perfbench", "-j",
         str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def source_id():
    """git sha when the checkout is a repository, else a digest of src/."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return "git:" + r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        p = os.path.join(ROOT, base)
        files = [p] if os.path.isfile(p) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(p) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def binary_args(cfg, args, seconds):
    s = cfg["serve"]
    lad = s["ladder"]
    return ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds),
            "--rates", "%g,%g" % (s["light_rps"], s["heavy_rps"]),
            "--limit-ms", "%g" % s["rps_max_p99_limit_ms"],
            "--ladder", "%g,%g,%g" % (lad["lo_rps"], lad["hi_rps"], lad["step"])]


def run_binary(cmd):
    """Runs the benchmark binary; returns (human lines, parsed JSON result)."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out: " + " ".join(cmd))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("benchmark binary exited with %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("benchmark binary printed nothing")
    return lines[:-1], json.loads(lines[-1])


def measure(base, seconds):
    """The untraced measurement: PROCESSES fresh processes of the binary share
    the run's seconds and each end-to-end metric is the median over them
    (peak_rss_mb the maximum), so a process that lands on an unlucky
    placement moves no figure. setup_s is the median of their cold set-ups."""
    k = PROCESSES
    lines, runs = [], []
    for i in range(k):
        # The rps_max ladder search runs once per run, in the first process.
        out, r = run_binary(base(seconds / k) + ([] if i == 0 else ["--no-ladder"]))
        lines += ["[process %d] %s" % (i, line) for line in out]
        runs.append(r)
    setups = [r["metrics"]["setup_s"]["value"] for r in runs]
    merged = {}
    for name in set.intersection(*(set(r["metrics"]) for r in runs)):
        vals = [r["metrics"][name]["value"] for r in runs]
        merged[name] = {"value": max(vals) if name == "peak_rss_mb" else statistics.median(vals),
                        "unit": runs[0]["metrics"][name]["unit"]}
    return lines, {"correct": all(r["correct"] for r in runs),
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "host": runs[0]["host"], "metrics": merged,
                   "per_process": [r["metrics"] for r in runs],
                   "setup_s_samples": setups}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found at the checkout root")
    with open(bench_json) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        cfg = json.load(f)
    # BENCHMARK.json gates the steady workloads; workloads.json names all.
    if args.workload not in cfg["workloads"]:
        fail("unknown workload " + args.workload)
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)

    def base(seconds):
        return [binary] + binary_args(cfg, args, seconds)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    setups = []
    if args.trace:
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        lines, res = run_binary(base(args.seconds) + ["--trace-out", trace_path])
        declared = spec["per_layer"]
    else:
        lines, res = measure(base, args.seconds)
        setups = res.pop("setup_s_samples")
        declared = spec["end_to_end"]

    metrics = {}
    for m in declared:
        got = res["metrics"].get(m["name"])
        if got is None:
            fail("benchmark binary did not report %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, declared in %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    signature = dict(res["host"])
    signature["source"] = source_id()
    saved = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "signature": signature, "setup_s_samples": setups,
             "correct": res["correct"], "attempted": res["attempted"],
             "failed": res["failed"], "metrics": res["metrics"],
             "per_process": res.get("per_process"), "text": lines}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(saved, f, indent=1)

    for line in lines:
        print(line)
    if setups:
        print("setup_s: median of %d fresh-process set-ups: %s" % (
            len(setups), ", ".join("%.4f" % s for s in setups)))
    print("fail_ratio: %d/%d" % (res["failed"], res["attempted"]))
    print("signature: " + json.dumps(signature, sort_keys=True))
    print(json.dumps({"correct": bool(res["correct"]) and res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
