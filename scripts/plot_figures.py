#!/usr/bin/env python3
"""Render the fig8/fig9/fig10 CSV families written by the bench harnesses
into PNGs — one command from sweep to figure.

The harnesses (bench/fig8_blockfree.cpp, bench/fig9_multicore.cpp,
bench/fig10_scalability.cpp) write `<name>-<stamp>.csv` into $SF_BENCH_OUT
(default: the working directory). This script scans a directory for those
families and renders one PNG per CSV next to it (or under --out):

    SF_BENCH_OUT=results ./fig10_scalability --pinned
    python3 scripts/plot_figures.py results

Family conventions:
  * fig8_*    — GFLOP/s vs problem size (log-x size sweep, one line/method);
  * fig9_*    — GFLOP/s per method on the multicore configuration (bars);
  * fig10_*   — GFLOP/s vs cores (one line per method, linear axes);
  * serving_* — client-observed latency percentiles vs offered load
                (bench/serving_throughput.cpp: p50 solid / p99 dashed, one
                color per serving mode);
  * telemetry_* — the sf::telemetry exporter family (SF_METRICS=1 runs):
                `telemetry_hist-*` (long-form metric,bucket_lo,bucket_hi,
                count from telemetry::write_reports — queue-depth and
                batch-size log-bucket histograms as one bar panel per
                metric), `telemetry_latency_*` (per-load-point p50/p99
                pairs from bench/serving_throughput.cpp — solid/dashed line
                per metric). telemetry_counters-*/telemetry_samples_* CSVs
                are data dumps, not figures, and are skipped.

Requires matplotlib; install it (`pip install matplotlib`) where you plot —
the bench machines only need to produce the CSVs.
"""

import argparse
import csv
import os
import re
import sys

# Matches the harness naming: <family>_<stencil>-<YYYYMMDD-HHMMSS>-p<pid>.csv
# (telemetry::write_reports uses the same stamp, so its CSVs join the runs).
FAMILY_RE = re.compile(
    r"^(fig8|fig9|fig10|serving|telemetry)_(.+)-(\d{8}-\d{6}-p\d+)\.csv$")


def parse_csv(path):
    """Returns (header, rows) with rows as lists of strings."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def to_float(cell):
    """Numeric cell value, or None for non-GFLOP/s cells. fig9's auto
    column annotates its number ('45.2:tiled' / '45.2:untiled') — keep the
    number; '-' markers and '3.4x' speedup ratios (different units) become
    None so their columns drop out of the GFLOP/s axes."""
    try:
        return float(cell.split(":")[0])
    except ValueError:
        return None


def numeric_columns(header, rows):
    """Yields (label, values) for every column after the first that has at
    least one numeric value; values align with the first column."""
    for c in range(1, len(header)):
        vals = [to_float(r[c]) if c < len(r) else None for r in rows]
        if any(v is not None for v in vals):
            yield header[c], vals


def plot_telemetry(plt, name, stencil, header, rows, out_dir):
    """Renders the sf::telemetry exporter CSVs. Histogram dumps
    (metric,bucket_lo,bucket_hi,count) become one bar panel per metric;
    latency sweeps (clients + *_p50_*/*_p99_* columns) become p50/p99 line
    pairs. Counter/sample dumps have no figure shape and are skipped."""
    if header[:4] == ["metric", "bucket_lo", "bucket_hi", "count"]:
        metrics = []
        for r in rows:
            if r[0] not in metrics:
                metrics.append(r[0])
        if not metrics:
            print(f"  skipping {name}: no histogram rows", file=sys.stderr)
            return None
        ncols = min(2, len(metrics))
        nrows = (len(metrics) + ncols - 1) // ncols
        fig, axes = plt.subplots(nrows, ncols,
                                 figsize=(5.0 * ncols, 3.2 * nrows),
                                 squeeze=False)
        for i, metric in enumerate(metrics):
            ax = axes[i // ncols][i % ncols]
            mine = [r for r in rows if r[0] == metric]
            labels = [f"{r[1]}–{r[2]}" for r in mine]
            counts = [to_float(r[3]) or 0 for r in mine]
            ax.bar(range(len(mine)), counts)
            ax.set_xticks(range(len(mine)))
            ax.set_xticklabels(labels, rotation=45, ha="right", fontsize=6)
            ax.set_title(metric, fontsize=8)
            ax.set_ylabel("count", fontsize=7)
            ax.grid(True, axis="y", alpha=0.3)
        for i in range(len(metrics), nrows * ncols):
            axes[i // ncols][i % ncols].axis("off")
        fig.suptitle("telemetry histograms (log2 buckets)")
        fig.tight_layout()
        out = os.path.join(out_dir, os.path.splitext(name)[0] + ".png")
        fig.savefig(out, dpi=150)
        plt.close(fig)
        return out

    # p50/p99 pairs over the first (x) column, e.g. telemetry_latency_*.
    pairs = []
    for h in header[1:]:
        if "_p50" in h:
            partner = h.replace("_p50", "_p99")
            if partner in header:
                pairs.append((h.split("_p50")[0], h, partner))
    if not pairs:
        print(f"  skipping {name}: no histogram or p50/p99 columns",
              file=sys.stderr)
        return None
    cols = {h: i for i, h in enumerate(header)}
    xs = [to_float(r[0]) for r in rows]
    fig, ax = plt.subplots(figsize=(6.4, 4.2))
    for label, p50, p99 in pairs:
        color = None
        for col, style, suffix in ((p50, "-", "p50"), (p99, "--", "p99")):
            ys = [to_float(r[cols[col]]) if cols[col] < len(r) else None
                  for r in rows]
            pts = [(x, y) for x, y in zip(xs, ys)
                   if x is not None and y is not None]
            if not pts:
                continue
            line, = ax.plot([p[0] for p in pts], [p[1] for p in pts],
                            style, color=color, marker="o", markersize=3,
                            label=f"{label} {suffix}")
            color = line.get_color()
    ax.set_xlabel(header[0])
    ax.set_ylabel("ms / value")
    ax.set_title(f"telemetry — {stencil}")
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=7)
    fig.tight_layout()
    out = os.path.join(out_dir, os.path.splitext(name)[0] + ".png")
    fig.savefig(out, dpi=150)
    plt.close(fig)
    return out


def plot_file(plt, path, out_dir):
    name = os.path.basename(path)
    m = FAMILY_RE.match(name)
    if not m:
        return None
    family, stencil = m.group(1), m.group(2)
    header, rows = parse_csv(path)
    if not header or not rows:
        print(f"  skipping {name}: empty table", file=sys.stderr)
        return None

    if family == "telemetry":
        return plot_telemetry(plt, name, stencil, header, rows, out_dir)

    fig, ax = plt.subplots(figsize=(6.4, 4.2))
    xlabels = [r[0] for r in rows]
    xnum = [to_float(x) for x in xlabels]
    numeric_x = all(v is not None for v in xnum)

    if family == "serving":
        # Rows are (mode, clients, ..., p50 ms, p99 ms, ...): pivot into one
        # latency-vs-clients line pair (p50 solid, p99 dashed) per mode.
        cols = {h: i for i, h in enumerate(header)}
        for want in ("clients", "p50 ms", "p99 ms"):
            if want not in cols:
                print(f"  skipping {name}: no '{want}' column",
                      file=sys.stderr)
                return None
        modes = []
        for r in rows:
            if r[0] not in modes:
                modes.append(r[0])
        for mode in modes:
            mine = [r for r in rows if r[0] == mode]
            xs = [to_float(r[cols["clients"]]) for r in mine]
            color = None
            for pct, style in (("p50 ms", "-"), ("p99 ms", "--")):
                ys = [to_float(r[cols[pct]]) for r in mine]
                pts = [(x, y) for x, y in zip(xs, ys)
                       if x is not None and y is not None]
                if not pts:
                    continue
                line, = ax.plot([p[0] for p in pts], [p[1] for p in pts],
                                style, color=color, marker="o", markersize=3,
                                label=f"{mode} {pct.split()[0]}")
                color = line.get_color()
        ax.set_xlabel("clients (offered load)")
        ax.set_ylabel("latency (ms)")
        ax.set_title(f"{family} — {stencil}")
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=7)
        fig.tight_layout()
        out = os.path.join(out_dir, os.path.splitext(name)[0] + ".png")
        fig.savefig(out, dpi=150)
        plt.close(fig)
        return out

    if family == "fig9":
        # One multicore configuration: grouped bars, one group per row.
        series = list(numeric_columns(header, rows))
        width = 0.8 / max(1, len(series))
        for i, (label, vals) in enumerate(series):
            xs = [j + i * width for j in range(len(rows))]
            ax.bar(xs, [v if v is not None else 0 for v in vals],
                   width=width, label=label)
        ax.set_xticks([j + 0.4 - width / 2 for j in range(len(rows))])
        ax.set_xticklabels(xlabels, rotation=30, ha="right", fontsize=8)
    else:
        for label, vals in numeric_columns(header, rows):
            xs = xnum if numeric_x else list(range(len(rows)))
            pts = [(x, v) for x, v in zip(xs, vals) if v is not None]
            if not pts:
                continue
            ax.plot([p[0] for p in pts], [p[1] for p in pts],
                    marker="o", markersize=3, label=label)
        if not numeric_x:
            ax.set_xticks(list(range(len(rows))))
            ax.set_xticklabels(xlabels, rotation=30, ha="right", fontsize=8)
        if family == "fig8" and numeric_x:
            ax.set_xscale("log")
        ax.set_xlabel(header[0])

    ax.set_ylabel("GFLOP/s")
    ax.set_title(f"{family} — {stencil}")
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=7)
    fig.tight_layout()

    out = os.path.join(out_dir, os.path.splitext(name)[0] + ".png")
    fig.savefig(out, dpi=150)
    plt.close(fig)
    return out


def main():
    ap = argparse.ArgumentParser(
        description="Render fig8/fig9/fig10 bench CSVs into PNGs.")
    ap.add_argument("dir", nargs="?",
                    default=os.environ.get("SF_BENCH_OUT", "."),
                    help="directory holding the CSVs "
                         "(default: $SF_BENCH_OUT or .)")
    ap.add_argument("-o", "--out", default=None,
                    help="output directory for PNGs (default: same as dir)")
    args = ap.parse_args()

    try:
        import matplotlib
        matplotlib.use("Agg")  # headless: no display needed on bench boxes
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("plot_figures.py needs matplotlib "
                 "(pip install matplotlib); the bench harnesses themselves "
                 "do not — run them anywhere and plot where matplotlib is "
                 "available.")

    if not os.path.isdir(args.dir):
        sys.exit(f"not a directory: {args.dir}")
    out_dir = args.out or args.dir
    os.makedirs(out_dir, exist_ok=True)

    made = []
    for name in sorted(os.listdir(args.dir)):
        if FAMILY_RE.match(name):
            out = plot_file(plt, os.path.join(args.dir, name), out_dir)
            if out:
                made.append(out)
                print(f"wrote {out}")
    if not made:
        sys.exit(f"no fig8_*/fig9_*/fig10_*/serving_*/telemetry_* CSVs "
                 f"found in {args.dir} "
                 "(run the bench harnesses with SF_BENCH_OUT set first)")


if __name__ == "__main__":
    main()
