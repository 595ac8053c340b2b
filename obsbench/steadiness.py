#!/usr/bin/env python3
"""Record how steady the benchmark's metrics are.

Run from the repository root:

    python3 obsbench/steadiness.py --runs 10 --first-seed 701 --second-seed 801 \\
        --traced-seed 11 > obsbench/STEADINESS.md 2> obsbench/steadiness.log

Every section of the output is computed here; nothing is added by hand.

1. First set: for each workload in BENCHMARK.json, --runs untraced runs,
   one per seed from --first-seed on, at the file's run_seconds. A table
   gives each end-to-end metric's median, quartiles and spread: the
   interquartile range as a share of the median, with the quartiles
   taken as statistics.quantiles(values, n=4) takes them.
2. Second set (with --second-seed): the same again from that seed on,
   and a table of how much worse each second median is than the first,
   as a share of the first, beside the metric's bound.
3. Traced runs (with --traced-seed): one --trace 1 run per workload,
   checked to report every per-layer metric in BENCHMARK.json, and a
   table of the ledger's guard metrics and a few layer figures.

Raw results go to standard error as they arrive, one line per run. The script exits
non-zero if a run fails, prints no result, or reports correct: false.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

TRACED_COLUMNS = [
    "trace.overhead_frac",
    "ledger.unattributed_frac",
    "agent.match.hit_ratio",
    "checkpoint.capture_ms",
    "stream.tail.wait_ms",
]


def run_once(bench, workload, seed, trace):
    t0 = time.time()
    p = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace} ({time.time() - t0:.0f}s): {json.dumps(res)}",
          file=sys.stderr, flush=True)
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs differ from the reference")
    return res


def run_set(bench, workloads, first_seed, runs):
    """Return {workload: (values by metric, attempted, failed)}."""
    out = {}
    for wl in workloads:
        values, attempted, failed = {}, 0, 0
        for seed in range(first_seed, first_seed + runs):
            res = run_once(bench, wl, seed, 0)
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        out[wl] = (values, attempted, failed)
    return out


def summary(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=701)
    ap.add_argument("--second-seed", type=int, help="also run a second set from this seed")
    ap.add_argument("--traced-seed", type=int, help="also make one traced run per workload")
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]
    secs = bench["run_seconds"]
    cmd = f"python3 obsbench/steadiness.py --runs {args.runs} --first-seed {args.first_seed}"
    if args.second_seed is not None:
        cmd += f" --second-seed {args.second_seed}"
    if args.traced_seed is not None:
        cmd += f" --traced-seed {args.traced_seed}"
    if args.workloads:
        cmd += " --workloads " + " ".join(args.workloads)

    out = [
        "# Steadiness record",
        "",
        f"Produced by `{cmd}`, every section of it.",
        f"Each set makes {args.runs} runs per workload, one per seed, with `--seconds {secs} --trace 0`.",
        "Spread is (Q3 − Q1) / median with quartiles from `statistics.quantiles(values, n=4)`.",
        "",
    ]
    first = run_set(bench, names, args.first_seed, args.runs)
    out += [f"## First set: seeds {args.first_seed}–{args.first_seed + args.runs - 1}", ""]
    over = []
    for wl in names:
        values, attempted, failed = first[wl]
        out += [
            f"### {wl}",
            "",
            f"{failed} of {attempted} operations failed.",
            "",
            "| metric | unit | median | Q1 | Q3 | spread | bound |",
            "|---|---|---|---|---|---|---|",
        ]
        for m in e2e:
            med, q1, q3, spread = summary(values[m["name"]])
            out.append(f"| `{m['name']}` | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} |"
                       f" {spread:.4f} | {m['bound']} |")
            if m["name"] != "setup_s" and spread > m["bound"]:
                over.append(f"{wl} `{m['name']}` (first set)")
        out.append("")

    if args.second_seed is not None:
        second = run_set(bench, names, args.second_seed, args.runs)
        out += [
            f"## Second set: seeds {args.second_seed}–{args.second_seed + args.runs - 1}",
            "",
            "The same procedure again, to check that medians repeat. \"Change\" is how much worse the"
            " second median is than the first, as a share of the first (negative: better).",
            "",
            "| workload | metric | first median | second median | change (worse +) | bound | second spread |",
            "|---|---|---|---|---|---|---|",
        ]
        worse = []
        for wl in names:
            for m in e2e:
                a, *_ = summary(first[wl][0][m["name"]])
                b, _, _, spread = summary(second[wl][0][m["name"]])
                change = (b - a) / a if m["better"] == "lower" else (a - b) / a
                out.append(f"| {wl} | `{m['name']}` | {a:.6g} | {b:.6g} | {change:+.4f} |"
                           f" {m['bound']} | {spread:.4f} |")
                if m["name"] != "setup_s" and spread > m["bound"]:
                    over.append(f"{wl} `{m['name']}` (second set)")
                if change > m["bound"]:
                    worse.append(f"{wl} `{m['name']}`")
        failed = sum(second[wl][2] for wl in names)
        attempted = sum(second[wl][1] for wl in names)
        out += [
            "",
            f"{failed} of {attempted} operations failed in the second set.",
            "Second medians worse than the first by more than the bound: "
            + (", ".join(worse) if worse else "none") + ".",
            "",
        ]
    out += [
        "Spreads beyond their bound (`setup_s` is exempt): "
        + (", ".join(over) if over else "none") + ".",
        "",
    ]

    if args.traced_seed is not None:
        want = [m["name"] for m in bench["per_layer"]]
        out += [
            f"## Traced runs: seed {args.traced_seed}",
            "",
            f"One `--seconds {secs} --trace 1` run per workload. A traced run fails unless its traced"
            " views equal the untraced run's and the reference.",
            "",
            "| workload | per-layer metrics | " + " | ".join(f"`{c}`" for c in TRACED_COLUMNS) + " |",
            "|---|---|" + "---|" * len(TRACED_COLUMNS),
        ]
        for wl in names:
            res = run_once(bench, wl, args.traced_seed, 1)
            got = res["metrics"]
            missing = [n for n in want if n not in got]
            if missing:
                sys.exit(f"{wl}: traced run lacks {missing}")
            cells = " | ".join(f"{got[c]['value']:.3g}" for c in TRACED_COLUMNS)
            out.append(f"| {wl} | {len(want)} of {len(want)} | {cells} |")
        out.append("")
    print("\n".join(out))


if __name__ == "__main__":
    main()
