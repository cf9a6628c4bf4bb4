#!/usr/bin/env python3
"""Summarise and compare end-to-end benchmark runs.

Reads the JSON lines that `run.sh --json FILE` appends (one line per run)
and the metric definitions in BENCHMARK.json.

  compare.py A.jsonl                  median and quartiles of every metric
  compare.py A.jsonl B.jsonl          ... and whether two sets of runs of the
                                      same commit agree within every bound
  compare.py --pairs PARENT CHANGE    the claim rule for a change: runs are
                                      paired by (workload, seed)

Quartiles are statistics.quantiles(values, n=4); a metric's spread is
(q3 - q1) / median. A set agrees with another when, for every end-to-end
metric, each set's spread is within the metric's bound and the second
median is no worse than the first by more than the bound.

The pair rule needs at least ten pairs per workload; with fewer, the
workload is reported as insufficient and the check fails. A change claims
a gain on a metric only when it wins at least nine tenths of all pairs
(ties count for neither side) and the two medians differ by more than the
parent's own quartile distance. Every
other end-to-end metric must be no worse than the parent's median by more
than its bound; where the parent's spread is wider than the bound the
metric is reported unresolved, unless every change run beats every parent
run. Exit status: 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, "..", "..", "BENCHMARK.json")
MIN_PAIRS = 10


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def group(runs):
    """(workload, trace) -> list of runs, in file order."""
    out = {}
    for run in runs:
        out.setdefault((run["workload"], run["trace"]), []).append(run)
    return out


def values(runs, name):
    return [r["result"]["metrics"][name]["value"]
            for r in runs if name in r["result"]["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0] if vals else float("nan")
        return v, v, v
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def metric_names(runs):
    names = []
    for run in runs:
        for name in run["result"]["metrics"]:
            if name not in names:
                names.append(name)
    return names


def summarise(label, groups, bench):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for (workload, trace), runs in sorted(groups.items()):
        failed = sum(r["result"]["failed"] for r in runs)
        incorrect = sum(1 for r in runs if not r["result"]["correct"])
        print("\n[%s] %s  trace=%d  runs=%d  failed=%d  incorrect=%d"
              % (label, workload, trace, len(runs), failed, incorrect))
        if incorrect:
            ok = False
        print("  %-40s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name in metric_names(runs):
            vals = values(runs, name)
            q1, med, q3 = quartiles(vals)
            unit = runs[0]["result"]["metrics"][name]["unit"]
            bound = e2e[name]["bound"] if name in e2e else None
            note = ""
            if bound is not None:
                s = spread(vals)
                if s > bound:
                    note, ok = "  OVER BOUND", False
                elif s > bound / 3:
                    note = "  over bound/3"
            print("  %-40s %14.6g %14.6g %14.6g %7.2f%% %6s %s%s" %
                  (name, q1, med, q3, 100 * spread(vals),
                   "" if bound is None else "%.0f%%" % (100 * bound), unit, note))
    return ok


def agree(groups_a, groups_b, bench):
    ok = True
    print("\nagreement of B with A (B median worse than A by at most the bound):")
    for key in sorted(groups_a):
        if key not in groups_b or key[1] != 0:
            continue
        for m in bench["end_to_end"]:
            a = values(groups_a[key], m["name"])
            b = values(groups_b[key], m["name"])
            if not a or not b:
                continue
            w = worse_by(statistics.median(a), statistics.median(b), m["better"])
            verdict = "ok" if w <= m["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print("  %-13s %-20s A %12.6g  B %12.6g  worse by %+7.2f%% (bound %.0f%%) %s"
                  % (key[0], m["name"], statistics.median(a), statistics.median(b),
                     100 * w, 100 * m["bound"], verdict))
    return ok


def pairs(parent_runs, change_runs, bench):
    ok = True
    parent = {(r["workload"], r["seed"]): r for r in parent_runs if r["trace"] == 0}
    change = {(r["workload"], r["seed"]): r for r in change_runs if r["trace"] == 0}
    workloads = sorted({w for (w, _) in parent})
    for workload in workloads:
        seeds = sorted(s for (w, s) in parent if w == workload and (w, s) in change)
        print("\n%s: %d pairs" % (workload, len(seeds)))
        if len(seeds) < MIN_PAIRS:
            print("  insufficient pairs: the rule needs at least %d" % MIN_PAIRS)
            ok = False
            continue
        for m in bench["end_to_end"]:
            name, better = m["name"], m["better"]
            p = [parent[(workload, s)]["result"]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["result"]["metrics"][name]["value"] for s in seeds]
            if not p:
                continue
            sign = -1 if better == "lower" else 1
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
            p_q1, p_med, p_q3 = quartiles(p)
            c_med = statistics.median(c)
            gain = (wins >= 0.9 * len(seeds) and
                    sign * (c_med - p_med) > (p_q3 - p_q1))
            w = worse_by(p_med, c_med, better)
            if gain:
                verdict = "GAIN"
            elif w <= m["bound"]:
                verdict = "no regression"
                if spread(p) > m["bound"]:
                    all_better = all(sign * (b - a) > 0 for a in p for b in c)
                    verdict = "no regression" if all_better else "unresolved"
            else:
                verdict, ok = "REGRESSION", False
            print("  %-20s parent %12.6g [%.6g, %.6g]  change %12.6g  wins %d/%d "
                  "losses %d  %+7.2f%%  %s"
                  % (name, p_med, p_q1, p_q3, c_med, wins, len(seeds), losses,
                     -100 * w, verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+", help="JSON-lines files from run.sh --json")
    parser.add_argument("--pairs", action="store_true",
                        help="apply the pair rule to PARENT CHANGE")
    args = parser.parse_args()
    with open(BENCH) as f:
        bench = json.load(f)

    if args.pairs:
        if len(args.files) != 2:
            parser.error("--pairs takes exactly two files")
        ok = pairs(load_runs(args.files[0]), load_runs(args.files[1]), bench)
        return 0 if ok else 1
    if len(args.files) > 2:
        parser.error("give one or two files")
    groups_a = group(load_runs(args.files[0]))
    ok = summarise("A", groups_a, bench)
    if len(args.files) == 2:
        groups_b = group(load_runs(args.files[1]))
        ok = summarise("B", groups_b, bench) and ok
        ok = agree(groups_a, groups_b, bench) and ok
    print("\n%s" % ("all checks hold" if ok else "some checks FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
