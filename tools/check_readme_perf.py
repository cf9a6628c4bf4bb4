#!/usr/bin/env python3
"""Check the README's GEMM table against the committed benchmark medians.

Usage:
    check_readme_perf.py [--readme README.md] [--bench BENCH_tensor_ops.json]

Each README row of the form

    | [m,k]·[k,n] | <portable> µs | <avx512> µs | <ratio>x |

must equal, at the number of decimals the cell shows, the median cpu_time of
BM_GemmKernelPortable/m/k/n and BM_GemmKernel/m/k/n in the benchmark JSON,
and their ratio (portable / AVX-512). Exits 1 naming every row that differs,
and also when the table has no rows at all (a renamed table would otherwise
pass forever).
"""

import argparse
import json
import re
import sys

ROW = re.compile(
    r"^\|\s*\[(\d+),(\d+)\]·\[(\d+),(\d+)\]\s*\|([^|]*)\|([^|]*)\|([^|]*)\|\s*$")


def medians_us(bench_path):
    """Median cpu_time in microseconds per benchmark run name."""
    with open(bench_path, encoding="utf-8") as f:
        data = json.load(f)
    scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}
    out = {}
    for b in data["benchmarks"]:
        if b.get("aggregate_name") == "median":
            out[b["run_name"]] = b["cpu_time"] * scale[b.get("time_unit", "ns")]
    return out


def check_cell(row, column, cell, value, unit):
    """Returns an error string, or None when `cell` shows `value`."""
    text = cell.strip()
    if not text.endswith(unit):
        return f"{row}: {column} cell '{text}' does not end in '{unit}'"
    number = text[: -len(unit)].strip()
    if not re.fullmatch(r"\d+(\.\d+)?", number):
        return f"{row}: {column} cell '{text}' is not a plain number"
    decimals = len(number.split(".")[1]) if "." in number else 0
    expected = f"{value:.{decimals}f}"
    if number != expected:
        return f"{row}: {column} shows '{text}', the median is {expected}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--readme", default="README.md")
    parser.add_argument("--bench", default="BENCH_tensor_ops.json")
    args = parser.parse_args()

    medians = medians_us(args.bench)
    errors = []
    rows = 0
    with open(args.readme, encoding="utf-8") as f:
        for line in f:
            match = ROW.match(line.strip())
            if match is None:
                continue
            rows += 1
            m, k, k2, n = match.group(1, 2, 3, 4)
            row = f"[{m},{k}]·[{k2},{n}]"
            if k != k2:
                errors.append(f"{row}: inner dimensions differ")
                continue
            suffix = f"/{m}/{k}/{n}"
            portable = medians.get("BM_GemmKernelPortable" + suffix)
            avx512 = medians.get("BM_GemmKernel" + suffix)
            if portable is None or avx512 is None:
                errors.append(f"{row}: no BM_GemmKernel{{,Portable}}{suffix} median "
                              f"in {args.bench}")
                continue
            for error in (
                    check_cell(row, "Portable", match.group(5), portable, "µs"),
                    check_cell(row, "AVX-512", match.group(6), avx512, "µs"),
                    check_cell(row, "Speedup", match.group(7), portable / avx512, "x")):
                if error is not None:
                    errors.append(error)

    if rows == 0:
        errors.append(f"no GEMM table rows found in {args.readme}")
    for error in errors:
        print(f"FAIL {error}")
    if errors:
        return 1
    print(f"OK: {rows} README GEMM rows match {args.bench} medians")
    return 0


if __name__ == "__main__":
    sys.exit(main())
