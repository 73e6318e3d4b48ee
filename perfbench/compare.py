"""Compare two sets of benchmark runs.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py`` appends to
``.perfbench_out/results.jsonl``; copy that file aside after each set of
runs.  For every workload in both files and every end-to-end metric it
prints each side's quartiles and median over the untraced runs, the
relative change of the median, whether the base side's own spread
(third minus first quartile) resolves that change, and the verdict
against the metric's bound from BENCHMARK.json.  It then reports, per
workload, how many ops with the same CLI seed on both sides produced
bit-identical results (m, m_p, cp and the output digest).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXTRA = (("op_s_tail", "lower", None), ("fail_ratio", "lower", None))


def load(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_values(records: list, name: str) -> list:
    out = []
    for rec in records:
        if name in rec["result"]["metrics"]:
            out.append(rec["result"]["metrics"][name]["value"])
        elif isinstance(rec.get(name), dict):
            out.append(rec[name]["value"])
    return out


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list, new: list, better: str, bound) -> tuple:
    """(resolved, verdict) for one metric on one workload."""
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    resolved = abs(nmed - bmed) > (b3 - b1)
    if bound is None:
        return resolved, "-"
    worse = (nmed - bmed) if better == "lower" else (bmed - nmed)
    if worse <= bound * abs(bmed):
        return resolved, "ok"
    if (b3 - b1) > bound * abs(bmed):
        all_better = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return resolved, "ok" if all_better else "unresolved"
    return resolved, "REGRESSION"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def op_facts(records: list) -> dict:
    return {
        op["seed"]: (op.get("m"), op.get("m_p"), op.get("cp"), op.get("digest"))
        for rec in records
        for op in rec["ops"]
    }


def compare(base_records: list, new_records: list, spec: dict) -> list:
    """Report lines comparing two sets of runs."""
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]] + list(EXTRA)
    by_side = []
    for records in (base_records, new_records):
        groups = defaultdict(list)
        for rec in records:
            groups[rec["workload"]].append(rec)
        by_side.append(groups)
    lines = []
    for workload in sorted(set(by_side[0]) & set(by_side[1])):
        base_all, new_all = by_side[0][workload], by_side[1][workload]
        base = [r for r in base_all if r["trace"] == 0]
        new = [r for r in new_all if r["trace"] == 0]
        lines.append(f"{workload}: {len(base)} base runs, {len(new)} new runs (untraced)")
        if base and new:
            lines.append(f"  {'metric':<12} {'base q1/med/q3':<28} {'new q1/med/q3':<28} {'delta':>8}  resolved  verdict")
        for name, better, bound in metrics:
            bv, nv = metric_values(base, name), metric_values(new, name)
            if not bv or not nv:
                continue
            bq, nq = quartiles(bv), quartiles(nv)
            delta = f"{(nq[1] - bq[1]) / bq[1]:>+8.2%}" if bq[1] else f"{'-':>8}"
            resolved, word = verdict(bv, nv, better, bound)
            lines.append(
                f"  {name:<12} {'/'.join(map(fmt, bq)):<28} {'/'.join(map(fmt, nq)):<28} "
                f"{delta}  {'yes' if resolved else 'no':<8}  {word}"
            )
        base_ops, new_ops = op_facts(base_all), op_facts(new_all)
        shared = set(base_ops) & set(new_ops)
        same = sum(base_ops[s] == new_ops[s] for s in shared)
        lines.append(f"  ops with the same seed on both sides: {len(shared)}, bit-identical: {same}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    print("\n".join(compare(load(argv[0]), load(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
