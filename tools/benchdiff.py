#!/usr/bin/env python3
"""Diff two ufotm-bench (or ufotm-svc) documents for regressions.

  benchdiff.py BASELINE CURRENT [--threshold 0.10] [--report PATH]

Rows are matched by their identity fields (benchmark/system/policy/
threads/series/failover_rate/tx_per_thread, plus mode/request/shards/
batch_k for svc rows);
the compared metric is `cycles` where a row has one (figure5/6/8
rows, lower is better), `p99_cycles` (svc latency rows, lower is
better), else `throughput_tx_per_mcycle` / `throughput_req_per_mcycle`
(figure7 / svc throughput rows, higher is better).  The simulator is
deterministic, so on an unchanged tree every delta is exactly zero;
any per-row change worse than --threshold (relative) fails the diff.

Exit status: 0 = no regression, 1 = regression or row mismatch,
2 = unusable input.  --report writes a machine-readable JSON diff
(uploaded as a CI artifact on failure).
"""

import argparse
import json
import sys

KEY_FIELDS = ("benchmark", "system", "policy", "threads", "series",
              "failover_rate", "tx_per_thread", "mode", "request",
              "shards", "batch_k")

# (metric, direction): +1 means larger-is-worse, -1 larger-is-better.
METRICS = (("cycles", 1), ("p99_cycles", 1),
           ("throughput_tx_per_mcycle", -1),
           ("throughput_req_per_mcycle", -1))

SCHEMAS = ("ufotm-bench", "ufotm-svc")


def row_key(row):
    return tuple((k, row[k]) for k in KEY_FIELDS if k in row)


def key_str(key):
    return " ".join(f"{k}={v}" for k, v in key)


def pick_metric(base_row, cur_row):
    for metric, direction in METRICS:
        if metric in base_row and metric in cur_row:
            return metric, direction
    return None, 0


def load_doc(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"benchdiff: cannot read {path}: {e}")
    if doc.get("schema") not in SCHEMAS:
        sys.exit(f"benchdiff: {path}: schema is {doc.get('schema')!r},"
                 f" want one of {SCHEMAS}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        sys.exit(f"benchdiff: {path}: no rows")
    return doc


def diff(base_doc, cur_doc, threshold):
    base = {row_key(r): r for r in base_doc["rows"]}
    cur = {row_key(r): r for r in cur_doc["rows"]}
    rows, problems = [], []

    for key, brow in base.items():
        crow = cur.get(key)
        if crow is None:
            problems.append(f"row missing from current: {key_str(key)}")
            continue
        metric, direction = pick_metric(brow, crow)
        if metric is None:
            problems.append(f"no comparable metric: {key_str(key)}")
            continue
        bval, cval = brow[metric], crow[metric]
        delta = 0.0 if bval == cval else \
            (cval - bval) / bval if bval else float("inf")
        regressed = delta * direction > threshold
        rows.append({
            "key": dict(key),
            "metric": metric,
            "baseline": bval,
            "current": cval,
            "delta": delta,
            "regressed": regressed,
        })
        if regressed:
            problems.append(
                f"{key_str(key)}: {metric} {bval} -> {cval} "
                f"({delta:+.1%}, threshold {threshold:.0%})")
    for key in cur:
        if key not in base:
            rows.append({"key": dict(key), "new_row": True})
    return rows, problems


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative per-row regression threshold "
                         "(default 0.10)")
    ap.add_argument("--report", metavar="PATH",
                    help="write the JSON diff here")
    args = ap.parse_args()

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    if base_doc.get("schema") != cur_doc.get("schema"):
        sys.exit(f"benchdiff: schema mismatch: "
                 f"{base_doc.get('schema')!r} vs "
                 f"{cur_doc.get('schema')!r}")
    if base_doc.get("bench") != cur_doc.get("bench"):
        sys.exit(f"benchdiff: bench mismatch: "
                 f"{base_doc.get('bench')!r} vs {cur_doc.get('bench')!r}")

    rows, problems = diff(base_doc, cur_doc, args.threshold)

    if args.report:
        report = {
            "schema": "ufotm-benchdiff",
            "schema_version": 1,
            "bench": base_doc.get("bench"),
            "baseline": args.baseline,
            "current": args.current,
            "threshold": args.threshold,
            "regressions": sum(1 for r in rows if r.get("regressed")),
            "problems": problems,
            "rows": rows,
        }
        with open(args.report, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")

    compared = [r for r in rows if "delta" in r]
    direction = dict(METRICS)
    worst = max((r["delta"] * direction.get(r["metric"], 1)
                 for r in compared), default=0.0)
    print(f"benchdiff: {base_doc.get('bench')}: {len(compared)} rows "
          f"compared, worst delta {worst:+.2%}")
    if problems:
        for p in problems:
            print(f"FAIL: {p}", file=sys.stderr)
        sys.exit(1)
    print("OK (no regression)")


if __name__ == "__main__":
    main()
