#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the simulator, the tmtorture CLI and the benchmark runner from
source into .bench_build/perfbench, runs workload W for about S seconds
of host time, checks its outputs, prints every metric by name with its
unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 the per-layer metrics, from a run whose
traced rounds alternate with untraced ones, and writes the spans to
.bench_build/traces/.  Exits 1, without a result line, when the build
fails, and with correct=false when any check fails.
"""

import argparse
import ctypes
import json
import math
import os
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

WORKLOADS = ("stamp-kmeans-high", "stamp-vacation-low", "stamp-genome",
             "kv-durable", "torture-crash")
TORTURE = "torture-crash"

READ_VERBS = ("get", "scan", "raw_get")
WRITE_VERBS = ("put", "rmw", "xfer")

ADDR_NO_RANDOMIZE = 0x0040000

# The reference computation's median host time on the shared 4-core VM
# the bounds were set on.  setup_s is given in seconds of a host that
# runs the reference in this time (see setup_seconds).
REF_NOMINAL_S = 0.025

# The crash-cycle fields that must agree between the tmtorture CLI and
# the library calls.
CRASH_KEYS = ("ok", "crash_step", "probe_steps", "committed", "fenced",
              "recovered", "discarded", "recover")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once per checkout, then build incrementally."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                os.remove(cache)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "ufobench", "tmtorture"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=800)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def fix_layout():
    """Start every child with address-space randomization off.  With
    it on, each process draws its own heap, stack and fiber-stack
    addresses and keeps their cache behaviour for its whole life: six
    runner processes of one workload spread by 27% in time relative to
    the reference computation, and by 9% with it off."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality.restype = ctypes.c_int
        libc.personality.argtypes = [ctypes.c_ulong]
        cur = libc.personality(0xFFFFFFFF)
        if cur == -1 or libc.personality(cur | ADDR_NO_RANDOMIZE) == -1:
            raise OSError(ctypes.get_errno(), "personality")
    except (OSError, AttributeError) as e:
        log("perfbench: address randomization stays on (%s)" % e)


def run_json(cmd, timeout):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        log(r.stderr[-4000:])
        raise BenchError("%s exited %d" % (os.path.basename(cmd[0]),
                                           r.returncode))
    return json.loads(r.stdout)


def run_child(cmd, timeout):
    """Run @p cmd; return its exit code and the peak RSS (KiB) of that
    child alone."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss


def med(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def best(samples, key, traced=False):
    """Sum over instances of each instance's best (lowest) host time:
    interference from other processes only ever adds time."""
    return sum(min(s[key] for s in runs if s["traced"] == traced)
               for runs in samples)


def rounds(samples, traced=False):
    """Per-round lists of one sample per instance (rounds align)."""
    return [list(r) for r in zip(*([s for s in runs if s["traced"] == traced]
                                   for runs in samples))]


def round_median(samples, keys):
    """Median over untraced rounds of the round's total of @p keys."""
    return med([sum(s[k] for s in rnd for k in keys)
                for rnd in rounds(samples)])


def rel_time(samples):
    """Host time of the workload's fixed work in multiples of the
    reference computation: each untraced unit's time over the mean of
    the reference runs just before and just after it, the median of
    that over each unit's rounds, summed over the units.  The host
    switches between a fast and a slow state (the reference alone
    takes 20 or 27 ms) every few seconds; the ratio keeps across
    them where the seconds do not."""
    return sum(med([s["wall_s"] * 2 / (s["ref_s"] + s["ref_after_s"])
                    for s in runs if not s["traced"]])
               for runs in samples)


def setup_seconds(doc):
    """Host seconds before the first simulated step, measured against
    the reference runs beside them and given in seconds of a host on
    which the reference takes REF_NOMINAL_S.  For a simulated workload:
    each round's set-up summed over its units, the median over the
    rounds; for torture-crash: the median of its set-up repetitions.
    Raw set-up seconds of one workload moved by 54% between two sets
    of runs 40 minutes apart; their ratio to the reference stays within
    4%."""
    if doc["workload"] == TORTURE:
        ref = sum(doc["setup_ref_s"]) / 2
        return med(doc["setup_s"]) / ref * REF_NOMINAL_S
    return med([sum((s["setup_machine_s"] + s["setup_workload_s"]) * 2 /
                    (s["ref_s"] + s["ref_after_s"]) for s in rnd)
                for rnd in rounds(doc["samples"])]) * REF_NOMINAL_S


def sum_counters(maps):
    out = {}
    for m in maps:
        for k, v in m.items():
            out[k] = out.get(k, 0) + v
    return out


def merge_hists(instances, names):
    h = {"samples": 0, "sum": 0, "buckets": [0] * 33}
    for inst in instances:
        for name in names:
            x = inst["histograms"].get(name)
            if not x:
                continue
            h["samples"] += x["samples"]
            h["sum"] += x["sum"]
            h["buckets"] = [a + b for a, b in zip(h["buckets"],
                                                  x["buckets"])]
    return h


def bucket_quantile(h, q):
    """Histogram::quantile (src/sim/stats.cc): the upper bound of the
    power-of-two bucket holding quantile q."""
    if not h["samples"]:
        return 0
    target = int(q * (h["samples"] - 1)) + 1
    seen = 0
    for b, c in enumerate(h["buckets"]):
        seen += c
        if seen >= target:
            return 0 if b == 0 else (1 << b) - 1
    return 0


def ranked_beyond(h, q):
    """Samples ranked above quantile q, by Histogram::quantile's rank."""
    if not h["samples"]:
        return 0
    return h["samples"] - (int(q * (h["samples"] - 1)) + 1)


def exact_quantile(sorted_xs, q):
    """Nearest-rank quantile of an already sorted list."""
    if not sorted_xs:
        return 0
    return sorted_xs[min(len(sorted_xs),
                         max(1, math.ceil(q * len(sorted_xs)))) - 1]


def torture_cli(doc):
    """Run the sweep through the tmtorture CLI as CI does, one
    invocation per (backend, policy) cell.  Every report must show no
    failures, and every crash cycle must match the runner's
    runCrashTorture() result.  Returns the peak RSS of the tmtorture
    processes, their crash cycles and the problems."""
    lib = {(r["backend"], r["policy"], r["seed"]): r for r in doc["runs"]}
    cycles, problems, rss = [], [], 0
    out = os.path.join(BUILD, "tmtorture-report.json")
    timeline = os.path.join(BUILD, "tmtorture-timeline.json")
    for args in doc["torture_invocations"]:
        if os.path.exists(out):
            os.remove(out)
        rc, maxrss = run_child([os.path.join(BUILD, "tmtorture")] + args +
                               ["--out", out, "--timeline-out", timeline],
                               120)
        rss = max(rss, maxrss)
        if not os.path.exists(out):
            problems.append("tmtorture wrote no report (exit %d)" % rc)
            continue
        with open(out) as f:
            rep = json.load(f)
        if rc != 0 or rep["summary"]["failures"] != 0:
            problems.append("tmtorture %s: %d failures" % (
                " ".join(args), rep["summary"]["failures"]))
        for r in rep["runs"]:
            want = lib.get((r["backend"], r["policy"], r["seed"]))
            if want is None or any(r.get(k) != want.get(k)
                                   for k in CRASH_KEYS):
                problems.append("product_check: tmtorture differs from "
                                "runCrashTorture on %s/%s seed %d" % (
                                    r["backend"], r["policy"], r["seed"]))
        cycles += rep["runs"]
    if len(cycles) != len(lib):
        problems.append("product_check: tmtorture ran another sweep")
    return rss, cycles, sorted(set(problems))


def span_metrics(spans):
    """Self time per layer span (best of the traced rounds, summed over
    instances), span counts, and exact atomic() latencies."""
    names = {"instance": "instance", "TxSystem::setup": "txsystem_setup",
             "Workload::setup": "workload_setup",
             "Machine::run": "machine_run",
             "Workload::validate": "workload_validate",
             "runCrashTorture": "run_crash_torture"}
    host = spans["host"]
    child = [0.0] * len(host)
    for s in host:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_s"] - s["start_s"]
    # Self time by (instance, layer), one list entry per traced round.
    per = {}
    roots = 0
    for i, s in enumerate(host):
        if s["parent"] < 0:
            roots += 1
            for key in names.values():
                per.setdefault((s["instance"], key), []).append(0.0)
        per[(s["instance"], names[s["name"]])][-1] += (
            s["end_s"] - s["start_s"] - child[i])
    m = {}
    for key in names.values():
        m["trace.self_s." + key] = (
            sum(min(v) for (_, k), v in per.items() if k == key), "s",
            roots)
    m["trace.host_spans"] = (len(host), "count", roots)
    top = sorted(a[4] - a[3] for a in spans["atomic"] if a[5] < 0)
    m["trace.atomic_spans"] = (len(spans["atomic"]), "count", 1)
    m["tx.atomic_mean_cycles"] = (ratio(sum(top), len(top)), "cycles",
                                  len(top))
    m["tx.atomic_p50_cycles"] = (exact_quantile(top, 0.5), "cycles",
                                 len(top))
    m["tx.atomic_p999_cycles"] = (exact_quantile(top, 0.999), "cycles",
                                  len(top))
    return m


def per_layer(doc, spans):
    torture = doc["workload"] == TORTURE
    samples = doc["samples"]
    n = len(rounds(samples))
    if torture:
        # Crashed machines never finalize their counters, so the layer
        # counters come from the traced run's crash-free runTorture().
        c = sum_counters(p["counters"] for p in doc["probes"])
        insts = []
        cycles = sum(p["cycles"] for p in doc["probes"])
    else:
        insts = doc["instances"]
        c = sum_counters(i["counters"] for i in insts)
        cycles = sum(i["cycles"] for i in insts)

    def g(k):
        return c.get(k, 0)

    m = {}
    run_s = best(samples, "run_s")
    steps = g("sched.steps")
    if torture:
        steps = sum(r["probe_steps"] + r["crash_steps"] for r in doc["runs"])
    m["sim.run_s"] = (run_s, "s", n)
    m["sim.steps"] = (steps, "count", 1)
    m["sim.ns_per_step"] = (ratio(run_s * 1e9, steps), "ns", n)
    m["sim.continue_frac"] = (
        1 - ratio(g("sched.preemptions"), g("sched.steps")), "ratio",
        g("sched.steps"))
    if torture:
        m["sim.setup.machine_s"] = (med(doc["setup_s"]), "s",
                                    len(doc["setup_s"]))
    else:
        m["sim.setup.machine_s"] = (
            round_median(samples, ["setup_machine_s"]), "s", n)
    m["sim.setup.workload_s"] = (
        round_median(samples, ["setup_workload_s"]), "s", n)
    m["sim.validate_s"] = (best(samples, "validate_s"), "s", n)

    l1 = g("mem.l1_hits") + g("mem.l1_misses")
    l2 = g("mem.l2_hits") + g("mem.l2_misses")
    m["mem.l1_miss_frac"] = (ratio(g("mem.l1_misses"), l1), "ratio", l1)
    m["mem.l2_miss_frac"] = (ratio(g("mem.l2_misses"), l2), "ratio", l2)
    m["mem.cache_transfers"] = (g("mem.cache_transfers"), "count", 1)
    commits = g("tm.commits.hw") + g("tm.commits.sw")
    reqs = g("svc.requests") or commits
    persist = g("prof.cycles.btm.persist") + g("prof.cycles.ustm.persist")
    m["mem.persist.cycles_per_req"] = (ratio(persist, reqs), "cycles/req",
                                       reqs)
    m["mem.persist.sfence_per_req"] = (ratio(g("dur.sfence"), reqs),
                                       "1/req", reqs)
    m["mem.persist.clwb_per_req"] = (
        ratio(g("dur.clwb.dirty") + g("dur.clwb.clean"), reqs), "1/req",
        reqs)
    m["mem.persist.log_bytes_per_req"] = (ratio(g("dur.log_bytes"), reqs),
                                          "B/req", reqs)
    m["dur.commit_shield_nacks"] = (g("dur.commit_shield_nacks"), "count",
                                    1)

    m["btm.commit_frac"] = (ratio(g("btm.commits"), g("btm.begins")),
                            "ratio", g("btm.begins"))
    for r in ("conflict", "set_overflow", "ufo_fault", "ufo_bit_set",
              "interrupt"):
        m["btm.aborts." + r] = (g("btm.aborts." + r), "count", 1)
    m["btm.nacks"] = (g("btm.nacks"), "count", 1)
    m["btm.wounds"] = (g("btm.wounds"), "count", 1)
    for ph in ("begin", "commit", "abort_unwind", "ufo_handler", "persist"):
        m["btm.cycles." + ph] = (g("prof.cycles.btm." + ph), "cycles", 1)

    thread_cycles = sum(v for k, v in c.items()
                        if k.startswith("prof.cycles."))
    m["hybrid.failover_frac"] = (ratio(g("tm.failovers"), commits),
                                 "ratio", commits)
    m["hybrid.backoff_frac"] = (
        ratio(g("prof.cycles.tm.backoff"), thread_cycles), "ratio", 1)
    m["ufo.bit_sets"] = (g("ufo.bit_sets"), "count", 1)
    m["ufo.faults"] = (g("ufo.faults"), "count", 1)
    m["ustm.commit_frac"] = (ratio(g("ustm.commits"), g("ustm.begins")),
                             "ratio", g("ustm.begins"))
    for ph in ("barrier_read", "barrier_write", "commit", "stall",
               "otable_walk"):
        m["ustm.cycles." + ph] = (g("prof.cycles.ustm." + ph), "cycles", 1)

    served = g("svc.requests")
    lat = merge_hists(insts, ["svc.latency"])
    m["svc.req_per_mcycle"] = (ratio(served * 1e6, cycles), "req/Mcycle",
                               served)
    m["svc.lat_mean_cycles"] = (ratio(lat["sum"], lat["samples"]),
                                "cycles", lat["samples"])
    m["svc.lat_p50_cycles"] = (bucket_quantile(lat, 0.5), "cycles",
                               lat["samples"])
    m["svc.lat_p999_cycles"] = (bucket_quantile(lat, 0.999), "cycles",
                                lat["samples"])
    m["svc.lat_beyond_p999"] = (ranked_beyond(lat, 0.999), "count",
                                lat["samples"])
    for group, verbs in (("read", READ_VERBS), ("write", WRITE_VERBS)):
        h = merge_hists(insts, ["svc.latency." + v for v in verbs])
        m["svc.%s_lat_mean_cycles" % group] = (
            ratio(h["sum"], h["samples"]), "cycles", h["samples"])
    for v in READ_VERBS + WRITE_VERBS:
        h = merge_hists(insts, ["svc.latency." + v])
        m["svc.lat_mean_cycles." + v] = (ratio(h["sum"], h["samples"]),
                                         "cycles", h["samples"])
    m["svc.aborts_per_req"] = (ratio(g("svc.request_aborts"), served),
                               "1/req", served)
    m["svc.cross_shard_frac"] = (ratio(g("shard.cross.commits"), served),
                                 "ratio", served)

    runs = doc.get("runs", [])
    per_cycle = sorted(min(s["run_s"] for s in r if not s["traced"])
                       for r in samples) if torture else []
    run_steps = sum(r["probe_steps"] + r["crash_steps"] for r in runs)
    m["torture.run_s"] = (med(per_cycle), "s", len(per_cycle))
    m["torture.steps_per_run"] = (ratio(run_steps, len(runs)), "count",
                                  len(runs))
    m["torture.ns_per_step"] = (ratio(sum(per_cycle) * 1e9, run_steps),
                                "ns", len(per_cycle))
    m["torture.oracle_checks_per_run"] = (
        ratio(g("torture.oracle_checks"), len(runs)), "count", len(runs))
    m["dur.records_applied"] = (
        sum(r["recover"]["records"]["applied"] for r in runs), "count",
        len(runs))
    m["dur.recovery_cycles"] = (
        sum(r["recover"]["recovery_cycles"] for r in runs), "cycles",
        len(runs))

    refs = [s["ref_s"] for runs in samples for s in runs
            if not s["traced"]]
    m["host.wall_s"] = (best(samples, "wall_s"), "s", n)
    m["host.cpu_s"] = (best(samples, "cpu_s"), "s", n)
    m["host.ref_s"] = (med(refs), "s", len(refs))

    m["trace.overhead_s"] = (
        best(samples, "wall_s", traced=True) - best(samples, "wall_s"),
        "s", n)
    m.update(span_metrics(spans))
    return m


def end_to_end(doc, attempted, failed, cli_rss_kb):
    samples = doc["samples"]
    if doc["workload"] == TORTURE:
        # The memory CI pays for is that of the tmtorture processes.
        # The simulated cost torture adds over the other workloads is
        # dur::recover's modeled cycles, summed over every crash cycle.
        rss_kb = cli_rss_kb
        sim = sum(r["recover"]["recovery_cycles"] for r in doc["runs"])
        sims = len(doc["runs"])
        steps = sum(r["probe_steps"] + r["crash_steps"] for r in doc["runs"])
    else:
        rss_kb = doc["peak_rss_kb"]
        sim = sum(i["cycles"] for i in doc["instances"])
        sims = len(doc["instances"])
        steps = sum(i["counters"].get("sched.steps", 0)
                    for i in doc["instances"])
    n = min(len(runs) for runs in samples)
    return {
        # Per simulated step: a seed's crash steps are drawn uniformly
        # over its runs, so the steps of one torture-crash seed vary by
        # 13% and its host time with them, while the cost per step
        # stays within 3%.
        "host_per_mstep": (ratio(rel_time(samples) * 1e6, steps),
                           "ref/Mstep", n),
        "setup_s": (setup_seconds(doc), "s",
                    len(doc["setup_s"]) if doc["workload"] == TORTURE
                    else len(rounds(samples))),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
        "ok_frac": (1.0 - ratio(failed, attempted), "ratio", attempted),
        "sim_cycles": (sim, "cycles", sims),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        ap.error("--seed must be at least 1 and --seconds positive")
    torture = args.workload == TORTURE

    try:
        build()
        os.makedirs(TRACES, exist_ok=True)
        spans_path = os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))
        problems = []
        # Every timed process runs on one CPU, where it meets the same
        # neighbours as the reference runs beside it: three runs of one
        # seed's tmtorture sweep spread by 3% this way, and by 12% free
        # to move.
        fix_layout()
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError as e:
            log("perfbench: cannot pin to one CPU (%s)" % e)
        doc = run_json([os.path.join(BUILD, "ufobench"), args.workload,
                        str(args.seed), repr(args.seconds), str(args.trace),
                        spans_path], timeout=args.seconds * 3 + 90)
        cli = (0, [], [])
        if torture:
            cli = torture_cli(doc)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1

    problems += cli[2]
    for check in ("product_check", "observer_check"):
        if doc[check] not in ("ok", "tmtorture"):
            problems.append("%s: %s" % (check, doc[check]))
    if args.workload == "kv-durable":
        attempted = doc["offered_requests"]
        served = doc["instances"][0]["counters"].get("svc.requests", 0)
        failed = attempted if doc["invalid"] else attempted - served
    elif torture:
        # A crash cycle passes when every oracle holds on it, both in
        # the runner and in tmtorture.
        cli_ok = {(r["backend"], r["policy"], r["seed"])
                  for r in cli[1] if r["ok"]}
        attempted = doc["simulations"]
        failed = attempted - sum(
            bool(r["ok"]) and (r["backend"], r["policy"], r["seed"]) in cli_ok
            for r in doc["runs"])
    else:
        attempted, failed = doc["simulations"], doc["invalid"]
    if failed:
        problems.append("%d of %d failed" % (failed, attempted))

    if args.trace:
        with open(spans_path) as f:
            metrics = per_layer(doc, json.load(f))
    else:
        metrics = end_to_end(doc, attempted, failed, cli[0])

    print("perfbench %s seed %d (%s run): simulated caches start cold in "
          "every simulation; the model is unvalidated against the paper's "
          "absolute numbers" % (args.workload, args.seed,
                                "traced" if args.trace else "untraced"))
    for name, (value, unit, samples) in metrics.items():
        print("  %-36s %18.6f %-10s n=%d" % (name, value, unit, samples))
    if args.trace:
        print("  spans -> %s" % os.path.relpath(spans_path, ROOT))
    for p in problems:
        print("  CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
