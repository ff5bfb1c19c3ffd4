#!/usr/bin/env python3
"""Validate ufotm observability artifacts.

Six modes:

  check_stats_json.py FILE            validate a ufotm-stats document
  check_stats_json.py --bench FILE    validate a ufotm-bench document
  check_stats_json.py --svc FILE      validate a ufotm-svc document
                                      (bench_svc --json output)
  check_stats_json.py --timeline FILE validate a ufotm-timeline
                                      document (--timeline output of
                                      tmsim/bench_svc/tmtorture),
                                      including the core invariant
                                      that per-window counter deltas
                                      sum exactly to the end-of-run
                                      totals
  check_stats_json.py --recover FILE  validate a ufotm-recover
                                      document (dur::recover's
                                      report, embedded in tmtorture
                                      --crash run rows)
  check_stats_json.py --check-docs    every counter emitted by src/
                                      must appear in
                                      docs/OBSERVABILITY.md

Used by CI (.github/workflows/ci.yml) and usable standalone.  Exits
non-zero with a list of problems on any failure.
"""

import argparse
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Reason vocabularies for dynamically-composed counter names
# (`inc(std::string("PREFIX") + reason)` sites).  Keep in sync with
# abortReasonName() in src/mem/memory_system.cc and the unwind/abort
# call sites in src/ustm/ustm.cc and src/tl2/tl2.cc.
ABORT_REASONS = [
    "none", "conflict", "set_overflow", "explicit", "interrupt",
    "exception", "syscall", "io", "uncacheable", "page_fault",
    "nesting_overflow", "ufo_fault", "ufo_bit_set", "nont_conflict",
]
# Keep in sync with profCompName()/profPhaseName() in src/sim/prof.cc.
PROF_COMPONENTS = ["ustm", "btm", "tl2", "hytm", "phtm", "sle", "tm"]
PROF_PHASES = [
    "begin", "barrier_read", "barrier_write", "commit",
    "abort_unwind", "stall", "backoff", "retry_wait", "ufo_handler",
    "otable_walk", "nontx", "persist",
]
PROF_CYCLE_NAMES = [f"{c}.{p}" for c in PROF_COMPONENTS
                    for p in PROF_PHASES] + ["app"]

# Keep in sync with reqTypeName() in src/svc/load_gen.cc.
SVC_REQ_TYPES = ["get", "put", "scan", "rmw", "xfer", "raw_get"]

# Per-shard counter families are suffixed with the decimal shard
# index; kMaxThreads (64) bounds the shard count a machine can use.
SHARD_IDS = [str(i) for i in range(64)]

REASON_FAMILIES = {
    "btm.aborts.": ABORT_REASONS,
    "tm.failovers.hard.": ABORT_REASONS,
    "ustm.aborts.": ["killed", "retry_wakeup"],
    "tl2.aborts.": ["read_validation", "lock_busy",
                    "commit_validation"],
    "prof.cycles.": PROF_CYCLE_NAMES,
    "svc.requests.": SVC_REQ_TYPES,
    "svc.shed.": SVC_REQ_TYPES,
    "svc.latency.": SVC_REQ_TYPES,
    # A dirty batch is counted once, keyed by its *first* abort's
    # hardware reason — or the "sw" pseudo-reason for a software-path
    # kill (src/svc/service.cc, KvServiceWorkload::runTx).
    "batch.aborts.": ABORT_REASONS + ["sw"],
    "batch.members.": SVC_REQ_TYPES,
    # Per-shard redo-log families (src/mem/persist.cc, durable runs).
    "dur.log_records.": SHARD_IDS,
    "dur.log_bytes.": SHARD_IDS,
    "shard.acquires.": SHARD_IDS,
    "shard.chain_inserts.": SHARD_IDS,
    "shard.chain_len.": SHARD_IDS,
    "shard.row_lock_wait.": SHARD_IDS,
    "shard.requests.": SHARD_IDS,
    "shard.shed.": SHARD_IDS,
    "shard.queue_depth.": SHARD_IDS,
}
# Families whose docs coverage is via a structured placeholder rather
# than the generic "<prefix><reason>" form or full enumeration.
FAMILY_PLACEHOLDERS = {
    "prof.cycles.": "prof.cycles.<component>.<phase>",
    "svc.requests.": "svc.requests.<type>",
    "svc.shed.": "svc.shed.<type>",
    "svc.latency.": "svc.latency.<type>",
    "batch.aborts.": "batch.aborts.<reason>",
    "batch.members.": "batch.members.<type>",
    "dur.log_records.": "dur.log_records.<shard>",
    "dur.log_bytes.": "dur.log_bytes.<shard>",
    "shard.acquires.": "shard.acquires.<shard>",
    "shard.chain_inserts.": "shard.chain_inserts.<shard>",
    "shard.chain_len.": "shard.chain_len.<shard>",
    "shard.row_lock_wait.": "shard.row_lock_wait.<shard>",
    "shard.requests.": "shard.requests.<shard>",
    "shard.shed.": "shard.shed.<shard>",
    "shard.queue_depth.": "shard.queue_depth.<shard>",
}

STATS_TOTALS_KEYS = {
    "cycles", "valid", "commits_hw", "commits_sw", "commits_raw",
    "failovers", "aborts_hw", "aborts_sw",
}
MACHINE_KEYS = {
    "num_cores", "l1_sets", "l1_ways", "l1_bytes", "l2_sets",
    "l2_ways", "l1_hit_latency", "l2_hit_latency", "mem_latency",
    "timer_quantum", "otable_buckets", "otable_shards", "seed",
}
HIST_KEYS = {"samples", "sum", "min", "max", "mean", "p50", "p90",
             "p99", "buckets"}


def fail(problems):
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    sys.exit(1)


def check_bucket_geometry(name, buckets, expect):
    """Sparse-bucket geometry: every bucket carries its inclusive
    [lo, le] value range, ranges are well-formed, and consecutive
    buckets are disjoint and ascending."""
    prev_le = -1
    for b in buckets:
        expect("lo" in b, f"histogram {name}: bucket missing 'lo'")
        lo, le = b.get("lo", 0), b.get("le", 0)
        expect(lo <= le,
               f"histogram {name}: bucket lo={lo} > le={le}")
        expect(lo > prev_le,
               f"histogram {name}: bucket lo={lo} overlaps previous "
               f"le={prev_le}")
        prev_le = le


def check_stats_doc(doc):
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    expect(doc.get("schema") == "ufotm-stats",
           f"schema is {doc.get('schema')!r}, want 'ufotm-stats'")
    version = doc.get("schema_version")
    expect(version in (1, 2),
           f"schema_version is {version!r}, want 1 or 2")
    v2 = version == 2

    rc = doc.get("run_config", {})
    for k in ("workload", "system", "threads", "seed", "scale"):
        expect(k in rc, f"run_config.{k} missing")
    machine = rc.get("machine", {})
    missing = MACHINE_KEYS - machine.keys()
    expect(not missing, f"run_config.machine missing {sorted(missing)}")

    totals = doc.get("totals", {})
    missing = STATS_TOTALS_KEYS - totals.keys()
    expect(not missing, f"totals missing {sorted(missing)}")

    counters = doc.get("counters")
    expect(isinstance(counters, dict), "counters missing")
    counters = counters or {}
    for name, v in counters.items():
        expect(isinstance(v, int) and v >= 0,
               f"counter {name} is not a non-negative integer: {v!r}")
        expect(re.fullmatch(r"[a-z0-9_]+(\.[a-z0-9_]+)+", name),
               f"counter name {name!r} violates the naming convention")

    # The headline attribution invariant: hardware aborts are exactly
    # the sum of the btm.aborts.<reason> family.
    aborts_hw = sum(v for n, v in counters.items()
                    if n.startswith("btm.aborts."))
    expect(totals.get("aborts_hw") == aborts_hw,
           f"totals.aborts_hw={totals.get('aborts_hw')} != "
           f"sum(btm.aborts.*)={aborts_hw}")
    aborts_sw = counters.get("ustm.aborts", 0) + \
        counters.get("tl2.aborts", 0)
    expect(totals.get("aborts_sw") == aborts_sw,
           f"totals.aborts_sw={totals.get('aborts_sw')} != "
           f"ustm.aborts+tl2.aborts={aborts_sw}")
    # Reason families must sum to their aggregate where one exists.
    # The shard.* rows enforce the per-shard -> aggregate identity of
    # docs/OBSERVABILITY.md ("Sharded stores"): per-shard counters are
    # only emitted on sharded configurations, and then must account
    # for every aggregate event (shard.cross sums its commit/abort
    # attribution).
    for prefix, agg in (("ustm.aborts.", "ustm.aborts"),
                        ("tl2.aborts.", "tl2.aborts"),
                        ("tm.failovers.hard.", "tm.failovers.hard"),
                        ("pred.predictions.", "pred.predictions"),
                        ("svc.requests.", "svc.requests"),
                        ("svc.shed.", "svc.shed"),
                        ("svc.request_aborts.", "svc.request_aborts"),
                        ("batch.aborts.", "batch.aborts"),
                        ("batch.members.", "batch.members"),
                        ("dur.log_records.", "dur.log_records"),
                        ("dur.log_bytes.", "dur.log_bytes"),
                        ("shard.acquires.", "shard.acquires"),
                        ("shard.chain_inserts.", "shard.chain_inserts"),
                        ("shard.requests.", "shard.requests"),
                        ("shard.shed.", "shard.shed"),
                        ("shard.cross.", "shard.cross"),
                        ("conflict.edges.", "conflict.edges"),
                        ("watchdog.episodes.", "watchdog.episodes")):
        fam = sum(v for n, v in counters.items()
                  if n.startswith(prefix))
        if agg in counters or fam:
            expect(counters.get(agg, 0) == fam,
                   f"{agg}={counters.get(agg, 0)} != "
                   f"sum({prefix}*)={fam}")

    for name, h in doc.get("histograms", {}).items():
        missing = HIST_KEYS - h.keys()
        expect(not missing, f"histogram {name} missing {sorted(missing)}")
        buckets = h.get("buckets", [])
        expect(sum(b.get("count", 0) for b in buckets) ==
               h.get("samples"),
               f"histogram {name}: bucket counts do not sum to samples")
        bounds = [b.get("le", 0) for b in buckets]
        expect(bounds == sorted(set(bounds)),
               f"histogram {name}: bucket bounds not strictly "
               "increasing")
        check_bucket_geometry(name, buckets, expect)
        expect(h.get("p50", 0) <= h.get("p90", 0) <= h.get("p99", 0),
               f"histogram {name}: quantiles not monotone")

    # Path-predictor accounting: every prediction resolves to at most
    # one verdict (transactions that abort out of the machine resolve
    # neither way), and predicted software starts are exactly the
    # tm.failovers.predicted attribution.
    if counters.get("pred.predictions", 0):
        expect(counters.get("pred.hits", 0) +
               counters.get("pred.mispredicts", 0) <=
               counters.get("pred.predictions", 0),
               f"pred.hits+pred.mispredicts="
               f"{counters.get('pred.hits', 0) + counters.get('pred.mispredicts', 0)}"
               f" > pred.predictions={counters.get('pred.predictions', 0)}")
        expect(counters.get("tm.failovers.predicted", 0) ==
               counters.get("pred.predictions.sw", 0),
               f"tm.failovers.predicted="
               f"{counters.get('tm.failovers.predicted', 0)} != "
               f"pred.predictions.sw="
               f"{counters.get('pred.predictions.sw', 0)}")

    # Request-coalescing accounting: every batch resolves to exactly
    # one of commit/abort, splits only happen on aborts, each batch
    # carries at least one member, and the K histogram samples each
    # batch's planned size exactly once.
    if counters.get("batch.batches", 0):
        batches = counters.get("batch.batches", 0)
        expect(counters.get("batch.commits", 0) +
               counters.get("batch.aborts", 0) == batches,
               f"batch.commits+batch.aborts="
               f"{counters.get('batch.commits', 0) + counters.get('batch.aborts', 0)}"
               f" != batch.batches={batches}")
        expect(counters.get("batch.members", 0) >= batches,
               f"batch.members={counters.get('batch.members', 0)} < "
               f"batch.batches={batches}")
        expect(counters.get("batch.splits", 0) <=
               counters.get("batch.aborts", 0),
               f"batch.splits={counters.get('batch.splits', 0)} > "
               f"batch.aborts={counters.get('batch.aborts', 0)}")
        bk = doc.get("histograms", {}).get("batch.k")
        expect(isinstance(bk, dict) and bk.get("samples") == batches,
               f"batch.k histogram samples != batch.batches={batches}")

    # Durability accounting (docs/OBSERVABILITY.md "Durability &
    # recovery"): the dur.* family only exists on durable runs, every
    # logged commit is exactly one redo record sealed by exactly one
    # fence, write-backs cover at least the record bytes, and the log
    # grows monotonically with the record count (>= 56 bytes each —
    # header + txid/ts/count + one write triple).
    dur_counters = [n for n in counters if n.startswith("dur.")]
    if counters.get("dur.active", 0):
        records = counters.get("dur.log_records", 0)
        expect(counters.get("dur.commits.logged", 0) == records,
               f"dur.commits.logged="
               f"{counters.get('dur.commits.logged', 0)} != "
               f"dur.log_records={records}")
        expect(counters.get("dur.sfence", 0) == records,
               f"dur.sfence={counters.get('dur.sfence', 0)} != "
               f"dur.log_records={records}")
        clwb = counters.get("dur.clwb.dirty", 0) + \
            counters.get("dur.clwb.clean", 0)
        expect(clwb >= records,
               f"dur.clwb.dirty+clean={clwb} < "
               f"dur.log_records={records}")
        expect(counters.get("dur.log_bytes", 0) >= 56 * records,
               f"dur.log_bytes={counters.get('dur.log_bytes', 0)} < "
               f"56 * dur.log_records={56 * records}")
    else:
        expect(not dur_counters,
               f"dur.* counters on a non-durable run: "
               f"{sorted(dur_counters)[:4]}")

    # Recovery accounting (dur::recover on a recovered machine): every
    # scanned record is either applied or discarded as a torn tail,
    # and each applied record carries at least one write.
    if "rec.records.scanned" in counters:
        scanned = counters.get("rec.records.scanned", 0)
        applied = counters.get("rec.records.applied", 0)
        expect(applied + counters.get("rec.records.discarded", 0) ==
               scanned,
               f"rec.records.applied+discarded != "
               f"rec.records.scanned={scanned}")
        expect(counters.get("rec.writes_applied", 0) >= applied,
               f"rec.writes_applied="
               f"{counters.get('rec.writes_applied', 0)} < "
               f"rec.records.applied={applied}")
        expect(counters.get("rec.bytes_scanned", 0) >= 56 * applied,
               f"rec.bytes_scanned="
               f"{counters.get('rec.bytes_scanned', 0)} < "
               f"56 * rec.records.applied={56 * applied}")

    # svc latency histograms: per-type samples sum to the aggregate,
    # which counts exactly the served requests.
    hists = doc.get("histograms", {})
    if "svc.latency" in hists:
        agg = hists["svc.latency"].get("samples")
        per_type = sum(h.get("samples", 0) for n, h in hists.items()
                       if n.startswith("svc.latency."))
        expect(per_type == agg,
               f"sum(svc.latency.<type> samples)={per_type} != "
               f"svc.latency samples={agg}")
        expect(counters.get("svc.requests", 0) == agg,
               f"svc.requests={counters.get('svc.requests', 0)} != "
               f"svc.latency samples={agg}")

    # per_backend must re-group exactly the counters map.
    per_backend = doc.get("per_backend")
    if isinstance(per_backend, dict):
        regrouped = {f"{be}.{rest}": v
                     for be, sub in per_backend.items()
                     for rest, v in sub.items()}
        expect(regrouped == counters,
               "per_backend does not regroup the counters map")

    per_thread = doc.get("per_thread", [])
    for t in per_thread:
        for k in ("id", "cycles", "events"):
            expect(k in t, f"per_thread entry missing {k}")

    if v2:
        problems += check_stats_v2(doc, counters, per_thread)

    return problems


def check_stats_v2(doc, counters, per_thread):
    """Schema-v2 sections: profile, contention, phase_cycles."""
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    # The profile section mirrors the prof.cycles.* counters exactly.
    profile = doc.get("profile")
    expect(isinstance(profile, dict), "profile section missing")
    profile = profile if isinstance(profile, dict) else {}
    mirrored = {n[len("prof.cycles."):]: v
                for n, v in counters.items()
                if n.startswith("prof.cycles.")}
    expect(profile == mirrored,
           "profile section does not mirror the prof.cycles.* "
           "counters")
    for name in profile:
        expect(name in PROF_CYCLE_NAMES,
               f"profile entry {name!r} is not a known "
               "component.phase")

    # Per-thread phase cycles must sum exactly to the thread's total.
    for t in per_thread:
        pc = t.get("phase_cycles")
        expect(isinstance(pc, dict),
               f"per_thread entry {t.get('id')} missing phase_cycles")
        if not isinstance(pc, dict):
            continue
        total = sum(pc.values())
        expect(total == t.get("cycles"),
               f"per_thread[{t.get('id')}]: sum(phase_cycles)={total} "
               f"!= cycles={t.get('cycles')}")
        expect("app" in pc,
               f"per_thread[{t.get('id')}]: phase_cycles missing the "
               "app residual")
    agg = sum(profile.values())
    thread_total = sum(t.get("cycles", 0) for t in per_thread)
    expect(agg == thread_total,
           f"sum(profile.*)={agg} != sum(per_thread.cycles)="
           f"{thread_total}")

    # Contention: hot-line counts are Misra–Gries lower bounds, so
    # each backend's sum may not exceed its conflict counter.
    cont = doc.get("contention")
    expect(isinstance(cont, dict), "contention section missing")
    cont = cont if isinstance(cont, dict) else {}
    limits = {
        "ustm": counters.get("ustm.conflicts", 0),
        "btm": counters.get("btm.wounds", 0),
    }
    for backend, entries in cont.get("hot_lines", {}).items():
        expect(backend in limits,
               f"contention.hot_lines has unknown backend "
               f"{backend!r}")
        total = sum(e.get("count", 0) for e in entries)
        expect(total <= limits.get(backend, 0),
               f"contention.hot_lines.{backend}: counts sum to "
               f"{total} > {limits.get(backend, 0)} conflicts")
        got = [e.get("count", 0) for e in entries]
        expect(got == sorted(got, reverse=True),
               f"contention.hot_lines.{backend} not count-sorted")
    for name, h in cont.get("otable", {}).items():
        missing = HIST_KEYS - h.keys()
        expect(not missing,
               f"contention.otable.{name} missing {sorted(missing)}")
        buckets = h.get("buckets", [])
        expect(sum(b.get("count", 0) for b in buckets) ==
               h.get("samples"),
               f"contention.otable.{name}: bucket counts do not sum "
               "to samples")
        check_bucket_geometry(f"contention.otable.{name}", buckets,
                              expect)

    return problems


def check_timeline_doc(doc):
    """Validate a ufotm-timeline v1 document (sim/telemetry.cc).

    The load-bearing invariant: the timeline is a lossless
    decomposition of the run — for every counter, the per-window
    deltas sum *exactly* to the end-of-run totals."""
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    expect(doc.get("schema") == "ufotm-timeline",
           f"schema is {doc.get('schema')!r}, want 'ufotm-timeline'")
    expect(doc.get("schema_version") == 1,
           f"schema_version is {doc.get('schema_version')!r}, want 1")
    window_cycles = doc.get("window_cycles", 0)
    expect(isinstance(window_cycles, int) and window_cycles > 0,
           f"window_cycles is {window_cycles!r}, want a positive int")

    windows = doc.get("windows")
    expect(isinstance(windows, list), "windows missing")
    windows = windows or []
    totals = doc.get("totals")
    expect(isinstance(totals, dict), "totals missing")
    totals = totals or {}

    deltas = {}
    prev_id = -1
    for w in windows:
        wid = w.get("window")
        expect(isinstance(wid, int) and wid > prev_id,
               f"window id {wid!r} not strictly increasing "
               f"(previous {prev_id})")
        prev_id = wid if isinstance(wid, int) else prev_id
        expect(w.get("start_cycle", 0) <= w.get("end_cycle", 0),
               f"window {wid}: start_cycle > end_cycle")

        for name, v in w.get("counters", {}).items():
            expect(isinstance(v, int) and v > 0,
                   f"window {wid}: counter {name} delta is not a "
                   f"positive integer: {v!r}")
            deltas[name] = deltas.get(name, 0) + v
            expect(name in totals,
                   f"window {wid}: counter {name} absent from totals")

        for name, h in w.get("histograms", {}).items():
            expect(h.get("samples", 0) > 0,
                   f"window {wid}: histogram {name} has no samples")
            expect(h.get("p50", 0) <= h.get("p90", 0) <=
                   h.get("p99", 0),
                   f"window {wid}: histogram {name} quantiles not "
                   "monotone")

        for t in w.get("threads", []):
            for k in ("id", "steps", "commits", "aborts"):
                expect(k in t, f"window {wid}: thread entry missing "
                       f"{k!r}")

        c = w.get("conflicts", {})
        edges = c.get("edges", 0)
        expect(edges == c.get("edges_btm", 0) +
               c.get("edges_ustm", 0),
               f"window {wid}: conflicts.edges={edges} != "
               f"edges_btm+edges_ustm")
        for table, key in (("hot_lines", "line"),
                           ("sites", "victim_site")):
            entries = c.get(table, [])
            got = [e.get("count", 0) for e in entries]
            expect(got == sorted(got, reverse=True),
                   f"window {wid}: conflicts.{table} not "
                   "count-sorted")
            expect(sum(got) <= edges,
                   f"window {wid}: conflicts.{table} counts sum to "
                   f"{sum(got)} > {edges} edges")
            for e in entries:
                expect(key in e and "count" in e,
                       f"window {wid}: conflicts.{table} entry "
                       f"missing {key!r}/count")

    # The tentpole invariant: window deltas decompose the final
    # aggregates exactly — nothing lost, nothing double-counted.
    for name, total in sorted(totals.items()):
        expect(deltas.get(name, 0) == total,
               f"counter {name}: window deltas sum to "
               f"{deltas.get(name, 0)} != totals {total}")
    for name in sorted(deltas.keys() - totals.keys()):
        problems.append(f"counter {name} appears in windows but not "
                        "in totals")

    # Forensics cross-checks against the aggregate counters.
    edges_btm = totals.get("conflict.edges.btm", 0)
    edges_ustm = totals.get("conflict.edges.ustm", 0)
    if "conflict.edges" in totals:
        expect(totals["conflict.edges"] == edges_btm + edges_ustm,
               f"totals conflict.edges={totals['conflict.edges']} != "
               f"btm+ustm={edges_btm + edges_ustm}")
    aborts_hw = sum(v for n, v in totals.items()
                    if n.startswith("btm.aborts."))
    expect(edges_btm <= aborts_hw,
           f"conflict.edges.btm={edges_btm} > "
           f"sum(btm.aborts.*)={aborts_hw}")
    expect(edges_ustm <= totals.get("ustm.aborts", 0),
           f"conflict.edges.ustm={edges_ustm} > "
           f"ustm.aborts={totals.get('ustm.aborts', 0)}")

    # Watchdog consistency: the sticky verdict, the episode list, and
    # the per-window flags must tell the same story.
    wd = doc.get("watchdog")
    expect(isinstance(wd, dict), "watchdog missing")
    wd = wd or {}
    expect(wd.get("threshold_windows", 0) > 0,
           "watchdog.threshold_windows missing or zero")
    episodes = wd.get("episodes", [])
    stalled = wd.get("stalled")
    expect(stalled == bool(episodes),
           f"watchdog.stalled={stalled!r} inconsistent with "
           f"{len(episodes)} episode(s)")
    if stalled:
        expect(bool(wd.get("why")), "watchdog stalled without a why")
    flagged = {w.get("window"): w["watchdog"] for w in windows
               if "watchdog" in w}
    for e in episodes:
        wid, tid = e.get("window"), e.get("thread")
        expect(wid in flagged,
               f"watchdog episode at window {wid} has no per-window "
               "watchdog record")
        if wid not in flagged:
            continue
        if tid == -1:
            expect(flagged[wid].get("global_stall"),
                   f"global episode at window {wid} but "
                   "global_stall is false")
        else:
            expect(tid in flagged[wid].get("starved_threads", []),
                   f"episode thread {tid} at window {wid} not in "
                   "starved_threads")
    episode_windows = {e.get("window") for e in episodes}
    for wid in sorted(flagged.keys() - episode_windows):
        problems.append(f"window {wid} carries a watchdog record but "
                        "no episode mentions it")

    expect(int(totals.get("watchdog.episodes", 0)) == len(episodes),
           f"totals watchdog.episodes={totals.get('watchdog.episodes', 0)}"
           f" != {len(episodes)} episode(s)")

    return problems


def check_recover_doc(doc):
    """Validate a ufotm-recover document (src/dur/recovery.cc
    RecoveryReport::toJson; also embedded as the `recover` object of
    every tmtorture --crash run row).

    The scan invariant: every scanned record is either applied or
    discarded as a torn tail, each applied record carries at least one
    write, and the byte count covers at least the 56-byte minimum
    record (header + txid/ts/count + one write triple) per applied
    record.

    Also accepts a whole tmtorture --crash report (ufotm-torture with
    config.crash): every run row's embedded `recover` object is
    validated, and the run's recovered/discarded summary counts must
    match it."""
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    if doc.get("schema") == "ufotm-torture":
        expect(doc.get("config", {}).get("crash"),
               "ufotm-torture document is not a --crash report")
        runs = doc.get("runs", [])
        expect(bool(runs), "no runs in the --crash report")
        for i, run in enumerate(runs):
            rec = run.get("recover")
            if not isinstance(rec, dict):
                problems.append(f"runs[{i}]: recover object missing")
                continue
            problems += [f"runs[{i}]: {p}"
                         for p in check_recover_doc(rec)]
            records = rec.get("records", {})
            expect(run.get("recovered") == records.get("applied"),
                   f"runs[{i}]: recovered={run.get('recovered')!r} != "
                   f"recover.records.applied="
                   f"{records.get('applied')!r}")
            expect(run.get("discarded") == records.get("discarded"),
                   f"runs[{i}]: discarded={run.get('discarded')!r} != "
                   f"recover.records.discarded="
                   f"{records.get('discarded')!r}")
        return problems

    expect(doc.get("schema") == "ufotm-recover",
           f"schema is {doc.get('schema')!r}, want 'ufotm-recover'")
    expect(doc.get("version") == 1,
           f"version is {doc.get('version')!r}, want 1")
    for k in ("shards_scanned", "lines_loaded", "writes_applied",
              "bytes_scanned", "ufo_lines_scrubbed", "max_commit_ts",
              "recovery_cycles"):
        expect(isinstance(doc.get(k), int) and doc.get(k, -1) >= 0,
               f"{k} is {doc.get(k)!r}, want a non-negative integer")
    records = doc.get("records")
    expect(isinstance(records, dict), "records object missing")
    records = records if isinstance(records, dict) else {}
    for k in ("scanned", "applied", "discarded"):
        expect(isinstance(records.get(k), int) and
               records.get(k, -1) >= 0,
               f"records.{k} is {records.get(k)!r}, want a "
               "non-negative integer")
    scanned = records.get("scanned", 0)
    applied = records.get("applied", 0)
    expect(applied + records.get("discarded", 0) == scanned,
           f"records.applied+discarded != records.scanned={scanned}")
    expect(doc.get("shards_scanned", 0) >= 1,
           "shards_scanned must be >= 1")
    expect(doc.get("writes_applied", 0) >= applied,
           f"writes_applied={doc.get('writes_applied', 0)} < "
           f"records.applied={applied}")
    expect(doc.get("bytes_scanned", 0) >= 56 * applied,
           f"bytes_scanned={doc.get('bytes_scanned', 0)} < "
           f"56 * records.applied={56 * applied}")
    if applied == 0:
        expect(doc.get("max_commit_ts", 0) == 0,
               "max_commit_ts nonzero with no applied records")
    return problems


def check_bench_doc(doc):
    problems = []
    if doc.get("schema") != "ufotm-bench":
        problems.append(f"schema is {doc.get('schema')!r}, "
                        "want 'ufotm-bench'")
    if doc.get("schema_version") != 1:
        problems.append("schema_version != 1")
    if not doc.get("bench"):
        problems.append("bench name missing")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows missing or empty")
        return problems
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"rows[{i}] is not an object")
            continue
        # figure6 rows embed the abort breakdown; verify the sum.
        if "aborts" in row and "aborts_total" in row:
            s = sum(row["aborts"].values())
            if s != row["aborts_total"]:
                problems.append(
                    f"rows[{i}]: aborts_total={row['aborts_total']} "
                    f"!= sum(aborts)={s}")
        if "counters" in row:
            hw = sum(v for n, v in row["counters"].items()
                     if n.startswith("btm.aborts."))
            if "aborts_total" in row and hw != row["aborts_total"]:
                problems.append(
                    f"rows[{i}]: aborts_total != sum of the "
                    f"btm.aborts.* counters ({hw})")
    return problems


def check_svc_doc(doc):
    """Validate a ufotm-svc document (bench_svc --json output)."""
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    expect(doc.get("schema") == "ufotm-svc",
           f"schema is {doc.get('schema')!r}, want 'ufotm-svc'")
    # v1: the original svc_latency document.  v2 adds the xfer request
    # verb and the svc_scaling row family.  v3 adds the svc_predictor
    # A/B document: a `series` row key ("predictor-off"/"predictor-on")
    # plus pred.* fields on throughput rows.  v4 adds the svc_batching
    # A/B document: a `batch_k` row-identity field (0 on the
    # batching-off arm) plus batch.* fields on throughput rows.  v5
    # adds the svc_durable A/B document: "durable-off"/"durable-on"
    # series plus the persistence fields (dur_records, dur_log_bytes,
    # dur_sfence, dur_clwb, persist_cycles_per_req) on throughput rows
    # (docs/OBSERVABILITY.md has the migration notes).
    version = doc.get("schema_version")
    expect(version in (1, 2, 3, 4, 5),
           f"schema_version is {version!r}, want 1-5")
    expect(doc.get("bench") in ("svc_latency", "svc_scaling",
                                "svc_predictor", "svc_batching",
                                "svc_durable"),
           f"bench is {doc.get('bench')!r}, want 'svc_latency', "
           "'svc_scaling', 'svc_predictor', 'svc_batching' or "
           "'svc_durable'")
    if doc.get("bench") == "svc_predictor":
        expect(version == 3, "svc_predictor requires schema_version 3")
    if doc.get("bench") == "svc_batching":
        expect(version == 4, "svc_batching requires schema_version 4")
    if doc.get("bench") == "svc_durable":
        expect(version == 5, "svc_durable requires schema_version 5")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows missing or empty")
        return problems
    if doc.get("bench") == "svc_scaling":
        expect(version == 2, "svc_scaling requires schema_version 2")
        seen = set()
        for i, row in enumerate(rows):
            for k in ("benchmark", "system", "mode", "threads",
                      "shards", "requests", "abort_rate",
                      "throughput_req_per_mcycle"):
                expect(k in row, f"rows[{i}] missing {k!r}")
            expect(row.get("mode") == "scaling",
                   f"rows[{i}]: mode is {row.get('mode')!r}, want "
                   "'scaling'")
            expect(isinstance(row.get("shards"), int) and
                   row.get("shards", 0) >= 1,
                   f"rows[{i}]: shards must be a positive integer")
            expect(row.get("p50_cycles", 0) <= row.get("p99_cycles", 0)
                   <= row.get("p999_cycles", 0),
                   f"rows[{i}]: latency quantiles not monotone")
            key = (row.get("system"), row.get("threads"),
                   row.get("shards"))
            expect(key not in seen, f"rows[{i}]: duplicate row {key}")
            seen.add(key)
        return problems

    # Split into throughput rows (no "request" key) and per-request
    # latency rows; every (system, mode[, series]) needs one of the
    # former and one per request verb of the latter whose request
    # counts sum to the aggregate.  The series key disambiguates the
    # svc_predictor A/B arms; svc_latency rows carry no series.
    predictor = doc.get("bench") == "svc_predictor"
    batching = doc.get("bench") == "svc_batching"
    durable = doc.get("bench") == "svc_durable"
    agg = {}
    per_req = {}
    for i, row in enumerate(rows):
        for k in ("benchmark", "system", "mode", "threads"):
            expect(k in row, f"rows[{i}] missing {k!r}")
        if predictor:
            expect(row.get("series") in ("predictor-off",
                                         "predictor-on"),
                   f"rows[{i}]: series is {row.get('series')!r}, want "
                   "'predictor-off' or 'predictor-on'")
        if batching:
            expect(row.get("series") in ("batching-off",
                                         "batching-on"),
                   f"rows[{i}]: series is {row.get('series')!r}, want "
                   "'batching-off' or 'batching-on'")
            expect("batch_k" in row, f"rows[{i}] missing 'batch_k'")
            if row.get("series") == "batching-off":
                expect(row.get("batch_k") == 0,
                       f"rows[{i}]: batching-off arm has batch_k="
                       f"{row.get('batch_k')!r}, want 0")
            else:
                expect(row.get("batch_k", 0) >= 1,
                       f"rows[{i}]: batching-on arm has batch_k="
                       f"{row.get('batch_k')!r}, want >= 1")
        if durable:
            expect(row.get("series") in ("durable-off", "durable-on"),
                   f"rows[{i}]: series is {row.get('series')!r}, want "
                   "'durable-off' or 'durable-on'")
        group = (row.get("system"), row.get("mode"),
                 row.get("series"))
        if "request" in row:
            expect(row["request"] in SVC_REQ_TYPES,
                   f"rows[{i}]: unknown request type "
                   f"{row['request']!r}")
            expect(row.get("p50_cycles", 0) <= row.get("p99_cycles", 0)
                   <= row.get("p999_cycles", 0),
                   f"rows[{i}] ({group[0]}/{group[1]}/"
                   f"{row.get('request')}): latency quantiles not "
                   "monotone")
            per_req.setdefault(group, 0)
            per_req[group] += row.get("requests", 0)
        else:
            expect("throughput_req_per_mcycle" in row,
                   f"rows[{i}]: throughput row missing "
                   "throughput_req_per_mcycle")
            expect(group not in agg,
                   f"rows[{i}]: duplicate throughput row for {group}")
            agg[group] = row.get("requests", 0)
            if predictor:
                for k in ("predictions", "predicted_sw", "hits",
                          "mispredicts"):
                    expect(k in row, f"rows[{i}] missing {k!r}")
                preds = row.get("predictions", 0)
                expect(row.get("hits", 0) + row.get("mispredicts", 0)
                       <= preds,
                       f"rows[{i}]: hits+mispredicts > predictions")
                expect(row.get("predicted_sw", 0) <= preds,
                       f"rows[{i}]: predicted_sw > predictions")
                if row.get("series") == "predictor-off":
                    expect(preds == 0,
                           f"rows[{i}]: predictor-off arm reports "
                           f"{preds} predictions")
            if batching:
                for k in ("batches", "batch_members", "batch_splits",
                          "batch_aborts",
                          "begin_commit_cycles_per_req"):
                    expect(k in row, f"rows[{i}] missing {k!r}")
                batches = row.get("batches", 0)
                if row.get("series") == "batching-off":
                    expect(batches == 0,
                           f"rows[{i}]: batching-off arm reports "
                           f"{batches} batches")
                else:
                    expect(batches >= 1,
                           f"rows[{i}]: batching-on arm reports no "
                           "batches")
                    expect(row.get("batch_members", 0) >= batches,
                           f"rows[{i}]: batch_members < batches")
                expect(row.get("batch_splits", 0) <=
                       row.get("batch_aborts", 0),
                       f"rows[{i}]: batch_splits > batch_aborts")
            if durable:
                for k in ("dur_records", "dur_log_bytes",
                          "dur_sfence", "dur_clwb",
                          "persist_cycles_per_req"):
                    expect(k in row, f"rows[{i}] missing {k!r}")
                recs = row.get("dur_records", 0)
                if row.get("series") == "durable-off":
                    expect(recs == 0 and
                           row.get("dur_log_bytes", 0) == 0 and
                           row.get("persist_cycles_per_req", 0) == 0,
                           f"rows[{i}]: durable-off arm carries "
                           "persistence fields")
                else:
                    expect(recs >= 1,
                           f"rows[{i}]: durable-on arm logged no "
                           "records")
                    expect(row.get("dur_sfence", 0) == recs,
                           f"rows[{i}]: dur_sfence != dur_records")
                    expect(row.get("dur_clwb", 0) >= recs,
                           f"rows[{i}]: dur_clwb < dur_records")
                    expect(row.get("dur_log_bytes", 0) >= 56 * recs,
                           f"rows[{i}]: dur_log_bytes < 56 * "
                           "dur_records")

    expect(set(agg) == set(per_req),
           f"throughput/latency row groups differ: "
           f"{sorted(set(agg) ^ set(per_req))}")
    for group in agg:
        expect(agg[group] == per_req.get(group, 0),
               f"{group[0]}/{group[1]}: per-request counts sum to "
               f"{per_req.get(group, 0)} != aggregate {agg[group]}")
    return problems


# Matches both single-line inc("x")/set("x", ...)/observe("x", ...)
# and the argument spilling to the next line.
LITERAL_RE = re.compile(
    r'\b(?:inc|set|observe|get|histogram)\s*\(\s*\n?\s*"([a-z0-9_.]+)"')
TERNARY_RE = re.compile(r'"([a-z0-9_.]+\.[a-z0-9_.]+)"')
DYNAMIC_RE = re.compile(r'std::string\("([a-z0-9_.]+\.)"\)\s*\+')


def emitted_counters():
    """All counter names (and dynamic prefixes) emitted by src/."""
    names, prefixes = set(), set()
    for path in sorted((REPO / "src").rglob("*.[ch][ch]")):
        text = path.read_text()
        for m in LITERAL_RE.finditer(text):
            names.add(m.group(1))
        for m in DYNAMIC_RE.finditer(text):
            prefixes.add(m.group(1))
        # inc(cond ? "a" : "b") — grab quoted dotted names near incs.
        for stmt in re.findall(r'inc\s*\(([^;]*?)\)\s*;', text,
                               re.DOTALL):
            if '?' in stmt:
                names.update(TERNARY_RE.findall(stmt))
    return names, prefixes


def check_docs():
    problems = []
    doc_text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
    names, prefixes = emitted_counters()
    def family_documented(prefix):
        # Either the family's placeholder or every name in the
        # family's vocabulary, enumerated explicitly.
        placeholder = FAMILY_PLACEHOLDERS.get(prefix,
                                              f"{prefix}<reason>")
        if placeholder in doc_text:
            return True
        vocab = REASON_FAMILIES.get(prefix)
        return bool(vocab) and all(f"{prefix}{r}" in doc_text
                                   for r in vocab
                                   if r != "none")

    for name in sorted(names):
        covered = name in doc_text or any(
            name.startswith(p) and family_documented(p)
            for p in prefixes)
        if not covered:
            problems.append(
                f"counter {name!r} is emitted by src/ but not "
                "documented in docs/OBSERVABILITY.md")
    for prefix in sorted(prefixes):
        if not family_documented(prefix):
            problems.append(
                f"dynamic counter family {prefix!r}<reason> is "
                "emitted by src/ but not documented in "
                "docs/OBSERVABILITY.md")
        if prefix not in REASON_FAMILIES:
            problems.append(
                f"dynamic counter family {prefix!r} has no reason "
                "vocabulary in tools/check_stats_json.py")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="*", help="JSON documents to check")
    ap.add_argument("--bench", action="store_true",
                    help="validate ufotm-bench documents")
    ap.add_argument("--svc", action="store_true",
                    help="validate ufotm-svc documents")
    ap.add_argument("--timeline", action="store_true",
                    help="validate ufotm-timeline documents")
    ap.add_argument("--recover", action="store_true",
                    help="validate ufotm-recover documents")
    ap.add_argument("--check-docs", action="store_true",
                    help="check docs/OBSERVABILITY.md counter coverage")
    args = ap.parse_args()

    problems = []
    if args.check_docs:
        problems += check_docs()
    for f in args.files:
        doc = json.load(open(f))
        check = check_timeline_doc if args.timeline else \
            check_recover_doc if args.recover else \
            check_svc_doc if args.svc else \
            check_bench_doc if args.bench else check_stats_doc
        problems += [f"{f}: {p}" for p in check(doc)]
    if problems:
        fail(problems)
    checked = len(args.files) + (1 if args.check_docs else 0)
    print(f"OK ({checked} check(s) passed)")


if __name__ == "__main__":
    main()
