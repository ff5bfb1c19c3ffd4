/**
 * @file
 * tmtorture CLI: sweep seeds x scheduler policies x TM backends over
 * the torture workload (src/torture), with invariant oracles enabled,
 * and emit a "ufotm-torture" JSON report (docs/OBSERVABILITY.md).
 *
 *   tmtorture --seeds 50 --policies minclock,random,pct --backends all
 *
 * Every failing run's recorded schedule is replayed and greedily
 * minimized; the report carries both the original and the minimized
 * trace in the "ufotm-sched v1" format, so
 *
 *   tmtorture --backend ufo-hybrid --seed 7 --replay failing.sched
 *
 * reproduces it bit-identically.  Exit status is nonzero when any run
 * violates an oracle or fails end-of-run validation.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/tx_system.hh"
#include "sim/json.hh"
#include "sim/scheduler.hh"
#include "sim/stats_json.hh"
#include "torture/torture.hh"

namespace {

using namespace utm;

struct Options
{
    int seeds = 10;            ///< Number of seeds to sweep.
    std::uint64_t seed = 1;    ///< First sweep seed / replay seed.
    std::vector<SchedPolicy> policies{SchedPolicy::MinClock,
                                      SchedPolicy::RandomWalk,
                                      SchedPolicy::Pct};
    std::vector<TxSystemKind> backends;
    std::vector<torture::TortureWorkload> workloads{
        torture::TortureWorkload::Cells};
    int threads = 4;
    int ops = 60;
    int cells = 48;
    bool crash = false;          ///< Crash-torture mode (durable runs).
    std::uint64_t crashStep = 0; ///< Pin the crash step (0 = derive).
    unsigned kvShards = 1;
    bool kvBatch = false; ///< Coalesce batchable kv ops (kv workload).
    unsigned otableBuckets = 4;
    std::uint64_t oracleInterval = 1;
    std::uint64_t pctSteps = 1u << 12; ///< ~ observed steps per run.
    int minimizeBudget = 200;
    bool predictor = false; ///< Torture with the path predictor on.
    bool injectLockstepBug = false;
    bool injectReleaseStarvation = false; ///< Starve USTM releaseEntry.
    bool injectPctBoundBug = false;     ///< PCT fixed starvation bound.
    bool timeline = false;   ///< Telemetry on; dump failing timelines.
    Cycles timelineWindow = 0;
    bool watchdog = false;   ///< Arm the stall-watchdog oracle.
    unsigned watchdogWindows = 0;
    std::string timelineOut = "tmtorture-timeline.json";
    std::string out = "tmtorture.json";
    std::string replayPath; ///< Replay mode when non-empty.
    TxSystemKind replayBackend = TxSystemKind::UfoHybrid;
};

const std::vector<TxSystemKind> kAllBackends = {
    TxSystemKind::UnboundedHtm, TxSystemKind::UfoHybrid,
    TxSystemKind::HyTm,         TxSystemKind::PhTm,
    TxSystemKind::Ustm,         TxSystemKind::UstmStrong,
    TxSystemKind::Tl2,
};

bool
parseBackend(std::string name, TxSystemKind *out)
{
    for (auto &c : name)
        if (c == '_')
            c = '-';
    if (name == "btm") { // Paper's name for the unbounded-HTM config.
        *out = TxSystemKind::UnboundedHtm;
        return true;
    }
    for (TxSystemKind k :
         {TxSystemKind::NoTm, TxSystemKind::UnboundedHtm,
          TxSystemKind::UfoHybrid, TxSystemKind::HyTm,
          TxSystemKind::PhTm, TxSystemKind::Ustm,
          TxSystemKind::UstmStrong, TxSystemKind::Tl2}) {
        if (name == txSystemKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

bool
parseWorkload(const std::string &name, torture::TortureWorkload *out)
{
    if (name == "cells") {
        *out = torture::TortureWorkload::Cells;
        return true;
    }
    if (name == "kv") {
        *out = torture::TortureWorkload::Kv;
        return true;
    }
    return false;
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --seeds N            sweep N machine seeds from --seed\n"
        "                       (default 10, i.e. seeds 1..10)\n"
        "  --policies LIST      csv of minclock,maxclock,random,pct,\n"
        "                       roundrobin, or 'all'\n"
        "  --backends LIST      csv of btm,ufo-hybrid,hytm,phtm,ustm,\n"
        "                       ustm-ufo,tl2,no-tm, or 'all'\n"
        "  --workloads LIST     csv of cells,kv, or 'all' (default\n"
        "                       cells; kv = tmserve KV store with raw\n"
        "                       non-transactional GETs)\n"
        "  --threads N          workload threads (default 4)\n"
        "  --ops N              transactions per thread (default 60)\n"
        "  --cells N            contended 8-byte cells (default 48)\n"
        "  --crash              crash-torture mode: run every config\n"
        "                       durable, kill the machine at a\n"
        "                       seed-derived scheduling step, recover\n"
        "                       from the surviving persistent image,\n"
        "                       and check prefix consistency (every\n"
        "                       fence-completed commit recovered, no\n"
        "                       uncommitted write visible, recovery\n"
        "                       idempotent).  Non-durable backends\n"
        "                       (tl2, no-tm) are skipped\n"
        "  --crash-step N       pin the crash step instead of deriving\n"
        "                       it from the seed (implies --crash)\n"
        "  --shards N           kv-workload store shards (default 1;\n"
        "                       > 1 adds cross-shard transfers to the\n"
        "                       op mix and shards the otable)\n"
        "  --batch              kv workload: coalesce consecutive\n"
        "                       batchable ops into one transaction\n"
        "                       (the tmserve coalescer, adaptive K,\n"
        "                       split-on-abort; all oracles armed)\n"
        "  --otable-buckets N   otable buckets; small values force\n"
        "                       bucket collisions (default 4)\n"
        "  --oracle-interval N  check oracles every N steps (default 1)\n"
        "  --pct-steps N        PCT change-point range (default 4096)\n"
        "  --minimize-budget N  replay runs for minimization (default 200)\n"
        "  --predictor          enable the adaptive path predictor\n"
        "                       (hybrid backends; ops carry per-class\n"
        "                       transaction sites)\n"
        "  --inject-lockstep-bug  mutation self-test: break installUfo\n"
        "  --inject-release-starvation  stall injection: USTM\n"
        "                       releaseEntry() never wins its row lock\n"
        "                       (the ReleaseStarvation livelock's\n"
        "                       steady state)\n"
        "  --inject-pct-bound-bug  mutation self-test: fix the PCT\n"
        "                       starvation bound (the\n"
        "                       PctDemotionPhaseLock livelock)\n"
        "  --timeline           enable timeline telemetry; a failing\n"
        "                       run's ufotm-timeline document goes to\n"
        "                       --timeline-out\n"
        "  --timeline-out PATH  failing-run timeline path (default\n"
        "                       tmtorture-timeline.json)\n"
        "  --timeline-window N  timeline window width in cycles\n"
        "  --watchdog           arm the stall-watchdog oracle (flags\n"
        "                       livelock/starvation as a violation)\n"
        "  --watchdog-windows N watchdog threshold in consecutive\n"
        "                       commitless windows\n"
        "  --out PATH           JSON report path ('-' = stdout;\n"
        "                       default tmtorture.json)\n"
        "  --replay FILE        replay one recorded schedule (with\n"
        "                       --backend and --seed); a v2 trace\n"
        "                       carrying crash=<K> re-runs the whole\n"
        "                       crash-recover-check cycle, and with\n"
        "                       --crash a crash-free trace (a failed\n"
        "                       probe's) replays that probe\n"
        "  --backend NAME       backend for --replay\n"
        "  --seed N             first sweep seed / replay seed "
        "(default 1)\n",
        argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--seeds") {
            opt.seeds = std::atoi(need(i));
        } else if (a == "--seed") {
            opt.seed = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--policies") {
            const std::string v = need(i);
            opt.policies.clear();
            if (v == "all") {
                opt.policies = {SchedPolicy::MinClock,
                                SchedPolicy::MaxClock,
                                SchedPolicy::RandomWalk,
                                SchedPolicy::Pct,
                                SchedPolicy::RoundRobin};
            } else {
                for (const auto &name : splitCsv(v)) {
                    SchedPolicy p;
                    if (!parseSchedPolicy(name, &p)) {
                        std::fprintf(stderr,
                                     "unknown policy '%s'\n",
                                     name.c_str());
                        usage(argv[0]);
                    }
                    opt.policies.push_back(p);
                }
            }
        } else if (a == "--backends") {
            const std::string v = need(i);
            opt.backends.clear();
            if (v == "all") {
                opt.backends = kAllBackends;
            } else {
                for (const auto &name : splitCsv(v)) {
                    TxSystemKind k;
                    if (!parseBackend(name, &k)) {
                        std::fprintf(stderr,
                                     "unknown backend '%s'\n",
                                     name.c_str());
                        usage(argv[0]);
                    }
                    opt.backends.push_back(k);
                }
            }
        } else if (a == "--backend") {
            if (!parseBackend(need(i), &opt.replayBackend))
                usage(argv[0]);
        } else if (a == "--workloads" || a == "--workload") {
            const std::string v = need(i);
            opt.workloads.clear();
            if (v == "all") {
                opt.workloads = {torture::TortureWorkload::Cells,
                                 torture::TortureWorkload::Kv};
            } else {
                for (const auto &name : splitCsv(v)) {
                    torture::TortureWorkload wl;
                    if (!parseWorkload(name, &wl)) {
                        std::fprintf(stderr,
                                     "unknown workload '%s'\n",
                                     name.c_str());
                        usage(argv[0]);
                    }
                    opt.workloads.push_back(wl);
                }
            }
        } else if (a == "--threads") {
            opt.threads = std::atoi(need(i));
        } else if (a == "--ops") {
            opt.ops = std::atoi(need(i));
        } else if (a == "--cells") {
            opt.cells = std::atoi(need(i));
        } else if (a == "--crash") {
            opt.crash = true;
        } else if (a == "--crash-step") {
            opt.crashStep = std::strtoull(need(i), nullptr, 0);
            opt.crash = true;
        } else if (a == "--shards") {
            opt.kvShards = unsigned(std::atoi(need(i)));
        } else if (a == "--batch") {
            opt.kvBatch = true;
        } else if (a == "--otable-buckets") {
            opt.otableBuckets = unsigned(std::atoi(need(i)));
        } else if (a == "--oracle-interval") {
            opt.oracleInterval = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--pct-steps") {
            opt.pctSteps = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--minimize-budget") {
            opt.minimizeBudget = std::atoi(need(i));
        } else if (a == "--predictor") {
            opt.predictor = true;
        } else if (a == "--inject-lockstep-bug") {
            opt.injectLockstepBug = true;
        } else if (a == "--inject-release-starvation") {
            opt.injectReleaseStarvation = true;
        } else if (a == "--inject-pct-bound-bug") {
            opt.injectPctBoundBug = true;
        } else if (a == "--timeline") {
            opt.timeline = true;
        } else if (a == "--timeline-out") {
            opt.timelineOut = need(i);
        } else if (a == "--timeline-window") {
            opt.timelineWindow = std::strtoull(need(i), nullptr, 0);
        } else if (a == "--watchdog") {
            opt.watchdog = true;
        } else if (a == "--watchdog-windows") {
            opt.watchdogWindows = unsigned(std::atoi(need(i)));
        } else if (a == "--out") {
            opt.out = need(i);
        } else if (a == "--replay") {
            opt.replayPath = need(i);
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(argv[0]);
        }
    }
    if (opt.backends.empty())
        opt.backends = kAllBackends;
    return opt;
}

torture::TortureConfig
makeConfig(const Options &opt, torture::TortureWorkload workload,
           TxSystemKind kind, SchedPolicy policy, std::uint64_t seed)
{
    torture::TortureConfig cfg;
    cfg.kind = kind;
    cfg.workload = workload;
    cfg.threads = opt.threads;
    cfg.opsPerThread = opt.ops;
    cfg.cells = opt.cells;
    cfg.kvShards = opt.kvShards;
    cfg.kvBatch = opt.kvBatch;
    cfg.otableBuckets = opt.otableBuckets;
    cfg.seed = seed;
    cfg.sched.policy = policy;
    cfg.sched.pctExpectedSteps = opt.pctSteps;
    cfg.oracleInterval = opt.oracleInterval;
    cfg.record = true;
    cfg.policy.predictor.enable = opt.predictor;
    cfg.injectLockstepBug = opt.injectLockstepBug;
    cfg.policy.ustm.testOnlyStarveReleaseEntry =
        opt.injectReleaseStarvation;
    cfg.sched.testOnlyFixedPctBound = opt.injectPctBoundBug;
    cfg.timeline = opt.timeline;
    cfg.timelineWindow = opt.timelineWindow;
    cfg.watchdog = opt.watchdog;
    cfg.watchdogWindows = opt.watchdogWindows;
    return cfg;
}

void
writeRun(json::Writer &w, const torture::TortureConfig &cfg,
         const torture::TortureResult &res,
         const torture::MinimizeResult *minimized)
{
    w.beginObject();
    w.kv("backend", txSystemKindName(cfg.kind));
    w.kv("workload", torture::tortureWorkloadName(cfg.workload));
    if (cfg.workload == torture::TortureWorkload::Kv &&
        cfg.kvShards > 1)
        w.kv("shards", std::uint64_t(cfg.kvShards));
    if (cfg.workload == torture::TortureWorkload::Kv && cfg.kvBatch)
        w.kv("batch", true);
    w.kv("policy", schedPolicyName(cfg.sched.policy));
    w.kv("seed", cfg.seed);
    w.kv("ok", res.ok());
    w.kv("steps", res.steps);
    w.kv("cycles", res.cycles);
    w.kv("commits", res.commits);
    w.kv("raw_reads", res.rawReads);
    auto it = res.stats.find("torture.oracle_checks");
    w.kv("oracle_checks",
         it == res.stats.end() ? std::uint64_t(0) : it->second);
    if (!res.ok()) {
        w.key("violation").beginObject();
        w.kv("oracle", res.oracle);
        w.kv("why", res.why);
        w.kv("step", res.violationStep);
        w.endObject();
        w.kv("schedule", res.schedule.serialize());
        if (minimized) {
            w.kv("minimized", minimized->reproduced);
            w.kv("minimized_schedule",
                 minimized->schedule.serialize());
            w.kv("minimized_steps", minimized->schedule.steps());
            w.kv("minimize_runs", minimized->runs);
        }
    }
    w.endObject();
}

/** One crash-torture run's JSON report entry. */
void
writeCrashRun(json::Writer &w, const torture::TortureConfig &cfg,
              const torture::CrashTortureResult &res)
{
    w.beginObject();
    w.kv("backend", txSystemKindName(cfg.kind));
    w.kv("workload", torture::tortureWorkloadName(cfg.workload));
    w.kv("policy", schedPolicyName(cfg.sched.policy));
    w.kv("seed", cfg.seed);
    w.kv("ok", res.ok);
    w.kv("crash_step", res.crashStep);
    w.kv("probe_steps", res.probeSteps);
    w.kv("committed", res.committedTx);
    w.kv("fenced", res.fencedTx);
    w.kv("recovered", res.recoveredTx);
    w.kv("discarded", res.discardedRecords);
    if (!res.recoverJson.empty())
        w.key("recover").raw(res.recoverJson);
    if (!res.ok) {
        w.kv("why", res.why);
        w.kv("schedule", res.schedule.serialize());
    }
    w.endObject();
}

int
replayMode(const Options &opt)
{
    ScheduleTrace trace;
    if (!ScheduleTrace::loadFile(opt.replayPath, &trace)) {
        std::fprintf(stderr, "cannot load schedule '%s'\n",
                     opt.replayPath.c_str());
        return 2;
    }
    torture::TortureConfig cfg =
        makeConfig(opt, opt.workloads.front(), opt.replayBackend,
                   SchedPolicy::MinClock, opt.seed);
    cfg.replay = &trace;
    if (trace.crashStep() != 0 || opt.crash) {
        // A crash trace replays the whole crash-recover-check cycle.
        const torture::CrashTortureResult res =
            torture::runCrashTorture(cfg, opt.crashStep);
        if (res.ok) {
            std::printf(
                "crash replay OK: %s seed %llu, crash at step %llu, "
                "%llu committed / %llu fenced / %llu recovered\n",
                txSystemKindName(cfg.kind),
                (unsigned long long)cfg.seed,
                (unsigned long long)res.crashStep,
                (unsigned long long)res.committedTx,
                (unsigned long long)res.fencedTx,
                (unsigned long long)res.recoveredTx);
            return 0;
        }
        std::printf("crash replay FAILED: %s\n", res.why.c_str());
        return 1;
    }
    const torture::TortureResult res = torture::runTorture(cfg);
    if (res.ok()) {
        std::printf("replay OK: %s seed %llu, %llu steps, "
                    "%llu commits\n",
                    txSystemKindName(cfg.kind),
                    (unsigned long long)cfg.seed,
                    (unsigned long long)res.steps,
                    (unsigned long long)res.commits);
        return 0;
    }
    std::printf("replay FAILED: oracle '%s' at step %llu: %s\n",
                res.oracle.c_str(),
                (unsigned long long)res.violationStep,
                res.why.c_str());
    return 1;
}

/** Keep the first failing run's timeline (windowed counters,
 *  conflict edges, watchdog) at --timeline-out. */
void
keepTimeline(const Options &opt, const std::string &timeline,
             bool *written)
{
    if (*written || timeline.empty())
        return;
    if (stats::writeFile(opt.timelineOut, timeline + "\n")) {
        *written = true;
        std::fprintf(stderr, "  timeline -> %s\n", opt.timelineOut.c_str());
    }
}

/** One torture run: its report entry, and for a failure the FAIL line,
 *  the kept timeline and the minimized schedule.  True if it passed. */
bool
tortureRun(const Options &opt, const torture::TortureConfig &cfg,
           json::Writer &w, bool *timelineWritten)
{
    const torture::TortureResult res = torture::runTorture(cfg);
    if (res.ok()) {
        writeRun(w, cfg, res, nullptr);
        return true;
    }
    std::fprintf(stderr, "FAIL %s/%s/%s seed %llu: %s at step %llu: %s\n",
                 torture::tortureWorkloadName(cfg.workload),
                 txSystemKindName(cfg.kind),
                 schedPolicyName(cfg.sched.policy),
                 (unsigned long long)cfg.seed, res.oracle.c_str(),
                 (unsigned long long)res.violationStep, res.why.c_str());
    keepTimeline(opt, res.timeline, timelineWritten);
    torture::MinimizeResult min =
        torture::minimizeSchedule(cfg, res.schedule, res.oracle,
                                  res.violationStep, opt.minimizeBudget);
    std::fprintf(stderr, "  minimized %llu -> %llu steps (%d replays)\n",
                 (unsigned long long)res.schedule.steps(),
                 (unsigned long long)min.schedule.steps(), min.runs);
    writeRun(w, cfg, res, &min);
    return false;
}

/** One crash-recover-check cycle of torture::runCrashTorture: its
 *  report entry, and for a failure the FAIL line, the schedule and the
 *  kept timeline.  True if it passed. */
bool
crashRun(const Options &opt, const torture::TortureConfig &cfg,
         json::Writer &w, bool *timelineWritten)
{
    const torture::CrashTortureResult res =
        torture::runCrashTorture(cfg, opt.crashStep);
    writeCrashRun(w, cfg, res);
    if (res.ok)
        return true;
    std::fprintf(stderr, "FAIL %s/%s/%s seed %llu crash@%llu: %s\n",
                 torture::tortureWorkloadName(cfg.workload),
                 txSystemKindName(cfg.kind),
                 schedPolicyName(cfg.sched.policy),
                 (unsigned long long)cfg.seed,
                 (unsigned long long)res.crashStep, res.why.c_str());
    std::fprintf(stderr, "  schedule: %s\n",
                 res.schedule.serialize().c_str());
    keepTimeline(opt, res.timeline, timelineWritten);
    return false;
}

/**
 * The sweep: every (workload, backend, policy, seed) runs once and
 * lands in one "ufotm-torture" report.  With --crash, each run is the
 * full crash-recover-check cycle, and backends without durable
 * commits are skipped.
 */
int
sweepMode(const Options &opt)
{
    json::Writer w;
    w.beginObject();
    w.kv("schema", "ufotm-torture");
    w.kv("schema_version", 1);
    w.key("config").beginObject();
    if (opt.crash)
        w.kv("crash", true);
    w.kv("seeds", opt.seeds);
    w.kv("threads", opt.threads);
    w.kv("ops_per_thread", opt.ops);
    w.kv("cells", opt.cells);
    w.kv("kv_batch", opt.kvBatch);
    w.kv("otable_buckets", opt.otableBuckets);
    w.kv("oracle_interval", opt.oracleInterval);
    if (opt.crash) {
        w.kv("crash_step", opt.crashStep);
    } else {
        w.kv("predictor", opt.predictor);
        w.kv("inject_lockstep_bug", opt.injectLockstepBug);
        w.kv("inject_release_starvation", opt.injectReleaseStarvation);
        w.kv("inject_pct_bound_bug", opt.injectPctBoundBug);
    }
    w.kv("timeline", opt.timeline);
    w.kv("watchdog", opt.watchdog);
    w.endObject();
    w.key("runs").beginArray();

    const char *mode = opt.crash ? "crash " : "";
    int total = 0, failures = 0, skipped = 0;
    bool timelineWritten = false;
    for (torture::TortureWorkload workload : opt.workloads) {
        for (TxSystemKind kind : opt.backends) {
            if (opt.crash && !txSystemKindDurable(kind)) {
                std::fprintf(stderr, "skipping %s: no durable commits\n",
                             txSystemKindName(kind));
                ++skipped;
                continue;
            }
            for (SchedPolicy policy : opt.policies) {
                for (int i = 0; i < opt.seeds; ++i) {
                    const torture::TortureConfig cfg =
                        makeConfig(opt, workload, kind, policy,
                                   opt.seed + std::uint64_t(i));
                    ++total;
                    if (!(opt.crash ? crashRun : tortureRun)(
                            opt, cfg, w, &timelineWritten))
                        ++failures;
                }
            }
            std::fprintf(stderr, "%s%s/%-13s done (%d policies x %d seeds)\n",
                         mode, torture::tortureWorkloadName(workload),
                         txSystemKindName(kind), int(opt.policies.size()),
                         opt.seeds);
        }
    }

    w.endArray();
    w.key("summary").beginObject();
    w.kv("runs", total);
    w.kv("failures", failures);
    if (opt.crash)
        w.kv("skipped_backends", skipped);
    w.endObject();
    w.endObject();

    if (!stats::writeFile(opt.out, w.str() + "\n")) {
        std::fprintf(stderr, "cannot write report '%s'\n",
                     opt.out.c_str());
        return 2;
    }
    std::fprintf(stderr, "tmtorture%s: %d runs, %d failures -> %s\n",
                 opt.crash ? " --crash" : "", total, failures,
                 opt.out.c_str());
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (!opt.replayPath.empty())
        return replayMode(opt);
    return sweepMode(opt);
}
