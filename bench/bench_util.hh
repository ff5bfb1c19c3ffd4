/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation (Section 5), printing the same rows/series.  Absolute
 * numbers come from this repository's simulator, not the authors'
 * full-system testbed; the *shape* (who wins, by what rough factor,
 * where the crossovers are) is the reproduction target.  See
 * EXPERIMENTS.md.
 */

#ifndef UFOTM_BENCH_BENCH_UTIL_HH
#define UFOTM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/scheduler.hh"
#include "sim/stats_json.hh"
#include "stamp/failover_ubench.hh"
#include "stamp/genome.hh"
#include "stamp/kmeans.hh"
#include "stamp/vacation.hh"
#include "stamp/workload.hh"

namespace utm::bench {

/**
 * The "ufotm-bench" document's own schema version — decoupled from
 * stats::kSchemaVersion so stats-schema revisions don't silently
 * re-version the bench documents (tools/benchdiff.py and committed
 * bench/baselines/ depend on this staying stable).
 */
constexpr int kBenchSchemaVersion = 1;

/** The STAMP-like benchmark set of Figure 5/6. */
struct BenchSpec
{
    std::string id;   ///< e.g. "kmeans-high"
    std::string base; ///< "kmeans" | "vacation" | "genome"
    bool high = false;
};

inline std::vector<BenchSpec>
stampBenchmarks()
{
    return {
        {"kmeans-high", "kmeans", true},
        {"kmeans-low", "kmeans", false},
        {"vacation-high", "vacation", true},
        {"vacation-low", "vacation", false},
        {"genome", "genome", false},
    };
}

/** Build a workload; @p scale multiplies the default problem size. */
inline std::unique_ptr<Workload>
makeStampWorkload(const BenchSpec &spec, double scale = 1.0)
{
    if (spec.base == "kmeans") {
        KmeansParams p = KmeansParams::contention(spec.high);
        p.points = static_cast<int>(p.points * scale);
        return std::make_unique<KmeansWorkload>(p);
    }
    if (spec.base == "vacation") {
        VacationParams p = VacationParams::contention(spec.high);
        p.totalTasks = static_cast<int>(p.totalTasks * scale);
        return std::make_unique<VacationWorkload>(p);
    }
    if (spec.base == "genome") {
        GenomeParams p;
        p.segments = static_cast<int>(p.segments * scale);
        p.uniquePool = static_cast<int>(p.uniquePool * scale);
        return std::make_unique<GenomeWorkload>(p);
    }
    std::fprintf(stderr, "unknown benchmark %s\n", spec.base.c_str());
    std::abort();
}

/** The TM systems compared in Figure 5. */
inline std::vector<TxSystemKind>
figure5Systems()
{
    return {
        TxSystemKind::UnboundedHtm, TxSystemKind::UfoHybrid,
        TxSystemKind::HyTm,         TxSystemKind::PhTm,
        TxSystemKind::Ustm,         TxSystemKind::UstmStrong,
        TxSystemKind::Tl2,
    };
}

/**
 * Process-wide scheduler selection for bench runs.  Every bench main
 * calls parseSchedArgs(); `--sched=POLICY` (minclock, maxclock,
 * random, pct, roundrobin) then applies to every simulated run, so a
 * figure shape can be explored under another schedule than the
 * min-clock default.  The self-gates' bounds are min-clock results:
 * `bench_svc --scaling --quick --sched=pct` measures 2.55x at 32
 * cores, under the 3x gate, and exits 1.
 */
inline SchedulerConfig &
benchSched()
{
    static SchedulerConfig sc;
    return sc;
}

/**
 * Process-wide timeline-export prefix (`--timeline=PREFIX`, parsed by
 * parseSchedArgs).  When set, every simulated run writes a
 * `ufotm-timeline` document to PREFIX.<run#>.json, numbered in run
 * order.  Empty = telemetry off (the default; bench baselines are
 * byte-identical with telemetry off).
 */
inline std::string &
benchTimelinePrefix()
{
    static std::string prefix;
    return prefix;
}

inline void
parseSchedArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!std::strncmp(argv[i], "--sched=", 8)) {
            if (!parseSchedPolicy(argv[i] + 8, &benchSched().policy)) {
                std::fprintf(stderr,
                             "unknown scheduler policy '%s'\n",
                             argv[i] + 8);
                std::exit(2);
            }
        } else if (!std::strncmp(argv[i], "--timeline=", 11)) {
            benchTimelinePrefix() = argv[i] + 11;
        }
    }
}

/** A RunConfig with the process-wide scheduler selection applied. */
inline RunConfig
baseRunConfig()
{
    RunConfig cfg;
    cfg.machine.sched = benchSched();
    if (!benchTimelinePrefix().empty()) {
        static unsigned run = 0;
        cfg.timelinePath =
            benchTimelinePrefix() + "." + std::to_string(run++) +
            ".json";
    }
    return cfg;
}

/** Run one configuration and return the result (dies if invalid). */
inline RunResult
runOnce(const BenchSpec &spec, TxSystemKind kind, int threads,
        double scale = 1.0, std::uint64_t seed = 42)
{
    auto w = makeStampWorkload(spec, scale);
    RunConfig cfg = baseRunConfig();
    cfg.kind = kind;
    cfg.threads = threads;
    cfg.machine.seed = seed;
    RunResult res = runWorkload(*w, cfg);
    if (!res.valid) {
        std::fprintf(stderr,
                     "VALIDATION FAILED: %s on %s with %d threads\n",
                     spec.id.c_str(), txSystemKindName(kind), threads);
        std::abort();
    }
    return res;
}

/** Sequential (NoTm, 1 thread) baseline cycles. */
inline Cycles
sequentialBaseline(const BenchSpec &spec, double scale = 1.0,
                   std::uint64_t seed = 42)
{
    return runOnce(spec, TxSystemKind::NoTm, 1, scale, seed).cycles;
}

/**
 * Structured output for bench binaries (the `--json` mode of
 * docs/OBSERVABILITY.md).  Construction parses argv; when enabled,
 * rows accumulated via row() are written as
 *
 *   {"schema": "ufotm-bench", "schema_version": 1,
 *    "bench": "<name>", "rows": [...]}
 *
 * (bench_svc passes "ufotm-svc" as the schema override)
 *
 * to BENCH_<name>.json (or the --json=PATH override) by write(),
 * which each bench main calls once after its last row.  Rows are
 * bench-specific objects, pre-serialized with json::Writer.
 */
class JsonReport
{
  public:
    JsonReport(std::string bench, int argc, char **argv,
               std::string schema = "ufotm-bench",
               int version = kBenchSchemaVersion)
        : bench_(std::move(bench)), schema_(std::move(schema)),
          version_(version)
    {
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--json")) {
                enabled_ = true;
                path_ = "BENCH_" + bench_ + ".json";
            } else if (!std::strncmp(argv[i], "--json=", 7)) {
                enabled_ = true;
                path_ = argv[i] + 7;
            }
        }
    }

    bool enabled() const { return enabled_; }

    /** Append one pre-serialized JSON object. */
    void
    row(const json::Writer &w)
    {
        rows_.push_back(w.str());
    }

    /** Write the report; no-op (returning true) when not enabled. */
    bool
    write() const
    {
        if (!enabled_)
            return true;
        json::Writer w;
        w.beginObject();
        w.kv("schema", schema_);
        w.kv("schema_version", version_);
        w.kv("bench", bench_);
        w.key("rows").beginArray();
        for (const std::string &r : rows_)
            w.raw(r);
        w.endArray();
        w.endObject();
        const bool ok = stats::writeFile(path_, w.str());
        if (ok)
            std::fprintf(stderr, "wrote %s\n", path_.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n", path_.c_str());
        return ok;
    }

  private:
    std::string bench_;
    std::string schema_;
    int version_ = kBenchSchemaVersion;
    std::string path_;
    std::vector<std::string> rows_;
    bool enabled_ = false;
};

/** Serialize a RunResult's headline fields + counters into @p w. */
inline void
emitRunResult(json::Writer &w, const RunResult &r)
{
    w.kv("cycles", r.cycles);
    w.kv("valid", r.valid);
    w.kv("hw_commits", r.hwCommits);
    w.kv("sw_commits", r.swCommits);
    w.kv("failovers", r.failovers);
    w.key("counters").beginObject();
    for (const auto &[name, value] : r.stats)
        w.kv(name, value);
    w.endObject();
}

} // namespace utm::bench

#endif // UFOTM_BENCH_BENCH_UTIL_HH
