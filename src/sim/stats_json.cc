#include "sim/stats_json.hh"

#include <cstdio>
#include <map>

#include "sim/json.hh"
#include "sim/machine.hh"
#include "sim/prof.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace utm::stats {

namespace {

void
emitHistogram(json::Writer &w, const Histogram &h)
{
    w.beginObject();
    w.kv("samples", h.samples());
    w.kv("sum", h.sum());
    w.kv("min", h.min());
    w.kv("max", h.max());
    w.kv("mean", h.mean());
    w.kv("p50", h.quantile(0.50));
    w.kv("p90", h.quantile(0.90));
    w.kv("p99", h.quantile(0.99));
    // Power-of-two buckets; only the non-empty ones are emitted.
    // "lo"/"le" are the inclusive lower/upper bounds of the bucket's
    // value range — without "lo" a sparse bucket list is ambiguous
    // (consumers had to re-derive the geometry from the "le" chain).
    w.key("buckets").beginArray();
    for (int b = 0; b < Histogram::kBuckets; ++b) {
        if (h.bucketCount(b) == 0)
            continue;
        w.beginObject();
        w.kv("lo", Histogram::bucketLowerBound(b));
        w.kv("le", Histogram::bucketUpperBound(b));
        w.kv("count", h.bucketCount(b));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
emitCounters(json::Writer &w, const StatsRegistry &reg)
{
    w.key("counters").beginObject();
    for (const auto &[name, value] : reg.counters())
        w.kv(name, value);
    w.endObject();
}

void
emitHistograms(json::Writer &w, const StatsRegistry &reg)
{
    w.key("histograms").beginObject();
    for (const auto &[name, h] : reg.histograms()) {
        w.key(name);
        emitHistogram(w, h);
    }
    w.endObject();
}

} // namespace

std::string
dumpJson(const StatsRegistry &reg)
{
    json::Writer w;
    w.beginObject();
    emitCounters(w, reg);
    emitHistograms(w, reg);
    w.endObject();
    return w.str();
}

std::string
dumpJson(Machine &machine, const RunMeta &meta)
{
    const StatsRegistry &reg = machine.stats();
    const MachineConfig &mc = machine.config();

    json::Writer w;
    w.beginObject();
    w.kv("schema", "ufotm-stats");
    w.kv("schema_version", kSchemaVersion);

    w.key("run_config").beginObject();
    w.kv("workload", meta.workload);
    w.kv("system", meta.system);
    w.kv("threads", meta.threads);
    w.kv("seed", meta.seed);
    w.kv("scale", meta.scale);
    w.key("machine").beginObject();
    w.kv("num_cores", mc.numCores);
    w.kv("l1_sets", mc.l1Sets);
    w.kv("l1_ways", mc.l1Ways);
    w.kv("l1_bytes", mc.l1Bytes());
    w.kv("l2_sets", mc.l2Sets);
    w.kv("l2_ways", mc.l2Ways);
    w.kv("l1_hit_latency", mc.l1HitLatency);
    w.kv("l2_hit_latency", mc.l2HitLatency);
    w.kv("mem_latency", mc.memLatency);
    w.kv("timer_quantum", mc.timerQuantum);
    w.kv("otable_buckets", mc.otableBuckets);
    w.kv("otable_shards", mc.otableShards);
    w.kv("seed", mc.seed);
    w.endObject();
    w.endObject();

    // Derived roll-ups.  aborts_hw is the sum of the per-reason
    // btm.aborts.* attribution counters (there is no separate total,
    // so the sum IS the total by construction); aborts_sw likewise
    // sums the software backends' totals.
    w.key("totals").beginObject();
    w.kv("cycles", meta.cycles);
    w.kv("valid", meta.valid);
    w.kv("commits_hw", reg.get("tm.commits.hw"));
    w.kv("commits_sw", reg.get("tm.commits.sw"));
    w.kv("commits_raw", reg.get("tm.commits.raw"));
    w.kv("failovers", reg.get("tm.failovers"));
    w.kv("aborts_hw", reg.sumWithPrefix("btm.aborts."));
    w.kv("aborts_sw", reg.get("ustm.aborts") + reg.get("tl2.aborts"));
    w.endObject();

    emitCounters(w, reg);
    emitHistograms(w, reg);

    // Schema v2: the profiler's aggregate phase-cycle breakdown,
    // mirrored from the prof.cycles.* counters (so the two can never
    // disagree).
    w.key("profile").beginObject();
    {
        const std::string prefix = "prof.cycles.";
        for (const auto &[name, value] : reg.counters())
            if (name.compare(0, prefix.size(), prefix) == 0)
                w.kv(name.substr(prefix.size()), value);
    }
    w.endObject();

    // Schema v2: contention attribution — per-backend hot-line tables
    // (Misra–Gries top-K; count sums are a lower bound on the owning
    // backend's conflict counter) and the otable shape/wait
    // histograms.
    w.key("contention").beginObject();
    {
        const ContentionTracker &ct = machine.contention();
        w.key("hot_lines").beginObject();
        const std::pair<const char *, const TopKTable *> tables[] = {
            {"ustm", &ct.ustmHotLines()},
            {"btm", &ct.btmHotLines()},
        };
        for (const auto &[backend, table] : tables) {
            w.key(backend).beginArray();
            for (const auto &e : table->top()) {
                w.beginObject();
                w.kv("line", e.key);
                w.kv("count", e.count);
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
        w.key("otable").beginObject();
        w.key("chain_len");
        emitHistogram(w, ct.chainLen());
        w.key("row_lock_wait");
        emitHistogram(w, ct.rowLockWait());
        w.endObject();
    }
    w.endObject();

    // The same counters, re-grouped by backend prefix (the text
    // before the first '.'), with the prefix stripped.
    w.key("per_backend").beginObject();
    std::map<std::string, std::map<std::string, std::uint64_t>> groups;
    for (const auto &[name, value] : reg.counters()) {
        const auto dot = name.find('.');
        if (dot == std::string::npos || dot == 0)
            continue;
        groups[name.substr(0, dot)][name.substr(dot + 1)] = value;
    }
    for (const auto &[backend, counters] : groups) {
        w.key(backend).beginObject();
        for (const auto &[name, value] : counters)
            w.kv(name, value);
        w.endObject();
    }
    w.endObject();

    // Per-thread final clocks plus the tracer's per-thread event
    // counts.
    w.key("per_thread").beginArray();
    for (int t = 0; t < machine.numThreads(); ++t) {
        const Cycles cycles =
            machine.thread(static_cast<ThreadId>(t)).now();
        w.beginObject();
        w.kv("id", t);
        w.kv("cycles", cycles);
        w.key("events").beginObject();
        const TxTracer &tracer = machine.tracer();
        for (int e = 0; e < kNumTraceEvents; ++e) {
            const auto ev = static_cast<TraceEvent>(e);
            const std::uint64_t n =
                tracer.count(static_cast<ThreadId>(t), ev);
            if (n != 0)
                w.kv(traceEventName(ev), n);
        }
        w.endObject();
        // Schema v2: per-thread phase cycles.  The `app` residual is
        // always present so the values sum to `cycles` exactly.
        w.key("phase_cycles").beginObject();
        const CycleProfiler::Snapshot snap =
            machine.profiler().snapshot(static_cast<ThreadId>(t), cycles);
        for (int s = 0; s < CycleProfiler::kNumSlots; ++s)
            if (snap.cycles[s] != 0)
                w.kv(profSlotName(s), snap.cycles[s]);
        w.kv("app", snap.app);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
        std::fputc('\n', stdout);
        return true;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    std::fputc('\n', f);
    std::fclose(f);
    return ok;
}

} // namespace utm::stats
