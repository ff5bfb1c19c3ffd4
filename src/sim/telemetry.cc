#include "sim/telemetry.hh"

#include <bit>
#include <sstream>

#include "sim/json.hh"
#include "sim/machine.hh"
#include "sim/thread_context.hh"

namespace utm {

namespace {

/**
 * Quantile over a delta bucket array, replicating
 * Histogram::quantile() exactly (rank-based bucket upper bound) so a
 * whole-run window reports the same value the end-of-run histogram
 * does.
 */
std::uint64_t
bucketQuantile(const std::uint64_t *buckets, std::uint64_t samples,
               double q)
{
    if (samples == 0)
        return 0;
    const std::uint64_t target =
        std::uint64_t(q * double(samples - 1)) + 1;
    std::uint64_t seen = 0;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
        seen += buckets[b];
        if (seen >= target)
            return Histogram::bucketUpperBound(b);
    }
    return Histogram::bucketUpperBound(Histogram::kBuckets - 1);
}

} // namespace

void
TelemetryBus::configure(Machine &machine, const TelemetryConfig &cfg)
{
    machine_ = &machine;
    cfg_ = cfg;
    enabled_ = cfg.enabled && cfg.windowCycles > 0;
    hotLines_ = TopKTable(cfg.topK);
    sitePairs_ = TopKTable(cfg.topK);
}

void
TelemetryBus::step(ThreadId tid, Cycles clock)
{
    if (tid >= 0 && tid < kMaxThreads)
        ++threadWindow_[tid].steps;
    // The window clock follows the frontier (max thread clock seen):
    // events are attributed to the window open when they happen, and
    // the window rolls when the running thread's clock crosses the
    // next boundary.  A laggard's events land in the frontier window.
    const std::uint64_t wid = clock / cfg_.windowCycles;
    if (wid > curWindow_) {
        closeWindow();
        curWindow_ = wid;
    }
}

void
TelemetryBus::recordConflictEdge(const char *backend,
                                 const ConflictEdge &e)
{
    if (!enabled_)
        return;
    ++winEdges_;
    if (backend[0] == 'b') {
        ++winEdgesBtm_;
        ++edgesBtm_;
    } else {
        ++winEdgesUstm_;
        ++edgesUstm_;
    }
    hotLines_.observe(e.line);
    sitePairs_.observe((std::uint64_t(e.aggressorSite) << 32) |
                       std::uint64_t(e.victimSite));
}

void
TelemetryBus::onUfoTrapEdge(ThreadContext &victim, LineAddr line)
{
    if (!enabled_ || !ownerResolver_)
        return;
    std::uint64_t owners = ownerResolver_(victim, line);
    owners &= ~(std::uint64_t(1) << victim.id());
    if (owners == 0)
        return;
    const int agg = std::countr_zero(owners);
    if (agg >= machine_->numThreads())
        return;
    ConflictEdge e;
    e.aggressor = static_cast<ThreadId>(agg);
    e.aggressorSite = machine_->thread(e.aggressor).currentSite();
    e.victim = victim.id();
    e.victimSite = victim.currentSite();
    e.line = line;
    recordConflictEdge("btm", e);
}

void
TelemetryBus::evalWatchdog(WindowRecord *rec)
{
    const int n = machine_->numThreads();
    std::uint64_t totalSteps = 0;
    std::uint64_t totalCommits = 0;
    bool anyInAtomic = false;
    for (int t = 0; t < n; ++t) {
        totalSteps += threadWindow_[t].steps;
        totalCommits += threadWindow_[t].commits;
        anyInAtomic = anyInAtomic || machine_->thread(t).inAtomic();
    }
    for (int t = 0; t < n; ++t) {
        const ThreadWindow &tw = threadWindow_[t];
        if (tw.steps == 0)
            continue; // Not scheduled this window: streak unchanged.
        // Per-thread starvation: aborting without ever committing,
        // in windows where *nothing on the machine* commits.  A
        // thread aborting while others make progress is not stall
        // evidence — priority schedulers (PCT) starve low-priority
        // threads that way by design for many consecutive windows in
        // perfectly healthy runs.  Gating on machine-wide progress
        // keeps the watchdog silent there while still naming the
        // aborting culprits when the system as a whole seizes up.
        if (tw.commits == 0 && tw.aborts > 0 && totalCommits == 0) {
            if (++starveStreak_[t] >= cfg_.watchdogWindows) {
                rec->starvedThreads.push_back(t);
                episodes_.push_back({curWindow_, t});
                starveStreak_[t] = 0;
                if (!stalled_) {
                    stalled_ = true;
                    std::ostringstream os;
                    os << "thread " << t << " aborted through "
                       << cfg_.watchdogWindows
                       << " consecutive commit-free windows, "
                          "ending at window " << curWindow_;
                    stallWhy_ = os.str();
                }
            }
        } else {
            starveStreak_[t] = 0;
        }
    }
    if (totalSteps > 0 && totalCommits == 0 && anyInAtomic) {
        if (++globalStreak_ >= cfg_.watchdogWindows) {
            rec->globalStall = true;
            episodes_.push_back({curWindow_, -1});
            globalStreak_ = 0;
            if (!stalled_) {
                stalled_ = true;
                std::ostringstream os;
                os << "no thread committed in " << cfg_.watchdogWindows
                   << " consecutive windows while at least one was "
                      "inside atomic, ending at window " << curWindow_;
                stallWhy_ = os.str();
            }
        }
    } else {
        globalStreak_ = 0;
    }
}

void
TelemetryBus::captureWindow(WindowRecord *rec)
{
    const StatsRegistry &reg = machine_->stats();

    for (const auto &[name, value] : reg.counters()) {
        const auto it = counterSnap_.find(name);
        const std::uint64_t last =
            it == counterSnap_.end() ? 0 : it->second;
        if (value > last)
            rec->counters[name] = value - last;
    }
    counterSnap_ = reg.counters();

    for (const auto &[name, h] : reg.histograms()) {
        HistSnapshot &snap = histSnap_[name];
        const std::uint64_t deltaSamples = h.samples() - snap.samples;
        if (deltaSamples > 0) {
            std::uint64_t delta[Histogram::kBuckets];
            for (int b = 0; b < Histogram::kBuckets; ++b)
                delta[b] = h.bucketCount(b) - snap.buckets[b];
            HistDelta d;
            d.samples = deltaSamples;
            d.sum = h.sum() - snap.sum;
            d.p50 = bucketQuantile(delta, deltaSamples, 0.50);
            d.p90 = bucketQuantile(delta, deltaSamples, 0.90);
            d.p99 = bucketQuantile(delta, deltaSamples, 0.99);
            rec->hists[name] = d;
        }
        for (int b = 0; b < Histogram::kBuckets; ++b)
            snap.buckets[b] = h.bucketCount(b);
        snap.samples = h.samples();
        snap.sum = h.sum();
    }

    const int n = machine_->numThreads();
    for (int t = 0; t < n; ++t) {
        ThreadWindow &tw = threadWindow_[t];
        if (tw.steps || tw.commits || tw.aborts)
            rec->threads.emplace_back(t, tw);
        tw = ThreadWindow{};
    }

    rec->edges = winEdges_;
    rec->edgesBtm = winEdgesBtm_;
    rec->edgesUstm = winEdgesUstm_;
    rec->hotLines = hotLines_.top();
    rec->sitePairs = sitePairs_.top();
    winEdges_ = winEdgesBtm_ = winEdgesUstm_ = 0;
    hotLines_.clear();
    sitePairs_.clear();
}

void
TelemetryBus::closeWindow()
{
    WindowRecord rec;
    rec.id = curWindow_;
    evalWatchdog(&rec);
    captureWindow(&rec);
    windows_.push_back(std::move(rec));
}

void
TelemetryBus::finalize()
{
    if (!enabled_ || finalized_)
        return;
    finalized_ = true;

    WindowRecord rec;
    rec.id = curWindow_;
    // Watchdog first, so a final-window episode is reflected in the
    // watchdog.* counters below ...
    evalWatchdog(&rec);

    std::uint64_t epThread = 0;
    std::uint64_t epGlobal = 0;
    for (const Episode &ep : episodes_)
        (ep.thread < 0 ? epGlobal : epThread)++;
    StatsRegistry &stats = machine_->stats();
    stats.set("conflict.edges", edgesBtm_ + edgesUstm_);
    stats.set("conflict.edges.btm", edgesBtm_);
    stats.set("conflict.edges.ustm", edgesUstm_);
    stats.set("watchdog.episodes", epThread + epGlobal);
    stats.set("watchdog.episodes.thread", epThread);
    stats.set("watchdog.episodes.global", epGlobal);

    // ... and delta capture last, so the exported counters (and the
    // run-end sched.*/prof.* sets) land in the final window — keeping
    // the invariant that per-window deltas sum exactly to totals.
    captureWindow(&rec);
    if (!rec.counters.empty() || !rec.hists.empty() ||
        !rec.threads.empty() || rec.edges || !rec.starvedThreads.empty() ||
        rec.globalStall) {
        windows_.push_back(std::move(rec));
    }
    totals_ = stats.counters();
}

std::string
TelemetryBus::dumpJson() const
{
    json::Writer w;
    w.beginObject();
    w.kv("schema", "ufotm-timeline");
    w.kv("schema_version", 1);
    w.kv("window_cycles", cfg_.windowCycles);

    w.key("windows").beginArray();
    for (const WindowRecord &rec : windows_) {
        w.beginObject();
        w.kv("window", rec.id);
        w.kv("start_cycle", rec.id * cfg_.windowCycles);
        w.kv("end_cycle", (rec.id + 1) * cfg_.windowCycles - 1);

        w.key("counters").beginObject();
        for (const auto &[name, delta] : rec.counters)
            w.kv(name, delta);
        w.endObject();

        w.key("histograms").beginObject();
        for (const auto &[name, d] : rec.hists) {
            w.key(name).beginObject();
            w.kv("samples", d.samples);
            w.kv("sum", d.sum);
            w.kv("p50", d.p50);
            w.kv("p90", d.p90);
            w.kv("p99", d.p99);
            w.endObject();
        }
        w.endObject();

        w.key("threads").beginArray();
        for (const auto &[tid, tw] : rec.threads) {
            w.beginObject();
            w.kv("id", tid);
            w.kv("steps", tw.steps);
            w.kv("commits", tw.commits);
            w.kv("aborts", tw.aborts);
            w.endObject();
        }
        w.endArray();

        w.key("conflicts").beginObject();
        w.kv("edges", rec.edges);
        w.kv("edges_btm", rec.edgesBtm);
        w.kv("edges_ustm", rec.edgesUstm);
        w.key("hot_lines").beginArray();
        for (const auto &e : rec.hotLines) {
            w.beginObject();
            w.kv("line", e.key);
            w.kv("count", e.count);
            w.endObject();
        }
        w.endArray();
        w.key("sites").beginArray();
        for (const auto &e : rec.sitePairs) {
            w.beginObject();
            w.kv("aggressor_site",
                 std::uint64_t(e.key >> 32));
            w.kv("victim_site",
                 std::uint64_t(e.key & 0xffffffffu));
            w.kv("count", e.count);
            w.endObject();
        }
        w.endArray();
        w.endObject();

        if (!rec.starvedThreads.empty() || rec.globalStall) {
            w.key("watchdog").beginObject();
            w.key("starved_threads").beginArray();
            for (int t : rec.starvedThreads)
                w.value(t);
            w.endArray();
            w.kv("global_stall", rec.globalStall);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();

    w.key("totals").beginObject();
    for (const auto &[name, value] : totals_)
        w.kv(name, value);
    w.endObject();

    w.key("watchdog").beginObject();
    w.kv("threshold_windows", std::uint64_t(cfg_.watchdogWindows));
    w.kv("stalled", stalled_);
    w.kv("why", stallWhy_);
    w.key("episodes").beginArray();
    for (const Episode &ep : episodes_) {
        w.beginObject();
        w.kv("window", ep.window);
        w.kv("thread", ep.thread);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace utm
