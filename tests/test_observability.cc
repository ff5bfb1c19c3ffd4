/**
 * @file
 * Tests for the observability layer: the JSON writer, the stats-JSON
 * serializer (counters + histograms + full machine schema), the
 * transaction event tracer (ring wraparound, chrome trace), and the
 * abort/failover attribution counters each backend emits
 * (docs/OBSERVABILITY.md is the inventory these tests pin down).
 */

#include <gtest/gtest.h>

#include "core/tx_system.hh"
#include "sim/json.hh"
#include "sim/machine.hh"
#include "sim/stats_json.hh"
#include "sim/trace.hh"
#include "stamp/failover_ubench.hh"
#include "stamp/workload.hh"

namespace utm {
namespace {

[[maybe_unused]] MachineConfig
quiet(int cores = 2)
{
    MachineConfig mc;
    mc.numCores = cores;
    mc.timerQuantum = 0;
    return mc;
}

// -------------------------------------------------------- JSON writer

TEST(JsonWriter, NestedContainersAndCommas)
{
    json::Writer w;
    w.beginObject();
    w.kv("a", 1);
    w.key("b").beginArray().value("x").value(2).endArray();
    w.key("c").beginObject().kv("d", true).endObject();
    w.endObject();
    EXPECT_EQ(w.str(), R"({"a":1,"b":["x",2],"c":{"d":true}})");
}

TEST(JsonWriter, EscapesStrings)
{
    json::Writer w;
    w.beginObject();
    w.kv("k", std::string("a\"b\\c\n\t\x01"));
    w.endObject();
    EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
}

TEST(JsonWriter, NumbersAndRaw)
{
    json::Writer w;
    w.beginArray();
    w.value(std::uint64_t(1) << 63);
    w.value(-5);
    w.value(0.5);
    w.raw("{\"pre\":1}");
    w.endArray();
    EXPECT_EQ(w.str(), "[9223372036854775808,-5,0.5,{\"pre\":1}]");
}

// --------------------------------------------------- stats-JSON dump

TEST(StatsJson, CountersRoundTrip)
{
    StatsRegistry reg;
    reg.inc("b.two", 2);
    reg.inc("a.one");
    const std::string doc = stats::dumpJson(reg);
    // Sorted by name, exact layout.
    EXPECT_EQ(doc, "{\"counters\":{\"a.one\":1,\"b.two\":2},"
                   "\"histograms\":{}}");
}

TEST(StatsJson, HistogramQuantilesAndBuckets)
{
    StatsRegistry reg;
    // Bucket layout: 0 -> bucket 0; 1 -> bucket 1; 3 -> bucket 2;
    // 100 -> bucket 7 (le 127).
    reg.observe("h", 1);
    reg.observe("h", 3);
    reg.observe("h", 100);
    const Histogram &h = reg.histogram("h");
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.sum(), 104u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    // Quantiles are rank-based (target rank floor(q*(n-1))+1), so
    // with 3 samples every q < 1 lands on the 1st or 2nd sample; the
    // bucket holding 100 is only reached at q = 1.
    EXPECT_EQ(h.quantile(0.50), 3u);   // upper bound of bucket 2
    EXPECT_EQ(h.quantile(0.99), 3u);   // rank 2 of 3 -> still bucket 2
    EXPECT_EQ(h.quantile(1.0), 127u);  // upper bound of bucket 7

    const std::string doc = stats::dumpJson(reg);
    EXPECT_NE(doc.find("\"samples\":3"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"sum\":104"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"p50\":3"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"p99\":3"), std::string::npos) << doc;
    // Only non-empty buckets are emitted, each carrying its
    // inclusive [lo, le] range.
    EXPECT_NE(doc.find("{\"lo\":1,\"le\":1,\"count\":1}"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("{\"lo\":2,\"le\":3,\"count\":1}"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("{\"lo\":64,\"le\":127,\"count\":1}"),
              std::string::npos)
        << doc;
    EXPECT_EQ(doc.find("\"le\":0,"), std::string::npos) << doc;
}

// --------------------------------------------------------- TxTracer

TEST(Tracer, RingWrapsKeepingNewestAndCountsDrops)
{
    TxTracer tracer;
    tracer.setCapacity(8);
    for (int i = 0; i < 20; ++i) {
        tracer.record(0, Cycles(i), TraceEvent::TxBegin,
                      TracePath::Hardware, AbortReason::None);
    }
    EXPECT_EQ(tracer.size(0), 8u);
    EXPECT_EQ(tracer.dropped(0), 12u);
    EXPECT_EQ(tracer.count(0, TraceEvent::TxBegin), 20u);
    EXPECT_EQ(tracer.total(TraceEvent::TxBegin), 20u);

    // Snapshot is oldest-first: cycles 12..19.
    auto snap = tracer.snapshot(0);
    ASSERT_EQ(snap.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(snap[i].cycle, Cycles(12 + i));
}

TEST(Tracer, ZeroCapacityDisablesRingButKeepsCounts)
{
    TxTracer tracer;
    tracer.setCapacity(0);
    tracer.record(1, 5, TraceEvent::TxCommit, TracePath::Software,
                  AbortReason::None);
    EXPECT_EQ(tracer.size(1), 0u);
    EXPECT_EQ(tracer.count(1, TraceEvent::TxCommit), 1u);
}

TEST(Tracer, ChromeTraceBalancesSlicesAcrossWrap)
{
    TxTracer tracer;
    tracer.setCapacity(4);
    // begin/commit pairs; the wrap leaves a dangling commit first in
    // the ring, which the exporter must skip to keep B/E balanced.
    for (int i = 0; i < 3; ++i) {
        tracer.record(0, Cycles(10 * i), TraceEvent::TxBegin,
                      TracePath::Hardware, AbortReason::None);
        tracer.record(0, Cycles(10 * i + 5), TraceEvent::TxCommit,
                      TracePath::Hardware, AbortReason::None);
    }
    const std::string doc = tracer.dumpChromeTrace();
    std::size_t begins = 0, ends = 0, pos = 0;
    while ((pos = doc.find("\"ph\":\"B\"", pos)) != std::string::npos)
        ++begins, ++pos;
    pos = 0;
    while ((pos = doc.find("\"ph\":\"E\"", pos)) != std::string::npos)
        ++ends, ++pos;
    EXPECT_EQ(begins, ends) << doc;
    EXPECT_GT(begins, 0u) << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
}

// ----------------------------------- per-backend abort attribution

TEST(Attribution, ForcedFailoverOnUfoHybrid)
{
    Machine m(quiet(1));
    auto sys = TxSystem::create(TxSystemKind::UfoHybrid, m);
    sys->setup();
    m.memory().materializePage(0x300);
    m.addThread([&](ThreadContext &tc) {
        sys->atomic(tc, [&](TxHandle &h) {
            h.requireSoftware();
            h.write(0x300, 7, 8);
        });
    });
    m.run();
    // Exactly one hardware abort, attributed as explicit; one forced
    // failover; the trace saw hw begin+abort, failover, sw
    // begin+commit.
    EXPECT_EQ(m.stats().get("btm.aborts.explicit"), 1u);
    EXPECT_EQ(m.stats().sumWithPrefix("btm.aborts."), 1u);
    EXPECT_EQ(m.stats().get("tm.failovers.forced"), 1u);
    EXPECT_EQ(m.stats().get("tm.failovers"), 1u);
    EXPECT_EQ(m.tracer().total(TraceEvent::TxBegin), 2u);
    EXPECT_EQ(m.tracer().total(TraceEvent::TxAbort), 1u);
    EXPECT_EQ(m.tracer().total(TraceEvent::TxCommit), 1u);
    EXPECT_EQ(m.tracer().total(TraceEvent::Failover), 1u);
}

TEST(Attribution, SyscallIsAHardFailoverWithReasonDetail)
{
    Machine m(quiet(1));
    auto sys = TxSystem::create(TxSystemKind::UfoHybrid, m);
    sys->setup();
    m.memory().materializePage(0x300);
    m.addThread([&](ThreadContext &tc) {
        sys->atomic(tc, [&](TxHandle &h) {
            h.syscall();
            h.write(0x300, 9, 8);
        });
    });
    m.run();
    EXPECT_EQ(m.stats().get("btm.aborts.syscall"), 1u);
    EXPECT_EQ(m.stats().get("tm.failovers.hard"), 1u);
    EXPECT_EQ(m.stats().get("tm.failovers.hard.syscall"), 1u);
    // The detail counters partition the aggregate.
    EXPECT_EQ(m.stats().sumWithPrefix("tm.failovers.hard."),
              m.stats().get("tm.failovers.hard"));
}

TEST(Attribution, UstmAbortsPartitionIntoKilledAndRetryWakeup)
{
    // Thread 0 begins first (older age); thread 1's transaction then
    // takes write ownership of X and keeps issuing timed reads so it
    // is observably Active when thread 0's delayed write conflicts.
    // The older transaction kills the younger owner, whose next poll
    // point unwinds with reason "killed".
    Machine m(quiet(2));
    auto sys = TxSystem::create(TxSystemKind::Ustm, m);
    sys->setup();
    m.memory().materializePage(0x500);
    m.memory().materializePage(0x600);
    m.addThread([&](ThreadContext &tc) {
        sys->atomic(tc, [&](TxHandle &h) {
            h.ctx().advance(600);
            h.write(0x500, 1, 8);
        });
    });
    m.addThread([&](ThreadContext &tc) {
        sys->atomic(tc, [&](TxHandle &h) {
            h.write(0x500, 2, 8);
            for (int i = 0; i < 10; ++i) {
                h.ctx().advance(200);
                (void)h.read<std::uint64_t>(0x600);
            }
        });
    });
    m.run();
    EXPECT_GT(m.stats().get("ustm.kills"), 0u);
    EXPECT_GT(m.stats().get("ustm.aborts.killed"), 0u);
    EXPECT_EQ(m.stats().get("ustm.aborts"),
              m.stats().get("ustm.aborts.killed") +
                  m.stats().get("ustm.aborts.retry_wakeup"));
    EXPECT_EQ(m.stats().get("ustm.aborts"),
              m.stats().sumWithPrefix("ustm.aborts."));
}

TEST(Attribution, RetryWakeupIsAttributed)
{
    Machine m(quiet(2));
    auto sys = TxSystem::create(TxSystemKind::Ustm, m);
    sys->setup();
    m.memory().materializePage(0x600);
    bool woke = false;
    m.addThread([&](ThreadContext &tc) {
        sys->atomic(tc, [&](TxHandle &h) {
            if (h.read<std::uint64_t>(0x600) == 0)
                h.retryWait();
            woke = true;
        });
    });
    m.addThread([&](ThreadContext &tc) {
        tc.advance(3000);
        sys->atomic(tc,
                    [&](TxHandle &h) { h.write(0x600, 1, 8); });
    });
    m.run();
    EXPECT_TRUE(woke);
    EXPECT_GT(m.stats().get("ustm.aborts.retry_wakeup"), 0u);
    EXPECT_EQ(m.stats().get("ustm.aborts"),
              m.stats().sumWithPrefix("ustm.aborts."));
    EXPECT_GT(m.tracer().total(TraceEvent::TxRetry), 0u);
}

TEST(Attribution, Tl2AbortsSumAcrossReasons)
{
    // Two overlapping read-modify-writes of the same word: whichever
    // commits second fails validation and retries.
    Machine m(quiet(2));
    auto sys = TxSystem::create(TxSystemKind::Tl2, m);
    sys->setup();
    m.memory().materializePage(0x700);
    for (int t = 0; t < 2; ++t) {
        m.addThread([&](ThreadContext &tc) {
            sys->atomic(tc, [&](TxHandle &h) {
                const std::uint64_t v =
                    h.read<std::uint64_t>(0x700);
                h.ctx().advance(2000);
                h.write(0x700, v + 1, 8);
            });
        });
    }
    m.run();
    EXPECT_EQ(m.memory().read(0x700, 8), 2u);
    EXPECT_GT(m.stats().get("tl2.aborts"), 0u);
    EXPECT_EQ(m.stats().get("tl2.aborts"),
              m.stats().sumWithPrefix("tl2.aborts."));
}

// ------------------------------------------- full-schema file export

TEST(StatsJson, RunWorkloadWritesSchemaValidDocument)
{
    FailoverParams p;
    p.txPerThread = 24;
    p.failoverRate = 0.25;
    FailoverUbench w(p);
    RunConfig cfg;
    cfg.kind = TxSystemKind::UfoHybrid;
    cfg.threads = 2;
    cfg.machine.seed = 7;
    cfg.statsJsonPath =
        ::testing::TempDir() + "/utm_stats_test.json";
    cfg.tracePath = ::testing::TempDir() + "/utm_trace_test.json";
    RunResult r = runWorkload(w, cfg);
    ASSERT_TRUE(r.valid);

    std::FILE *f = std::fopen(cfg.statsJsonPath.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string doc;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        doc.append(buf, n);
    std::fclose(f);

    for (const char *key :
         {"\"schema\":\"ufotm-stats\"", "\"schema_version\":2",
          "\"run_config\"", "\"totals\"", "\"counters\"",
          "\"histograms\"", "\"profile\"", "\"contention\"",
          "\"hot_lines\"", "\"chain_len\"", "\"row_lock_wait\"",
          "\"phase_cycles\"", "\"per_backend\"", "\"per_thread\"",
          "\"workload\":\"failover-ubench\""}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
    // totals.aborts_hw is the sum of the per-reason counters by
    // construction; cross-check against the RunResult's counter map.
    std::uint64_t sum = 0;
    for (const auto &[name, value] : r.stats)
        if (name.rfind("btm.aborts.", 0) == 0)
            sum += value;
    const std::string expect =
        "\"aborts_hw\":" + std::to_string(sum);
    EXPECT_NE(doc.find(expect), std::string::npos) << expect;

    std::FILE *tf = std::fopen(cfg.tracePath.c_str(), "r");
    ASSERT_NE(tf, nullptr);
    std::string trace;
    while ((n = std::fread(buf, 1, sizeof buf, tf)) > 0)
        trace.append(buf, n);
    std::fclose(tf);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
}

// The committed example document stays in lockstep with the emitter:
// re-running the exact configuration that produced it (see
// docs/OBSERVABILITY.md: `tmsim -w ubench -s ufo-hybrid -t 2
// --failover-rate 0.25 --durable --stats-json ...`; durable, so the
// dur.* family and the persist profile phase are part of the pinned
// bytes) must reproduce the file byte for byte.

namespace {

std::string
readWholeFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return {};
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

} // namespace

TEST(StatsJson, CommittedExampleDocumentIsReproducible)
{
    FailoverParams p;
    p.failoverRate = 0.25;
    p.seed = 42;
    FailoverUbench w(p);
    RunConfig cfg;
    cfg.kind = TxSystemKind::UfoHybrid;
    cfg.threads = 2;
    cfg.machine.seed = 42;
    cfg.policy.durable = true;
    cfg.statsJsonPath =
        ::testing::TempDir() + "/utm_stats_example_test.json";
    RunResult r = runWorkload(w, cfg);
    ASSERT_TRUE(r.valid);

    const std::string fresh = readWholeFile(cfg.statsJsonPath);
    const std::string committed = readWholeFile(
        std::string(UFOTM_REPO_DIR) +
        "/docs/examples/stats.example.json");
    ASSERT_FALSE(fresh.empty());
    ASSERT_FALSE(committed.empty())
        << "docs/examples/stats.example.json missing";
    EXPECT_EQ(fresh, committed)
        << "docs/examples/stats.example.json is stale; regenerate it "
           "with the command in docs/OBSERVABILITY.md";
}

} // namespace
} // namespace utm
