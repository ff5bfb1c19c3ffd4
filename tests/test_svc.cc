/**
 * @file
 * Tests for the tmserve KV request-serving subsystem (src/svc):
 *
 *  - KvStore round-trips (get/put/scan/rmw/rawGet) under NoTm;
 *  - load-generator determinism, per-client decorrelation, mix
 *    coverage, and open-loop arrival monotonicity;
 *  - the service runs valid on every TxSystemKind, serving exactly
 *    the generated request count, with latency samples matching;
 *  - double-run byte-identity of the exported stats-JSON for every
 *    TxSystemKind x scheduler policy (the determinism contract);
 *  - open-loop saturation sheds, closed loop never does;
 *  - the svc.* counter families sum to their aggregates;
 *  - the tmtorture kv workload: clean oracle runs with non-zero raw
 *    (non-transactional) GET traffic on strongly-atomic backends,
 *    shadow-oracle runs on weakly-atomic ones, determinism, and
 *    record/replay bit-identity.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/tx_system.hh"
#include "rt/heap.hh"
#include "sim/machine.hh"
#include "sim/scheduler.hh"
#include "svc/service.hh"
#include "torture/torture.hh"

namespace utm {
namespace {

using svc::KvServiceWorkload;
using svc::LoadGenConfig;
using svc::ReqType;
using svc::Request;
using svc::SvcParams;

constexpr TxSystemKind kAllKinds[] = {
    TxSystemKind::NoTm,       TxSystemKind::UnboundedHtm,
    TxSystemKind::UfoHybrid,  TxSystemKind::HyTm,
    TxSystemKind::PhTm,       TxSystemKind::Ustm,
    TxSystemKind::UstmStrong, TxSystemKind::Tl2,
};

constexpr SchedPolicy kAllPolicies[] = {
    SchedPolicy::MinClock, SchedPolicy::MaxClock,
    SchedPolicy::RandomWalk, SchedPolicy::Pct, SchedPolicy::RoundRobin,
};

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

/** A small service configuration that keeps each run fast. */
SvcParams
smallParams()
{
    SvcParams p;
    p.load.keyspace = 32;
    p.load.requestsPerClient = 12;
    p.load.seed = 3;
    p.mapBuckets = 8;
    return p;
}

RunConfig
runConfig(TxSystemKind kind, int threads = 3)
{
    RunConfig cfg;
    cfg.kind = kind;
    cfg.threads = threads;
    cfg.machine.seed = 11;
    cfg.machine.timerQuantum = 0;
    return cfg;
}

// ----------------------------------------------------------- KvStore

TEST(KvStore, RoundTripsUnderNoTm)
{
    MachineConfig mc;
    mc.numCores = 1;
    Machine m(mc);
    TxHeap heap(m);
    auto sys = TxSystem::create(TxSystemKind::NoTm, m);
    sys->setup();

    const std::uint64_t keyspace = 16;
    svc::KvStore store =
        svc::KvStore::create(m.initContext(), heap, 4, keyspace);
    store.populate(m.initContext(), keyspace);

    sys->atomic(m.initContext(), [&](TxHandle &h) {
        std::uint64_t v = 0;
        EXPECT_TRUE(store.get(h, 5, &v));
        EXPECT_EQ(v, 500u); // populate() value: key * 100.
        EXPECT_FALSE(store.get(h, keyspace + 1, &v));

        EXPECT_TRUE(store.put(h, 5, 777));
        EXPECT_TRUE(store.get(h, 5, &v));
        EXPECT_EQ(v, 777u);
        EXPECT_FALSE(store.put(h, keyspace + 2, 1));

        std::uint64_t nv = 0;
        EXPECT_TRUE(store.rmw(h, 5, 3, &nv));
        EXPECT_EQ(nv, 780u);

        // A wrapping scan touches each key exactly once.
        EXPECT_EQ(store.scan(h, 10, int(keyspace), keyspace),
                  int(keyspace));

        std::uint64_t raw = 0;
        EXPECT_TRUE(store.rawGet(h.ctx(), 5, &raw));
        EXPECT_EQ(raw, 780u);
        EXPECT_FALSE(store.rawGet(h.ctx(), keyspace + 3, &raw));
    });
    // check() is content-agnostic (the service mutates values); it
    // verifies key count and tx/raw agreement, so it passes after the
    // put/rmw above but fails for a wrong expected key count.
    EXPECT_TRUE(store.check(m.initContext(), keyspace));
    EXPECT_FALSE(store.check(m.initContext(), keyspace + 1));
}

// ----------------------------------------------------------- LoadGen

TEST(LoadGen, DeterministicAndPerClientDecorrelated)
{
    LoadGenConfig cfg;
    cfg.keyspace = 64;
    cfg.requestsPerClient = 40;
    cfg.zipfTheta = 0.7;
    const auto a1 = svc::generateClientStream(cfg, 0);
    const auto a2 = svc::generateClientStream(cfg, 0);
    const auto b = svc::generateClientStream(cfg, 1);

    ASSERT_EQ(a1.size(), a2.size());
    for (std::size_t i = 0; i < a1.size(); ++i) {
        EXPECT_EQ(a1[i].type, a2[i].type);
        EXPECT_EQ(a1[i].key, a2[i].key);
        EXPECT_EQ(a1[i].value, a2[i].value);
    }
    bool differs = false;
    for (std::size_t i = 0; i < b.size() && !differs; ++i)
        differs = b[i].key != a1[i].key || b[i].type != a1[i].type;
    EXPECT_TRUE(differs);
}

TEST(LoadGen, CoversEveryRequestTypeAndKeyBounds)
{
    LoadGenConfig cfg;
    cfg.keyspace = 16;
    cfg.requestsPerClient = 300;
    // The default mix has no transfers; shift 10% from gets so every
    // verb (including xfer) appears.
    cfg.mix.getPct = 40;
    cfg.mix.xferPct = 10;
    int seen[svc::kNumReqTypes] = {};
    for (const Request &r : svc::generateClientStream(cfg, 0)) {
        ++seen[int(r.type)];
        EXPECT_GE(r.key, 1u);
        EXPECT_LE(r.key, cfg.keyspace);
        if (r.type == ReqType::Xfer) {
            EXPECT_NE(r.key2, r.key);
            EXPECT_GE(r.key2, 1u);
            EXPECT_LE(r.key2, cfg.keyspace);
        }
    }
    for (int c : seen)
        EXPECT_GT(c, 0);
}

TEST(LoadGen, OpenLoopArrivalsStrictlyIncrease)
{
    LoadGenConfig cfg;
    cfg.openLoop = true;
    cfg.meanInterarrival = 100;
    cfg.requestsPerClient = 50;
    Cycles prev = 0;
    for (const Request &r : svc::generateClientStream(cfg, 2)) {
        EXPECT_GT(r.arrival, prev);
        prev = r.arrival;
    }
}

// ----------------------------------------------------------- Service

TEST(Service, ServesEveryRequestOnEveryBackend)
{
    for (TxSystemKind kind : kAllKinds) {
        const SvcParams p = smallParams();
        const RunResult res = svc::runService(p, runConfig(kind));
        ASSERT_TRUE(res.valid) << txSystemKindName(kind);
        const std::uint64_t expect =
            std::uint64_t(p.load.requestsPerClient) * 3;
        EXPECT_EQ(res.stat("svc.requests"), expect)
            << txSystemKindName(kind);
        EXPECT_EQ(res.hist("svc.latency").samples(), expect)
            << txSystemKindName(kind);
        EXPECT_EQ(res.stat("svc.shed"), 0u) << txSystemKindName(kind);
    }
}

TEST(Service, CounterFamiliesSumToAggregates)
{
    SvcParams p = smallParams();
    p.load.requestsPerClient = 30;
    const RunResult res =
        svc::runService(p, runConfig(TxSystemKind::UfoHybrid, 4));
    ASSERT_TRUE(res.valid);

    std::uint64_t per_type = 0, lat_samples = 0;
    for (const auto &[name, value] : res.stats)
        if (name.rfind("svc.requests.", 0) == 0)
            per_type += value;
    for (const auto &[name, h] : res.hists)
        if (name.rfind("svc.latency.", 0) == 0)
            lat_samples += h.samples();
    EXPECT_EQ(per_type, res.stat("svc.requests"));
    EXPECT_EQ(lat_samples, res.hist("svc.latency").samples());
    EXPECT_EQ(res.stat("svc.request_aborts.hw") +
                  res.stat("svc.request_aborts.sw"),
              res.stat("svc.request_aborts"));
    EXPECT_GT(res.stat("svc.requests.raw_get"), 0u);
}

TEST(Service, DoubleRunStatsJsonByteIdentical)
{
    for (TxSystemKind kind : kAllKinds) {
        for (SchedPolicy policy : kAllPolicies) {
            SvcParams p = smallParams();
            p.load.requestsPerClient = 8;
            std::string text[2];
            for (int run = 0; run < 2; ++run) {
                RunConfig cfg = runConfig(kind);
                cfg.machine.sched.policy = policy;
                cfg.statsJsonPath = ::testing::TempDir() +
                                    "/utm_svc_det_" +
                                    std::to_string(run) + ".json";
                const RunResult res = svc::runService(p, cfg);
                ASSERT_TRUE(res.valid)
                    << txSystemKindName(kind) << "/"
                    << schedPolicyName(policy);
                text[run] = readWholeFile(cfg.statsJsonPath);
            }
            ASSERT_FALSE(text[0].empty());
            EXPECT_EQ(text[0], text[1])
                << "stats-JSON diverged across identical runs: "
                << txSystemKindName(kind) << "/"
                << schedPolicyName(policy);
        }
    }
}

TEST(Service, BatchingServesEveryRequestWithCounterInvariants)
{
    SvcParams p = smallParams();
    p.load.requestsPerClient = 30;
    p.maxBatch = 4;
    const RunResult res =
        svc::runService(p, runConfig(TxSystemKind::UfoHybrid, 4));
    ASSERT_TRUE(res.valid);

    // Coalescing must not change what is served, only how: every
    // request completes with a latency sample, exactly as unbatched.
    const std::uint64_t expect = 30u * 4;
    EXPECT_EQ(res.stat("svc.requests"), expect);
    EXPECT_EQ(res.hist("svc.latency").samples(), expect);

    // The batch.* family invariants (docs/OBSERVABILITY.md).
    EXPECT_GT(res.stat("batch.batches"), 0u);
    EXPECT_EQ(res.stat("batch.commits") + res.stat("batch.aborts"),
              res.stat("batch.batches"));
    EXPECT_EQ(res.hist("batch.k").samples(), res.stat("batch.batches"));
    EXPECT_LE(res.hist("batch.k").max(), p.maxBatch);
    EXPECT_GE(res.stat("batch.members"), res.stat("batch.batches"));
    std::uint64_t per_type = 0;
    for (const auto &[name, value] : res.stats)
        if (name.rfind("batch.members.", 0) == 0)
            per_type += value;
    EXPECT_EQ(per_type, res.stat("batch.members"));
    EXPECT_LE(res.stat("batch.splits"), res.stat("batch.aborts"));
    // Only batchable verbs may appear as members.
    EXPECT_EQ(res.stat("batch.members.xfer"), 0u);
    EXPECT_EQ(res.stat("batch.members.raw_get"), 0u);
}

TEST(Service, BatchingOnDoubleRunStatsJsonByteIdentical)
{
    // The determinism contract must survive coalescing: with batching
    // on, two identical runs stay byte-identical for every backend x
    // scheduler policy (adaptive K is driven only by deterministic
    // commit/abort events).
    for (TxSystemKind kind : kAllKinds) {
        for (SchedPolicy policy : kAllPolicies) {
            SvcParams p = smallParams();
            p.load.requestsPerClient = 8;
            p.maxBatch = 4;
            std::string text[2];
            for (int run = 0; run < 2; ++run) {
                RunConfig cfg = runConfig(kind);
                cfg.machine.sched.policy = policy;
                cfg.statsJsonPath = ::testing::TempDir() +
                                    "/utm_svc_batch_det_" +
                                    std::to_string(run) + ".json";
                const RunResult res = svc::runService(p, cfg);
                ASSERT_TRUE(res.valid)
                    << txSystemKindName(kind) << "/"
                    << schedPolicyName(policy);
                text[run] = readWholeFile(cfg.statsJsonPath);
            }
            ASSERT_FALSE(text[0].empty());
            EXPECT_EQ(text[0], text[1])
                << "stats-JSON diverged across identical batching "
                << "runs: " << txSystemKindName(kind) << "/"
                << schedPolicyName(policy);
        }
    }
}

TEST(Service, OpenLoopShedsAtSaturationClosedLoopNever)
{
    // Arrivals far faster than a software-path service rate: the
    // per-client backlog must exceed the admission bound and shed.
    SvcParams open = smallParams();
    open.load.openLoop = true;
    open.load.meanInterarrival = 8;
    open.load.requestsPerClient = 60;
    open.maxQueueDepth = 4;
    const RunResult r_open =
        svc::runService(open, runConfig(TxSystemKind::Ustm, 4));
    ASSERT_TRUE(r_open.valid);
    EXPECT_GT(r_open.stat("svc.shed"), 0u);
    EXPECT_EQ(r_open.stat("svc.requests") + r_open.stat("svc.shed"),
              60u * 4);

    // The same load shape closed-loop: every request is served.
    SvcParams closed = open;
    closed.load.openLoop = false;
    closed.load.meanThink = 8;
    const RunResult r_closed =
        svc::runService(closed, runConfig(TxSystemKind::Ustm, 4));
    ASSERT_TRUE(r_closed.valid);
    EXPECT_EQ(r_closed.stat("svc.shed"), 0u);
    EXPECT_EQ(r_closed.stat("svc.requests"), 60u * 4);
}

// ------------------------------------------------- tmtorture kv mode

torture::TortureConfig
kvTortureConfig(TxSystemKind kind, SchedPolicy policy,
                std::uint64_t seed)
{
    torture::TortureConfig cfg;
    cfg.kind = kind;
    cfg.workload = torture::TortureWorkload::Kv;
    cfg.threads = 4;
    cfg.opsPerThread = 25;
    cfg.seed = seed;
    cfg.sched.policy = policy;
    cfg.sched.pctExpectedSteps = 1u << 11;
    return cfg;
}

TEST(KvTorture, RawReadsPassOracleOnStronglyAtomicBackends)
{
    for (TxSystemKind kind :
         {TxSystemKind::UnboundedHtm, TxSystemKind::UfoHybrid,
          TxSystemKind::UstmStrong}) {
        for (std::uint64_t seed : {1, 2, 3}) {
            const auto res = torture::runTorture(
                kvTortureConfig(kind, SchedPolicy::RandomWalk, seed));
            EXPECT_TRUE(res.ok())
                << txSystemKindName(kind) << " seed " << seed << ": "
                << res.oracle << ": " << res.why;
            EXPECT_GT(res.rawReads, 0u) << txSystemKindName(kind);
        }
    }
}

TEST(KvTorture, ShadowOracleHoldsOnWeaklyAtomicBackends)
{
    // Raw-read value checking is disabled here (raw reads may
    // legitimately observe speculative state), but the commit-order
    // shadow and backend invariants still must hold.
    for (TxSystemKind kind : {TxSystemKind::HyTm, TxSystemKind::PhTm,
                              TxSystemKind::Ustm, TxSystemKind::Tl2}) {
        const auto res = torture::runTorture(
            kvTortureConfig(kind, SchedPolicy::Pct, 5));
        EXPECT_TRUE(res.ok()) << txSystemKindName(kind) << ": "
                              << res.oracle << ": " << res.why;
    }
}

TEST(KvTorture, DeterministicAcrossIdenticalRuns)
{
    const auto cfg =
        kvTortureConfig(TxSystemKind::UfoHybrid, SchedPolicy::Pct, 9);
    const auto a = torture::runTorture(cfg);
    const auto b = torture::runTorture(cfg);
    ASSERT_TRUE(a.ok()) << a.oracle << ": " << a.why;
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.rawReads, b.rawReads);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(KvTorture, RecordReplayBitIdentical)
{
    torture::TortureConfig cfg = kvTortureConfig(
        TxSystemKind::UfoHybrid, SchedPolicy::RandomWalk, 13);
    cfg.record = true;
    const auto rec = torture::runTorture(cfg);
    ASSERT_TRUE(rec.ok()) << rec.oracle << ": " << rec.why;
    ASSERT_GT(rec.schedule.steps(), 0u);

    torture::TortureConfig replay = cfg;
    replay.replay = &rec.schedule;
    const auto rep = torture::runTorture(replay);
    ASSERT_TRUE(rep.ok()) << rep.oracle << ": " << rep.why;
    EXPECT_EQ(rep.steps, rec.steps);
    EXPECT_EQ(rep.cycles, rec.cycles);
    EXPECT_EQ(rep.commits, rec.commits);
    EXPECT_EQ(rep.stats, rec.stats);
}

TEST(KvTorture, BatchedOraclesHoldAndFewerCommitsThanOps)
{
    // The coalesced kv loop under every oracle: strong atomicity
    // (raw reads), the commit-order shadow, and backend invariants
    // all hold while multi-member transactions commit.  Coalescing
    // must show up as fewer transactions than ops.
    for (TxSystemKind kind :
         {TxSystemKind::UfoHybrid, TxSystemKind::UstmStrong}) {
        torture::TortureConfig cfg =
            kvTortureConfig(kind, SchedPolicy::RandomWalk, 21);
        cfg.kvBatch = true;
        const auto batched = torture::runTorture(cfg);
        EXPECT_TRUE(batched.ok()) << txSystemKindName(kind) << ": "
                                  << batched.oracle << ": "
                                  << batched.why;
        EXPECT_GT(batched.rawReads, 0u) << txSystemKindName(kind);

        cfg.kvBatch = false;
        const auto single = torture::runTorture(cfg);
        ASSERT_TRUE(single.ok()) << txSystemKindName(kind);
        EXPECT_LT(batched.commits, single.commits)
            << txSystemKindName(kind)
            << ": coalescing never merged a transaction";
    }
}

TEST(KvTorture, BatchedRecordReplayBitIdentical)
{
    torture::TortureConfig cfg = kvTortureConfig(
        TxSystemKind::UfoHybrid, SchedPolicy::RandomWalk, 17);
    cfg.kvBatch = true;
    cfg.record = true;
    const auto rec = torture::runTorture(cfg);
    ASSERT_TRUE(rec.ok()) << rec.oracle << ": " << rec.why;
    ASSERT_GT(rec.schedule.steps(), 0u);

    torture::TortureConfig replay = cfg;
    replay.replay = &rec.schedule;
    const auto rep = torture::runTorture(replay);
    ASSERT_TRUE(rep.ok()) << rep.oracle << ": " << rep.why;
    EXPECT_EQ(rep.steps, rec.steps);
    EXPECT_EQ(rep.cycles, rec.cycles);
    EXPECT_EQ(rep.commits, rec.commits);
    EXPECT_EQ(rep.stats, rec.stats);
}

} // namespace
} // namespace utm
