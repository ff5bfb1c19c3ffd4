/**
 * @file
 * Tests for the cycle-accounting profiler and contention attribution
 * (src/sim/prof.hh): the CycleProfiler's push/pop arithmetic and its
 * hard invariant (a thread's phase cycles sum exactly to its total
 * cycles, with `app` as the residual), the guarantees of the
 * Misra–Gries TopKTable behind the hot-line tables, and the invariant
 * holding end-to-end on a real workload for every TM system under
 * every scheduler policy.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/tx_system.hh"
#include "sim/machine.hh"
#include "sim/prof.hh"
#include "sim/stats_json.hh"
#include "stamp/failover_ubench.hh"
#include "stamp/workload.hh"

namespace utm {
namespace {

// ------------------------------------------------ CycleProfiler unit

// Exclusive attribution: while a nested scope is open, the enclosing
// phase is NOT charged; time outside any scope lands in `app`.
TEST(CycleProfiler, NestedScopesAttributeExclusively)
{
    CycleProfiler prof;
    prof.push(0, 10, ProfComp::Ustm, ProfPhase::BarrierRead);
    prof.push(0, 15, ProfComp::Ustm, ProfPhase::Stall);
    prof.pop(0, 25); // stall charged 25-15 = 10
    prof.pop(0, 30); // barrier_read charged (15-10) + (30-25) = 10

    const CycleProfiler::Snapshot snap = prof.snapshot(0, 42);
    const int read_slot = CycleProfiler::slot(ProfComp::Ustm,
                                              ProfPhase::BarrierRead);
    const int stall_slot =
        CycleProfiler::slot(ProfComp::Ustm, ProfPhase::Stall);
    EXPECT_EQ(snap.cycles[read_slot], 10u);
    EXPECT_EQ(snap.cycles[stall_slot], 10u);
    // app residual: [0,10) before the first push and [30,42) after
    // the last pop.
    EXPECT_EQ(snap.app, 22u);

    const std::uint64_t total =
        std::accumulate(snap.cycles.begin(), snap.cycles.end(),
                        snap.app);
    EXPECT_EQ(total, 42u);
}

TEST(CycleProfiler, SnapshotIsConstAndRepeatable)
{
    CycleProfiler prof;
    prof.push(1, 5, ProfComp::Btm, ProfPhase::Commit);
    prof.pop(1, 9);
    const auto a = prof.snapshot(1, 20);
    const auto b = prof.snapshot(1, 20);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.app, 16u);
}

TEST(CycleProfiler, SlotNamesCoverEveryComponentAndPhase)
{
    for (int s = 0; s < CycleProfiler::kNumSlots; ++s) {
        const std::string name = profSlotName(s);
        // "<component>.<phase>", both non-empty.
        const auto dot = name.find('.');
        ASSERT_NE(dot, std::string::npos) << name;
        EXPECT_GT(dot, 0u) << name;
        EXPECT_LT(dot + 1, name.size()) << name;
    }
}

// ---------------------------------------- hot-line TopKTable unit

TEST(HotLineTable, FindsTheHeavyHitter)
{
    TopKTable table(ContentionTracker::kHotLines);
    // Skewed stream: line 7 appears 100 times among 64 distractors.
    for (int i = 0; i < 100; ++i) {
        table.observe(LineAddr(7));
        table.observe(LineAddr(1000 + (i % 64)));
    }
    ASSERT_FALSE(table.top().empty());
    EXPECT_EQ(table.top()[0].key, LineAddr(7));
    EXPECT_EQ(table.observed(), 200u);
}

TEST(HotLineTable, StoredCountsLowerBoundObservedTotal)
{
    TopKTable table(ContentionTracker::kHotLines);
    std::uint64_t fed = 0;
    for (int i = 0; i < 500; ++i) {
        table.observe(LineAddr(i % 37));
        ++fed;
    }
    EXPECT_EQ(table.observed(), fed);
    std::uint64_t stored = 0;
    for (const auto &e : table.top())
        stored += e.count;
    // Misra–Gries decrements can only under-count.
    EXPECT_LE(stored, fed);
    // Capped at K entries, sorted count-descending.
    EXPECT_LE(table.top().size(),
              std::size_t(ContentionTracker::kHotLines));
    for (std::size_t i = 1; i < table.top().size(); ++i)
        EXPECT_GE(table.top()[i - 1].count, table.top()[i].count);
}

// -------------------------------- end-to-end phase-sum invariant

// Run the failover microbenchmark (it exercises the hybrid paths:
// hardware commits, forced failovers, software commits, conflicts)
// under every TM system and every scheduler policy, and check the
// tentpole invariant on the real machine: for every thread,
// sum(phase_cycles) + app == that thread's final clock, and the
// aggregate prof.cycles.* counters sum to the sum of thread clocks.
class ProfInvariant
    : public ::testing::TestWithParam<
          std::tuple<TxSystemKind, SchedPolicy>>
{
};

TEST_P(ProfInvariant, PhaseCyclesSumToThreadClock)
{
    const auto [kind, policy] = GetParam();

    FailoverParams p;
    p.txPerThread = 48;
    p.failoverRate = 0.3;
    FailoverUbench w(p);

    MachineConfig mc;
    mc.numCores = 4;
    mc.sched.policy = policy;
    Machine m(mc);
    TxHeap heap(m);
    auto sys = TxSystem::create(kind, m);
    sys->setup();

    w.setup(m.initContext(), heap, mc.numCores);
    for (int t = 0; t < mc.numCores; ++t) {
        m.addThread([&, t](ThreadContext &tc) {
            w.threadBody(tc, *sys, t, mc.numCores);
        });
    }
    m.run();
    ASSERT_TRUE(w.validate(m.initContext()));

    std::uint64_t clock_sum = 0;
    for (int t = 0; t < m.numThreads(); ++t) {
        const Cycles now = m.thread(static_cast<ThreadId>(t)).now();
        const auto snap =
            m.profiler().snapshot(static_cast<ThreadId>(t), now);
        const std::uint64_t total =
            std::accumulate(snap.cycles.begin(), snap.cycles.end(),
                            snap.app);
        EXPECT_EQ(total, now) << "thread " << t;
        clock_sum += now;
    }

    // finalize() exported the aggregates as prof.cycles.* counters.
    EXPECT_EQ(m.stats().sumWithPrefix("prof.cycles."), clock_sum);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystemsAllSchedulers, ProfInvariant,
    ::testing::Combine(
        ::testing::Values(TxSystemKind::NoTm,
                          TxSystemKind::UnboundedHtm,
                          TxSystemKind::UfoHybrid, TxSystemKind::HyTm,
                          TxSystemKind::PhTm, TxSystemKind::Ustm,
                          TxSystemKind::UstmStrong, TxSystemKind::Tl2),
        ::testing::Values(SchedPolicy::MinClock, SchedPolicy::MaxClock,
                          SchedPolicy::RandomWalk, SchedPolicy::Pct,
                          SchedPolicy::RoundRobin)),
    [](const auto &info) {
        std::string name =
            std::string(txSystemKindName(std::get<0>(info.param))) +
            "_" + schedPolicyName(std::get<1>(info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ------------------------------------------------------- determinism

// Two identical runs produce byte-identical stats documents —
// including the profile and contention sections.  This is what makes
// committed baselines and the benchdiff gate exact.
TEST(Profiler, DoubleRunIsByteIdentical)
{
    auto run = [] {
        FailoverParams p;
        p.txPerThread = 64;
        p.failoverRate = 0.25;
        FailoverUbench w(p);
        RunConfig cfg;
        cfg.kind = TxSystemKind::UfoHybrid;
        cfg.threads = 4;
        cfg.machine.seed = 42;
        cfg.statsJsonPath =
            ::testing::TempDir() + "/utm_prof_det.json";
        RunResult r = runWorkload(w, cfg);
        EXPECT_TRUE(r.valid);
        std::string doc;
        if (std::FILE *f = std::fopen(cfg.statsJsonPath.c_str(), "r")) {
            char buf[4096];
            std::size_t n;
            while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
                doc.append(buf, n);
            std::fclose(f);
        }
        return doc;
    };
    const std::string a = run();
    const std::string b = run();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"profile\":{"), std::string::npos);
    EXPECT_NE(a.find("\"contention\":{"), std::string::npos);
}

} // namespace
} // namespace utm
