/**
 * @file
 * Tests for the tmtorture schedule-exploration harness (src/torture):
 *
 *  - clean runs: the torture workload passes its oracles on every
 *    backend under every scheduler policy;
 *  - double-run determinism: the same TortureConfig produces an
 *    identical result (cycles, steps, counters, schedule) twice, for
 *    every TxSystemKind;
 *  - a pinned kv op stream: fixed steps, cycles, commits and raw
 *    reads for one seed, with coalescing off and on, unsharded and
 *    sharded;
 *  - a pinned PCT schedule: fixed steps, cycles, preemptions and
 *    demotions for two seeds on two backends;
 *  - record/replay bit-identity: replaying a recorded schedule
 *    reproduces the run exactly;
 *  - mutation self-test: breaking the Algorithm 2 otable<->UFO-bit
 *    lockstep (via the test-only hook) is caught by the
 *    backend-invariants oracle, and the failing schedule minimizes to
 *    a smaller reproducer;
 *  - a run cut by a violation or a crash still exports its scheduler
 *    counters;
 *  - the memoized lockstep oracle agrees with the full scan at every
 *    step of clean, mutated and retry runs and across direct stores;
 *  - regressions for the two organic bugs tmtorture found (the BTM
 *    inspect row-lock window and the releaseEntry starvation
 *    livelock).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/tx_system.hh"
#include "rt/heap.hh"
#include "sim/machine.hh"
#include "sim/oracle.hh"
#include "sim/scheduler.hh"
#include "torture/torture.hh"
#include "ustm/ustm.hh"

namespace utm {
namespace {

using torture::MinimizeResult;
using torture::TortureConfig;
using torture::TortureResult;

/** Small-but-contended config that keeps each run under a second. */
TortureConfig
smallConfig(TxSystemKind kind, SchedPolicy policy, std::uint64_t seed)
{
    TortureConfig cfg;
    cfg.kind = kind;
    cfg.threads = 4;
    cfg.opsPerThread = 20;
    cfg.cells = 24;
    cfg.seed = seed;
    cfg.sched.policy = policy;
    cfg.sched.pctExpectedSteps = 1u << 11;
    return cfg;
}

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

// ------------------------------------------------ Clean clean sweeps

TEST(TmTorture, EveryBackendEveryPolicyPassesOracles)
{
    for (TxSystemKind kind : kAllKinds) {
        for (SchedPolicy policy : kAllPolicies) {
            TortureConfig cfg = smallConfig(kind, policy, 3);
            TortureResult res = torture::runTorture(cfg);
            EXPECT_TRUE(res.ok())
                << txSystemKindName(kind) << "/"
                << schedPolicyName(policy) << ": oracle '" << res.oracle
                << "' at step " << res.violationStep << ": " << res.why;
            EXPECT_GT(res.commits, 0u)
                << txSystemKindName(kind) << "/"
                << schedPolicyName(policy);
        }
    }
}

// --------------------------------------- Double-run determinism

TEST(TmTorture, DoubleRunDeterminismEveryBackend)
{
    // Same config twice => identical timing, counters, and schedule,
    // for every TxSystemKind.  Catches hidden host-state leaks
    // (iteration over pointer-keyed containers, uninitialized
    // values, ...) that would make failing schedules unreplayable.
    for (TxSystemKind kind : kAllKinds) {
        TortureConfig cfg =
            smallConfig(kind, SchedPolicy::RandomWalk, 11);
        cfg.record = true;
        TortureResult a = torture::runTorture(cfg);
        TortureResult b = torture::runTorture(cfg);
        EXPECT_TRUE(a.ok()) << txSystemKindName(kind) << ": " << a.why;
        EXPECT_EQ(a.cycles, b.cycles) << txSystemKindName(kind);
        EXPECT_EQ(a.steps, b.steps) << txSystemKindName(kind);
        EXPECT_EQ(a.commits, b.commits) << txSystemKindName(kind);
        EXPECT_EQ(a.stats, b.stats) << txSystemKindName(kind);
        EXPECT_EQ(a.schedule.serialize(), b.schedule.serialize())
            << txSystemKindName(kind);
    }
}

TEST(TmTorture, KvOpStreamPinned)
{
    // The kv workload's op stream, pinned: per-thread draws (mix, key,
    // key2, fresh, delta, advance), op classes and sites, with
    // coalescing off and on, unsharded and sharded.  Determinism
    // alone cannot catch a change that reorders the draws; these
    // figures can.
    struct Pin
    {
        bool batch;
        unsigned shards;
        std::uint64_t steps;
        Cycles cycles;
        std::uint64_t commits;
        std::uint64_t rawReads;
    };
    const Pin pins[] = {
        {false, 1, 6081, 276159, 189, 51},
        {true, 1, 6174, 147089, 174, 51},
        {false, 4, 6182, 103656, 189, 51},
        {true, 4, 6567, 215185, 184, 51},
    };
    for (const Pin &pin : pins) {
        TortureConfig cfg;
        cfg.kind = TxSystemKind::UfoHybrid;
        cfg.workload = torture::TortureWorkload::Kv;
        cfg.kvBatch = pin.batch;
        cfg.kvShards = pin.shards;
        cfg.seed = 5;
        cfg.sched.policy = SchedPolicy::RandomWalk;
        const TortureResult res = torture::runTorture(cfg);
        const std::string what =
            std::string(pin.batch ? "batch" : "single") + " x" +
            std::to_string(pin.shards);
        EXPECT_TRUE(res.ok()) << what << ": " << res.why;
        EXPECT_EQ(res.steps, pin.steps) << what;
        EXPECT_EQ(res.cycles, pin.cycles) << what;
        EXPECT_EQ(res.commits, pin.commits) << what;
        EXPECT_EQ(res.rawReads, pin.rawReads) << what;
    }
}

TEST(TmTorture, PctSchedulePinned)
{
    // PCT's picks, pinned: the seeded priority order, the change
    // points and the starvation-bound demotions choose every step, so
    // these figures move if pick() or a demotion ever chooses a
    // different thread, or if any backend's simulated behaviour
    // changes (every backend but no-tm has a row).
    struct Pin
    {
        TxSystemKind kind;
        std::uint64_t seed;
        std::uint64_t steps;
        Cycles cycles;
        std::uint64_t preemptions;
        std::uint64_t demotions;
    };
    const Pin pins[] = {
        {TxSystemKind::UfoHybrid, 3, 904, 27043, 39, 30},
        {TxSystemKind::UfoHybrid, 8, 719, 20695, 32, 26},
        {TxSystemKind::UstmStrong, 3, 3873, 16886, 164, 153},
        {TxSystemKind::UstmStrong, 8, 5888, 26060, 249, 238},
        {TxSystemKind::UnboundedHtm, 3, 599, 2922, 27, 20},
        {TxSystemKind::UnboundedHtm, 8, 743, 4098, 34, 27},
        {TxSystemKind::HyTm, 3, 994, 38289, 45, 36},
        {TxSystemKind::HyTm, 8, 1208, 8390, 54, 46},
        {TxSystemKind::PhTm, 3, 1870, 9382, 82, 71},
        {TxSystemKind::PhTm, 8, 1302, 6264, 57, 49},
        {TxSystemKind::Ustm, 3, 3177, 14192, 135, 124},
        {TxSystemKind::Ustm, 8, 4927, 22029, 210, 199},
        {TxSystemKind::Tl2, 3, 1733, 429178, 71, 61},
        {TxSystemKind::Tl2, 8, 2176, 403969, 97, 87},
    };
    for (const Pin &pin : pins) {
        TortureConfig cfg =
            smallConfig(pin.kind, SchedPolicy::Pct, pin.seed);
        cfg.sched.starvationBound = 16;
        const TortureResult res = torture::runTorture(cfg);
        const std::string what = std::string(txSystemKindName(pin.kind)) +
                                 " seed " + std::to_string(pin.seed);
        EXPECT_TRUE(res.ok()) << what << ": " << res.why;
        EXPECT_EQ(res.steps, pin.steps) << what;
        EXPECT_EQ(res.cycles, pin.cycles) << what;
        EXPECT_EQ(res.stats.at("sched.preemptions"), pin.preemptions)
            << what;
        EXPECT_EQ(res.stats.at("sched.pct_demotions"), pin.demotions)
            << what;
    }
}

TEST(TmTorture, PredictorOnPassesOraclesAndStaysDeterministic)
{
    // The path predictor must not perturb the determinism contract:
    // with it enabled (and per-op-class sites flowing through the kv
    // workload), every hybrid still passes all oracles, double runs
    // stay bit-identical, and a recorded schedule replays exactly.
    for (TxSystemKind kind : {TxSystemKind::UfoHybrid,
                              TxSystemKind::HyTm, TxSystemKind::PhTm}) {
        TortureConfig cfg =
            smallConfig(kind, SchedPolicy::RandomWalk, 11);
        cfg.workload = torture::TortureWorkload::Kv;
        cfg.policy.predictor.enable = true;
        cfg.policy.predictor.decayInterval = 8; // Exercise decay too.
        cfg.record = true;
        TortureResult a = torture::runTorture(cfg);
        TortureResult b = torture::runTorture(cfg);
        EXPECT_TRUE(a.ok()) << txSystemKindName(kind) << ": oracle '"
                            << a.oracle << "': " << a.why;
        EXPECT_EQ(a.stats, b.stats) << txSystemKindName(kind);
        EXPECT_EQ(a.schedule.serialize(), b.schedule.serialize())
            << txSystemKindName(kind);

        ScheduleTrace trace;
        ASSERT_TRUE(
            ScheduleTrace::parse(a.schedule.serialize(), &trace));
        TortureConfig replay_cfg = cfg;
        replay_cfg.record = false;
        replay_cfg.replay = &trace;
        TortureResult replayed = torture::runTorture(replay_cfg);
        EXPECT_TRUE(replayed.ok())
            << txSystemKindName(kind) << ": " << replayed.why;
        EXPECT_EQ(replayed.cycles, a.cycles) << txSystemKindName(kind);
        EXPECT_EQ(replayed.commits, a.commits)
            << txSystemKindName(kind);
    }
}

// ------------------------------------------- Record/replay identity

TEST(TmTorture, ReplayReproducesRunBitIdentically)
{
    TortureConfig cfg =
        smallConfig(TxSystemKind::UfoHybrid, SchedPolicy::RandomWalk, 9);
    cfg.record = true;
    TortureResult recorded = torture::runTorture(cfg);
    ASSERT_TRUE(recorded.ok()) << recorded.why;
    ASSERT_GT(recorded.schedule.steps(), 0u);

    // Round-trip the trace through its text format, then replay.
    ScheduleTrace trace;
    ASSERT_TRUE(
        ScheduleTrace::parse(recorded.schedule.serialize(), &trace));

    TortureConfig replay_cfg = cfg;
    replay_cfg.record = false;
    replay_cfg.replay = &trace;
    TortureResult replayed = torture::runTorture(replay_cfg);
    EXPECT_TRUE(replayed.ok()) << replayed.why;
    EXPECT_EQ(replayed.cycles, recorded.cycles);
    EXPECT_EQ(replayed.steps, recorded.steps);
    EXPECT_EQ(replayed.commits, recorded.commits);
    EXPECT_EQ(replayed.schedule.serialize(),
              recorded.schedule.serialize());

    // Bit-identity extends to every counter except the scheduler's
    // own (the replayed run uses ReplayScheduler, not RandomWalk).
    std::map<std::string, std::uint64_t> a = recorded.stats;
    std::map<std::string, std::uint64_t> b = replayed.stats;
    auto drop_sched = [](std::map<std::string, std::uint64_t> *m) {
        for (auto it = m->begin(); it != m->end();)
            it = it->first.rfind("sched.", 0) == 0 ? m->erase(it)
                                                   : std::next(it);
    };
    drop_sched(&a);
    drop_sched(&b);
    EXPECT_EQ(a, b);
    EXPECT_EQ(replayed.stats.count("sched.replay_divergences"),
              std::size_t(0));
}

// --------------------------------------------- Mutation self-test

TEST(TmTorture, LockstepMutationIsCaughtAndMinimized)
{
    // Break installUfo via the test-only hook: the lockstep oracle
    // must fire, and the failing schedule must minimize to a (not
    // larger) reproducer that still fails the same oracle on replay.
    TortureConfig cfg =
        smallConfig(TxSystemKind::UstmStrong, SchedPolicy::MinClock, 1);
    cfg.record = true;
    cfg.injectLockstepBug = true;
    TortureResult res = torture::runTorture(cfg);
    ASSERT_TRUE(res.violated);
    EXPECT_EQ(res.oracle, "backend-invariants");
    EXPECT_EQ(res.violationStep, 10u);
    EXPECT_EQ(res.why, "line 0x10000000: otable read-owned (thread 2) "
                       "but UFO bits are {r=0,w=0}");

    MinimizeResult min = torture::minimizeSchedule(
        cfg, res.schedule, res.oracle, res.violationStep,
        /*budget=*/60);
    ASSERT_TRUE(min.reproduced);
    EXPECT_LE(min.schedule.steps(), res.schedule.steps());

    TortureConfig replay_cfg = cfg;
    replay_cfg.record = false;
    replay_cfg.replay = &min.schedule;
    TortureResult replayed = torture::runTorture(replay_cfg);
    EXPECT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.oracle, res.oracle);
}

TEST(TmTorture, CutRunsExportSchedulerCounters)
{
    // A run cut by an oracle violation or by the injected crash still
    // exports its scheduler counters, the policy's run-end counters
    // included.
    auto counter = [](const std::map<std::string, std::uint64_t> &stats,
                      const char *name) {
        auto it = stats.find(name);
        return it == stats.end() ? std::uint64_t(0) : it->second;
    };
    TortureConfig cfg =
        smallConfig(TxSystemKind::UfoHybrid, SchedPolicy::Pct, 1);
    cfg.injectLockstepBug = true;
    const TortureResult violated = torture::runTorture(cfg);
    ASSERT_TRUE(violated.violated);
    EXPECT_EQ(counter(violated.stats, "sched.steps"), violated.steps);
    EXPECT_GT(counter(violated.stats, "torture.oracle_checks"), 0u);
    EXPECT_EQ(violated.stats.count("sched.pct_demotions"), 1u);

    cfg.injectLockstepBug = false;
    cfg.workload = torture::TortureWorkload::Kv;
    const torture::CrashTortureResult crashed =
        torture::runCrashTorture(cfg, /*crash_step=*/300);
    ASSERT_TRUE(crashed.ok) << crashed.why;
    EXPECT_EQ(counter(crashed.stats, "sched.steps"), crashed.crashSteps);
    EXPECT_EQ(crashed.crashSteps, 300u);
    EXPECT_GT(counter(crashed.stats, "torture.oracle_checks"), 0u);
    EXPECT_EQ(crashed.stats.count("sched.pct_demotions"), 1u);
}

TEST(TmTorture, MutationNotInjectedPassesSameConfig)
{
    // Control for the self-test: identical config, hook off => green.
    TortureConfig cfg =
        smallConfig(TxSystemKind::UstmStrong, SchedPolicy::MinClock, 1);
    TortureResult res = torture::runTorture(cfg);
    EXPECT_TRUE(res.ok()) << res.oracle << ": " << res.why;
}

/** Fails the run when Ustm's memoized oracle and its full scan differ
 *  in verdict or report.  Registered ahead of the harness's oracles,
 *  so it also sees the step at which the backend oracle fails. */
class LockstepMemoCrossCheck final : public InvariantOracle
{
  public:
    explicit LockstepMemoCrossCheck(const Ustm &ustm) : ustm_(ustm) {}

    const char *name() const override { return "lockstep-memo"; }

    bool
    check(std::string *why) override
    {
        std::string memoWhy, fullWhy;
        const bool memo = ustm_.verifyOracleInvariants(&memoWhy);
        const bool full = ustm_.verifyOracleInvariantsFull(&fullWhy);
        ++checks;
        fullFailures += !full;
        if (memo == full && memoWhy == fullWhy)
            return true;
        auto verdict = [](bool ok, const std::string &w) {
            return ok ? std::string("passes") : "fails: " + w;
        };
        *why = "memo " + verdict(memo, memoWhy) + "; full scan " +
               verdict(full, fullWhy);
        return false;
    }

    std::uint64_t checks = 0;
    std::uint64_t fullFailures = 0;

  private:
    const Ustm &ustm_;
};

TEST(TmTorture, LockstepMemoAgreesWithFullScan)
{
    // Every step of both strongly-atomic backends under every policy,
    // over cells, kv and sharded kv: the memoized check must give the
    // full scan's verdict and report.  With the lockstep mutation the
    // two must agree on the failing step too, and the backend oracle
    // must still be the one that fails.
    std::vector<TortureConfig> cfgs;
    for (bool mutate : {false, true}) {
        for (TxSystemKind kind :
             {TxSystemKind::UfoHybrid, TxSystemKind::UstmStrong}) {
            for (SchedPolicy policy : kAllPolicies) {
                for (unsigned shards : {0u, 1u, 4u}) { // 0: cells.
                    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                        TortureConfig cfg = smallConfig(kind, policy, seed);
                        if (shards) {
                            cfg.workload = torture::TortureWorkload::Kv;
                            cfg.kvShards = shards;
                        }
                        cfg.injectLockstepBug = mutate;
                        cfgs.push_back(cfg);
                    }
                }
            }
        }
    }
    for (const TortureConfig &cfg : cfgs) {
        std::optional<LockstepMemoCrossCheck> xcheck;
        const TortureResult res = torture::runTorture(
            cfg, [&](Machine &m, TxSystem &sys) {
                xcheck.emplace(*sys.ustmRuntime());
                m.addOracle(&*xcheck);
            });
        const std::string what =
            std::string(txSystemKindName(cfg.kind)) + "/" +
            schedPolicyName(cfg.sched.policy) + "/" +
            torture::tortureWorkloadName(cfg.workload) + " x" +
            std::to_string(cfg.kvShards) + " seed " +
            std::to_string(cfg.seed) +
            (cfg.injectLockstepBug ? " mutated" : "");
        ASSERT_TRUE(xcheck) << what;
        EXPECT_GT(xcheck->checks, 0u) << what;
        if (cfg.injectLockstepBug) {
            EXPECT_TRUE(res.violated) << what;
            EXPECT_EQ(res.oracle, "backend-invariants")
                << what << ": " << res.why;
        } else {
            EXPECT_TRUE(res.ok())
                << what << ": oracle '" << res.oracle << "' at step "
                << res.violationStep << ": " << res.why;
        }
    }

    MachineConfig mc;
    mc.timerQuantum = 0;

    // Section 6 retry, which the torture workloads do not use: the
    // producer's hardware transaction spec-clears the bits of the
    // flag line the parked consumer read-owns, and wakes it at
    // commit.  The consumer leaves Retrying, and so loses its line's
    // exemption, in a step that writes neither the otable nor a UFO
    // bit: only the descriptor count tells the memo.  The full scan
    // fails from that step until the consumer releases the line.
    {
        mc.numCores = 2;
        Machine m(mc);
        auto sys = TxSystem::create(TxSystemKind::UfoHybrid, m);
        sys->setup();
        TxHeap heap(m);
        const Addr flag = heap.allocZeroed(m.initContext(), 8, true);
        m.addThread([&](ThreadContext &tc) {
            sys->atomic(tc, [&](TxHandle &h) {
                if (h.read<std::uint64_t>(flag) == 0)
                    h.retryWait();
            });
        });
        m.addThread([&](ThreadContext &tc) {
            tc.advance(2000); // Let the consumer park first.
            sys->atomic(tc, [&](TxHandle &h) {
                h.write<std::uint64_t>(flag, 1);
            });
        });
        LockstepMemoCrossCheck xcheck(*sys->ustmRuntime());
        m.addOracle(&xcheck);
        try {
            m.run();
        } catch (const OracleViolation &v) {
            FAIL() << "retry: " << v.why << " at step " << v.step;
        }
        EXPECT_GT(m.stats().get("btm.retry_spec_clears"), 0u);
        EXPECT_GT(xcheck.fullFailures, 0u);
    }

    // Stores that change no descriptor: an otable word and a line's
    // UFO bits each rewritten between two checks, as a stray store
    // would.  Only SimMemory's counts tell the memo.
    {
        mc.numCores = 1;
        Machine m(mc);
        ThreadContext &tc = m.initContext();
        Ustm ustm(m, /*strong_atomic=*/true);
        ustm.setup(tc);
        LockstepMemoCrossCheck xcheck(ustm);
        const LineAddr line = 0x10000;
        ustm.txBegin(tc);
        ustm.readBarrier(tc, line);
        const Addr head = ustm.otable().bucketAddr(line);
        const std::uint64_t w0 = m.memory().read(head, 8);
        std::string why;
        EXPECT_TRUE(xcheck.check(&why)) << why;
        m.memory().write(head, w0 | Otable::kWrite, 8);
        EXPECT_TRUE(xcheck.check(&why)) << "otable store: " << why;
        m.memory().write(head, w0, 8);
        EXPECT_TRUE(xcheck.check(&why)) << why;
        m.memory().setUfoBits(line, kUfoBoth);
        EXPECT_TRUE(xcheck.check(&why)) << "UFO store: " << why;
        EXPECT_EQ(xcheck.fullFailures, 2u);
    }
}

// ------------------------------------------------ Found-bug pinning

TEST(TmTorture, InspectRowLockWindow)
{
    // Regression for an organic tmtorture find: BTM's UFO-fault
    // inspect hook (Ustm::inspectForRetryers) used to trust
    // peekOwners() == 0 while the otable row lock was held.  The
    // chain-insert / tombstone-reclaim paths of lockedAcquire()
    // install UFO bits *before* publishing the entry at unlock, so the
    // hook could speculatively clear another transaction's protection
    // in that window, leaving a published entry unprotected (lockstep
    // oracle violation).  Needs bucket collisions: tiny otable, many
    // lines, hybrid backend, write-heavy interleavings.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        TortureConfig cfg = smallConfig(TxSystemKind::UfoHybrid,
                                        SchedPolicy::RandomWalk, seed);
        cfg.threads = 8;
        cfg.opsPerThread = 40;
        cfg.cells = 64;
        cfg.otableBuckets = 2;
        TortureResult res = torture::runTorture(cfg);
        EXPECT_TRUE(res.ok())
            << "seed " << seed << ": oracle '" << res.oracle
            << "' at step " << res.violationStep << ": " << res.why;
    }
}

TEST(TmTorture, ReleaseStarvation)
{
    // Regression for the second organic find: with a fixed re-probe
    // cadence in Ustm::acquire(), the deterministic MinClock schedule
    // phase-locked two acquirers' row-lock probes over an Aborting
    // thread's releaseEntry() load-to-CAS window.  The releaser never
    // won the row lock, and its killer spun forever in the
    // victim-unwind wait ("victim-unwind wait did not terminate").
    // Exact original reproducer: ustm (weak), minclock, seed 4,
    // 4 threads x 60 ops over 48 cells in 4 otable buckets.
    TortureConfig cfg;
    cfg.kind = TxSystemKind::Ustm;
    cfg.threads = 4;
    cfg.opsPerThread = 60;
    cfg.cells = 48;
    cfg.otableBuckets = 4;
    cfg.seed = 4;
    cfg.sched.policy = SchedPolicy::MinClock;
    TortureResult res = torture::runTorture(cfg);
    EXPECT_TRUE(res.ok()) << res.oracle << ": " << res.why;
}

TEST(TmTorture, PctDemotionPhaseLock)
{
    // Regression for the third organic find: PCT's starvation-bound
    // demotion had a *fixed* cadence, and priority scheduling ignores
    // clocks — so a thread whose otable lock-probe loop has a constant
    // event count was demoted at the same loop phase every time.
    // That phase landed inside its row-lock critical section: every
    // lower-priority thread then burned its whole scheduling window
    // probing a lock whose holder was parked, and the rotation
    // repeated forever (no commits, no aborts, no oracle violation —
    // a silent livelock).  The cycle-jitter fix for the analogous
    // MinClock phase-lock (ReleaseStarvation above) cannot help here,
    // because PCT never consults clocks; the fix re-draws the bound
    // from the policy's own seeded RNG after every demotion.  Exact
    // original reproducer: ustm-ufo, pct, seed 12, 4 threads x 50
    // batched kv ops, 4 otable buckets (tmtorture --batch defaults).
    TortureConfig cfg;
    cfg.kind = TxSystemKind::UstmStrong;
    cfg.workload = torture::TortureWorkload::Kv;
    cfg.kvBatch = true;
    cfg.threads = 4;
    cfg.opsPerThread = 50;
    cfg.seed = 12;
    cfg.sched.policy = SchedPolicy::Pct;
    cfg.sched.pctExpectedSteps = 4096;
    TortureResult res = torture::runTorture(cfg);
    EXPECT_TRUE(res.ok()) << res.oracle << ": " << res.why;
}

} // namespace
} // namespace utm
