/**
 * @file
 * Durable UFO-TM tests: the persistence domain (mem/persist.hh),
 * redo-log commits (TmPolicy::durable), crash recovery
 * (dur/recovery.hh), and the crash-torture harness
 * (torture::runCrashTorture).
 *
 *  - determinism: durable runs are bit-reproducible for every durable
 *    backend x scheduler policy, and the dur.* counter families obey
 *    their sum invariants;
 *  - durability off is inert (no dur.* counters), and requesting it
 *    on a non-durable backend is ignored with a warning;
 *  - recovery: full-log recovery equals the committed history and is
 *    idempotent; synthetic torn tails (checksum mismatch, invalid
 *    length) and checksum-valid records carrying an unappliable write
 *    or a wrapped write count are truncated, zero headers stop the
 *    scan cleanly, and surviving UFO protection bits are scrubbed;
 *  - ScheduleTrace v2: crash-free traces keep the v1 byte format,
 *    crash traces round-trip "crash=<K>", and a recorded crash
 *    schedule replays the whole crash-recover-check cycle
 *    bit-identically; a cycle whose crash-free probe fails returns
 *    the probe's schedule, which replays the failure;
 *  - the crash-torture gate: >= 64 (seed x policy) crash runs on
 *    durable ustm-ufo and ufo-hybrid, each checked for prefix
 *    consistency, post-recovery otable<->UFO lockstep, and recovery
 *    idempotence.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "dur/recovery.hh"
#include "mem/persist.hh"
#include "mem/sim_memory.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"
#include "torture/torture.hh"

namespace utm {
namespace {

using torture::CrashTortureResult;
using torture::TortureConfig;
using torture::TortureResult;
using torture::TortureWorkload;

constexpr std::array<TxSystemKind, 6> kDurableBackends = {
    TxSystemKind::UnboundedHtm, TxSystemKind::UfoHybrid,
    TxSystemKind::HyTm,         TxSystemKind::PhTm,
    TxSystemKind::Ustm,         TxSystemKind::UstmStrong,
};

constexpr std::array<SchedPolicy, 5> kAllPolicies = {
    SchedPolicy::MinClock, SchedPolicy::MaxClock,
    SchedPolicy::RandomWalk, SchedPolicy::Pct, SchedPolicy::RoundRobin,
};

std::uint64_t
stat(const std::map<std::string, std::uint64_t> &stats,
     const std::string &name)
{
    auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second;
}

// ---------------------------------------------------- Inert when off

TEST(DurabilityOff, DefaultPolicyEmitsNoDurCounters)
{
    TmPolicy p;
    EXPECT_FALSE(p.durable);

    TortureConfig cfg;
    cfg.kind = TxSystemKind::UfoHybrid;
    cfg.seed = 3;
    const TortureResult res = torture::runTorture(cfg);
    ASSERT_TRUE(res.ok()) << res.why;
    for (const auto &[name, value] : res.stats)
        EXPECT_NE(name.rfind("dur.", 0), 0u)
            << name << " = " << value
            << " emitted with durability off";
}

TEST(DurabilityOff, NonDurableBackendIgnoresRequest)
{
    TortureConfig cfg;
    cfg.kind = TxSystemKind::Tl2;
    cfg.seed = 3;
    cfg.policy.durable = true; // TL2 cannot honor this.
    setWarningsSuppressed(true);
    const TortureResult res = torture::runTorture(cfg);
    setWarningsSuppressed(false);
    ASSERT_TRUE(res.ok()) << res.why;
    EXPECT_EQ(stat(res.stats, "dur.active"), 0u);
}

// ------------------------------------------- Determinism + counters

TEST(Durable, DoubleRunByteIdentityEveryBackendAndPolicy)
{
    for (TxSystemKind kind : kDurableBackends) {
        for (SchedPolicy policy : kAllPolicies) {
            TortureConfig cfg;
            cfg.kind = kind;
            cfg.sched.policy = policy;
            cfg.policy.durable = true;
            cfg.opsPerThread = 30;
            cfg.seed = 5;
            const TortureResult a = torture::runTorture(cfg);
            const TortureResult b = torture::runTorture(cfg);
            const std::string tag =
                std::string(txSystemKindName(kind)) + "/" +
                schedPolicyName(policy);
            ASSERT_TRUE(a.ok()) << tag << ": " << a.oracle << ": "
                                << a.why;
            EXPECT_EQ(a.cycles, b.cycles) << tag;
            EXPECT_EQ(a.stats, b.stats) << tag;

            // The dur.* family invariants: one fence per logged
            // commit, at least one write-back per record, and the
            // domain was actually armed.
            EXPECT_EQ(stat(a.stats, "dur.active"), 1u) << tag;
            const std::uint64_t logged =
                stat(a.stats, "dur.commits.logged");
            EXPECT_GT(logged, 0u) << tag;
            EXPECT_EQ(stat(a.stats, "dur.log_records"), logged) << tag;
            EXPECT_EQ(stat(a.stats, "dur.sfence"), logged) << tag;
            EXPECT_GE(stat(a.stats, "dur.clwb.dirty") +
                          stat(a.stats, "dur.clwb.clean"),
                      logged)
                << tag;
            EXPECT_GE(stat(a.stats, "dur.log_bytes"), 56 * logged)
                << tag;
        }
    }
}

TEST(Durable, ShardedLogFamiliesSumToTotals)
{
    TortureConfig cfg;
    cfg.kind = TxSystemKind::Ustm;
    cfg.workload = TortureWorkload::Kv;
    cfg.kvShards = 4;
    cfg.policy.durable = true;
    cfg.seed = 9;
    const TortureResult res = torture::runTorture(cfg);
    ASSERT_TRUE(res.ok()) << res.why;

    std::uint64_t records = 0, bytes = 0;
    for (unsigned s = 0; s < 4; ++s) {
        records += stat(res.stats,
                        "dur.log_records." + std::to_string(s));
        bytes += stat(res.stats, "dur.log_bytes." + std::to_string(s));
    }
    EXPECT_EQ(records, stat(res.stats, "dur.log_records"));
    EXPECT_EQ(bytes, stat(res.stats, "dur.log_bytes"));
    EXPECT_GT(records, 0u);
}

// ------------------------------------------------------ Recovery

TEST(Recovery, FullLogRecoveryMatchesHistoryAndIsIdempotent)
{
    // A crash step past the end of the run: the machine completes,
    // every logged record is fenced, and recovery must rebuild the
    // complete committed history (the harness also recovers twice and
    // fails unless the second pass is byte-identical).
    TortureConfig cfg;
    cfg.kind = TxSystemKind::UstmStrong;
    cfg.workload = TortureWorkload::Kv;
    cfg.seed = 4;
    const CrashTortureResult res =
        torture::runCrashTorture(cfg, std::uint64_t(1) << 30);
    ASSERT_TRUE(res.ok) << res.why;
    EXPECT_EQ(res.recoveredTx, res.committedTx);
    EXPECT_EQ(res.fencedTx, res.committedTx);
    EXPECT_EQ(res.discardedRecords, 0u);
    EXPECT_NE(res.recoverJson.find("\"schema\":\"ufotm-recover\""),
              std::string::npos);
}

/** Serialize synthetic redo records into a PersistentImage, starting
 *  at shard 0's record base.  A corrupt spec flips a payload word
 *  after the checksum is taken (the torn-tail shape a crash between
 *  write-backs leaves behind).  @p raw, when given, is one more
 *  record's payload words, checksummed as they are. */
struct RecordSpec
{
    std::uint64_t txid, ts;
    std::vector<std::array<std::uint64_t, 3>> writes;
    bool corrupt = false;
};

PersistentImage
makeLogImage(const MachineConfig &mc,
             const std::vector<RecordSpec> &recs,
             const std::vector<std::uint64_t> &raw = {})
{
    std::vector<std::uint8_t> bytes;
    const auto pushWord = [&bytes](std::uint64_t w) {
        for (int b = 0; b < 8; ++b)
            bytes.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
    };
    const auto pushRecord = [&pushWord](std::vector<std::uint64_t> words,
                                        bool corrupt) {
        const std::uint32_t ck =
            persistChecksum(words.data(), words.size());
        pushWord(8 * (1 + words.size()) |
                 (std::uint64_t(ck) << 32));
        if (corrupt)
            words[1] ^= 0xdead;
        for (std::uint64_t w : words)
            pushWord(w);
    };
    for (const RecordSpec &r : recs) {
        std::vector<std::uint64_t> words{r.txid, r.ts,
                                         r.writes.size()};
        for (const auto &t : r.writes) {
            words.push_back(t[0]);
            words.push_back(t[1]);
            words.push_back(t[2]);
        }
        pushRecord(words, r.corrupt);
    }
    if (!raw.empty())
        pushRecord(raw, false);
    PersistentImage img;
    const Addr rec_base = mc.persist.logBase + kLineSize;
    for (std::size_t off = 0; off < bytes.size(); off += kLineSize) {
        PersistentImage::Line line;
        for (unsigned b = 0; b < kLineSize && off + b < bytes.size();
             ++b)
            line.data[b] = bytes[off + b];
        img.put(rec_base + Addr(off), line);
    }
    return img;
}

TEST(Recovery, TornTailChecksumTruncated)
{
    MachineConfig mc;
    mc.numCores = 1;
    const Addr a1 = mc.heapBase + 0x100;
    const Addr a2 = mc.heapBase + 0x200;
    const PersistentImage img = makeLogImage(
        mc, {{1, 10, {{{a1, 0x1111, 8}}}, false},
             {2, 11, {{{a2, 0x2222, 8}}}, true}});

    Machine m(mc);
    const dur::RecoveryReport rep = dur::recover(m, img);
    EXPECT_EQ(rep.recordsScanned, 2u);
    EXPECT_EQ(rep.recordsApplied, 1u);
    EXPECT_EQ(rep.recordsDiscarded, 1u);
    EXPECT_EQ(rep.writesApplied, 1u);
    EXPECT_EQ(rep.maxCommitTs, 10u);
    EXPECT_EQ(m.memory().read(a1, 8), 0x1111u);
    EXPECT_NE(m.memory().read(a2, 8), 0x2222u)
        << "write of the torn record leaked into recovered state";
}

TEST(Recovery, ChecksumValidRecordWithBadWriteTruncated)
{
    MachineConfig mc;
    mc.numCores = 1;
    const Addr a1 = mc.heapBase + 0x100;
    const Addr a2 = mc.heapBase + 0x200;
    // Each write sits in a record whose checksum holds, but replay
    // cannot apply it: sizes 0, 3 and 9, and an 8-byte store crossing
    // a line.  Recovery must truncate there, not abort.
    const std::array<std::uint64_t, 3> bad[] = {
        {a2, 0x2222, 0},
        {a2, 0x2222, 3},
        {a2, 0x2222, 9},
        {a2 + kLineSize - 4, 0x2222, 8},
    };
    for (const auto &w : bad) {
        SCOPED_TRACE(::testing::Message()
                     << "addr " << w[0] << ", size " << w[2]);
        const PersistentImage img = makeLogImage(
            mc, {{1, 10, {{{a1, 0x1111, 8}}}, false}, {2, 11, {w}, false}});

        Machine m(mc);
        const dur::RecoveryReport rep = dur::recover(m, img);
        EXPECT_EQ(rep.recordsScanned, 2u);
        EXPECT_EQ(rep.recordsApplied, 1u);
        EXPECT_EQ(rep.recordsDiscarded, 1u);
        EXPECT_EQ(rep.maxCommitTs, 10u);
        EXPECT_EQ(m.memory().read(a1, 8), 0x1111u);
    }
}

TEST(Recovery, WrappedWriteCountTruncated)
{
    MachineConfig mc;
    mc.numCores = 1;
    const Addr a1 = mc.heapBase + 0x100;
    // Seven checksum-valid payload words whose write count c makes the
    // shape 3 + 3c wrap around to 7: recovery must truncate there, not
    // take c at its word and try to hold ~2^63 writes.
    const PersistentImage img =
        makeLogImage(mc, {{1, 10, {{{a1, 0x1111, 8}}}, false}},
                     {2, 11, 0xaaaaaaaaaaaaaaacull, 0, 0, 0, 0});

    Machine m(mc);
    const dur::RecoveryReport rep = dur::recover(m, img);
    EXPECT_EQ(rep.recordsScanned, 2u);
    EXPECT_EQ(rep.recordsApplied, 1u);
    EXPECT_EQ(rep.recordsDiscarded, 1u);
    EXPECT_EQ(m.memory().read(a1, 8), 0x1111u);
}

TEST(Recovery, ZeroHeaderStopsScanCleanly)
{
    MachineConfig mc;
    mc.numCores = 1;
    const Addr a1 = mc.heapBase + 0x300;
    const PersistentImage img =
        makeLogImage(mc, {{7, 42, {{{a1, 0xabcd, 8}}}, false}});

    Machine m(mc);
    const dur::RecoveryReport rep = dur::recover(m, img);
    EXPECT_EQ(rep.recordsScanned, 1u);
    EXPECT_EQ(rep.recordsApplied, 1u);
    EXPECT_EQ(rep.recordsDiscarded, 0u);
    EXPECT_EQ(m.memory().read(a1, 8), 0xabcdu);
}

TEST(Recovery, InvalidLengthHeaderTruncated)
{
    MachineConfig mc;
    mc.numCores = 1;
    // A lone header whose length is not a multiple of 8: the torn
    // shape of a crash that persisted the header line only.
    PersistentImage img;
    PersistentImage::Line line;
    const std::uint64_t header = 61 | (std::uint64_t(0x1234) << 32);
    for (int b = 0; b < 8; ++b)
        line.data[std::size_t(b)] =
            static_cast<std::uint8_t>(header >> (8 * b));
    img.put(mc.persist.logBase + kLineSize, line);

    Machine m(mc);
    const dur::RecoveryReport rep = dur::recover(m, img);
    EXPECT_EQ(rep.recordsScanned, 1u);
    EXPECT_EQ(rep.recordsApplied, 0u);
    EXPECT_EQ(rep.recordsDiscarded, 1u);
}

TEST(Recovery, SurvivingUfoBitsScrubbed)
{
    MachineConfig mc;
    mc.numCores = 1;
    // An image line that crossed the persistence boundary while UFO
    // write-protected (a committer died mid-window): recovery must
    // scrub it, because the rebuilt-empty otable owns nothing.
    PersistentImage img;
    PersistentImage::Line line;
    line.ufo = kUfoBoth;
    img.put(mc.heapBase, line);

    Machine m(mc);
    const dur::RecoveryReport rep = dur::recover(m, img);
    EXPECT_EQ(rep.ufoLinesScrubbed, 1u);
    EXPECT_EQ(m.memory().ufoLineCount(), 0u);
}

// ------------------------------------------------- ScheduleTrace v2

TEST(ScheduleTraceV2, CrashFreeTraceKeepsV1ByteFormat)
{
    ScheduleTrace t;
    t.appendBlock(0, 3);
    t.appendBlock(1, 2);
    EXPECT_EQ(t.serialize(), "ufotm-sched v1 0x3 1x2");

    ScheduleTrace back;
    ASSERT_TRUE(ScheduleTrace::parse(t.serialize(), &back));
    EXPECT_EQ(back, t);
    EXPECT_EQ(back.crashStep(), 0u);
}

TEST(ScheduleTraceV2, CrashStepRoundTrips)
{
    ScheduleTrace t;
    t.appendBlock(2, 5);
    t.setCrashStep(123);
    EXPECT_EQ(t.serialize(), "ufotm-sched v2 crash=123 2x5");

    ScheduleTrace back;
    ASSERT_TRUE(ScheduleTrace::parse(t.serialize(), &back));
    EXPECT_EQ(back, t);
    EXPECT_EQ(back.crashStep(), 123u);

    // The crash step is part of trace identity.
    ScheduleTrace plain;
    plain.appendBlock(2, 5);
    EXPECT_FALSE(plain == t);
    t.clear();
    EXPECT_EQ(t.crashStep(), 0u);
}

TEST(ScheduleTraceV2, MalformedCrashFieldsRejected)
{
    ScheduleTrace out;
    EXPECT_FALSE(ScheduleTrace::parse("ufotm-sched v2 0x3", &out));
    EXPECT_FALSE(
        ScheduleTrace::parse("ufotm-sched v2 crash=0 0x3", &out));
    EXPECT_FALSE(
        ScheduleTrace::parse("ufotm-sched v2 crash=x 0x3", &out));
    EXPECT_FALSE(ScheduleTrace::parse("ufotm-sched v3 0x3", &out));
}

// -------------------------------------------- Crash record / replay

TEST(CrashReplay, RecordedScheduleReplaysBitIdentically)
{
    TortureConfig cfg;
    cfg.kind = TxSystemKind::UfoHybrid;
    cfg.workload = TortureWorkload::Kv;
    cfg.seed = 2;
    const CrashTortureResult a = torture::runCrashTorture(cfg);
    ASSERT_TRUE(a.ok) << a.why;
    ASSERT_GT(a.crashStep, 0u);
    EXPECT_EQ(a.schedule.crashStep(), a.crashStep)
        << "crash point must be part of the recorded schedule";
    EXPECT_EQ(a.schedule.serialize().rfind("ufotm-sched v2 crash=", 0),
              0u);

    // File round-trip, then replay the whole crash-recover-check
    // cycle from the parsed trace alone.
    const std::string path =
        testing::TempDir() + "/durability_crash.sched";
    ASSERT_TRUE(a.schedule.saveFile(path));
    ScheduleTrace trace;
    ASSERT_TRUE(ScheduleTrace::loadFile(path, &trace));
    EXPECT_EQ(trace, a.schedule);
    std::remove(path.c_str());

    TortureConfig rcfg = cfg;
    rcfg.replay = &trace;
    const CrashTortureResult b = torture::runCrashTorture(rcfg);
    ASSERT_TRUE(b.ok) << b.why;
    EXPECT_EQ(b.crashStep, a.crashStep);
    EXPECT_EQ(b.recoverJson, a.recoverJson);
    EXPECT_EQ(b.stats, a.stats);
    EXPECT_EQ(b.committedTx, a.committedTx);
    EXPECT_EQ(b.fencedTx, a.fencedTx);
}

TEST(CrashReplay, FailingProbeReturnsReplayableSchedule)
{
    // A failure before any crash is injected (here the otable<->UFO
    // lockstep mutation) reports the crash-free probe's forensics: a
    // schedule, counters and timeline, and the schedule replays the
    // same failure.
    TortureConfig cfg;
    cfg.kind = TxSystemKind::UstmStrong;
    cfg.workload = TortureWorkload::Kv;
    cfg.seed = 1;
    cfg.injectLockstepBug = true;
    cfg.timeline = true;
    const CrashTortureResult a = torture::runCrashTorture(cfg);
    ASSERT_FALSE(a.ok);
    EXPECT_EQ(a.why.rfind("crash-free probe failed oracle "
                          "backend-invariants: ",
                          0),
              0u)
        << a.why;
    EXPECT_EQ(a.crashStep, 0u);
    EXPECT_GT(a.probeSteps, 0u);
    EXPECT_EQ(a.schedule.steps(), a.probeSteps);
    EXPECT_EQ(a.schedule.crashStep(), 0u);
    EXPECT_FALSE(a.stats.empty());
    EXPECT_FALSE(a.timeline.empty());

    TortureConfig rcfg = cfg;
    rcfg.replay = &a.schedule;
    const CrashTortureResult b = torture::runCrashTorture(rcfg);
    EXPECT_FALSE(b.ok);
    EXPECT_EQ(b.why, a.why);
    EXPECT_EQ(b.probeSteps, a.probeSteps);
    EXPECT_EQ(b.schedule, a.schedule);
    EXPECT_EQ(b.stats, a.stats);
}

// ------------------------------------------------ Crash-torture gate
//
// The acceptance gate: >= 64 (seed x policy) crash runs across the
// two strongly-atomic durable systems, every one recovered and
// checked for prefix consistency.  Split per (backend, policy) so
// ctest parallelizes the sweep.

void
crashGate(TxSystemKind kind, SchedPolicy policy, int seeds)
{
    for (int i = 0; i < seeds; ++i) {
        TortureConfig cfg;
        cfg.kind = kind;
        cfg.workload = TortureWorkload::Kv;
        cfg.sched.policy = policy;
        cfg.opsPerThread = 40;
        cfg.seed = 1 + std::uint64_t(i);
        const CrashTortureResult res = torture::runCrashTorture(cfg);
        EXPECT_TRUE(res.ok)
            << txSystemKindName(kind) << "/" << schedPolicyName(policy)
            << " seed " << cfg.seed << " crash@" << res.crashStep
            << ": " << res.why;
    }
}

TEST(CrashGate, UstmUfoMinClock)
{
    crashGate(TxSystemKind::UstmStrong, SchedPolicy::MinClock, 8);
}

TEST(CrashGate, UstmUfoMaxClock)
{
    crashGate(TxSystemKind::UstmStrong, SchedPolicy::MaxClock, 8);
}

TEST(CrashGate, UstmUfoRandomWalk)
{
    crashGate(TxSystemKind::UstmStrong, SchedPolicy::RandomWalk, 8);
}

TEST(CrashGate, UstmUfoPct)
{
    crashGate(TxSystemKind::UstmStrong, SchedPolicy::Pct, 8);
}

TEST(CrashGate, UfoHybridMinClock)
{
    crashGate(TxSystemKind::UfoHybrid, SchedPolicy::MinClock, 8);
}

TEST(CrashGate, UfoHybridMaxClock)
{
    crashGate(TxSystemKind::UfoHybrid, SchedPolicy::MaxClock, 8);
}

TEST(CrashGate, UfoHybridRandomWalk)
{
    crashGate(TxSystemKind::UfoHybrid, SchedPolicy::RandomWalk, 8);
}

TEST(CrashGate, UfoHybridPct)
{
    crashGate(TxSystemKind::UfoHybrid, SchedPolicy::Pct, 8);
}

} // namespace
} // namespace utm
