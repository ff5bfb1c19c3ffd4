/**
 * @file
 * Unit tests for USTM: otable protocol (fast paths, reader sharing,
 * upgrades, chains), age-based conflict resolution (kill / stall),
 * eager-versioning rollback, strong-atomicity UFO maintenance, and
 * the non-transactional fault handler policies.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.hh"
#include "sim/machine.hh"
#include "ustm/otable.hh"
#include "ustm/ustm.hh"

namespace utm {
namespace {

MachineConfig
quietConfig(int cores = 2, unsigned buckets = 0)
{
    MachineConfig mc;
    mc.numCores = cores;
    mc.timerQuantum = 0;
    if (buckets)
        mc.otableBuckets = buckets;
    return mc;
}

// ----------------------------------------------------- Otable packing

TEST(Otable, PackUnpackRoundTrip)
{
    const std::uint64_t tag = Otable::tagOf(0x123456789c0);
    std::uint64_t w0 = Otable::pack(true, false, true, false, true, 37,
                                    tag);
    EXPECT_TRUE(Otable::used(w0));
    EXPECT_FALSE(Otable::locked(w0));
    EXPECT_TRUE(Otable::writeState(w0));
    EXPECT_FALSE(Otable::multi(w0));
    EXPECT_TRUE(Otable::hasChain(w0));
    EXPECT_EQ(Otable::owner(w0), 37);
    EXPECT_EQ(Otable::tag(w0), tag);
}

TEST(Otable, NodePoolAllocFree)
{
    Otable ot(16, 0x1000000, 4);
    EXPECT_EQ(ot.freeNodes(), 4u);
    Addr a = ot.allocNode();
    Addr b = ot.allocNode();
    EXPECT_NE(a, b);
    ot.freeNode(a);
    EXPECT_EQ(ot.freeNodes(), 3u);
    EXPECT_EQ(ot.allocNode(), a); // LIFO reuse.
    ot.freeNode(a);
    ot.freeNode(b);
}

TEST(Otable, BucketAddrWithinTable)
{
    Otable ot(64, 0x1000000);
    for (Addr line = 0; line < 0x100000; line += kLineSize) {
        Addr b = ot.bucketAddr(line);
        EXPECT_GE(b, 0x1000000u);
        EXPECT_LT(b, 0x1000000u + 64u * Otable::kEntryBytes);
        EXPECT_EQ((b - 0x1000000u) % Otable::kEntryBytes, 0u);
    }
}

// --------------------------------------------------------- Basic USTM

TEST(Ustm, CommitPublishesWrites)
{
    Machine m(quietConfig(1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, /*strong_atomic=*/false);
    ustm.setup(tc);
    ustm.txBegin(tc);
    ustm.txWrite(tc, 0x100, 7, 8);
    EXPECT_EQ(ustm.txRead(tc, 0x100, 8), 7u);
    ustm.txEnd(tc);
    EXPECT_EQ(m.memory().read(0x100, 8), 7u);
}

TEST(Ustm, OtableEmptyAfterCommit)
{
    Machine m(quietConfig(1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, false);
    ustm.setup(tc);
    ustm.txBegin(tc);
    for (int i = 0; i < 20; ++i)
        ustm.txWrite(tc, 0x1000 + i * 64, i, 8);
    for (int i = 0; i < 20; ++i)
        ustm.txRead(tc, 0x9000 + i * 64, 8);
    ustm.txEnd(tc);
    // Every bucket word must be free again (tombstones allowed).
    Otable &ot = ustm.otable();
    for (int i = 0; i < 20; ++i) {
        std::uint64_t w0 =
            m.memory().read(ot.bucketAddr(0x1000 + i * 64), 8);
        EXPECT_FALSE(Otable::used(w0));
        EXPECT_FALSE(Otable::locked(w0));
    }
}

TEST(Ustm, FlattenedNesting)
{
    Machine m(quietConfig(1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, false);
    ustm.setup(tc);
    ustm.txBegin(tc);
    ustm.txBegin(tc);
    ustm.txWrite(tc, 0x200, 9, 8);
    ustm.txEnd(tc);
    EXPECT_TRUE(ustm.inTx(tc.id()));
    ustm.txEnd(tc);
    EXPECT_FALSE(ustm.inTx(tc.id()));
    EXPECT_EQ(m.memory().read(0x200, 8), 9u);
}

TEST(Ustm, MultipleReadersShareALine)
{
    Machine m(quietConfig(2));
    Ustm ustm(m, false);
    ustm.setup(m.initContext());
    int committed = 0;
    for (int t = 0; t < 2; ++t) {
        m.addThread([&](ThreadContext &tc) {
            ustm.txBegin(tc);
            EXPECT_EQ(ustm.txRead(tc, 0x300, 8), 0u);
            tc.advance(300); // Overlap the other reader.
            EXPECT_EQ(ustm.txRead(tc, 0x300, 8), 0u);
            ustm.txEnd(tc);
            ++committed;
        });
    }
    m.run();
    EXPECT_EQ(committed, 2);
    EXPECT_EQ(m.stats().get("ustm.kills"), 0u);
}

TEST(Ustm, WriterKillsYoungerReader)
{
    Machine m(quietConfig(2));
    Ustm ustm(m, false);
    ustm.setup(m.initContext());
    int aborts = 0;
    m.addThread([&](ThreadContext &tc) {
        // Older transaction; writes after the reader acquired.
        ustm.txBegin(tc);
        tc.advance(600);
        ustm.txWrite(tc, 0x400, 5, 8);
        ustm.txEnd(tc);
    });
    m.addThread([&](ThreadContext &tc) {
        tc.advance(20);
        for (;;) {
            try {
                ustm.txBegin(tc); // Younger.
                ustm.txRead(tc, 0x400, 8);
                tc.advance(2000); // Hold read ownership.
                ustm.txRead(tc, 0x400, 8); // Poll point: sees kill.
                ustm.txEnd(tc);
                return;
            } catch (const UstmAbortException &) {
                ++aborts;
            }
        }
    });
    m.run();
    EXPECT_GE(aborts, 1);
    EXPECT_EQ(m.memory().read(0x400, 8), 5u);
}

TEST(Ustm, AbortRestoresUndoLog)
{
    Machine m(quietConfig(2));
    Ustm ustm(m, false);
    ustm.setup(m.initContext());
    m.memory().write(0x500, 111, 8);
    m.memory().write(0x540, 222, 8);
    bool observed_abort = false;
    m.addThread([&](ThreadContext &tc) {
        // Younger writer that will be killed mid-flight.  Yield so
        // the other thread's txBegin draws the older sequence number.
        tc.advance(20);
        tc.yield();
        try {
            ustm.txBegin(tc);
            ustm.txWrite(tc, 0x500, 999, 8);
            ustm.txWrite(tc, 0x540, 888, 8);
            tc.advance(4000);
            ustm.txRead(tc, 0x500, 8); // Observes the kill here.
            ustm.txEnd(tc);
        } catch (const UstmAbortException &) {
            observed_abort = true;
        }
    });
    m.addThread([&](ThreadContext &tc) {
        // Older transaction wants the same lines.
        ustm.txBegin(tc);
        tc.advance(1200);
        EXPECT_EQ(ustm.txRead(tc, 0x500, 8), 111u);
        EXPECT_EQ(ustm.txRead(tc, 0x540, 8), 222u);
        ustm.txEnd(tc);
    });
    m.run();
    EXPECT_TRUE(observed_abort);
    EXPECT_EQ(m.memory().read(0x500, 8), 111u);
    EXPECT_EQ(m.memory().read(0x540, 8), 222u);
}

TEST(Ustm, YoungerStallsForOlderWriter)
{
    Machine m(quietConfig(2));
    Ustm ustm(m, false);
    ustm.setup(m.initContext());
    std::vector<int> commit_order;
    m.addThread([&](ThreadContext &tc) {
        ustm.txBegin(tc); // Older.
        ustm.txWrite(tc, 0x600, 1, 8);
        tc.advance(2000);
        ustm.txEnd(tc);
        commit_order.push_back(0);
    });
    m.addThread([&](ThreadContext &tc) {
        tc.advance(400); // After the older tx owns the line.
        for (;;) {
            try {
                ustm.txBegin(tc); // Younger: must stall, not kill.
                ustm.txWrite(tc, 0x600, 2, 8);
                ustm.txEnd(tc);
                commit_order.push_back(1);
                return;
            } catch (const UstmAbortException &) {
            }
        }
    });
    m.run();
    ASSERT_EQ(commit_order.size(), 2u);
    EXPECT_EQ(commit_order[0], 0); // Older committed first.
    EXPECT_EQ(m.memory().read(0x600, 8), 2u);
    // The younger either stalled on the active older transaction or
    // waited for its commit release; never killed it.
    EXPECT_GT(m.stats().get("ustm.conflicts"), 0u);
    EXPECT_EQ(m.stats().get("ustm.kills"), 0u);
}

TEST(Ustm, ChainedBucketsHandleAliases)
{
    // A 1-bucket otable forces every line into one chain.
    Machine m(quietConfig(1, /*buckets=*/1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, false);
    ustm.setup(tc);
    ustm.txBegin(tc);
    for (int i = 0; i < 8; ++i)
        ustm.txWrite(tc, 0x7000 + i * 64, i + 1, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ustm.txRead(tc, 0x7000 + i * 64, 8),
                  std::uint64_t(i + 1));
    ustm.txEnd(tc);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(m.memory().read(0x7000 + i * 64, 8),
                  std::uint64_t(i + 1));
    EXPECT_GT(m.stats().get("ustm.chain_inserts"), 0u);
    // All chain nodes returned to the pool.
    EXPECT_EQ(ustm.otable().freeNodes(), 4096u);
}

TEST(Ustm, ChainedConflictDetected)
{
    Machine m(quietConfig(2, /*buckets=*/1));
    Ustm ustm(m, false);
    ustm.setup(m.initContext());
    int kills = 0;
    m.addThread([&](ThreadContext &tc) {
        ustm.txBegin(tc); // Older.
        ustm.txWrite(tc, 0x8000, 1, 8); // Head entry.
        tc.advance(200);
        ustm.txWrite(tc, 0x8040, 2, 8); // Chain node, conflicts.
        ustm.txEnd(tc);
    });
    m.addThread([&](ThreadContext &tc) {
        tc.advance(20);
        for (;;) {
            try {
                ustm.txBegin(tc); // Younger.
                ustm.txWrite(tc, 0x8040, 9, 8);
                tc.advance(2000);
                ustm.txRead(tc, 0x8040, 8);
                ustm.txEnd(tc);
                return;
            } catch (const UstmAbortException &) {
                ++kills;
            }
        }
    });
    m.run();
    EXPECT_GE(kills, 1);
    EXPECT_EQ(m.memory().read(0x8000, 8), 1u);
}

// ------------------------------------------------- Strong atomicity

TEST(UstmStrong, UfoBitsTrackOwnership)
{
    Machine m(quietConfig(1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, /*strong_atomic=*/true);
    ustm.setup(tc);
    ustm.txBegin(tc);
    ustm.readBarrier(tc, 0x900);
    EXPECT_EQ(m.memory().ufoBits(0x900), kUfoWriteOnly);
    ustm.writeBarrier(tc, 0x940);
    EXPECT_EQ(m.memory().ufoBits(0x940), kUfoBoth);
    ustm.writeBarrier(tc, 0x900); // Upgrade.
    EXPECT_EQ(m.memory().ufoBits(0x900), kUfoBoth);
    ustm.txEnd(tc);
    EXPECT_EQ(m.memory().ufoBits(0x900), kUfoNone);
    EXPECT_EQ(m.memory().ufoBits(0x940), kUfoNone);
}

TEST(UstmStrong, LockstepOracleReportsLowestUnownedLine)
{
    // Lockstep direction 2: UFO protection with no otable owner.  The
    // report names the lowest such line, whatever order the bits were
    // set in and whichever page they sit on.
    Machine m(quietConfig(1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, /*strong_atomic=*/true);
    ustm.setup(tc);
    std::string why;
    EXPECT_TRUE(ustm.verifyOracleInvariants(&why)) << why;
    m.memory().setUfoBits(0x30040, kUfoBoth);
    m.memory().setUfoBits(0x20080, kUfoWriteOnly);
    m.memory().setUfoBits(0x300c0, kUfoBoth);
    EXPECT_FALSE(ustm.verifyOracleInvariants(&why));
    EXPECT_EQ(why, "line 0x20080: UFO bits {r=0,w=1} but no otable owner");
}

TEST(UstmStrong, NonTReadStallsUntilCommit)
{
    Machine m(quietConfig(2));
    Ustm ustm(m, true);
    ustm.setup(m.initContext());
    std::uint64_t seen = 0;
    m.addThread([&](ThreadContext &tc) {
        ustm.txBegin(tc);
        ustm.txWrite(tc, 0xa00, 1, 8); // Intermediate value.
        tc.advance(3000);
        ustm.txWrite(tc, 0xa00, 2, 8); // Final value.
        ustm.txEnd(tc);
    });
    m.addThread([&](ThreadContext &tc) {
        tc.advance(1000); // While the transaction owns the line.
        seen = tc.load(0xa00, 8); // Faults; stalls until commit.
    });
    m.run();
    // Strong atomicity: the nonT read never sees the intermediate 1.
    EXPECT_EQ(seen, 2u);
    EXPECT_GT(m.stats().get("ustm.nont_faults"), 0u);
}

TEST(UstmStrong, NonTFaultAbortTxPolicy)
{
    MachineConfig mc = quietConfig(2);
    Machine m(mc);
    UstmPolicy pol;
    pol.nonTFault = UstmPolicy::NonTFault::AbortTx;
    Ustm ustm(m, true, pol);
    ustm.setup(m.initContext());
    bool tx_killed = false;
    m.addThread([&](ThreadContext &tc) {
        try {
            ustm.txBegin(tc);
            ustm.txWrite(tc, 0xb00, 77, 8);
            tc.advance(4000);
            ustm.txRead(tc, 0xb00, 8); // Poll: observe the kill.
            ustm.txEnd(tc);
        } catch (const UstmAbortException &) {
            tx_killed = true;
        }
    });
    m.addThread([&](ThreadContext &tc) {
        tc.advance(800); // While the transaction owns the line.
        EXPECT_EQ(tc.load(0xb00, 8), 0u); // NonT wins; sees pre-state.
    });
    m.run();
    EXPECT_TRUE(tx_killed);
    EXPECT_EQ(m.memory().read(0xb00, 8), 0u);
}

TEST(UstmStrong, KillerWaitsForVictimUnwind)
{
    // The blocking protocol: when an older tx kills a younger one, it
    // must observe the victim's released entries (and restored data)
    // before proceeding.
    Machine m(quietConfig(2));
    Ustm ustm(m, true);
    ustm.setup(m.initContext());
    m.memory().write(0xc00, 5, 8);
    std::uint64_t older_read = 99;
    m.addThread([&](ThreadContext &tc) {
        ustm.txBegin(tc); // Older.
        tc.advance(300);
        older_read = ustm.txRead(tc, 0xc00, 8); // Kills the younger.
        ustm.txEnd(tc);
    });
    m.addThread([&](ThreadContext &tc) {
        tc.advance(10);
        try {
            ustm.txBegin(tc); // Younger.
            ustm.txWrite(tc, 0xc00, 42, 8);
            tc.advance(2000);
            ustm.txRead(tc, 0xc00, 8);
            ustm.txEnd(tc);
        } catch (const UstmAbortException &) {
        }
    });
    m.run();
    EXPECT_EQ(older_read, 5u); // Undo applied before the read.
}

} // namespace
} // namespace utm

namespace utm {
namespace {

MachineConfig
quiet2(int cores, unsigned buckets = 0)
{
    MachineConfig mc;
    mc.numCores = cores;
    mc.timerQuantum = 0;
    if (buckets)
        mc.otableBuckets = buckets;
    return mc;
}

TEST(Ustm, ThreeReadersReleaseInAnyOrder)
{
    // Three concurrent readers share one entry; releases peel the
    // owner set down and the last one clears the UFO bits.
    Machine m(quiet2(3));
    Ustm ustm(m, /*strong_atomic=*/true);
    ustm.setup(m.initContext());
    int committed = 0;
    for (int t = 0; t < 3; ++t) {
        m.addThread([&, t](ThreadContext &tc) {
            ustm.txBegin(tc);
            EXPECT_EQ(ustm.txRead(tc, 0xd00, 8), 0u);
            tc.advance(300 + t * 137); // Staggered release order.
            ustm.txEnd(tc);
            ++committed;
        });
    }
    m.run();
    EXPECT_EQ(committed, 3);
    EXPECT_EQ(m.memory().ufoBits(0xd00), kUfoNone);
    std::uint64_t w0 =
        m.memory().read(ustm.otable().bucketAddr(0xd00), 8);
    EXPECT_FALSE(Otable::used(w0));
}

TEST(Ustm, TombstonedHeadIsReclaimed)
{
    // With a 1-bucket otable: insert A (head) and B (chain); release
    // A (tombstone head, chain survives); a new line C must reclaim
    // the head slot rather than leak nodes.
    Machine m(quiet2(1, /*buckets=*/1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, false);
    ustm.setup(tc);
    const std::size_t pool0 = ustm.otable().freeNodes();

    ustm.txBegin(tc);
    ustm.writeBarrier(tc, 0xe000); // Head entry.
    ustm.writeBarrier(tc, 0xe040); // Chain node.
    ustm.txEnd(tc);
    EXPECT_EQ(ustm.otable().freeNodes(), pool0); // All freed.

    ustm.txBegin(tc);
    ustm.writeBarrier(tc, 0xe080);
    ustm.writeBarrier(tc, 0xe0c0);
    ustm.writeBarrier(tc, 0xe100);
    // Head + two chain nodes in flight.
    EXPECT_EQ(ustm.otable().freeNodes(), pool0 - 2);
    ustm.txEnd(tc);
    EXPECT_EQ(ustm.otable().freeNodes(), pool0);
}

TEST(Ustm, PeekOwnersMatchesProtocolState)
{
    Machine m(quiet2(1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, false);
    ustm.setup(tc);
    EXPECT_EQ(ustm.peekOwners(0xf000), 0u);
    ustm.txBegin(tc);
    ustm.writeBarrier(tc, 0xf000);
    ustm.readBarrier(tc, 0xf040);
    EXPECT_EQ(ustm.peekOwners(0xf000), 1ull << tc.id());
    EXPECT_EQ(ustm.peekOwners(0xf040), 1ull << tc.id());
    EXPECT_EQ(ustm.peekOwners(0xf080), 0u);
    ustm.txEnd(tc);
    EXPECT_EQ(ustm.peekOwners(0xf000), 0u);
}

TEST(Ustm, RepeatedBarriersAreIdempotent)
{
    Machine m(quiet2(1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, true);
    ustm.setup(tc);
    ustm.txBegin(tc);
    for (int i = 0; i < 5; ++i)
        ustm.readBarrier(tc, 0x1100);
    for (int i = 0; i < 5; ++i)
        ustm.writeBarrier(tc, 0x1100); // Upgrade once, then no-ops.
    for (int i = 0; i < 5; ++i)
        ustm.writeBarrier(tc, 0x1140);
    EXPECT_EQ(m.memory().ufoBits(0x1100), kUfoBoth);
    ustm.txEnd(tc);
    EXPECT_EQ(m.memory().ufoBits(0x1100), kUfoNone);
    EXPECT_EQ(m.memory().ufoBits(0x1140), kUfoNone);
}

TEST(Ustm, UpgradeOnChainNode)
{
    Machine m(quiet2(1, /*buckets=*/1));
    ThreadContext &tc = m.initContext();
    Ustm ustm(m, true);
    ustm.setup(tc);
    m.memory().write(0x1200, 5, 8);
    ustm.txBegin(tc);
    ustm.writeBarrier(tc, 0x1180);  // Head.
    ustm.readBarrier(tc, 0x1200);   // Chain node, read state.
    EXPECT_EQ(m.memory().ufoBits(0x1200), kUfoWriteOnly);
    ustm.txWrite(tc, 0x1200, 9, 8); // Upgrade the chain node.
    EXPECT_EQ(m.memory().ufoBits(0x1200), kUfoBoth);
    ustm.txEnd(tc);
    EXPECT_EQ(m.memory().read(0x1200, 8), 9u);
    EXPECT_EQ(m.memory().ufoBits(0x1200), kUfoNone);
}

} // namespace
} // namespace utm
