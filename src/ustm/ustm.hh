/**
 * @file
 * USTM: the eager-versioning, eager-conflict-detection, cache-line
 * granularity software TM of paper Section 4.1, with the optional
 * UFO-based strong-atomicity extension of Section 4.2.
 *
 * The Table 3 API maps to:
 *   ustm_begin         -> Ustm::txBegin()
 *   ustm_end           -> Ustm::txEnd()
 *   ustm_abort         -> observed kill -> UstmAbortException
 *   ustm_read_barrier  -> Ustm::readBarrier()
 *   ustm_write_barrier -> Ustm::writeBarrier()
 *
 * Conflict resolution is age-based and blocking: a transaction that
 * conflicts with an older transaction stalls; one that conflicts only
 * with younger transactions kills them and waits for each victim to
 * unwind itself (restore its undo log and release its otable entries)
 * before proceeding.  A freshly-aborted transaction waits until its
 * killer retires before reissuing (livelock avoidance, Section 4.1).
 *
 * In strong-atomic mode, read ownership installs fault-on-write UFO
 * protection and write ownership installs fault-on-read+write, in
 * lockstep with otable insertion under the row lock (Algorithm 2); the
 * registered non-transactional fault handler implements the
 * software-defined contention policy (stall the access, or abort the
 * owning transaction).
 */

#ifndef UFOTM_USTM_USTM_HH
#define UFOTM_USTM_USTM_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/tm_iface.hh"
#include "sim/types.hh"
#include "ustm/otable.hh"

namespace utm {

class Machine;
class ThreadContext;

/** Thrown when a software transaction observes that it was killed. */
struct UstmAbortException
{
};

/** Software contention-management knobs. */
struct UstmPolicy
{
    /** How the UFO fault handler treats a faulting nonT access. */
    enum class NonTFault
    {
        Stall,   ///< Stall the access until protection clears (default;
                 ///< STM transactions are statically prioritized).
        AbortTx, ///< Kill the owning software transaction(s).
    };

    NonTFault nonTFault = NonTFault::Stall;
    Cycles stallPoll = 20;   ///< Poll interval while stalled.
    Cycles lockBackoff = 10; ///< Backoff after losing an otable race.

    /**
     * Test-only stall injection: releaseEntry() behaves as if its
     * row-lock acquisition always loses — the steady state the
     * historic ReleaseStarvation livelock converged to (acquirers'
     * fixed-cadence probes phase-locked over the releaser's
     * load-to-CAS window, so the releaser never won the row lock; see
     * tests/test_tmtorture.cc).  The releasing thread spins forever,
     * its killers park in the victim-unwind wait, and no thread
     * commits again — exactly the signature the stall watchdog
     * (sim/telemetry.hh) must flag.
     */
    bool testOnlyStarveReleaseEntry = false;
};

/** The USTM runtime shared by all threads of one machine. */
class Ustm
{
  public:
    /** Default simulated address of the otable region. */
    static constexpr Addr kDefaultOtableBase = 0x08000000;

    /**
     * @param machine       Owning machine.
     * @param strong_atomic Install UFO protection with ownership.
     * @param policy        Software CM knobs.
     */
    Ustm(Machine &machine, bool strong_atomic,
         const UstmPolicy &policy = UstmPolicy{});

    /**
     * Materialize the otable and (in strong mode) register the UFO
     * fault handler.  Call once, before threads run.
     */
    void setup(ThreadContext &init);

    /** @name Transaction lifecycle (Table 3). @{ */
    void txBegin(ThreadContext &tc);
    void txEnd(ThreadContext &tc);

    /**
     * Transactional waiting — the `retry` primitive of paper
     * Section 6.  Undoes the transaction's speculative writes,
     * downgrades its write ownership to read ownership, and parks the
     * transaction in Retrying state.  Any transaction that later
     * acquires one of the watched lines for writing wakes it (the
     * wound doubles as the wakeup); the woken transaction unwinds and
     * UstmAbortException propagates to the retry loop, which re-runs
     * the body.  Eager conflict detection wakes at the writer's
     * *acquire* (not its commit, as in a lazy STM) — at worst one
     * spurious re-check, never a lost wakeup.
     */
    [[noreturn]] void txRetryWait(ThreadContext &tc);

    /** Barrier + data access helpers used by the TxHandle layer. */
    std::uint64_t txRead(ThreadContext &tc, Addr a, unsigned size);
    void txWrite(ThreadContext &tc, Addr a, std::uint64_t v,
                 unsigned size);

    void readBarrier(ThreadContext &tc, Addr a);
    void writeBarrier(ThreadContext &tc, Addr a);
    /** @} */

    /**
     * Poll point: if this transaction has been killed, unwind (restore
     * the undo log, release ownership) and throw UstmAbortException.
     */
    void checkKill(ThreadContext &tc);

    /** Is thread @p t inside a software transaction? */
    bool inTx(ThreadId t) const;

    bool strongAtomic() const { return strong_; }

    /**
     * @name Per-shard ownership tables.
     *
     * The otable is no longer a process-global singleton: the runtime
     * holds one Otable per MachineConfig::otableShards, laid out at
     * staggered simulated base addresses below the heap, and every
     * barrier routes its line to the shard owning the line's heap
     * stripe (MachineConfig::shardOfAddr).  With one shard (the
     * default) this degenerates to the paper's single global table.
     * @{
     */
    Otable &otableFor(LineAddr line) { return otables_[shardOf(line)]; }

    const Otable &
    otableFor(LineAddr line) const
    {
        return otables_[shardOf(line)];
    }

    unsigned
    shardOf(LineAddr line) const
    {
        return shardOfAddr_(line);
    }

    unsigned numShards() const { return unsigned(otables_.size()); }

    /** The first shard's table (tests; single-shard configs). */
    Otable &otable() { return otables_[0]; }
    /** @} */

    const UstmPolicy &policy() const { return policy_; }

    /** Transaction age of thread @p t (0 when inactive). */
    std::uint64_t txAgeOf(ThreadId t) const;

    /** Functional (untimed) owner-set lookup for @p line; used by the
     *  Section 6 hooks and by tests. */
    std::uint64_t peekOwners(LineAddr line) const;

    /**
     * @name tmtorture oracle hooks (sim/oracle.hh).
     *
     * Functional machine-state predicates evaluated at preemption
     * points only (no thread is mid-shared-memory-event, but a thread
     * may hold an otable row lock — transient windows under a held
     * row lock are skipped).
     * @{
     */

    /**
     * Check the otable↔UFO-bit lockstep invariant of Algorithm 2
     * (every unlocked owned entry has matching protection bits and
     * vice versa; lines whose owner set includes a parked Retrying
     * transaction are exempt, since a BTM Section 6 inspect may have
     * speculatively cleared their bits) and undo-log balance (a
     * quiescent descriptor holds no undo records and no ownership).
     *
     * The lockstep scan is memoized: it reads only the otable pages,
     * the UFO bits and the descriptors' status and owned lines, so
     * when SimMemory's write counts for the otable pages, its UFO
     * change count and descChanges_ all equal those of the last
     * passing scan, the remembered pass is returned.  Failures are
     * never remembered: a failing check always scans in full, so
     * every report is the full scan's.
     */
    bool verifyOracleInvariants(std::string *why) const;

    /** verifyOracleInvariants() without the memo: always the full
     *  lockstep scan (tests cross-check the two). */
    bool verifyOracleInvariantsFull(std::string *why) const;

    /** Is @p line owned by, or in the undo log of, any live tx? */
    bool lineBusy(LineAddr line) const;

    /**
     * Test-only mutation hook: skip the UFO-bit install that
     * Algorithm 2 couples to otable insertion, so the lockstep oracle
     * can prove it still detects the breakage (harness self-test).
     */
    void testOnlyBreakUfoLockstep(bool on) { breakUfoLockstep_ = on; }
    /** @} */

  private:
    struct TxDesc
    {
        enum class Status
        {
            Inactive,
            Active,
            Aborting,
            Committing,
            Retrying, ///< Parked in txRetryWait; killable by anyone.
        };

        struct Owned
        {
            LineAddr line;
            Addr entry;
            bool write;
        };

        struct UndoRec
        {
            Addr addr;
            unsigned size;
            std::uint64_t old;
        };

        Status status = Status::Inactive;
        int depth = 0;
        std::uint64_t age = 0;
        std::uint64_t killedAge = 0; ///< == age means: die.
        ThreadId killerTid = -1;
        std::uint64_t killerAge = 0;
        /** @name Telemetry conflict-edge stash, written by the killer
         *  in killOwners() and consumed victim-side in unwindAbort()
         *  when the kill is taken. @{ */
        TxSiteId aggrSite = kTxSiteNone;
        LineAddr aggrLine = 0;
        /** @} */
        std::vector<Owned> owned;
        std::unordered_map<LineAddr, std::size_t> ownedIndex;
        std::vector<UndoRec> undo;
    };

    /** Outcome of one pass over the otable entry for a line. */
    struct AcquireStep
    {
        enum class Kind { Done, Retry, Conflict } kind;
        std::uint64_t conflictOwners = 0;
    };

    void acquire(ThreadContext &tc, TxDesc &tx, LineAddr line,
                 bool want_write);
    AcquireStep acquireStep(ThreadContext &tc, TxDesc &tx,
                            LineAddr line, bool want_write);
    AcquireStep lockedAcquire(ThreadContext &tc, TxDesc &tx,
                              LineAddr line, bool want_write, Addr head,
                              std::uint64_t w0_locked);

    /** Read an entry's owner set (loads word1 when multi). */
    std::uint64_t ownersOf(ThreadContext &tc, Addr entry,
                           std::uint64_t w0);

    void resolveConflict(ThreadContext &tc, TxDesc &tx,
                         std::uint64_t owners, LineAddr line);

    /** Kill every active transaction in @p owners younger than
     *  @p my_age (~0 for non-transactional requesters) and wait for
     *  each victim to unwind. @p line is the conflicting line
     *  (telemetry edge attribution). Returns false if some victim was
     *  older (caller must stall instead). */
    bool killOwners(ThreadContext &tc, std::uint64_t owners,
                    std::uint64_t my_age, TxDesc *me, LineAddr line);

    void record(TxDesc &tx, LineAddr line, Addr entry, bool write);

    void releaseAll(ThreadContext &tc, TxDesc &tx);
    void releaseEntry(ThreadContext &tc, TxDesc &tx,
                      const TxDesc::Owned &o);

    /** Durable mode: append + fence the commit's redo record while
     *  still Committing (unkillable) and holding ownership, so the
     *  fence completes before the writes become visible. */
    void persistCommit(ThreadContext &tc, TxDesc &tx);

    /** Downgrade a held write entry to read ownership (for retry). */
    void downgradeEntry(ThreadContext &tc, TxDesc::Owned &o);

    /**
     * Undo + release + throw.  @p why names the abort cause for the
     * ustm.aborts.&lt;why&gt; attribution counter: "killed" (lost a
     * conflict to another transaction) or "retry_wakeup" (parked in
     * txRetryWait and woken by a writer).
     */
    [[noreturn]] void unwindAbort(ThreadContext &tc, TxDesc &tx,
                                  const char *why);

    void installUfo(ThreadContext &tc, LineAddr line, bool write);
    void clearUfo(ThreadContext &tc, LineAddr line);

    void nonTFaultHandler(ThreadContext &tc, Addr a, AccessType t);

    /**
     * Section 6 inspect hook, run inside a BTM transaction's UFO
     * fault handler: true iff @p line is protected only by parked
     * Retrying transactions (collected into @p tokens for a
     * post-commit wakeup).  Uses a functional otable peek, modelling
     * the paper's non-transactional loads from the in-BTM handler.
     */
    bool inspectForRetryers(ThreadContext &tc, LineAddr line,
                            std::vector<RetryWakeupHooks::Token>
                                *tokens);

    /** Section 6 wake hook: called after the BTM commit. */
    void wakeRetryers(const std::vector<RetryWakeupHooks::Token> &t);

    /** The only writer of TxDesc::status; bumps descChanges_. */
    void setStatus(TxDesc &tx, TxDesc::Status status);

    /** @name verifyOracleInvariants() parts. @{ */
    bool undoLogsBalanced(std::string *why) const;
    bool lockstepHolds(std::string *why) const;

    /** Change counts of everything lockstepHolds() reads. */
    struct LockstepInputs
    {
        std::uint64_t otableWrites; ///< Writes to the otable pages.
        std::uint64_t ufoChanges;   ///< SimMemory::ufoChanges().
        std::uint64_t descChanges;  ///< descChanges_.
        bool operator==(const LockstepInputs &) const = default;
    };
    LockstepInputs lockstepInputs() const;
    /** @} */

    /** One CAS to set @p head's row-lock bit over @p w0. */
    bool lockRow(ThreadContext &tc, Addr head, std::uint64_t w0);

    /**
     * Take @p line's row lock at @p head, backing off lockBackoff
     * cycles after every lost race (a locked row or a failed CAS);
     * with @p starve every race is lost.  Returns the head word the
     * lock was set over.
     */
    std::uint64_t waitRowLock(ThreadContext &tc, LineAddr line, Addr head,
                              bool starve = false);

    /** Record a row-lock wait on @p line that began at @p wait_start. */
    void observeRowLockWait(ThreadContext &tc, LineAddr line,
                            Cycles wait_start);

    /** Functional (untimed) otable entry lookup.  `locked` is the
     *  bucket's row-lock bit: a locked row is mid-update under the
     *  Algorithm 2 row lock, and its entry must not be trusted. */
    struct PeekedEntry
    {
        bool found = false;
        bool write = false;
        std::uint64_t owners = 0;
        bool locked = false;
    };
    PeekedEntry peekEntry(LineAddr line) const;
    bool anyOwnerRetrying(std::uint64_t owners) const;

    /** shardOfAddr for the owning machine's config (avoids a
     *  Machine include in the hot inline router above). */
    unsigned shardOfAddr_(Addr a) const;

    Machine &machine_;
    bool strong_;
    UstmPolicy policy_;
    std::vector<Otable> otables_; ///< One per otable shard.
    bool sharded_ = false;        ///< otables_.size() > 1.
    /** @name Precomputed per-shard stat names (hot-path friendly);
     *  populated by setup(), only in sharded configs. @{ */
    std::vector<std::string> shardAcquiresName_;
    std::vector<std::string> shardChainInsertsName_;
    std::vector<std::string> shardChainLenName_;
    std::vector<std::string> shardRowLockWaitName_;
    /** @} */
    std::array<TxDesc, kMaxThreads> txs_;
    /**
     * Bumped on every status change and every push onto an owned
     * list: the descriptor changes that can turn a passing lockstep
     * scan into a failing one (leaving Retrying ends a line's
     * exemption; a pushed line gains a direction-1 check).  Clearing
     * or reordering an owned list only drops or reorders checks, so
     * a pass stays a pass.
     */
    std::uint64_t descChanges_ = 0;
    /** Inputs of the last passing lockstep scan. */
    mutable std::optional<LockstepInputs> lockstepPassed_;
    bool breakUfoLockstep_ = false;
};

} // namespace utm

#endif // UFOTM_USTM_USTM_HH
