/**
 * @file
 * BTM: the "best-effort" hardware transactional memory (paper
 * Section 3.1).
 *
 * BTM extends the write-back L1 with speculatively-read (SR) and
 * speculatively-written (SW) line state; conflicts are detected through
 * coherence; a transaction aborts when a speculative line overflows its
 * L1 set, on timer interrupts, syscalls, I/O, exceptions, and page
 * faults.  Contention management is age-ordered: an older requester
 * wounds the current owner; a younger requester is NACKed and retries
 * after a fixed delay (handled in MemorySystem).
 *
 * The Table 1 ISA maps to:
 *   btm_begin  -> BtmUnit::txBegin()   (abort PC == the C++ catch site)
 *   btm_end    -> BtmUnit::txEnd()
 *   btm_abort  -> BtmUnit::txAbort()
 *   btm_mov    -> the status accessors (lastAbortReason/Addr, depth)
 *
 * Register-checkpoint restoration is modelled by throwing
 * BtmAbortException, which the transaction-retry loop catches and
 * re-executes the transaction body — the software-visible effect of
 * vectoring to the abort PC with restored registers.
 */

#ifndef UFOTM_BTM_BTM_HH
#define UFOTM_BTM_BTM_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "mem/tm_iface.hh"
#include "sim/types.hh"

namespace utm {

class Machine;
class ThreadContext;

/** Thrown when a hardware transaction aborts; caught by retry loops. */
struct BtmAbortException
{
    AbortReason reason;
    Addr addr; ///< Associated address, when the event has one.
};

/** Per-core BTM hardware model; implements the BtmClient hooks. */
class BtmUnit : public BtmClient
{
  public:
    /** Flattened-nesting depth limit (status register geometry). */
    static constexpr int kMaxNestingDepth = 8;

    /**
     * @param tc         The core this unit belongs to.
     * @param unbounded  Lift the L1 capacity bound (idealized
     *                   unbounded-HTM mode used as the paper's
     *                   performance ceiling).
     */
    explicit BtmUnit(ThreadContext &tc, bool is_unbounded = false);
    ~BtmUnit() override;

    BtmUnit(const BtmUnit&) = delete;
    BtmUnit& operator=(const BtmUnit&) = delete;

    /** @name Table 1 ISA. @{ */
    void txBegin();
    void txEnd();
    [[noreturn]] void txAbort();
    /** @} */

    /** @name Status registers (btm_mov). @{ */
    AbortReason lastAbortReason() const { return lastReason_; }
    Addr lastAbortAddr() const { return lastAddr_; }
    int nestingDepth() const { return depth_; }
    /** @} */

    /** @name BtmClient interface (memory-system callbacks). @{ */
    bool inTx() const override { return inTx_; }
    bool committing() const override { return committing_; }
    bool doomed() const override { return doomed_; }
    [[noreturn]] void takePendingAbort() override;
    std::uint64_t txAge() const override { return age_; }
    bool unbounded() const override { return unbounded_; }
    bool wroteLine(LineAddr line) const override;
    void wound(AbortReason r, ThreadId killer, LineAddr line) override;
    void onUfoFault(Addr a, AccessType t) override;
    void onTxAccess(Addr a, unsigned size, AccessType t) override;
    [[noreturn]] void onCapacityOverflow(LineAddr line) override;
    [[noreturn]] void onPageFault(Addr a) override;
    [[noreturn]] void onForbiddenOp(AbortReason r) override;
    [[noreturn]] void onTimerInterrupt() override;
    /** @} */

    /**
     * tmtorture oracle hook: outside a transaction, every piece of
     * speculative state (undo log, spec sets, UFO clears, wakeup
     * tokens, doom flag) must have been drained — the hardware
     * analogue of USTM's undo-log balance invariant.
     */
    bool
    idleStateClean() const
    {
        return inTx_ ||
               (undo_.empty() && specUfoClears_.empty() &&
                pendingWakeups_.empty() && readLines_.empty() &&
                writeLines_.empty() && readSet_.empty() &&
                writeSet_.empty() && !doomed_ && depth_ == 0);
    }

    /** @name Lifetime statistics. @{ */
    std::uint64_t commits() const { return commits_; }
    std::uint64_t aborts() const { return aborts_; }
    std::size_t readSetLines() const { return readSet_.size(); }
    std::size_t writeSetLines() const { return writeSet_.size(); }
    /** @} */

  private:
    /** Undo one speculative store (L1-held data, clean copy below). */
    struct UndoRec
    {
        Addr addr;
        unsigned size;
        std::uint64_t old;
    };

    /** Roll back speculative stores and release speculative state. */
    void rollback(bool invalidate_writes);

    /** Durable mode: append + fence the redo record inside the
     *  committing() window (shielded from wounds and timer aborts)
     *  before the speculative state is flash-cleared. */
    void persistCommit();

    /** Complete an abort on this core's own fiber and unwind. */
    [[noreturn]] void raiseAbort(AbortReason r, Addr a);

    void resetTxState();

    ThreadContext &tc_;
    Machine &machine_;
    bool unbounded_;

    bool inTx_ = false;
    bool committing_ = false;
    int depth_ = 0;
    std::uint64_t age_ = 0;
    bool doomed_ = false;
    AbortReason doomReason_ = AbortReason::None;

    AbortReason lastReason_ = AbortReason::None;
    Addr lastAddr_ = 0;

    /** UFO bits speculatively cleared by the Section 6 retry hook;
     *  restored on abort, made architectural on commit. */
    struct SpecUfoClear
    {
        LineAddr line;
        UfoBits oldBits;
    };

    std::vector<UndoRec> undo_;
    std::vector<SpecUfoClear> specUfoClears_;
    std::vector<RetryWakeupHooks::Token> pendingWakeups_;
    std::vector<LineAddr> readLines_;
    std::vector<LineAddr> writeLines_;
    std::unordered_set<LineAddr> readSet_;
    std::unordered_set<LineAddr> writeSet_;

    std::uint64_t commits_ = 0;
    std::uint64_t aborts_ = 0;
};

} // namespace utm

#endif // UFOTM_BTM_BTM_HH
