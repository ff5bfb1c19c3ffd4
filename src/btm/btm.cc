#include "btm/btm.hh"

#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"
#include "sim/thread_context.hh"

namespace utm {

namespace {

/** Cost of taking/discarding the register checkpoint. */
constexpr Cycles kBeginCost = 3;
constexpr Cycles kCommitCost = 3;
/** Pipeline-flush cost charged when an abort is taken. */
constexpr Cycles kAbortPenalty = 40;
/** Poll interval while stalled on a UFO fault (Stall policy). */
constexpr Cycles kUfoStallPoll = 20;

} // namespace

BtmUnit::BtmUnit(ThreadContext &tc, bool is_unbounded)
    : tc_(tc), machine_(tc.machine()), unbounded_(is_unbounded)
{
    utm_assert(tc_.btmClient() == nullptr);
    tc_.setBtmClient(this);
    machine_.memsys().setBtmClient(tc_.id(), this);
}

BtmUnit::~BtmUnit()
{
    if (inTx_)
        utm_warn("destroying BtmUnit with a transaction in flight");
    tc_.setBtmClient(nullptr);
    machine_.memsys().setBtmClient(tc_.id(), nullptr);
}

void
BtmUnit::resetTxState()
{
    undo_.clear();
    specUfoClears_.clear();
    pendingWakeups_.clear();
    readLines_.clear();
    writeLines_.clear();
    readSet_.clear();
    writeSet_.clear();
    doomed_ = false;
    doomReason_ = AbortReason::None;
}

void
BtmUnit::txBegin()
{
    if (inTx_) {
        // Flattened nesting: inner transactions just bump the depth.
        if (depth_ >= kMaxNestingDepth)
            onForbiddenOp(AbortReason::NestingOverflow);
        ++depth_;
        return;
    }
    UTM_PROF_PHASE(machine_, tc_, ProfComp::Btm, ProfPhase::Begin);
    tc_.yield(); // Ordered event: begins interleave by timestamp.
    resetTxState();
    inTx_ = true;
    depth_ = 1;
    age_ = machine_.nextTxSeq();
    machine_.stats().inc("btm.begins");
    UTM_TRACE_EVENT(machine_, tc_, TraceEvent::TxBegin,
                    TracePath::Hardware, AbortReason::None);
    tc_.advance(kBeginCost);
}

void
BtmUnit::txEnd()
{
    utm_assert(inTx_);
    if (depth_ > 1) {
        --depth_;
        return;
    }
    UTM_PROF_PHASE(machine_, tc_, ProfComp::Btm, ProfPhase::Commit);
    // Commit is a coherence event (flash clear): let lower-clock
    // threads act first -- they may still wound us.
    tc_.yield();
    if (doomed_)
        takePendingAbort(); // throws
    // Commit linearization point: past the doom check nothing can
    // fail, so the speculative writes are final.
    machine_.notifyCommitPoint(tc_);
    // Durable mode: fence the redo record BEFORE the flash clear.
    // The committing() shield keeps the still-speculative write set
    // safe for the window (conflictors NACK, timer aborts defer), so
    // the writes become visible only after the fence completes.
    if (machine_.persist().active())
        persistCommit();
    // Commit: flash-clear SR/SW, discard the checkpoint. Speculative
    // data becomes architectural (it already sits in SimMemory).
    machine_.memsys().clearSpec(tc_.id(), readLines_, writeLines_,
                                /*invalidate_writes=*/false);
    inTx_ = false;
    depth_ = 0;
    ++commits_;
    machine_.stats().inc("btm.commits");
    machine_.stats().observe("btm.tx_lines",
                             readSet_.size() + writeSet_.size());
    UTM_TRACE_EVENT(machine_, tc_, TraceEvent::TxCommit,
                    TracePath::Hardware, AbortReason::None);
    // Section 6: wake the retrying transactions whose protection we
    // speculatively cleared, now that our update is committed.
    if (!pendingWakeups_.empty()) {
        const auto &hooks = machine_.memsys().retryWakeupHooks();
        utm_assert(hooks.wake);
        hooks.wake(pendingWakeups_);
    }
    resetTxState();
    tc_.advance(kCommitCost);
}

void
BtmUnit::persistCommit()
{
    UTM_PROF_PHASE(machine_, tc_, ProfComp::Btm, ProfPhase::Persist);
    committing_ = true;
    if (undo_.empty()) {
        machine_.persist().noteReadOnlyCommit();
    } else {
        std::vector<PersistDomain::RedoWrite> writes;
        writes.reserve(undo_.size());
        for (const UndoRec &u : undo_)
            writes.push_back({u.addr, u.size});
        machine_.persist().appendCommitRecord(tc_, age_, writes);
    }
    committing_ = false;
}

void
BtmUnit::txAbort()
{
    utm_assert(inTx_);
    raiseAbort(AbortReason::Explicit, 0);
}

bool
BtmUnit::wroteLine(LineAddr line) const
{
    return writeSet_.count(line) != 0;
}

void
BtmUnit::rollback(bool invalidate_writes)
{
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it)
        machine_.memory().write(it->addr, it->old, it->size);
    // Discard speculative UFO clears — unless another owner has since
    // re-protected the line (then the new bits are authoritative).
    for (auto it = specUfoClears_.rbegin(); it != specUfoClears_.rend();
         ++it) {
        if (machine_.memory().ufoBits(it->line) == kUfoNone)
            machine_.memory().setUfoBits(it->line, it->oldBits);
    }
    specUfoClears_.clear();
    pendingWakeups_.clear();
    machine_.memsys().clearSpec(tc_.id(), readLines_, writeLines_,
                                invalidate_writes);
    undo_.clear();
    readLines_.clear();
    writeLines_.clear();
    readSet_.clear();
    writeSet_.clear();
}

void
BtmUnit::wound(AbortReason r, ThreadId killer, LineAddr line)
{
    utm_assert(inTx_);
    // The memory system's durable-commit shield NACKs (or waits out)
    // every conflictor while the fence window is open.
    utm_assert(!committing_);
    if (doomed_)
        return; // Already rolled back; keep the first reason.
    // The coherence action undoes the speculative state synchronously
    // (flash invalidation of SW lines); the victim's fiber observes
    // the doom at its next simulation event.
    rollback(/*invalidate_writes=*/true);
    doomed_ = true;
    doomReason_ = r;
    machine_.stats().inc("btm.wounds");
    machine_.contention().btmHotLines().observe(line);
    if (machine_.telemetry().enabled()) {
        ConflictEdge e;
        e.aggressor = killer;
        if (killer >= 0 && killer < machine_.numThreads())
            e.aggressorSite = machine_.thread(killer).currentSite();
        e.victim = tc_.id();
        e.victimSite = tc_.currentSite();
        e.line = line;
        machine_.telemetry().recordConflictEdge("btm", e);
    }
}

void
BtmUnit::takePendingAbort()
{
    utm_assert(doomed_);
    raiseAbort(doomReason_, 0);
}

void
BtmUnit::raiseAbort(AbortReason r, Addr a)
{
    UTM_PROF_PHASE(machine_, tc_, ProfComp::Btm,
                   ProfPhase::AbortUnwind);
    utm_assert(inTx_);
    if (!doomed_)
        rollback(/*invalidate_writes=*/true);
    doomed_ = false;
    inTx_ = false;
    depth_ = 0;
    lastReason_ = r;
    lastAddr_ = a;
    ++aborts_;
    machine_.stats().inc(std::string("btm.aborts.") + abortReasonName(r));
    UTM_TRACE_EVENT(machine_, tc_, TraceEvent::TxAbort,
                    TracePath::Hardware, r);
    tc_.advance(kAbortPenalty);
    throw BtmAbortException{r, a};
}

void
BtmUnit::onUfoFault(Addr a, AccessType t)
{
    UTM_PROF_PHASE(machine_, tc_, ProfComp::Btm,
                   ProfPhase::UfoHandler);
    utm_assert(inTx_);
    machine_.stats().inc("btm.ufo_faults");
    UTM_TRACE_EVENT(machine_, tc_, TraceEvent::UfoFault,
                    TracePath::Hardware, AbortReason::UfoFault);
    const LineAddr line = lineOf(a);

    // Section 6 hook: the user-mode fault handler (running inside the
    // hardware transaction) inspects the otable.  If the protection
    // belongs only to parked `retry` transactions, record them for a
    // post-commit wakeup and speculatively clear the bits (restored
    // if we abort); the access then retries without faulting.
    const auto &hooks = machine_.memsys().retryWakeupHooks();
    if (hooks.inspect) {
        std::vector<RetryWakeupHooks::Token> tokens;
        if (hooks.inspect(tc_, line, &tokens)) {
            machine_.stats().inc("btm.retry_spec_clears");
            specUfoClears_.push_back(
                {line, machine_.memory().ufoBits(line)});
            machine_.memory().setUfoBits(line, kUfoNone);
            pendingWakeups_.insert(pendingWakeups_.end(),
                                   tokens.begin(), tokens.end());
            return; // Retry the access; no fault now.
        }
    }

    const auto &policy = machine_.memsys().btmPolicy();
    if (policy.ufoFaultResponse == BtmPolicy::UfoFaultResponse::Abort) {
        // Causal edge: the software transaction whose UFO protection
        // trapped us is the aggressor (resolved via the otable).
        machine_.telemetry().onUfoTrapEdge(tc_, line);
        raiseAbort(AbortReason::UfoFault, a);
    }

    // Stall policy (Figure 8, bar 3): hold the access until the STM
    // clears the protection, aborting only if wounded meanwhile.
    machine_.stats().inc("btm.ufo_stalls");
    UTM_PROF_PHASE(machine_, tc_, ProfComp::Btm, ProfPhase::Stall);
    for (;;) {
        if (doomed_)
            takePendingAbort();
        tc_.advance(kUfoStallPoll);
        tc_.yield();
        if (!machine_.memory().ufoBits(line).faults(t))
            return; // Retry the access.
    }
}

void
BtmUnit::onTxAccess(Addr a, unsigned size, AccessType t)
{
    utm_assert(inTx_);
    const LineAddr line = lineOf(a);
    if (t == AccessType::Write) {
        if (writeSet_.insert(line).second) {
            writeLines_.push_back(line);
            machine_.memsys().addSpecWrite(tc_.id(), line);
        }
        undo_.push_back({a, size, machine_.memory().read(a, size)});
    } else {
        if (!writeSet_.count(line) && readSet_.insert(line).second) {
            readLines_.push_back(line);
            machine_.memsys().addSpecRead(tc_.id(), line);
        }
    }
}

void
BtmUnit::onCapacityOverflow(LineAddr line)
{
    machine_.stats().inc("btm.set_overflows");
    raiseAbort(AbortReason::SetOverflow, line);
}

void
BtmUnit::onPageFault(Addr a)
{
    raiseAbort(AbortReason::PageFault, a);
}

void
BtmUnit::onForbiddenOp(AbortReason r)
{
    raiseAbort(r, 0);
}

void
BtmUnit::onTimerInterrupt()
{
    raiseAbort(AbortReason::Interrupt, 0);
}

} // namespace utm
