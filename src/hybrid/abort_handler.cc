#include "hybrid/abort_handler.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/machine.hh"
#include "sim/thread_context.hh"

namespace utm {

void
retryBackoff(ThreadContext &tc, const TmPolicy &policy, int attempt)
{
    const int exp = std::min(attempt, policy.backoffMaxExp);
    const Cycles base = policy.backoffBase << exp;
    const Cycles jitter = tc.rng().nextBounded(base + 1);
    UTM_PROF_PHASE(tc.machine(), tc, ProfComp::Tm, ProfPhase::Backoff);
    tc.advance(base + jitter);
    tc.yield();
}

BtmAbortHandler::BtmAbortHandler(Machine &machine, const TmPolicy &policy,
                                 bool explicit_means_conflict,
                                 PathPredictor *predictor)
    : machine_(machine), policy_(policy),
      explicitMeansConflict_(explicit_means_conflict),
      predictor_(predictor)
{
}

BtmAbortHandler::Decision
BtmAbortHandler::failover(ThreadContext &tc, AbortHandlerState &st,
                          bool hard)
{
    if (predictor_)
        predictor_->onFailover(tc, st.site, st.prediction, hard);
    return Decision::FailToSoftware;
}

BtmAbortHandler::Decision
BtmAbortHandler::onContention(ThreadContext &tc, AbortHandlerState &st)
{
    ++st.conflictAborts;
    if (policy_.conflictFailoverThreshold > 0 &&
        st.conflictAborts >= policy_.conflictFailoverThreshold) {
        machine_.stats().inc("tm.failovers.conflict");
        return failover(tc, st, /*hard=*/false);
    }
    machine_.stats().inc("tm.retries.conflict");
    retryBackoff(tc, policy_, st.conflictAborts);
    return Decision::RetryHardware;
}

BtmAbortHandler::Decision
BtmAbortHandler::onAbort(ThreadContext &tc, AbortHandlerState &st,
                         const BtmAbortException &e)
{
    StatsRegistry &stats = machine_.stats();
    if (st.forcedSoftware) {
        stats.inc("tm.failovers.forced");
        return failover(tc, st, /*hard=*/true);
    }

    switch (e.reason) {
      // Nearly guaranteed to fail again in hardware: go to software.
      case AbortReason::SetOverflow:
      case AbortReason::Syscall:
      case AbortReason::Io:
      case AbortReason::Exception:
      case AbortReason::Uncacheable:
      case AbortReason::NestingOverflow:
        stats.inc("tm.failovers.hard");
        stats.inc(std::string("tm.failovers.hard.") +
                  abortReasonName(e.reason));
        return failover(tc, st, /*hard=*/true);

      // Resolvable in software, then retry in hardware.
      case AbortReason::PageFault:
        machine_.memory().materializePage(e.addr);
        stats.inc("tm.retries.page_fault");
        return Decision::RetryHardware;

      // Unlikely to repeat: retry in hardware, failing over ON the
      // Nth abort ("after this many aborts", policy.hh) — same
      // comparison as the conflict threshold below.
      case AbortReason::Interrupt:
        ++st.interruptAborts;
        if (st.interruptAborts >= policy_.interruptFailoverThreshold) {
            stats.inc("tm.failovers.interrupt");
            return failover(tc, st, /*hard=*/false);
        }
        stats.inc("tm.retries.interrupt");
        return Decision::RetryHardware;

      // Contention: back off and retry in hardware. The paper is
      // emphatic that contention must NOT push transactions to
      // software (the STM's longer occupancy makes contention worse);
      // the threshold (0 = never, the default) exists for Figure 8.
      case AbortReason::Conflict:
      case AbortReason::UfoBitSet:
      case AbortReason::UfoFault:
      case AbortReason::NonTConflict:
        return onContention(tc, st);

      case AbortReason::Explicit:
        if (explicitMeansConflict_)
            return onContention(tc, st);
        stats.inc("tm.failovers.explicit");
        return failover(tc, st, /*hard=*/true);

      case AbortReason::None:
        break;
    }
    utm_panic("abort handler saw reason %d",
              static_cast<int>(e.reason));
}

} // namespace utm
