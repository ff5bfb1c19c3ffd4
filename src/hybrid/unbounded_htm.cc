#include "hybrid/unbounded_htm.hh"

#include "sim/logging.hh"
#include "sim/machine.hh"

namespace utm {

UnboundedHtm::UnboundedHtm(Machine &machine, const TmPolicy &policy)
    : BtmTxSystem(TxSystemKind::UnboundedHtm, machine, policy,
                  /*unbounded_btm=*/true)
{
}

void
UnboundedHtm::atomicAt(ThreadContext &tc, TxSiteId, const Body &body)
{
    BtmUnit &unit = btm(tc);
    if (unit.inTx()) {
        // Flattened nesting.
        unit.txBegin();
        TxHandle h = makeHandle(tc, TxHandle::Path::Hardware);
        body(h);
        unit.txEnd();
        return;
    }
    int conflicts = 0;
    for (;;) {
        try {
            beginAttempt(tc);
            unit.txBegin();
            TxHandle h = makeHandle(tc, TxHandle::Path::Hardware);
            body(h);
            unit.txEnd();
            machine_.stats().inc("tm.commits.hw");
            commitAttempt(tc);
            return;
        } catch (const BtmAbortException &e) {
            abortAttempt(tc);
            switch (e.reason) {
              case AbortReason::PageFault:
                // Simplified handler: touch the page, retry.
                machine_.memory().materializePage(e.addr);
                continue;
              case AbortReason::Conflict:
              case AbortReason::NonTConflict:
              case AbortReason::Interrupt:
              case AbortReason::UfoBitSet:
              case AbortReason::UfoFault:
                retryBackoff(tc, policy_, ++conflicts);
                continue;
              default:
                utm_fatal("unbounded HTM cannot recover from '%s' "
                          "aborts (no software fallback)",
                          abortReasonName(e.reason));
            }
        }
    }
}

} // namespace utm
