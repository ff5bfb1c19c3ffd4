#include "hybrid/hybrid_base.hh"

#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"

namespace utm {

BtmTxSystem::BtmTxSystem(TxSystemKind kind, Machine &machine,
                         const TmPolicy &policy, bool unbounded_btm)
    : TxSystem(kind, machine, policy), unboundedBtm_(unbounded_btm)
{
    machine.memsys().setBtmPolicy(policy.btm);
}

BtmUnit &
BtmTxSystem::btm(ThreadContext &tc)
{
    auto &slot = btms_[tc.id()];
    if (!slot)
        slot = std::make_unique<BtmUnit>(tc, unboundedBtm_);
    return *slot;
}

bool
BtmTxSystem::oracleInvariantsHold(std::string *why) const
{
    for (ThreadId t = 0; t < machine_.numThreads(); ++t) {
        if (btms_[t] && !btms_[t]->idleStateClean()) {
            *why = "thread " + std::to_string(t) +
                   " BTM unit idle with undrained speculative state";
            return false;
        }
    }
    return true;
}

bool
BtmTxSystem::oracleLineBusy(LineAddr line) const
{
    return machine_.memsys().lineHasSpecWriter(line);
}

HybridTmBase::HybridTmBase(TxSystemKind kind, Machine &machine,
                           const TmPolicy &policy,
                           bool strong_atomic_stm,
                           bool explicit_means_conflict)
    : BtmTxSystem(kind, machine, policy, /*unbounded_btm=*/false),
      ustm_(std::make_unique<Ustm>(machine, strong_atomic_stm,
                                   policy.ustm)),
      predictor_(machine, policy_.predictor),
      abortHandler_(machine, policy_, explicit_means_conflict,
                    &predictor_)
{
}

void
HybridTmBase::setup()
{
    ustm_->setup(machine_.initContext());
}

void
HybridTmBase::atomicAt(ThreadContext &tc, TxSiteId site, const Body &body)
{
    if (runNestedInline(tc, body))
        return;
    AbortHandlerState &st = handlerState(tc);
    st.newTransaction(site);
    if (!predictedSoftwareStart(tc, st)) {
        BtmUnit &unit = btm(tc);
        for (;;) {
            try {
                beginAttempt(tc);
                unit.txBegin();
                TxHandle h = makeHandle(tc, TxHandle::Path::Hardware);
                body(h);
                unit.txEnd();
                machine_.stats().inc("tm.commits.hw");
                commitAttempt(tc);
                predictor_.onHardwareCommit(tc, st.site, st.prediction);
                return;
            } catch (const BtmAbortException &e) {
                abortAttempt(tc);
                if (abortHandler_.onAbort(tc, st, e) !=
                    BtmAbortHandler::Decision::RetryHardware)
                    break;
            }
        }
    }
    runSoftware(tc, body);
}

AbortHandlerState &
HybridTmBase::handlerState(ThreadContext &tc)
{
    return handlerState_[tc.id()];
}

bool
HybridTmBase::runNestedInline(ThreadContext &tc, const Body &body)
{
    BtmUnit &unit = btm(tc);
    if (unit.inTx()) {
        unit.txBegin(); // Bump the flattened-nesting depth.
        TxHandle h = makeHandle(tc, TxHandle::Path::Hardware);
        body(h);
        unit.txEnd();
        return true;
    }
    if (ustm_->inTx(tc.id())) {
        ustm_->txBegin(tc);
        TxHandle h = makeHandle(tc, TxHandle::Path::Software);
        body(h);
        ustm_->txEnd(tc);
        return true;
    }
    return false;
}

bool
HybridTmBase::predictedSoftwareStart(ThreadContext &tc,
                                     AbortHandlerState &st)
{
    st.prediction = predictor_.predict(tc, st.site);
    if (st.prediction != PathPredictor::Prediction::Software)
        return false;
    // Counted alongside the abort-handler failover reasons: a
    // predicted start is a failover taken before the first hardware
    // attempt (runSoftware() bumps the tm.failovers aggregate).
    machine_.stats().inc("tm.failovers.predicted");
    return true;
}

void
HybridTmBase::runSoftware(ThreadContext &tc, const Body &body)
{
    machine_.stats().inc("tm.failovers");
    UTM_TRACE_EVENT(machine_, tc, TraceEvent::Failover,
                    TracePath::Software, AbortReason::None);
    for (;;) {
        try {
            beginAttempt(tc);
            ustm_->txBegin(tc);
            TxHandle h = makeHandle(tc, TxHandle::Path::Software);
            body(h);
            ustm_->txEnd(tc);
            machine_.stats().inc("tm.commits.sw");
            commitAttempt(tc);
            return;
        } catch (const UstmAbortException &) {
            // Killed: the killer-retire wait happens in txBegin.
            abortAttempt(tc);
            machine_.stats().inc("tm.sw_retries");
        }
    }
}

std::uint64_t
HybridTmBase::stmRead(ThreadContext &tc, Addr a, unsigned size)
{
    return ustm_->txRead(tc, a, size);
}

void
HybridTmBase::stmWrite(ThreadContext &tc, Addr a, std::uint64_t v,
                       unsigned size)
{
    ustm_->txWrite(tc, a, v, size);
}

void
HybridTmBase::onRequireSoftware(ThreadContext &tc, TxHandle::Path p)
{
    if (p != TxHandle::Path::Hardware)
        return;
    handlerState(tc).forcedSoftware = true;
    btm(tc).txAbort(); // throws; the abort handler sees forcedSoftware
}

void
HybridTmBase::onRetryWait(ThreadContext &tc, TxHandle::Path p)
{
    if (p == TxHandle::Path::Hardware) {
        // Paper Section 6: the compiler translates `retry` in the
        // hardware version into an explicit abort, failing the
        // transaction over to software where waiting is supported.
        handlerState(tc).forcedSoftware = true;
        btm(tc).txAbort(); // throws
    }
    ustm_->txRetryWait(tc); // throws after wakeup
}

bool
HybridTmBase::oracleInvariantsHold(std::string *why) const
{
    return ustm_->verifyOracleInvariants(why) &&
           BtmTxSystem::oracleInvariantsHold(why);
}

bool
HybridTmBase::oracleLineBusy(LineAddr line) const
{
    return BtmTxSystem::oracleLineBusy(line) || ustm_->lineBusy(line);
}

} // namespace utm
