#include "hybrid/phtm.hh"

#include "sim/machine.hh"

namespace utm {

namespace {
constexpr Cycles kPhasePoll = 40;
} // namespace

PhTm::PhTm(Machine &machine, const TmPolicy &policy)
    : HybridTmBase(TxSystemKind::PhTm, machine, policy,
                   /*strong_atomic_stm=*/false,
                   /*explicit_means_conflict=*/false)
{
}

void
PhTm::setup()
{
    HybridTmBase::setup();
    machine_.memory().materializePage(kStmCountAddr);
}

void
PhTm::atomicAt(ThreadContext &tc, TxSiteId site, const Body &body)
{
    if (runNestedInline(tc, body))
        return;
    AbortHandlerState &st = handlerState(tc);
    st.newTransaction(site);
    bool i_need_stm = predictedSoftwareStart(tc, st);

    for (;;) {
        if (i_need_stm) {
            runSoftwarePhase(tc, body, /*needs_stm=*/true);
            return;
        }
        // While some transaction *requires* the STM, everyone runs in
        // software (without bumping the need counter).
        if (tc.load(kNeedStmAddr, 8) != 0) {
            runSoftwarePhase(tc, body, /*needs_stm=*/false);
            return;
        }

        BtmUnit &unit = btm(tc);
        try {
            beginAttempt(tc);
            unit.txBegin();
            // Transactional read of the STM counter: any software
            // transaction arriving mid-flight aborts us.
            if (tc.load(kStmCountAddr, 8) != 0)
                unit.txAbort();
            TxHandle h = makeHandle(tc, TxHandle::Path::Hardware);
            body(h);
            unit.txEnd();
            machine_.stats().inc("tm.commits.hw");
            commitAttempt(tc);
            predictor_.onHardwareCommit(tc, st.site, st.prediction);
            return;
        } catch (const BtmAbortException &e) {
            abortAttempt(tc);
            // Phase-induced aborts (explicit counter check, or a nonT
            // hit on the counter/our data from an STM thread): shift
            // back to hardware by *stalling* until the last software
            // transaction finishes, rather than starting in software.
            if (!st.forcedSoftware &&
                (e.reason == AbortReason::Explicit ||
                 e.reason == AbortReason::NonTConflict)) {
                machine_.stats().inc("phtm.phase_aborts");
                UTM_PROF_PHASE(machine_, tc, ProfComp::PhTm,
                               ProfPhase::Stall);
                while (tc.load(kNeedStmAddr, 8) == 0 &&
                       tc.load(kStmCountAddr, 8) != 0) {
                    machine_.stats().inc("phtm.phase_stalls");
                    tc.advance(kPhasePoll);
                    tc.yield();
                }
                continue;
            }
            BtmAbortHandler::Decision d =
                abortHandler_.onAbort(tc, st, e);
            if (d == BtmAbortHandler::Decision::RetryHardware)
                continue;
            i_need_stm = true;
        }
    }
}

void
PhTm::runSoftwarePhase(ThreadContext &tc, const Body &body,
                       bool needs_stm)
{
    if (needs_stm)
        tc.fetchAdd(kNeedStmAddr, 8, 1);
    // Bumping the STM counter aborts every in-flight hardware
    // transaction (they read it transactionally).
    tc.fetchAdd(kStmCountAddr, 8, 1);
    runSoftware(tc, body);
    if (needs_stm)
        tc.fetchAdd(kNeedStmAddr, 8, std::uint64_t(-1));
    tc.fetchAdd(kStmCountAddr, 8, std::uint64_t(-1));
}

} // namespace utm
