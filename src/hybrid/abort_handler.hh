/**
 * @file
 * The BTM abort handler (paper Algorithm 3).
 *
 * After a hardware transaction aborts, the handler classifies the
 * abort reason into: conditions that all but guarantee another
 * hardware failure (fail over to software immediately); conditions
 * unlikely to repeat (retry in hardware, with exponential backoff for
 * contention); and conditions resolvable by a software action (page
 * faults: touch the page, then retry in hardware).
 */

#ifndef UFOTM_HYBRID_ABORT_HANDLER_HH
#define UFOTM_HYBRID_ABORT_HANDLER_HH

#include "btm/btm.hh"
#include "hybrid/path_predictor.hh"
#include "hybrid/policy.hh"
#include "mem/tm_iface.hh"

namespace utm {

class Machine;
class ThreadContext;

/** Per-thread, per-transaction abort-handler bookkeeping. */
struct AbortHandlerState
{
    int conflictAborts = 0;
    int interruptAborts = 0;
    bool forcedSoftware = false; ///< TxHandle::requireSoftware().
    TxSiteId site = kTxSiteNone; ///< Static site of this transaction.
    /** What the path predictor said at transaction start. */
    PathPredictor::Prediction prediction = PathPredictor::Prediction::None;

    void
    newTransaction(TxSiteId s = kTxSiteNone)
    {
        conflictAborts = 0;
        interruptAborts = 0;
        forcedSoftware = false;
        site = s;
        prediction = PathPredictor::Prediction::None;
    }
};

/**
 * Exponential backoff before retry @p attempt of a contended
 * transaction: backoffBase << min(attempt, backoffMaxExp) cycles plus a
 * uniform jitter of up to as many again, then a yield.  The one
 * backoff of the abort handler, the unbounded HTM and TL2.
 */
void retryBackoff(ThreadContext &tc, const TmPolicy &policy, int attempt);

/** Decides, per abort, between hardware retry and software failover. */
class BtmAbortHandler
{
  public:
    enum class Decision { RetryHardware, FailToSoftware };

    /**
     * @param explicit_means_conflict HyTM's barriers signal conflicts
     *        with btm_abort; treat Explicit as contention (retry in
     *        hardware, subject to the same conflict-failover
     *        threshold) instead of as failover.
     * @param predictor When non-null, failover decisions feed the
     *        adaptive path predictor.
     */
    BtmAbortHandler(Machine &machine, const TmPolicy &policy,
                    bool explicit_means_conflict = false,
                    PathPredictor *predictor = nullptr);

    Decision onAbort(ThreadContext &tc, AbortHandlerState &st,
                     const BtmAbortException &e);

  private:
    /** Shared contention handling (Conflict family and HyTM's
     *  Explicit): threshold check, then backoff + hardware retry. */
    Decision onContention(ThreadContext &tc, AbortHandlerState &st);

    /** A FailToSoftware decision: feed the predictor, then return. */
    Decision failover(ThreadContext &tc, AbortHandlerState &st,
                      bool hard);

    Machine &machine_;
    const TmPolicy &policy_;
    bool explicitMeansConflict_;
    PathPredictor *predictor_;
};

} // namespace utm

#endif // UFOTM_HYBRID_ABORT_HANDLER_HH
