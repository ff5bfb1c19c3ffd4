/**
 * @file
 * Shared plumbing for the systems with a hardware path.  BtmTxSystem
 * holds the per-thread BTM units (the unbounded HTM and the three
 * hybrids).  HybridTmBase adds a USTM software side and the
 * abort-handler state and runs the Figure 4 hardware-first loop,
 * which makes it the paper's UFO hybrid (Section 4.3) and the base
 * of HyTM and PhTM.
 */

#ifndef UFOTM_HYBRID_HYBRID_BASE_HH
#define UFOTM_HYBRID_HYBRID_BASE_HH

#include <array>
#include <memory>

#include "btm/btm.hh"
#include "core/tx_system.hh"
#include "hybrid/abort_handler.hh"
#include "hybrid/path_predictor.hh"
#include "ustm/ustm.hh"

namespace utm {

/**
 * A TM system with a hardware path: one BtmUnit per thread, created
 * on first use.  The units answer lastHwAbortReason(), the idle-state
 * oracle and the speculative-writer half of oracleLineBusy().
 */
class BtmTxSystem : public TxSystem
{
  public:
    AbortReason
    lastHwAbortReason(ThreadContext &tc) const override
    {
        const auto &unit = btms_[tc.id()];
        return unit ? unit->lastAbortReason() : AbortReason::None;
    }

    /** @name tmtorture oracle hooks. @{ */
    bool oracleInvariantsHold(std::string *why) const override;
    bool oracleLineBusy(LineAddr line) const override;
    /** @} */

  protected:
    /** @param unbounded_btm Lift the units' L1 capacity bound. */
    BtmTxSystem(TxSystemKind kind, Machine &machine,
                const TmPolicy &policy, bool unbounded_btm);

    /** This thread's BTM unit, created on first use. */
    BtmUnit &btm(ThreadContext &tc);

  private:
    bool unboundedBtm_;
    std::array<std::unique_ptr<BtmUnit>, kMaxThreads> btms_;
};

/**
 * BTM + USTM hybrid running the Figure 4 control flow: hardware
 * first, the Algorithm 3 abort handler choosing between a hardware
 * retry and software failover.  With a strongly-atomic USTM and zero
 * hardware instrumentation this is the paper's UFO hybrid; HyTM and
 * PhTM derive from it.
 */
class HybridTmBase : public BtmTxSystem
{
  public:
    HybridTmBase(TxSystemKind kind, Machine &machine,
                 const TmPolicy &policy, bool strong_atomic_stm,
                 bool explicit_means_conflict);

    void setup() override;
    void atomicAt(ThreadContext &tc, TxSiteId site,
                  const Body &body) override;

    /** @name tmtorture oracle hooks. @{ */
    bool oracleInvariantsHold(std::string *why) const override;
    bool oracleLineBusy(LineAddr line) const override;
    Ustm *ustmRuntime() override { return ustm_.get(); }
    /** @} */

  protected:
    AbortHandlerState &handlerState(ThreadContext &tc);

    /**
     * Consult the path predictor for the transaction just started in
     * @p st (records the prediction there).  True when the site is
     * predicted to fail over — the caller should skip hardware and
     * call runSoftware() directly.
     */
    bool predictedSoftwareStart(ThreadContext &tc,
                                AbortHandlerState &st);

    /** Run @p body to commit on the software path. */
    void runSoftware(ThreadContext &tc, const Body &body);

    /**
     * Flattened nesting: when atomic() is called from inside an
     * enclosing transaction, run the body inline on the enclosing
     * path (the paper's BTM and USTM both flatten).  Returns true
     * when the nested case was handled.
     */
    bool runNestedInline(ThreadContext &tc, const Body &body);

    std::uint64_t stmRead(ThreadContext &tc, Addr a,
                          unsigned size) override;
    void stmWrite(ThreadContext &tc, Addr a, std::uint64_t v,
                  unsigned size) override;
    void onRequireSoftware(ThreadContext &tc,
                           TxHandle::Path p) override;
    [[noreturn]] void onRetryWait(ThreadContext &tc,
                                  TxHandle::Path p) override;

    std::unique_ptr<Ustm> ustm_;
    PathPredictor predictor_; ///< Before abortHandler_ (it refers here).
    BtmAbortHandler abortHandler_;
    std::array<AbortHandlerState, kMaxThreads> handlerState_;
};

} // namespace utm

#endif // UFOTM_HYBRID_HYBRID_BASE_HH
