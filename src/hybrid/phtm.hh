/**
 * @file
 * PhTM — Phased Transactional Memory (Lev et al.), as modelled in
 * paper Section 5.
 *
 * Hardware and software transactions never run concurrently.  A
 * counter of in-flight software transactions is read transactionally
 * at the start of each hardware transaction, so an arriving software
 * transaction aborts every concurrent hardware transaction (the nonT
 * conflicts of Figure 6).  A second counter of transactions that
 * *must* run in software keeps the system in the STM phase while any
 * such transaction exists; once it drains, new transactions stall
 * until the last software transaction finishes and then resume in
 * hardware.
 */

#ifndef UFOTM_HYBRID_PHTM_HH
#define UFOTM_HYBRID_PHTM_HH

#include "hybrid/hybrid_base.hh"

namespace utm {

/** Phase-based hybrid TM. */
class PhTm : public HybridTmBase
{
  public:
    /** Simulated addresses of the phase counters (separate lines). */
    static constexpr Addr kStmCountAddr = 0x0d000000;
    static constexpr Addr kNeedStmAddr = 0x0d000080;

    PhTm(Machine &machine, const TmPolicy &policy);

    void setup() override;
    void atomicAt(ThreadContext &tc, TxSiteId site,
                  const Body &body) override;

  private:
    /** Run the body in the STM phase, managing both counters. */
    void runSoftwarePhase(ThreadContext &tc, const Body &body,
                          bool needs_stm);
};

} // namespace utm

#endif // UFOTM_HYBRID_PHTM_HH
