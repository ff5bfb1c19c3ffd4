/**
 * @file
 * Idealized unbounded HTM (paper Section 5): BTM semantics without the
 * L1 capacity bound.  Used as the performance ceiling the hybrids are
 * measured against; deliberately optimistic with respect to real
 * unbounded-HTM proposals (flash abort, no software rollback).
 */

#ifndef UFOTM_HYBRID_UNBOUNDED_HTM_HH
#define UFOTM_HYBRID_UNBOUNDED_HTM_HH

#include "hybrid/hybrid_base.hh"

namespace utm {

/** Pure-hardware TM without capacity bounds. */
class UnboundedHtm : public BtmTxSystem
{
  public:
    UnboundedHtm(Machine &machine, const TmPolicy &policy);

    void atomicAt(ThreadContext &tc, TxSiteId site,
                  const Body &body) override;
};

} // namespace utm

#endif // UFOTM_HYBRID_UNBOUNDED_HTM_HH
