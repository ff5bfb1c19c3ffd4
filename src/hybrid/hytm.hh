/**
 * @file
 * HyTM (Damron et al., ASPLOS 2006), as modelled in paper Section 5.
 *
 * Hardware transactions carry read/write barriers that inspect the
 * STM's otable for conflicting records; if one is present the hardware
 * transaction explicitly aborts and retries.  The otable words are
 * read *transactionally*, which inflates the hardware footprint
 * (extra set overflows) and exposes the transaction to aborts when
 * unrelated software transactions touch aliasing otable rows (the
 * extra nonT conflicts of Figure 6c).
 */

#ifndef UFOTM_HYBRID_HYTM_HH
#define UFOTM_HYBRID_HYTM_HH

#include <array>
#include <unordered_map>

#include "hybrid/hybrid_base.hh"

namespace utm {

/** Hybrid TM with otable-checking hardware barriers. */
class HyTm : public HybridTmBase
{
  public:
    HyTm(Machine &machine, const TmPolicy &policy);

  protected:
    std::uint64_t htmRead(ThreadContext &tc, Addr a,
                          unsigned size) override;
    void htmWrite(ThreadContext &tc, Addr a, std::uint64_t v,
                  unsigned size) override;

  private:
    /** Transactional otable inspection; aborts on a conflicting
     *  record. */
    void hwBarrier(ThreadContext &tc, LineAddr line, bool is_write);

    /**
     * Per-transaction barrier memo: redundant checks for a line
     * already checked this transaction are compiled away (a read
     * check is subsumed by a previous write check).  Values: 1 = read
     * checked, 2 = write checked.  Keyed on the hardware attempt's
     * age, so every attempt starts with an empty memo.
     */
    struct BarrierMemo
    {
        std::uint64_t age = 0;
        std::unordered_map<LineAddr, int> lines;
    };
    std::array<BarrierMemo, kMaxThreads> checked_;
};

} // namespace utm

#endif // UFOTM_HYBRID_HYTM_HH
