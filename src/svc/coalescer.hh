/**
 * @file
 * Adaptive request coalescing for the tmserve hot path.
 *
 * Every served request pays the full per-transaction tax — BTM
 * begin/commit, UFO bit manipulation, otable acquisition/release —
 * even when a client's admission queue is deep with tiny compatible
 * requests.  The Coalescer amortizes that tax: a worker drains up to
 * K consecutive queued requests with the same home shard and a
 * compatible verb class (read-only GET/SCAN batches; update PUT/RMW
 * batches) and executes them inside a *single* atomic transaction.
 * Per-request arrival→completion latency and abort attribution are
 * preserved by the caller (service.cc): a batch abort attributes to
 * every member, and re-execution splits the batch back to one
 * request.
 *
 * K is adaptive per batch site — one site per (verb class, home
 * shard), allocated above the per-verb singleton sites so the path
 * predictor (src/hybrid/path_predictor.hh) tracks batched and
 * unbatched execution of the same verb separately.  K starts at 1:
 *
 *  - multiplicative shrink (halve, floor 1) when a batch aborts for
 *    a conflict- or capacity-class reason (or is killed on the
 *    software path) — a bigger footprint made the transaction a
 *    bigger target;
 *  - additive growth (+1, ceiling SvcParams::maxBatch) on a clean
 *    first-attempt commit, on either path — the batch fit, try a
 *    bigger one;
 *  - environmental aborts (interrupt, syscall, page fault) leave K
 *    alone: they say nothing about the batch's footprint.
 *
 * The ceiling is the one knob.  SvcParams::maxBatch = 0 (the
 * default) turns coalescing off: the serving loop is the same, with
 * every request on the single path at its per-verb site.
 */

#ifndef UFOTM_SVC_COALESCER_HH
#define UFOTM_SVC_COALESCER_HH

#include <map>

#include "core/tx_system.hh"
#include "mem/tm_iface.hh"
#include "sim/types.hh"
#include "svc/load_gen.hh"

namespace utm::svc {

/** Verb classes that may share one coalesced transaction. */
enum class VerbClass
{
    ReadOnly, ///< GET and SCAN: no writes, footprints just add up.
    Update,   ///< PUT and RMW: single-key writers, no cross pairs.
};

/** What one split-on-abort transaction did (runBatch()). */
struct BatchRun
{
    unsigned served;      ///< Members the committed attempt served.
    bool dirty = false;   ///< Some attempt aborted.
    bool firstSw = false; ///< The first abort killed a software attempt.
    AbortReason firstReason = AbortReason::None; ///< Its hardware reason.
};

/**
 * Run the next @p plan members as one transaction at @p site, split
 * on abort: the first attempt serves all @p plan, every re-execution
 * only the first member (the rest re-batch afterwards).  A lone
 * request is a batch of one.  @p serve(h, n) applies the first n
 * members; on each re-execution @p charge(n, sw) learns that the
 * previous attempt, which served n members on the software path if
 * sw, aborted.  Host-local bookkeeping, the re-execution-tolerant
 * pattern the TxSystem contract allows.
 */
template <typename Serve, typename Charge>
BatchRun
runBatch(ThreadContext &tc, TxSystem &sys, TxSiteId site, unsigned plan,
         const Serve &serve, const Charge &charge)
{
    BatchRun run{plan};
    unsigned attempts = 0;
    bool prev_sw = false; // Path of the previous attempt.
    sys.atomic(tc, site, [&](TxHandle &h) {
        if (++attempts > 1) {
            charge(run.served, prev_sw);
            if (attempts == 2) {
                run.firstSw = prev_sw;
                run.firstReason = prev_sw ? AbortReason::None
                                          : sys.lastHwAbortReason(tc);
            }
            run.served = 1;
        }
        prev_sw = h.path() == TxHandle::Path::Software;
        serve(h, run.served);
    });
    run.dirty = attempts > 1;
    return run;
}

/**
 * Per-worker adaptive batch sizing.  Host-local state only (a
 * per-site K table), so it is legal to consult and update from
 * transaction-body callers; determinism follows from the schedule
 * determinism of the abort/commit events that drive it.
 */
class Coalescer
{
  public:
    /**
     * @param maxBatch    the ceiling on K (SvcParams::maxBatch);
     * @param verbSites   number of per-verb singleton sites already
     *                    allocated below the batch sites (the batch
     *                    site range starts at 1 + verbSites);
     * @param shards      store shard count (>= 1).
     */
    Coalescer(unsigned maxBatch, TxSiteId verbSites, unsigned shards)
        : maxBatch_(maxBatch), base_(1 + verbSites), shards_(shards)
    {
    }

    /** Batchable verb class of @p t, or -1 (Xfer: multi-shard pairs
     *  break the same-home invariant; RawGet: not a transaction). */
    static int
    verbClassOf(ReqType t)
    {
        switch (t) {
          case ReqType::Get:
          case ReqType::Scan:
            return static_cast<int>(VerbClass::ReadOnly);
          case ReqType::Put:
          case ReqType::Rmw:
            return static_cast<int>(VerbClass::Update);
          default:
            return -1;
        }
    }

    /** Transaction-site id of (verb class, home shard) batches. */
    TxSiteId
    site(int verbClass, unsigned homeShard) const
    {
        return base_ + TxSiteId(verbClass) * TxSiteId(shards_) +
               TxSiteId(homeShard);
    }

    /** Current K for a batch site (>= 1, <= maxBatch). */
    unsigned
    k(TxSiteId site) const
    {
        const auto it = k_.find(site);
        return it == k_.end() ? 1 : it->second;
    }

    /**
     * Adapt a batch site's K to one batch transaction: +1 on a clean
     * (first-attempt) commit, on either path; halved when the first
     * abort was a software kill or a conflict- or capacity-class
     * hardware abort; unchanged by environmental aborts.
     */
    void
    adapt(TxSiteId site, const BatchRun &run)
    {
        unsigned &k = slot(site);
        if (!run.dirty) {
            if (k < maxBatch_)
                ++k;
        } else if (run.firstSw || shrinks(run.firstReason)) {
            k = k > 1 ? k / 2 : 1;
        }
    }

  private:
    static bool
    shrinks(AbortReason r)
    {
        switch (r) {
          case AbortReason::Conflict:
          case AbortReason::SetOverflow:
          case AbortReason::NestingOverflow:
          case AbortReason::Explicit:
          case AbortReason::UfoFault:
          case AbortReason::UfoBitSet:
          case AbortReason::NonTConflict:
            return true;
          default:
            return false;
        }
    }

    unsigned &
    slot(TxSiteId site)
    {
        return k_.try_emplace(site, 1u).first->second;
    }

    unsigned maxBatch_;
    TxSiteId base_;
    unsigned shards_;
    std::map<TxSiteId, unsigned> k_; ///< site -> current K.
};

} // namespace utm::svc

#endif // UFOTM_SVC_COALESCER_HH
