/**
 * @file
 * tmserve: the transactional KV request-serving workload.
 *
 * A KvServiceWorkload drives a (possibly sharded) KV store
 * (src/svc/sharded_store.hh) with per-client request streams from the
 * load generator (src/svc/load_gen.hh), under any TxSystemKind,
 * through the standard Workload/runWorkload machinery — so stats-JSON
 * export, tracing, and scheduler-policy selection all apply
 * unchanged.
 *
 * What it measures (the `svc.*` family, docs/OBSERVABILITY.md):
 *  - per-request latency histograms, whole-service and per verb
 *    (`svc.latency`, `svc.latency.<type>`) — open-loop latency is
 *    measured from *arrival*, so queueing delay lands in the tail;
 *  - served/shed/queued request counts (`svc.requests[.<type>]`,
 *    `svc.shed[.<type>]`, `svc.queued`);
 *  - per-request abort attribution: how many hardware and software
 *    aborts each served request absorbed
 *    (`svc.request_aborts[.hw|.sw]`, `svc.aborts_per_request`);
 *  - open-loop admission-queue depth (`svc.queue_depth`, observed
 *    at both the admission and drain edges);
 *  - with coalescing on (`SvcParams::maxBatch` > 0), its
 *    outcomes: batches formed, members per batch and per verb,
 *    splits, and batch-abort attribution (`batch.batches`,
 *    `batch.members[.<type>]`, `batch.commits`,
 *    `batch.aborts[.<reason>]`, `batch.splits`, `batch.k`);
 *  - with shards > 1, per-shard routing/queueing and cross-shard
 *    commit/abort attribution (`shard.requests[.<i>]`,
 *    `shard.shed[.<i>]`, `shard.queue_depth.<i>`,
 *    `shard.participants`, `shard.cross[.commits|.aborts]`).
 *
 * Raw (non-transactional) GET traffic rides in the same streams; it
 * is the service-shaped probe of the paper's headline property —
 * strong atomicity — and is checked against the sequential shadow
 * oracle by the tmtorture kv workload (src/torture).
 */

#ifndef UFOTM_SVC_SERVICE_HH
#define UFOTM_SVC_SERVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "stamp/workload.hh"
#include "svc/coalescer.hh"
#include "svc/load_gen.hh"
#include "svc/sharded_store.hh"

namespace utm::svc {

/** Service shape: store geometry, load model, admission control. */
struct SvcParams
{
    LoadGenConfig load;

    /** TxMap bucket count (power of two) — per shard when sharded;
     *  small values lengthen the chain walks, modelling a deeper
     *  index. */
    std::uint64_t mapBuckets = 64;

    /**
     * Store shards.  1 = the unsharded paper configuration.  N > 1
     * partitions the store across N per-shard heaps/otables
     * (svc/sharded_store.hh); runService() forces the machine's
     * otableShards to match.
     */
    unsigned shards = 1;

    /** Open-loop admission bound: a due request is shed when the
     *  client's backlog of already-due requests exceeds this.  When
     *  sharded, the backlog is counted per home shard — each client
     *  keeps one logical queue per shard, so a saturated shard sheds
     *  without starving traffic routed to idle shards. */
    std::uint64_t maxQueueDepth = 16;

    /** Cycles charged for rejecting (shedding) one request. */
    Cycles shedCost = 20;

    /**
     * Transaction-site granularity for the path predictor
     * (src/hybrid/path_predictor.hh).  Requests always carry a static
     * site id keyed by verb; with this set, the site is additionally
     * keyed by the primary key's shard-routing bucket, so a predictor
     * can separate hot and cold key ranges of the same verb.
     */
    bool siteByKeyRange = false;

    /**
     * Request coalescing (svc/coalescer.hh): the ceiling on K, the
     * number of consecutive compatible requests drained into one
     * transaction, K adaptive per (verb class, home shard) batch
     * site.  0 (the default) turns coalescing off: the serving loop
     * is the same, and every request runs alone at its per-verb
     * site, as an unbatchable verb (XFER, raw GET) always does.
     */
    unsigned maxBatch = 0;
};

/** The request-serving workload; one simulated thread per client. */
class KvServiceWorkload final : public Workload
{
  public:
    explicit KvServiceWorkload(const SvcParams &p) : p_(p) {}

    const char *name() const override { return "kv-service"; }

    void setup(ThreadContext &init, TxHeap &heap, int nthreads) override;
    void threadBody(ThreadContext &tc, TxSystem &sys, int tid,
                    int nthreads) override;
    bool validate(ThreadContext &init) override;

    const SvcParams &params() const { return p_; }

  private:
    struct BatchMember;

    /** Admission of stream[@p i]: waits for its arrival (open loop)
     *  or spends its think time (closed loop), then sheds it or
     *  appends it to @p members.  Returns whether it was admitted. */
    bool admit(ThreadContext &tc, const std::vector<Request> &stream,
               std::size_t i, bool sharded, unsigned home,
               std::vector<BatchMember> *members);

    /** Serve one request alone: raw GETs outside any transaction,
     *  every other verb as one transaction at its per-verb site. */
    void serve(ThreadContext &tc, TxSystem &sys, BatchMember &m);

    /** runBatch() over @p plan admitted requests at @p site, with
     *  every abort charged to the requests the attempt served. */
    BatchRun runTx(ThreadContext &tc, TxSystem &sys, TxSiteId site,
                   BatchMember *members, unsigned plan);

    /** Apply one request's store operation inside its transaction
     *  (every verb but raw GET). */
    void applyMember(TxHandle &h, const Request &r);

    /** Completion accounting shared by the single and batched paths:
     *  svc.requests/latency, per-request abort attribution, and the
     *  sharded counters. */
    void finishRequest(ThreadContext &tc, const Request &r, Cycles start,
                       std::uint64_t hwAborts, std::uint64_t swAborts,
                       bool sharded, unsigned home);

    /** Observe and return this client's backlog: stream entries from
     *  @p from (inclusive) that are already due, filtered to @p home's
     *  logical queue when sharded.  Observed at admission, and after
     *  each serve, so the depth histograms capture both edges. */
    std::uint64_t observeDepth(ThreadContext &tc,
                               const std::vector<Request> &stream,
                               std::size_t from, bool sharded,
                               unsigned home);

    /** Home shard of a request (shard of its primary key). */
    unsigned homeShard(const Request &r) const;

    /** Distinct shards the request's transaction touches. */
    unsigned participants(const Request &r) const;

    /** Static transaction-site id for a request (predictor key). */
    TxSiteId txSite(const Request &r) const;

    SvcParams p_;
    std::unique_ptr<ShardedKvStore> store_;
    std::vector<std::vector<Request>> streams_; ///< One per client.
    /** Precomputed per-shard counter names (sharded configs only). @{ */
    std::vector<std::string> shardReqName_;
    std::vector<std::string> shardShedName_;
    std::vector<std::string> shardDepthName_;
    /** @} */
};

/** runWorkload() with a KvServiceWorkload built from @p params. */
RunResult runService(const SvcParams &params, const RunConfig &cfg);

} // namespace utm::svc

#endif // UFOTM_SVC_SERVICE_HH
