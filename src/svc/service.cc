#include "svc/service.hh"

#include <algorithm>
#include <string>

#include "rt/heap.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"

namespace utm::svc {

void
KvServiceWorkload::setup(ThreadContext &init, TxHeap &heap, int nthreads)
{
    // The sharded store carves its own per-stripe heaps; the
    // workload-level allocator is deliberately unused (nothing else
    // allocates in this workload, so the address ranges stay
    // disjoint).
    (void)heap;
    store_ = std::make_unique<ShardedKvStore>(ShardedKvStore::create(
        init, p_.mapBuckets, p_.load.keyspace, p_.shards));
    store_->populate(init);

    shardReqName_.clear();
    shardShedName_.clear();
    shardDepthName_.clear();
    if (p_.shards > 1) {
        for (unsigned s = 0; s < p_.shards; ++s) {
            const std::string suffix = std::to_string(s);
            shardReqName_.push_back(
                std::string("shard.requests.") + suffix);
            shardShedName_.push_back(std::string("shard.shed.") + suffix);
            shardDepthName_.push_back(
                std::string("shard.queue_depth.") + suffix);
        }
    }

    streams_.clear();
    for (int c = 0; c < nthreads; ++c)
        streams_.push_back(generateClientStream(p_.load, c));
}

unsigned
KvServiceWorkload::homeShard(const Request &r) const
{
    return store_->shardOf(r.key);
}

unsigned
KvServiceWorkload::participants(const Request &r) const
{
    switch (r.type) {
      case ReqType::Scan:
        return store_->scanParticipants(r.key, p_.load.scanLen);
      case ReqType::Xfer:
        return store_->shardOf(r.key) == store_->shardOf(r.key2) ? 1
                                                                 : 2;
      default:
        return 1;
    }
}

TxSiteId
KvServiceWorkload::txSite(const Request &r) const
{
    // Site 0 is kTxSiteNone; verbs start at 1.  With key-range sites,
    // each (verb, routing bucket) pair gets its own id so a predictor
    // can separate hot and cold ranges of the same verb.
    TxSiteId site = 1 + static_cast<TxSiteId>(r.type);
    if (p_.siteByKeyRange)
        site += kNumReqTypes * store_->shardOf(r.key);
    return site;
}

/** One admitted request; a request served alone is a batch of one. */
struct KvServiceWorkload::BatchMember
{
    const Request *req;       ///< Stream entry (owned by streams_).
    Cycles start;             ///< Admission time (latency origin).
    std::uint64_t debtHw = 0; ///< Hardware aborts attributed so far.
    std::uint64_t debtSw = 0; ///< Software aborts attributed so far.
};

void
KvServiceWorkload::applyMember(TxHandle &h, const Request &r)
{
    bool hit = true;
    std::uint64_t v = 0;
    switch (r.type) {
      case ReqType::Get:
        hit = store_->get(h, r.key, &v);
        break;
      case ReqType::Put:
        hit = store_->put(h, r.key, r.value);
        break;
      case ReqType::Scan:
        store_->scan(h, r.key, p_.load.scanLen);
        break;
      case ReqType::Rmw:
        hit = store_->rmw(h, r.key, r.value);
        break;
      case ReqType::Xfer:
        // The multi-shard RMW: moves `value` from key to key2 in one
        // transaction, acquiring shards in canonical order
        // (sharded_store.cc).
        hit = store_->xfer(h, r.key, r.key2, r.value);
        break;
      case ReqType::RawGet:
        utm_panic("raw GET inside a transaction");
    }
    utm_assert(hit);
}

BatchRun
KvServiceWorkload::runTx(ThreadContext &tc, TxSystem &sys, TxSiteId site,
                         BatchMember *members, unsigned plan)
{
    // Each aborted attempt is charged to every request it served, so
    // every request keeps its own abort count without touching global
    // counters.
    return runBatch(
        tc, sys, site, plan,
        [&](TxHandle &h, unsigned n) {
            for (unsigned m = 0; m < n; ++m)
                applyMember(h, *members[m].req);
        },
        [&](unsigned n, bool sw) {
            for (unsigned m = 0; m < n; ++m)
                ++(sw ? members[m].debtSw : members[m].debtHw);
        });
}

void
KvServiceWorkload::serve(ThreadContext &tc, TxSystem &sys, BatchMember &m)
{
    const Request &r = *m.req;
    if (r.type != ReqType::RawGet) {
        runTx(tc, sys, txSite(r), &m, 1);
        return;
    }
    // Outside any transaction, on purpose: the strong-atomicity probe.
    // The walk is structurally safe (fixed key set); the value is
    // meaningful only on strongly-atomic backends.
    std::uint64_t v = 0;
    const bool hit = store_->rawGet(tc, r.key, &v);
    utm_assert(hit);
}

std::uint64_t
KvServiceWorkload::observeDepth(ThreadContext &tc,
                                const std::vector<Request> &stream,
                                std::size_t from, bool sharded,
                                unsigned home)
{
    std::uint64_t depth = 0;
    for (std::size_t j = from;
         j < stream.size() && stream[j].arrival <= tc.now(); ++j)
        if (!sharded || homeShard(stream[j]) == home)
            ++depth;
    StatsRegistry &st = tc.stats();
    st.observe("svc.queue_depth", depth);
    if (sharded)
        st.observe(shardDepthName_[home], depth);
    return depth;
}

bool
KvServiceWorkload::admit(ThreadContext &tc,
                         const std::vector<Request> &stream, std::size_t i,
                         bool sharded, unsigned home,
                         std::vector<BatchMember> *members)
{
    const Request &r = stream[i];
    if (!p_.load.openLoop) {
        tc.advance(r.think);
        members->push_back({&r, tc.now()});
        return true;
    }
    // Wait for the request's arrival, in bounded slices so other
    // clients keep interleaving deterministically.
    while (tc.now() < r.arrival) {
        tc.advance(std::min<Cycles>(r.arrival - tc.now(), 64));
        tc.yield();
    }
    // Admission control over this client's backlog: every stream
    // request already due but not yet completed.  When sharded, each
    // client keeps one logical queue per home shard, so only backlog
    // bound for the same shard counts.
    StatsRegistry &st = tc.stats();
    if (observeDepth(tc, stream, i, sharded, home) > p_.maxQueueDepth) {
        st.inc("svc.shed");
        st.inc(std::string("svc.shed.") + reqTypeName(r.type));
        if (sharded) {
            st.inc("shard.shed");
            st.inc(shardShedName_[home]);
        }
        tc.advance(p_.shedCost);
        return false;
    }
    if (tc.now() > r.arrival)
        st.inc("svc.queued");
    // Queueing delay counts toward latency.
    members->push_back({&r, r.arrival});
    return true;
}

void
KvServiceWorkload::finishRequest(ThreadContext &tc, const Request &r,
                                 Cycles start, std::uint64_t hw_aborts,
                                 std::uint64_t sw_aborts, bool sharded,
                                 unsigned home)
{
    StatsRegistry &st = tc.stats();
    const Cycles latency = tc.now() - start;

    st.inc("svc.requests");
    st.inc(std::string("svc.requests.") + reqTypeName(r.type));
    st.observe("svc.latency", latency);
    st.observe(std::string("svc.latency.") + reqTypeName(r.type),
               latency);

    if (hw_aborts)
        st.inc("svc.request_aborts.hw", hw_aborts);
    if (sw_aborts)
        st.inc("svc.request_aborts.sw", sw_aborts);
    if (hw_aborts + sw_aborts)
        st.inc("svc.request_aborts", hw_aborts + sw_aborts);
    st.observe("svc.aborts_per_request", hw_aborts + sw_aborts);

    if (sharded) {
        st.inc("shard.requests");
        st.inc(shardReqName_[home]);
        const unsigned parts = participants(r);
        st.observe("shard.participants", parts);
        if (parts > 1) {
            // Cross-shard attribution: one committed attempt plus
            // however many aborted attempts this request absorbed.
            st.inc("shard.cross", 1 + hw_aborts + sw_aborts);
            st.inc("shard.cross.commits");
            if (hw_aborts + sw_aborts)
                st.inc("shard.cross.aborts", hw_aborts + sw_aborts);
        }
    }
}

/**
 * The serving loop.  Each request at the head of the client's stream
 * is admitted (open-loop arrival wait and admission control, or
 * closed-loop think time).  A request runs alone at its per-verb site
 * when coalescing is off (SvcParams::maxBatch = 0) or its verb cannot
 * batch (XFER, raw GET).  Otherwise:
 *
 *  - up to K-1 consecutive compatible requests — same verb class,
 *    same home shard, and (open loop) already due — join the head's
 *    batch, each through the same admission;
 *  - the batch executes as ONE transaction at its (verb class, home
 *    shard) batch site.  The first attempt serves every member; any
 *    re-execution (the previous attempt aborted) serves only the
 *    first member — the split — and the remainder re-batches under
 *    the (possibly shrunk) adaptive K;
 *  - a batch abort attributes to every member it was serving, so
 *    per-request abort accounting (svc.request_aborts,
 *    svc.aborts_per_request, shard.cross.aborts) is preserved
 *    exactly; latency keeps its arrival→completion definition.
 */
void
KvServiceWorkload::threadBody(ThreadContext &tc, TxSystem &sys, int tid,
                              int nthreads)
{
    (void)nthreads;
    StatsRegistry &st = tc.stats();
    const std::vector<Request> &stream = streams_.at(tid);
    const bool sharded = p_.shards > 1;

    // Batch sites live above the per-verb singleton sites, so the
    // path predictor scores batched and unbatched execution of the
    // same verb separately (txSite() allocates kNumReqTypes sites per
    // routing bucket when siteByKeyRange is set, else one block).
    const TxSiteId verb_sites =
        kNumReqTypes * (p_.siteByKeyRange ? p_.shards : 1);
    Coalescer co(p_.maxBatch, verb_sites, p_.shards);

    std::vector<BatchMember> members;
    std::size_t i = 0;
    while (i < stream.size()) {
        const Request &head = stream[i];
        const unsigned home = sharded ? homeShard(head) : 0;
        members.clear();
        if (!admit(tc, stream, i++, sharded, home, &members))
            continue;

        const int vc =
            p_.maxBatch ? Coalescer::verbClassOf(head.type) : -1;
        if (vc < 0) {
            BatchMember &m = members.front();
            serve(tc, sys, m);
            finishRequest(tc, head, m.start, m.debtHw, m.debtSw, sharded,
                          home);
            if (p_.load.openLoop)
                observeDepth(tc, stream, i, sharded, home);
            continue;
        }

        // Form the batch.  An open-loop candidate that has not arrived
        // yet closes it: coalescing never waits.
        const TxSiteId bsite = co.site(vc, home);
        const unsigned k_now = co.k(bsite);
        while (members.size() < k_now && i < stream.size()) {
            const Request &cand = stream[i];
            if (Coalescer::verbClassOf(cand.type) != vc ||
                (sharded && homeShard(cand) != home) ||
                (p_.load.openLoop && cand.arrival > tc.now()))
                break;
            admit(tc, stream, i++, sharded, home, &members);
        }

        // Execute, splitting on abort: each loop iteration is one
        // batch transaction over the next `plan` pending members.
        std::size_t done = 0;
        while (done < members.size()) {
            const unsigned plan = unsigned(std::min<std::size_t>(
                members.size() - done, co.k(bsite)));
            st.inc("batch.batches");
            st.observe("batch.k", plan);
            const BatchRun run =
                runTx(tc, sys, bsite, &members[done], plan);
            co.adapt(bsite, run);
            if (!run.dirty) {
                st.inc("batch.commits");
            } else {
                st.inc("batch.aborts");
                st.inc(std::string("batch.aborts.") +
                       (run.firstSw ? "sw"
                                    : abortReasonName(run.firstReason)));
                if (plan > 1)
                    st.inc("batch.splits");
            }
            for (unsigned m = 0; m < run.served; ++m) {
                const BatchMember &bm = members[done + m];
                st.inc("batch.members");
                st.inc(std::string("batch.members.") +
                       reqTypeName(bm.req->type));
                finishRequest(tc, *bm.req, bm.start, bm.debtHw,
                              bm.debtSw, sharded, home);
            }
            done += run.served;
        }
        if (p_.load.openLoop)
            observeDepth(tc, stream, i, sharded, home);
    }
}

bool
KvServiceWorkload::validate(ThreadContext &init)
{
    return store_->check(init);
}

RunResult
runService(const SvcParams &params, const RunConfig &cfg)
{
    // The machine's otable partition must match the store's key
    // partition (sharded_store.cc asserts it).
    RunConfig shard_cfg = cfg;
    if (params.shards > 1)
        shard_cfg.machine.otableShards = params.shards;
    KvServiceWorkload w(params);
    return runWorkload(w, shard_cfg);
}

} // namespace utm::svc
