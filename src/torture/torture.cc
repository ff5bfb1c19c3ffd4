#include "torture/torture.hh"

#include <iterator>
#include <memory>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dur/recovery.hh"
#include "mem/persist.hh"
#include "mem/sim_memory.hh"
#include "rt/heap.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"
#include "sim/oracle.hh"
#include "sim/rng.hh"
#include "svc/coalescer.hh"
#include "svc/sharded_store.hh"
#include "ustm/ustm.hh"

namespace utm::torture {

const char *
tortureWorkloadName(TortureWorkload w)
{
    switch (w) {
      case TortureWorkload::Cells: return "cells";
      case TortureWorkload::Kv: return "kv";
    }
    return "?";
}

namespace {

/** Per-thread workload RNG seed (decoupled from the machine seed
 *  stream so the op sequence is identical across policies). */
std::uint64_t
workloadSeed(std::uint64_t seed, int tid)
{
    return (seed + 1) * 0x9e3779b97f4a7c15ull + std::uint64_t(tid) * 0xbf58476d1ce4e5b9ull;
}

/**
 * One op class of the kv workload.  Classes are listed in mix order:
 * an op belongs to the first class whose bound exceeds its mix draw,
 * and class c runs alone at transaction site c + 1, so the predictor
 * keys on it and every class has a stable site id across runs.
 */
struct KvOpClass
{
    int below;         ///< Upper bound (exclusive) of the mix draw.
    svc::ReqType verb; ///< The store operation.
    bool software;     ///< Forced onto the software path; never batched.
    bool onKey2;       ///< Works on the second key draw.
};

/** Unsharded mix.  The forced-software RMW against key2 stresses
 *  mixed hardware/software raw-read windows. */
constexpr KvOpClass kKvOps[] = {
    {45, svc::ReqType::Get, false, false},
    {65, svc::ReqType::Put, false, false},
    {80, svc::ReqType::Rmw, false, false},
    {90, svc::ReqType::Scan, false, false},
    {100, svc::ReqType::Rmw, true, true},
};

/** Sharded mix: the same single-key ops plus two-key transfers, which
 *  become multi-shard commits when the keys hash to different shards.
 *  The forced-software transfer drains shard otables in canonical
 *  order on the software path too. */
constexpr KvOpClass kShardedKvOps[] = {
    {45, svc::ReqType::Get, false, false},
    {60, svc::ReqType::Put, false, false},
    {72, svc::ReqType::Rmw, false, false},
    {82, svc::ReqType::Scan, false, false},
    {92, svc::ReqType::Xfer, false, false},
    {100, svc::ReqType::Xfer, true, false},
};

/**
 * Strong atomicity against the sequential shadow.  Watches one 8-byte
 * word per shadow slot; the slots need not be contiguous (the Kv
 * workload watches the map's scattered value words).
 */
class ShadowOracle final : public InvariantOracle
{
  public:
    ShadowOracle(Machine &machine, TxSystem &sys,
                 const std::vector<Addr> &addrs,
                 const std::vector<std::uint64_t> &shadow)
        : machine_(machine), sys_(sys), addrs_(addrs), shadow_(shadow)
    {
    }

    const char *name() const override { return "shadow-memory"; }

    bool
    check(std::string *why) override
    {
        for (std::size_t i = 0; i < shadow_.size(); ++i) {
            const Addr a = addrs_[i];
            const std::uint64_t got = machine_.memory().read(a, 8);
            if (got == shadow_[i])
                continue;
            if (sys_.oracleLineBusy(lineOf(a)))
                continue; // Legitimate in-flight speculative state.
            *why = "cell " + std::to_string(i) + " = " +
                   std::to_string(got) + ", shadow = " +
                   std::to_string(shadow_[i]) +
                   " (line not busy: committed state diverged "
                   "from serial replay)";
            return false;
        }
        return true;
    }

  private:
    Machine &machine_;
    TxSystem &sys_;
    const std::vector<Addr> &addrs_;
    const std::vector<std::uint64_t> &shadow_;
};

/**
 * Reports a violation a workload fiber detected host-side.  Fibers
 * must never throw OracleViolation themselves (it would unwind across
 * the fiber boundary); they set the flag and the scheduler-side check
 * at the next preemption point raises it.
 */
class HostFlagOracle final : public InvariantOracle
{
  public:
    HostFlagOracle(const char *name, const std::string &flag)
        : name_(name), flag_(flag)
    {
    }

    const char *name() const override { return name_; }

    bool
    check(std::string *why) override
    {
        if (flag_.empty())
            return true;
        *why = flag_;
        return false;
    }

  private:
    const char *name_;
    const std::string &flag_;
};

/** Backend-internal invariants (lockstep, undo balance, ...). */
class BackendOracle final : public InvariantOracle
{
  public:
    explicit BackendOracle(TxSystem &sys) : sys_(sys) {}

    const char *name() const override { return "backend-invariants"; }

    bool check(std::string *why) override
    {
        return sys_.oracleInvariantsHold(why);
    }

  private:
    TxSystem &sys_;
};

/** Surfaces the telemetry stall watchdog (sim/telemetry.hh) as a
 *  torture oracle: the run is violated as soon as the watchdog flags
 *  a livelock/starvation episode. */
class StallWatchdogOracle final : public InvariantOracle
{
  public:
    explicit StallWatchdogOracle(Machine &m) : m_(m) {}

    const char *name() const override { return "stall-watchdog"; }

    bool check(std::string *why) override
    {
        if (!m_.telemetry().stallFlagged())
            return true;
        if (why)
            *why = m_.telemetry().stallWhy();
        return false;
    }

  private:
    Machine &m_;
};

/** One committed transaction, as the commit-publish hook saw it
 *  (crash-torture harvest). */
struct CommittedTx
{
    std::uint64_t ts; ///< PersistDomain commit timestamp.
    std::vector<std::pair<int, std::uint64_t>> writes;
};

/** What a crash run leaves behind for the recovery phase. */
struct CrashHarvest
{
    PersistentImage image;
    std::set<std::uint64_t> fenceTs;
    std::vector<CommittedTx> history; ///< In commit order (ts ascending).
};

MachineConfig
makeTortureMachineConfig(const TortureConfig &cfg, int threads)
{
    MachineConfig mc;
    mc.numCores = threads;
    mc.timerQuantum = 0;
    mc.seed = cfg.seed;
    mc.sched = cfg.sched;
    mc.otableBuckets = cfg.otableBuckets;
    if (cfg.timeline || cfg.watchdog) {
        mc.telemetry.enabled = true;
        if (cfg.timelineWindow)
            mc.telemetry.windowCycles = cfg.timelineWindow;
        if (cfg.watchdogWindows)
            mc.telemetry.watchdogWindows = cfg.watchdogWindows;
    }
    if (cfg.workload == TortureWorkload::Kv && cfg.kvShards > 1)
        mc.otableShards = cfg.kvShards;
    return mc;
}

/**
 * The watched 8-byte words, their initial values, and (for Kv) the
 * store that owns them.  Deterministic: a fresh machine with the same
 * TortureConfig produces the identical layout, which is what lets the
 * crash harness re-create the store on a recovery machine.
 */
struct WatchedLayout
{
    std::unique_ptr<svc::ShardedKvStore> store;
    std::vector<Addr> addrs;
    std::vector<std::uint64_t> initial;
};

WatchedLayout
setupWatchedLayout(const TortureConfig &cfg, Machine &m, TxHeap &heap)
{
    WatchedLayout lay;
    if (cfg.workload != TortureWorkload::Kv) {
        const Addr base = heap.allocZeroed(
            m.initContext(), std::uint64_t(cfg.cells) * 8,
            /*line_aligned=*/true);
        for (int i = 0; i < cfg.cells; ++i)
            lay.addrs.push_back(base + Addr(i) * 8);
        lay.initial.assign(std::size_t(cfg.cells), 0);
        return lay;
    }
    // The sharded store carves its own per-stripe heaps (with one
    // shard it spans the whole heap, bit-identical to the old direct
    // KvStore); the caller's `heap` stays unused for Kv.
    lay.store = std::make_unique<svc::ShardedKvStore>(
        svc::ShardedKvStore::create(m.initContext(), cfg.kvBuckets,
                                    cfg.kvKeyspace, cfg.kvShards));
    lay.store->populate(m.initContext());
    auto no_tm = TxSystem::create(TxSystemKind::NoTm, m);
    no_tm->atomic(m.initContext(), [&](TxHandle &h) {
        for (std::uint64_t k = 1; k <= cfg.kvKeyspace; ++k) {
            const Addr va = lay.store->valueAddr(h, k);
            utm_assert(va != 0);
            lay.addrs.push_back(va);
            lay.initial.push_back(k * 100); // populate() value.
        }
    });
    return lay;
}

TortureResult
runTortureImpl(const TortureConfig &cfg, CrashHarvest *harvest,
               const TortureSetupHook &hook = {})
{
    // NoTm has no concurrency control; racing it is not a TM bug.
    const int threads = cfg.kind == TxSystemKind::NoTm ? 1 : cfg.threads;
    // h.syscall() in a hardware transaction aborts it; the unbounded
    // HTM has no software fallback for Syscall aborts, by design.
    const bool syscalls = cfg.kind != TxSystemKind::UnboundedHtm;

    const MachineConfig mc = makeTortureMachineConfig(cfg, threads);

    auto machine = std::make_unique<Machine>(mc);
    Machine &m = *machine;
    if (cfg.crashStep)
        m.setCrashStep(cfg.crashStep);
    TxHeap heap(m);
    auto sys = TxSystem::create(cfg.kind, m, cfg.policy);
    sys->setup();
    if (cfg.injectLockstepBug)
        if (Ustm *ustm = sys->ustmRuntime())
            ustm->testOnlyBreakUfoLockstep(true);

    const bool kv = cfg.workload == TortureWorkload::Kv;
    const int cells = cfg.cells;

    // The watched 8-byte words and their sequential shadow.  For
    // Cells these are the contended array; for Kv, the map's value
    // words (the chain structure is fixed after populate, so only the
    // value words change during the run).
    WatchedLayout lay = setupWatchedLayout(cfg, m, heap);
    std::vector<Addr> addrs = std::move(lay.addrs);
    std::vector<std::uint64_t> shadow = std::move(lay.initial);
    std::unique_ptr<svc::ShardedKvStore> store = std::move(lay.store);
    // Every value ever committed per watched word (raw-read oracle).
    std::vector<std::unordered_set<std::uint64_t>> history;
    // Durable runs snapshot the post-setup state into the persistent
    // image; redo records replay on top of this base state.
    if (m.persist().active())
        m.persist().checkpointHeap();
    history.resize(shadow.size());
    for (std::size_t i = 0; i < shadow.size(); ++i)
        history[i].insert(shadow[i]);
    const auto cellAddr = [&addrs](int i) { return addrs[std::size_t(i)]; };

    // Per-thread per-attempt pending writes, published into the
    // shadow (and the per-word commit history) in commit order.
    std::vector<std::vector<std::pair<int, std::uint64_t>>> pending(
        threads);
    std::uint64_t commits = 0;
    m.setCommitPublishHook([&](ThreadContext &tc) {
        ++commits;
        auto &mine = pending[tc.id()];
        // Crash harvest: the committed history in commit order, tagged
        // with the durable commit timestamp (assigned just before this
        // hook runs).  The prefix-consistency oracles replay it.
        if (harvest)
            harvest->history.push_back(
                {m.persist().lastCommitTs(tc.id()), mine});
        for (const auto &[cell, value] : mine) {
            shadow[cell] = value;
            history[cell].insert(value);
        }
        mine.clear();
    });

    // Raw-read strong-atomicity flag: set host-side by Kv fibers,
    // raised by the oracle at the next preemption point (fibers must
    // never throw OracleViolation across the fiber boundary).
    std::string rawFlag;
    std::uint64_t rawReads = 0;
    const bool checkRaw = kv && txSystemKindStronglyAtomic(cfg.kind);

    BackendOracle backendOracle(*sys);
    ShadowOracle shadowOracle(m, *sys, addrs, shadow);
    HostFlagOracle rawOracle("raw-read", rawFlag);
    StallWatchdogOracle stallOracle(m);
    if (hook)
        hook(m, *sys);
    if (cfg.oraclesEnabled) {
        m.addOracle(&backendOracle);
        m.addOracle(&shadowOracle);
        if (kv)
            m.addOracle(&rawOracle);
    }
    if (cfg.watchdog)
        m.addOracle(&stallOracle);
    if (cfg.oraclesEnabled || cfg.watchdog)
        m.setOracleInterval(cfg.oracleInterval);

    if (cfg.replay)
        m.setSchedulerPolicy(
            std::make_unique<ReplayScheduler>(*cfg.replay));
    m.recordSchedule(cfg.record || cfg.replay);

    // The kv fiber: the tmserve store under adversarial schedules.
    // Ops are pre-drawn, since the coalescer looks ahead.  With
    // cfg.kvBatch, consecutive batchable ops (same verb class and home
    // shard) run inside one transaction at their batch site, with
    // split-on-abort re-execution and adaptive K (svc::Coalescer);
    // every other op — all of them with cfg.kvBatch off — runs alone
    // at its op-class site.  Every oracle stays armed, and shadow
    // publication stays per op, in commit order.
    for (int t = 0; t < threads && kv; ++t) {
        m.addThread([&, t](ThreadContext &tc) {
            const bool sharded = cfg.kvShards > 1;
            const KvOpClass *const classes =
                sharded ? kShardedKvOps : kKvOps;

            struct KvOp
            {
                const KvOpClass *cls; ///< nullptr: a raw GET.
                std::uint64_t key, key2, fresh, delta;
                Cycles adv; ///< Advance after the op.
            };
            // Draw every parameter BEFORE atomic(): the body is
            // re-executed on abort and must behave identically.
            Rng rng(workloadSeed(cfg.seed, t));
            const Zipfian zipf(cfg.kvKeyspace, cfg.kvTheta);
            std::vector<KvOp> ops(std::size_t(cfg.opsPerThread));
            for (KvOp &o : ops) {
                const int mix = int(rng.nextBounded(100));
                o.key = 1 + zipf.sample(rng);
                o.key2 = 1 + zipf.sample(rng);
                o.fresh = rng.next() | 1;
                o.delta = rng.nextBounded(1000);
                o.cls = nullptr;
                if (mix < cfg.kvRawPct) {
                    o.adv = 5 + rng.nextBounded(20);
                    continue;
                }
                o.adv = 10 + rng.nextBounded(40);
                o.cls = classes;
                while (mix >= o.cls->below)
                    ++o.cls;
            }
            // Batchable verb class of an op, or -1 (raw GET,
            // forced-software op, transfer).
            const auto batchClass = [](const KvOp &o) {
                return o.cls && !o.cls->software
                           ? svc::Coalescer::verbClassOf(o.cls->verb)
                           : -1;
            };

            auto &mine = pending[t];
            // One op's store operation and shadow-pending writes.
            const auto applyOp = [&](TxHandle &h, const KvOp &o) {
                if (o.cls->software)
                    h.requireSoftware();
                const std::uint64_t key = o.cls->onKey2 ? o.key2 : o.key;
                std::uint64_t nv = 0, nt = 0;
                switch (o.cls->verb) {
                  case svc::ReqType::Get:
                    (void)store->get(h, key, &nv);
                    break;
                  case svc::ReqType::Put:
                    store->put(h, key, o.fresh);
                    mine.emplace_back(int(key) - 1, o.fresh);
                    break;
                  case svc::ReqType::Rmw:
                    if (store->rmw(h, key, o.delta, &nv))
                        mine.emplace_back(int(key) - 1, nv);
                    break;
                  case svc::ReqType::Scan:
                    store->scan(h, key, 4);
                    break;
                  default: {
                    // xkey differs from key so xfer's canonical
                    // (shard, key) acquisition order is well-defined.
                    const std::uint64_t xkey =
                        o.key2 == key ? 1 + key % cfg.kvKeyspace : o.key2;
                    if (store->xfer(h, key, xkey, o.delta, &nv, &nt)) {
                        mine.emplace_back(int(key) - 1, nv);
                        mine.emplace_back(int(xkey) - 1, nt);
                    }
                  }
                }
            };

            // Batch sites live above the op-class sites.
            svc::Coalescer co(TortureConfig::kvBatchMax,
                              TxSiteId(sharded ? std::size(kShardedKvOps)
                                               : std::size(kKvOps)),
                              cfg.kvShards);

            std::size_t i = 0;
            while (i < ops.size()) {
                const KvOp &head = ops[i];
                if (!head.cls) {
                    // Raw (non-transactional) GET: the strong-atomicity
                    // probe.  Every observed value must have been
                    // committed for that key at some point.
                    std::uint64_t v = 0;
                    const bool hit = store->rawGet(tc, head.key, &v);
                    ++rawReads;
                    if (checkRaw && rawFlag.empty()) {
                        if (!hit)
                            rawFlag = "raw GET missed key " +
                                      std::to_string(head.key) +
                                      " (fixed keyspace: chain "
                                      "structure damaged)";
                        else if (!history[int(head.key) - 1].count(v))
                            rawFlag =
                                "raw GET of key " +
                                std::to_string(head.key) +
                                " returned " + std::to_string(v) +
                                ", never committed for that key "
                                "(speculative state leaked to a "
                                "non-transactional read)";
                    }
                    tc.advance(head.adv);
                    ++i;
                    continue;
                }

                // Form the batch: consecutive batchable ops of the
                // same class and home shard (raw GETs close it).  An
                // op that cannot batch is a batch of one at its
                // op-class site.
                const int vc = cfg.kvBatch ? batchClass(head) : -1;
                const bool batch = vc >= 0;
                const unsigned home =
                    sharded ? store->shardOf(head.key) : 0;
                const TxSiteId site =
                    batch ? co.site(vc, home)
                          : TxSiteId(1 + (head.cls - classes));
                std::size_t j = i + 1;
                while (batch && j - i < co.k(site) && j < ops.size()) {
                    const KvOp &cand = ops[j];
                    if (batchClass(cand) != vc ||
                        (sharded && store->shardOf(cand.key) != home))
                        break;
                    ++j;
                }

                // Execute, splitting on abort: re-executions serve
                // only the first pending op, the rest re-batch.
                while (i < j) {
                    const svc::BatchRun run = svc::runBatch(
                        tc, *sys, site,
                        unsigned(std::min<std::size_t>(j - i, co.k(site))),
                        [&](TxHandle &h, unsigned n) {
                            mine.clear(); // Idempotent across re-execution.
                            for (unsigned b = 0; b < n; ++b)
                                applyOp(h, ops[i + b]);
                        },
                        [](unsigned, bool) {});
                    if (batch)
                        co.adapt(site, run);
                    for (unsigned b = 0; b < run.served; ++b)
                        tc.advance(ops[i + b].adv);
                    i += run.served;
                }
            }
        });
    }

    for (int t = 0; t < threads && !kv; ++t) {
        m.addThread([&, t, cells, syscalls](ThreadContext &tc) {
            Rng rng(workloadSeed(cfg.seed, t));
            for (int op = 0; op < cfg.opsPerThread; ++op) {
                // Draw every parameter BEFORE atomic(): the body is
                // re-executed on abort and must behave identically.
                const unsigned mix = unsigned(rng.nextBounded(100));
                const int i = int(rng.nextBounded(cells));
                int j = int(rng.nextBounded(cells));
                if (j == i)
                    j = (j + 1) % cells;
                const std::uint64_t amount = rng.nextBounded(1000);
                const std::uint64_t fresh = rng.next() | 1;

                // Per-op-class transaction site (mirrors the mix
                // thresholds below).
                const TxSiteId site = mix < 40   ? TxSiteId(1)
                                      : mix < 65 ? TxSiteId(2)
                                      : mix < 80 ? TxSiteId(3)
                                      : mix < 90 ? TxSiteId(4)
                                      : mix < 95 ? TxSiteId(5)
                                                 : TxSiteId(6);
                auto &mine = pending[t];
                sys->atomic(tc, site, [&](TxHandle &h) {
                    mine.clear(); // Idempotent across re-execution.
                    if (mix < 40) {
                        // Transfer: moves `amount` from cell i to j.
                        const std::uint64_t vi = h.read(cellAddr(i), 8);
                        const std::uint64_t vj = h.read(cellAddr(j), 8);
                        h.write(cellAddr(i), vi - amount, 8);
                        h.write(cellAddr(j), vj + amount, 8);
                        mine.emplace_back(i, vi - amount);
                        mine.emplace_back(j, vj + amount);
                    } else if (mix < 65) {
                        const std::uint64_t v =
                            h.read(cellAddr(i), 8) + 1;
                        h.write(cellAddr(i), v, 8);
                        mine.emplace_back(i, v);
                    } else if (mix < 80) {
                        h.write(cellAddr(i), fresh, 8);
                        mine.emplace_back(i, fresh);
                    } else if (mix < 90) {
                        // Read-only scan of a short cell stripe.
                        for (int k = 0; k < 4; ++k)
                            (void)h.read(cellAddr((i + k) % cells), 8);
                    } else if (mix < 95) {
                        // Forced software path (no-op where there is
                        // no distinct software path).
                        h.requireSoftware();
                        const std::uint64_t v =
                            h.read(cellAddr(j), 8) + 1;
                        h.write(cellAddr(j), v, 8);
                        mine.emplace_back(j, v);
                    } else {
                        if (syscalls)
                            h.syscall();
                        const std::uint64_t v =
                            h.read(cellAddr(i), 8) ^ amount;
                        h.write(cellAddr(i), v, 8);
                        mine.emplace_back(i, v);
                    }
                });
                tc.advance(10 + rng.nextBounded(40));
            }
        });
    }

    TortureResult res;
    try {
        m.run();
    } catch (const OracleViolation &v) {
        res.violated = true;
        res.oracle = v.oracle;
        res.why = v.why;
        res.violationStep = v.step;
    }
    res.crashed = m.crashed();

    // Harvest the surviving persistent state before the machine dies:
    // after a crash the image IS the machine, as far as recovery is
    // concerned.
    if (harvest) {
        harvest->image = m.persist().image();
        harvest->fenceTs = m.persist().fenceCompletedTs();
    }

    // run() finalizes the telemetry bus on a clean exit; after a
    // violation unwound run(), finalize here (idempotent, no-op when
    // telemetry is off) so the timeline and the conflict./watchdog.
    // counters cover the abandoned partial run too.
    m.telemetry().finalize();
    if (cfg.timeline)
        res.timeline = m.telemetry().dumpJson();

    res.steps = m.schedSteps();
    res.cycles = m.completionTime();
    res.commits = commits;
    res.rawReads = rawReads;
    res.schedule = m.recordedSchedule();
    if (res.crashed)
        res.schedule.setCrashStep(cfg.crashStep);
    res.stats = m.stats().counters();

    if (!res.violated && !res.crashed) {
        res.validated = true;
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            if (m.memory().read(addrs[i], 8) != shadow[i]) {
                res.validated = false;
                res.oracle = "final-state";
                res.why = "cell " + std::to_string(i) +
                          " diverged from shadow after completion";
                break;
            }
        }
    } else {
        // Abandoned mid-run (oracle violation or injected crash):
        // unfinished fibers and in-flight BTM transactions are
        // expected, not suspicious.
        setWarningsSuppressed(true);
        sys.reset();
        machine.reset();
        setWarningsSuppressed(false);
    }
    return res;
}

} // namespace

TortureResult
runTorture(const TortureConfig &cfg, const TortureSetupHook &hook)
{
    return runTortureImpl(cfg, nullptr, hook);
}

namespace {

/** Replay @p trace under @p base; true if the same oracle fails. */
bool
failsSame(const TortureConfig &base, const ScheduleTrace &trace,
          const std::string &oracle)
{
    TortureConfig cfg = base;
    cfg.replay = &trace;
    cfg.record = false;
    TortureResult r = runTorture(cfg);
    return r.violated && r.oracle == oracle;
}

/** The first @p steps scheduling steps of @p trace. */
ScheduleTrace
truncateTrace(const ScheduleTrace &trace, std::uint64_t steps)
{
    ScheduleTrace out;
    std::uint64_t left = steps;
    for (const auto &b : trace.blocks()) {
        if (left == 0)
            break;
        const std::uint64_t take = std::min(b.count, left);
        out.appendBlock(b.tid, take);
        left -= take;
    }
    return out;
}

} // namespace

MinimizeResult
minimizeSchedule(const TortureConfig &cfg, const ScheduleTrace &failing,
                 const std::string &oracle,
                 std::uint64_t violation_step, int budget)
{
    MinimizeResult res;
    res.schedule = failing;

    // Everything after the violation step was never consumed.
    ScheduleTrace best = truncateTrace(failing, violation_step);
    ++res.runs;
    if (!failsSame(cfg, best, oracle)) {
        // Try the untruncated trace as a sanity fallback.
        ++res.runs;
        if (!failsSame(cfg, failing, oracle))
            return res; // Not reproducible; keep the original.
        best = failing;
    }
    res.reproduced = true;

    // Greedy single pass, back to front: drop whole RLE blocks while
    // the replay (with divergence fallback) still fails identically.
    for (int i = int(best.blocks().size()) - 1;
         i >= 0 && res.runs < budget; --i) {
        std::vector<ScheduleTrace::Block> blocks = best.blocks();
        blocks.erase(blocks.begin() + i);
        ScheduleTrace candidate = ScheduleTrace::fromBlocks(blocks);
        ++res.runs;
        if (failsSame(cfg, candidate, oracle))
            best = std::move(candidate);
    }

    res.schedule = std::move(best);
    return res;
}

CrashTortureResult
runCrashTorture(const TortureConfig &base, std::uint64_t crash_step)
{
    CrashTortureResult out;
    TortureConfig cfg = base;
    cfg.policy.durable = true;
    cfg.record = true;
    if (!txSystemKindDurable(cfg.kind)) {
        out.why = std::string("backend ") + txSystemKindName(cfg.kind) +
                  " cannot run durable commits";
        return out;
    }

    // A replayed crash trace carries its own crash step; otherwise an
    // explicit step pins it, and failing both, a crash-free probe run
    // measures the schedule so the seed can pick a step uniformly over
    // the whole run.
    if (crash_step == 0 && cfg.replay)
        crash_step = cfg.replay->crashStep();
    if (crash_step == 0) {
        TortureConfig probe = cfg;
        probe.crashStep = 0;
        const TortureResult pr = runTortureImpl(probe, nullptr);
        out.probeSteps = pr.steps;
        if (!pr.ok()) {
            // The probe's own forensics: its schedule replays the
            // failure (crash-free, so a replay probes again).
            out.why = "crash-free probe failed oracle " + pr.oracle +
                      ": " + pr.why;
            out.schedule = pr.schedule;
            out.stats = pr.stats;
            out.timeline = pr.timeline;
            return out;
        }
        std::uint64_t h =
            (cfg.seed + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
        crash_step = 1 + h % pr.steps;
    }
    out.crashStep = crash_step;
    cfg.crashStep = crash_step;

    // Crash run: deterministic, so it retraces the probe's schedule
    // until the machine dies at the injected step.  All oracles stay
    // armed up to the crash.
    CrashHarvest hv;
    const TortureResult cr = runTortureImpl(cfg, &hv);
    out.schedule = cr.schedule;
    out.stats = cr.stats;
    out.crashSteps = cr.steps;
    out.timeline = cr.timeline;
    if (cr.violated) {
        out.why = "oracle " + cr.oracle +
                  " violated before the crash: " + cr.why;
        return out;
    }

    // The committed history keyed by durable commit timestamp.
    // Read-only commits log nothing and never fence; they are exempt
    // from every durability obligation.
    std::map<std::uint64_t, const CommittedTx *> committed;
    for (const CommittedTx &c : hv.history)
        if (!c.writes.empty())
            committed[c.ts] = &c;
    out.committedTx = committed.size();
    out.fencedTx = hv.fenceTs.size();

    // Recovery machine: identical geometry, deterministically
    // re-created store layout, empty ownership state.
    const int threads =
        cfg.kind == TxSystemKind::NoTm ? 1 : cfg.threads;
    Machine rm(makeTortureMachineConfig(cfg, threads));
    TxHeap rheap(rm);
    auto rsys = TxSystem::create(cfg.kind, rm, cfg.policy);
    rsys->setup();
    const WatchedLayout lay = setupWatchedLayout(cfg, rm, rheap);

    const dur::RecoveryReport rep = dur::recover(rm, hv.image);
    out.recoverJson = rep.toJson();
    out.recoveredTx = rep.recordsApplied;
    out.discardedRecords = rep.recordsDiscarded;
    const std::set<std::uint64_t> applied(rep.appliedTs.begin(),
                                          rep.appliedTs.end());

    // Oracle: every fence-completed commit survived.
    for (std::uint64_t ts : hv.fenceTs) {
        if (!applied.count(ts)) {
            out.why = "fence-completed commit ts=" +
                      std::to_string(ts) + " lost by recovery";
            return out;
        }
    }
    // Oracle: nothing that never committed was recovered.
    for (std::uint64_t ts : rep.appliedTs) {
        if (!committed.count(ts)) {
            out.why = "recovered record ts=" + std::to_string(ts) +
                      " was never committed";
            return out;
        }
    }
    // Oracle: per-key prefix consistency.  Once one committed write
    // to a key is missing, every later write to that key must be
    // missing too — a recovered successor would expose a state no
    // prefix of the key's history ever had.
    std::vector<char> keyGap(lay.addrs.size(), 0);
    for (const auto &[ts, c] : committed) {
        const bool ap = applied.count(ts) != 0;
        for (const auto &[cell, value] : c->writes) {
            (void)value;
            if (ap && keyGap[std::size_t(cell)]) {
                out.why = "non-prefix recovery: key " +
                          std::to_string(cell) + " write of ts=" +
                          std::to_string(ts) +
                          " recovered after an earlier lost write";
                return out;
            }
            if (!ap)
                keyGap[std::size_t(cell)] = 1;
        }
    }
    // Oracle: the recovered store equals a host-side replay of exactly
    // the recovered subset of the committed history.
    std::vector<std::uint64_t> expected = lay.initial;
    for (const auto &[ts, c] : committed) {
        if (!applied.count(ts))
            continue;
        for (const auto &[cell, value] : c->writes)
            expected[std::size_t(cell)] = value;
    }
    for (std::size_t i = 0; i < lay.addrs.size(); ++i) {
        const std::uint64_t got = rm.memory().read(lay.addrs[i], 8);
        if (got != expected[i]) {
            out.why = "recovered key " + std::to_string(i) + " = " +
                      std::to_string(got) + ", expected " +
                      std::to_string(expected[i]) +
                      " (replay of the recovered commit subset)";
            return out;
        }
    }
    // Oracle: no UFO protection bit survives recovery, and the
    // backend's otable↔UFO lockstep invariant holds on the recovered
    // machine (empty ownership ↔ all-clear protection).
    if (const std::size_t ufoLeft = rm.memory().ufoLineCount()) {
        out.why = std::to_string(ufoLeft) +
                  " UFO-protected lines survived recovery";
        return out;
    }
    std::string why;
    if (!rsys->oracleInvariantsHold(&why)) {
        out.why = "post-recovery backend invariants: " + why;
        return out;
    }
    // Oracle: recovery is idempotent — a second pass over the same
    // image reports and rebuilds exactly the same thing.
    const dur::RecoveryReport rep2 = dur::recover(rm, hv.image);
    if (rep2.toJson() != out.recoverJson) {
        out.why = "recovery not idempotent: second pass reported " +
                  rep2.toJson();
        return out;
    }
    for (std::size_t i = 0; i < lay.addrs.size(); ++i) {
        if (rm.memory().read(lay.addrs[i], 8) != expected[i]) {
            out.why = "recovery not idempotent: key " +
                      std::to_string(i) +
                      " changed on the second pass";
            return out;
        }
    }

    out.ok = true;
    return out;
}

} // namespace utm::torture
