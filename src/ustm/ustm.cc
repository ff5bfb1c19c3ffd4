#include "ustm/ustm.hh"

#include <algorithm>
#include <cstdarg>
#include <cstring>

#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"
#include "sim/thread_context.hh"

namespace utm {

namespace {

constexpr Cycles kBeginCost = 20;   ///< Checkpoint + sequence number.
constexpr Cycles kCommitCost = 10;  ///< Descriptor cleanup.
constexpr Cycles kAbortPenalty = 40;
constexpr Cycles kUndoLogCost = 2;  ///< Per-word log append.
/** Stall poll attempts before retrying the whole barrier. */
constexpr int kStallPolls = 25;
/** Safety bound for wait loops (simulator bug detector). */
constexpr long kWaitSanityBound = 50'000'000;

/**
 * Fill @p why from a printf format and return false.  The one place an
 * oracle check formats its report: out of line and cold, so a passing
 * check builds no string.
 */
__attribute__((cold, noinline, format(printf, 2, 3))) bool
violation(std::string *why, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    *why = vformatString(fmt, ap);
    va_end(ap);
    return false;
}

} // namespace

Ustm::Ustm(Machine &machine, bool strong_atomic, const UstmPolicy &policy)
    : machine_(machine), strong_(strong_atomic), policy_(policy)
{
    const MachineConfig &mc = machine.config();
    const unsigned shards = mc.otableShards ? mc.otableShards : 1;
    sharded_ = shards > 1;
    // Stagger the per-shard tables (head array + chain-node pool) at
    // page-aligned bases below the heap.  Otable's layout puts the
    // pool right after the head array, so one table spans
    // (buckets + pool) * kEntryBytes.
    const std::uint64_t span =
        (std::uint64_t(mc.otableBuckets) + 4096) * Otable::kEntryBytes;
    const std::uint64_t stride = (span + 0xfff) & ~0xfffull;
    otables_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s)
        otables_.emplace_back(mc.otableBuckets,
                              kDefaultOtableBase + Addr(s) * stride);
    if (otables_.back().end() > mc.heapBase)
        utm_fatal("otable shards (%u x %u buckets) overflow the "
                  "pre-heap window; shrink otableBuckets",
                  shards, mc.otableBuckets);
}

unsigned
Ustm::shardOfAddr_(Addr a) const
{
    return sharded_ ? machine_.config().shardOfAddr(a) : 0;
}

void
Ustm::setup(ThreadContext &init)
{
    for (Otable &ot : otables_)
        ot.initialize(init);
    if (sharded_) {
        for (unsigned s = 0; s < otables_.size(); ++s) {
            const std::string suffix = std::to_string(s);
            shardAcquiresName_.push_back(
                std::string("shard.acquires.") + suffix);
            shardChainInsertsName_.push_back(
                std::string("shard.chain_inserts.") + suffix);
            shardChainLenName_.push_back(
                std::string("shard.chain_len.") + suffix);
            shardRowLockWaitName_.push_back(
                std::string("shard.row_lock_wait.") + suffix);
        }
    }
    if (strong_) {
        machine_.memsys().setUfoFaultHandler(
            [this](ThreadContext &tc, Addr a, AccessType t) {
                nonTFaultHandler(tc, a, t);
            });
        RetryWakeupHooks hooks;
        hooks.inspect = [this](ThreadContext &tc, LineAddr line,
                               std::vector<RetryWakeupHooks::Token>
                                   *tokens) {
            return inspectForRetryers(tc, line, tokens);
        };
        hooks.wake =
            [this](const std::vector<RetryWakeupHooks::Token> &tokens) {
                wakeRetryers(tokens);
            };
        machine_.memsys().setRetryWakeupHooks(std::move(hooks));
    }
    // Telemetry: resolve which software transactions own a line when
    // a hardware transaction traps on its UFO protection (the
    // aggressor side of the hybrid's UFO-trap conflict edge).
    if (machine_.telemetry().enabled()) {
        machine_.telemetry().setOwnerResolver(
            [this](ThreadContext &, LineAddr line) {
                return peekOwners(line);
            });
    }
}

bool
Ustm::inTx(ThreadId t) const
{
    return txs_[t].status == TxDesc::Status::Active ||
           txs_[t].status == TxDesc::Status::Committing;
}

std::uint64_t
Ustm::txAgeOf(ThreadId t) const
{
    return txs_[t].status == TxDesc::Status::Inactive ? 0 : txs_[t].age;
}

void
Ustm::txBegin(ThreadContext &tc)
{
    TxDesc &tx = txs_[tc.id()];
    if (tx.depth > 0) {
        ++tx.depth; // Flattened nesting.
        return;
    }
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm, ProfPhase::Begin);
    // Livelock avoidance: wait until the transaction that killed us
    // has retired before reissuing (Section 4.1).
    if (tx.killerTid >= 0) {
        UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm, ProfPhase::Stall);
        TxDesc &k = txs_[tx.killerTid];
        long spins = 0;
        while (k.status == TxDesc::Status::Active &&
               k.age == tx.killerAge) {
            tc.advance(policy_.stallPoll);
            tc.yield();
            if (++spins > kWaitSanityBound)
                utm_panic("killer-retire wait did not terminate");
        }
        tx.killerTid = -1;
    }
    setStatus(tx, TxDesc::Status::Active);
    tx.depth = 1;
    tx.killedAge = 0;
    tx.age = machine_.nextTxSeq();
    tx.owned.clear();
    tx.ownedIndex.clear();
    tx.undo.clear();
    if (strong_)
        tc.disableUfo();
    machine_.stats().inc("ustm.begins");
    UTM_TRACE_EVENT(machine_, tc, TraceEvent::TxBegin,
                    TracePath::Software, AbortReason::None);
    tc.advance(kBeginCost);
}

void
Ustm::txEnd(ThreadContext &tc)
{
    TxDesc &tx = txs_[tc.id()];
    utm_assert(tx.status == TxDesc::Status::Active);
    if (tx.depth > 1) {
        --tx.depth;
        return;
    }
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm, ProfPhase::Commit);
    checkKill(tc); // Last chance to observe a kill.
    setStatus(tx, TxDesc::Status::Committing);
    // Commit linearization point: past the final kill check, before
    // ownership release, the eager writes are final.
    machine_.notifyCommitPoint(tc);
    // Durable mode: the redo record is appended and fenced BEFORE the
    // release — conflictors wait out a Committing owner (killOwners),
    // so any dependent transaction commits strictly after this fence
    // and the durable record set stays conflict-closed downward.
    if (machine_.persist().active())
        persistCommit(tc, tx);
    releaseAll(tc, tx);
    setStatus(tx, TxDesc::Status::Inactive);
    tx.depth = 0;
    tx.killedAge = 0;
    tx.undo.clear();
    if (strong_)
        tc.enableUfo();
    machine_.stats().inc("ustm.commits");
    UTM_TRACE_EVENT(machine_, tc, TraceEvent::TxCommit,
                    TracePath::Software, AbortReason::None);
    tc.advance(kCommitCost);
}

void
Ustm::persistCommit(ThreadContext &tc, TxDesc &tx)
{
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm, ProfPhase::Persist);
    if (tx.undo.empty()) {
        machine_.persist().noteReadOnlyCommit();
        return;
    }
    std::vector<PersistDomain::RedoWrite> writes;
    writes.reserve(tx.undo.size());
    for (const TxDesc::UndoRec &u : tx.undo)
        writes.push_back({u.addr, u.size});
    machine_.persist().appendCommitRecord(tc, tx.age, writes);
}

std::uint64_t
Ustm::txRead(ThreadContext &tc, Addr a, unsigned size)
{
    readBarrier(tc, a);
    return tc.load(a, size);
}

void
Ustm::txWrite(ThreadContext &tc, Addr a, std::uint64_t v, unsigned size)
{
    writeBarrier(tc, a);
    TxDesc &tx = txs_[tc.id()];
    tx.undo.push_back({a, size, machine_.memory().read(a, size)});
    tc.advance(kUndoLogCost);
    tc.store(a, v, size);
}

void
Ustm::readBarrier(ThreadContext &tc, Addr a)
{
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm,
                   ProfPhase::BarrierRead);
    machine_.stats().inc("ustm.read_barriers");
    acquire(tc, txs_[tc.id()], lineOf(a), /*want_write=*/false);
}

void
Ustm::writeBarrier(ThreadContext &tc, Addr a)
{
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm,
                   ProfPhase::BarrierWrite);
    machine_.stats().inc("ustm.write_barriers");
    acquire(tc, txs_[tc.id()], lineOf(a), /*want_write=*/true);
}

void
Ustm::checkKill(ThreadContext &tc)
{
    TxDesc &tx = txs_[tc.id()];
    if (tx.status == TxDesc::Status::Active && tx.killedAge != 0 &&
        tx.killedAge == tx.age) {
        unwindAbort(tc, tx, "killed");
    }
}

void
Ustm::record(TxDesc &tx, LineAddr line, Addr entry, bool write)
{
    auto it = tx.ownedIndex.find(line);
    if (it != tx.ownedIndex.end()) {
        utm_assert(tx.owned[it->second].entry == entry);
        tx.owned[it->second].write |= write;
        return;
    }
    tx.ownedIndex.emplace(line, tx.owned.size());
    tx.owned.push_back({line, entry, write});
    ++descChanges_;
}

void
Ustm::setStatus(TxDesc &tx, TxDesc::Status status)
{
    tx.status = status;
    ++descChanges_;
}

void
Ustm::installUfo(ThreadContext &tc, LineAddr line, bool write)
{
    if (!strong_ || breakUfoLockstep_)
        return;
    tc.setUfoBits(line, write ? kUfoBoth : kUfoWriteOnly);
}

void
Ustm::clearUfo(ThreadContext &tc, LineAddr line)
{
    if (!strong_)
        return;
    tc.setUfoBits(line, kUfoNone);
}

std::uint64_t
Ustm::ownersOf(ThreadContext &tc, Addr entry, std::uint64_t w0)
{
    return Otable::owners(entry, w0,
                          [&tc](Addr a) { return tc.load(a, 8); });
}

bool
Ustm::lockRow(ThreadContext &tc, Addr head, std::uint64_t w0)
{
    utm_assert(!Otable::locked(w0));
    return tc.cas(head, 8, w0, w0 | Otable::kLock);
}

std::uint64_t
Ustm::waitRowLock(ThreadContext &tc, LineAddr line, Addr head, bool starve)
{
    bool waited = false;
    Cycles wait_start = 0;
    for (;;) {
        std::uint64_t w0 = tc.load(head, 8);
        if (starve || Otable::locked(w0) || !lockRow(tc, head, w0)) {
            if (!waited) {
                waited = true;
                wait_start = tc.now();
            }
            UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm,
                           ProfPhase::Backoff);
            tc.advance(policy_.lockBackoff);
            tc.yield();
            continue;
        }
        if (waited)
            observeRowLockWait(tc, line, wait_start);
        return w0;
    }
}

void
Ustm::observeRowLockWait(ThreadContext &tc, LineAddr line,
                         Cycles wait_start)
{
    machine_.contention().rowLockWait().observe(tc.now() - wait_start);
    if (sharded_)
        machine_.stats().observe(shardRowLockWaitName_[shardOf(line)],
                                 tc.now() - wait_start);
}

void
Ustm::acquire(ThreadContext &tc, TxDesc &tx, LineAddr line,
              bool want_write)
{
    utm_assert(tx.status == TxDesc::Status::Active);
    // Jittered backoff between probes of the same row.  A fixed
    // re-probe cadence can phase-lock with the fixed-cadence lock poll
    // of an Aborting/Committing thread's releaseEntry() under a
    // deterministic schedule: every probe (or its lockedAcquire
    // critical section) lands exactly inside the releaser's
    // load-to-CAS window, the releaser never wins the row lock, and
    // the transaction waiting for that victim to unwind spins forever
    // (found by tmtorture, ustm/minclock seed 4; see
    // tests/test_tmtorture.cc ReleaseStarvation).  A pseudo-random
    // probe gap makes the cadence aperiodic, so the releaser's
    // load-to-CAS window eventually lands with no competing probe in
    // it.  The mean gap stays at ~1.5x lockBackoff, so overall
    // contention timing is barely perturbed (same idiom as the TL2
    // retry backoff).
    bool waited = false;
    Cycles wait_start = 0;
    for (;;) {
        checkKill(tc); // throws if this transaction was killed
        AcquireStep step = acquireStep(tc, tx, line, want_write);
        switch (step.kind) {
          case AcquireStep::Kind::Done:
            if (waited)
                observeRowLockWait(tc, line, wait_start);
            if (sharded_) {
                machine_.stats().inc("shard.acquires");
                machine_.stats().inc(shardAcquiresName_[shardOf(line)]);
            }
            return;
          case AcquireStep::Kind::Retry:
          case AcquireStep::Kind::Conflict:
            if (!waited) {
                waited = true;
                wait_start = tc.now();
            }
            if (step.kind == AcquireStep::Kind::Conflict)
                resolveConflict(tc, tx, step.conflictOwners, line);
            {
                UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm,
                               ProfPhase::Backoff);
                tc.advance(policy_.lockBackoff +
                           tc.rng().nextBounded(policy_.lockBackoff +
                                                1));
                tc.yield();
            }
            break;
        }
    }
}

Ustm::AcquireStep
Ustm::acquireStep(ThreadContext &tc, TxDesc &tx, LineAddr line,
                  bool want_write)
{
    const ThreadId self = tc.id();
    const std::uint64_t my_bit = 1ull << self;
    const std::uint64_t tag = Otable::tagOf(line);
    const Addr head = otableFor(line).bucketAddr(line);

    std::uint64_t w0 = tc.load(head, 8);
    if (Otable::locked(w0))
        return {AcquireStep::Kind::Retry, 0};

    // Fast path: empty bucket, no chain -- single CAS insert (locked
    // insert in strong mode to couple the UFO bit set, Algorithm 2).
    if (!Otable::used(w0) && !Otable::hasChain(w0)) {
        std::uint64_t neww0 = Otable::pack(true, strong_, want_write,
                                           false, false, self, tag);
        if (!tc.cas(head, 8, w0, neww0))
            return {AcquireStep::Kind::Retry, 0};
        if (strong_) {
            installUfo(tc, line, want_write);
            tc.store(head, neww0 & ~Otable::kLock, 8);
        }
        record(tx, line, head, want_write);
        return {AcquireStep::Kind::Done, 0};
    }

    if (Otable::used(w0) && Otable::tag(w0) == tag) {
        if (Otable::writeState(w0)) {
            if (Otable::owner(w0) == self)
                return {AcquireStep::Kind::Done, 0};
            return {AcquireStep::Kind::Conflict,
                    1ull << Otable::owner(w0)};
        }
        // Read-state head entry. Loading word1 (multi representation)
        // can race with a release/reclaim of the entry, so revalidate
        // word0 afterwards before trusting the owner set.
        std::uint64_t owners = ownersOf(tc, head, w0);
        if (Otable::multi(w0) && tc.load(head, 8) != w0)
            return {AcquireStep::Kind::Retry, 0};
        if (!want_write) {
            if (owners & my_bit)
                return {AcquireStep::Kind::Done, 0};
            // Need the row lock to join the reader set.
            if (!lockRow(tc, head, w0))
                return {AcquireStep::Kind::Retry, 0};
            return lockedAcquire(tc, tx, line, want_write, head,
                                 w0 | Otable::kLock);
        }
        if (!Otable::multi(w0) && Otable::owner(w0) == self) {
            // Sole-reader (single-owner representation) upgrade: the
            // CAS fails if any reader joined, because joining takes
            // the row lock and perturbs word0.
            std::uint64_t neww0 =
                w0 | Otable::kWrite | (strong_ ? Otable::kLock : 0);
            if (!tc.cas(head, 8, w0, neww0))
                return {AcquireStep::Kind::Retry, 0};
            if (strong_) {
                installUfo(tc, line, true);
                tc.store(head, neww0 & ~Otable::kLock, 8);
            }
            record(tx, line, head, true);
            return {AcquireStep::Kind::Done, 0};
        }
        if (owners == my_bit) {
            // Multi representation with only us: upgrade under lock.
            if (!lockRow(tc, head, w0))
                return {AcquireStep::Kind::Retry, 0};
            return lockedAcquire(tc, tx, line, want_write, head,
                                 w0 | Otable::kLock);
        }
        return {AcquireStep::Kind::Conflict, owners & ~my_bit};
    }

    // Tag mismatch or tombstoned head with a chain: locked slow path.
    if (!lockRow(tc, head, w0))
        return {AcquireStep::Kind::Retry, 0};
    return lockedAcquire(tc, tx, line, want_write, head,
                         w0 | Otable::kLock);
}

Ustm::AcquireStep
Ustm::lockedAcquire(ThreadContext &tc, TxDesc &tx, LineAddr line,
                    bool want_write, Addr head, std::uint64_t w0_locked)
{
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm,
                   ProfPhase::OtableWalk);
    const ThreadId self = tc.id();
    const std::uint64_t my_bit = 1ull << self;
    const std::uint64_t tag = Otable::tagOf(line);
    const std::uint64_t w0 = w0_locked & ~Otable::kLock;

    auto unlock = [&](std::uint64_t final_w0) {
        tc.store(head, final_w0 & ~Otable::kLock, 8);
    };

    // Case 1: head entry matches our line (we needed the lock to join
    // the reader set or to serialize with chain updates).
    if (Otable::used(w0) && Otable::tag(w0) == tag) {
        if (Otable::writeState(w0)) {
            ThreadId o = Otable::owner(w0);
            unlock(w0);
            if (o == self)
                return {AcquireStep::Kind::Done, 0};
            return {AcquireStep::Kind::Conflict, 1ull << o};
        }
        std::uint64_t owners = ownersOf(tc, head, w0);
        if (!want_write) {
            if (owners & my_bit) {
                unlock(w0);
                return {AcquireStep::Kind::Done, 0};
            }
            tc.store(head + 8, owners | my_bit, 8);
            unlock(w0 | Otable::kMulti);
            record(tx, line, head, false);
            return {AcquireStep::Kind::Done, 0};
        }
        if (owners == my_bit) {
            // Upgrade; normalize back to the single-owner form.
            std::uint64_t neww0 =
                (w0 & ~(Otable::kMulti | Otable::kOwnerMask)) |
                Otable::kWrite |
                (static_cast<std::uint64_t>(self)
                 << Otable::kOwnerShift);
            installUfo(tc, line, true);
            unlock(neww0);
            record(tx, line, head, true);
            return {AcquireStep::Kind::Done, 0};
        }
        unlock(w0);
        return {AcquireStep::Kind::Conflict, owners & ~my_bit};
    }

    // Case 2: walk the chain for a node matching our line.
    Addr node = tc.load(head + 16, 8);
    int chain_len = 0;
    while (node != 0) {
        ++chain_len;
        std::uint64_t nw0 = tc.load(node, 8);
        if (Otable::used(nw0) && Otable::tag(nw0) == tag) {
            if (Otable::writeState(nw0)) {
                ThreadId o = Otable::owner(nw0);
                unlock(w0);
                if (o == self)
                    return {AcquireStep::Kind::Done, 0};
                return {AcquireStep::Kind::Conflict, 1ull << o};
            }
            std::uint64_t owners = ownersOf(tc, node, nw0);
            if (!want_write) {
                if (owners & my_bit) {
                    unlock(w0);
                    return {AcquireStep::Kind::Done, 0};
                }
                tc.store(node + 8, owners | my_bit, 8);
                if (!Otable::multi(nw0))
                    tc.store(node, nw0 | Otable::kMulti, 8);
                unlock(w0);
                record(tx, line, node, false);
                return {AcquireStep::Kind::Done, 0};
            }
            if (owners == my_bit) {
                std::uint64_t new_nw0 =
                    (nw0 & ~(Otable::kMulti | Otable::kOwnerMask)) |
                    Otable::kWrite |
                    (static_cast<std::uint64_t>(self)
                     << Otable::kOwnerShift);
                tc.store(node, new_nw0, 8);
                installUfo(tc, line, true);
                unlock(w0);
                record(tx, line, node, true);
                return {AcquireStep::Kind::Done, 0};
            }
            unlock(w0);
            return {AcquireStep::Kind::Conflict, owners & ~my_bit};
        }
        node = tc.load(node + 16, 8);
    }

    // Case 3: no entry for our line anywhere in this bucket.
    if (!Otable::used(w0)) {
        // Reclaim the tombstoned head slot.
        std::uint64_t neww0 =
            Otable::pack(true, false, want_write, false,
                         Otable::hasChain(w0), self, tag);
        installUfo(tc, line, want_write);
        unlock(neww0);
        record(tx, line, head, want_write);
        return {AcquireStep::Kind::Done, 0};
    }
    Addr n = otableFor(line).allocNode();
    tc.store(n, Otable::pack(true, false, want_write, false, false,
                             self, tag),
             8);
    Addr old_next = tc.load(head + 16, 8);
    tc.store(n + 16, old_next, 8);
    tc.store(head + 16, n, 8);
    installUfo(tc, line, want_write);
    unlock(w0 | Otable::kHasChain);
    record(tx, line, n, want_write);
    machine_.stats().inc("ustm.chain_inserts");
    machine_.contention().chainLen().observe(chain_len + 1);
    if (sharded_) {
        machine_.stats().inc("shard.chain_inserts");
        machine_.stats().inc(shardChainInsertsName_[shardOf(line)]);
        machine_.stats().observe(shardChainLenName_[shardOf(line)],
                                 chain_len + 1);
    }
    return {AcquireStep::Kind::Done, 0};
}

void
Ustm::resolveConflict(ThreadContext &tc, TxDesc &tx,
                      std::uint64_t owners, LineAddr line)
{
    machine_.stats().inc("ustm.conflicts");
    machine_.contention().ustmHotLines().observe(line);
    if (killOwners(tc, owners, tx.age, &tx, line))
        return; // All younger conflictors were killed; retry.

    // Some conflictor is older: stall until the entry changes (or
    // give up after a bounded spin and retry the barrier anyway).
    machine_.stats().inc("ustm.stalls");
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm, ProfPhase::Stall);
    const Addr head = otableFor(line).bucketAddr(line);
    std::uint64_t w0 = tc.load(head, 8);
    for (int i = 0; i < kStallPolls; ++i) {
        checkKill(tc);
        tc.advance(policy_.stallPoll);
        tc.yield();
        if (tc.load(head, 8) != w0)
            return;
    }
}

bool
Ustm::killOwners(ThreadContext &tc, std::uint64_t owners,
                 std::uint64_t my_age, TxDesc *me, LineAddr line)
{
    const ThreadId self = tc.id();

    struct Victim
    {
        ThreadId tid;
        std::uint64_t age;
    };
    Victim victims[kMaxThreads];
    int n_victims = 0;

    // Decide and mark atomically (no timed operations in between).
    std::uint64_t mask = owners;
    for (int o = 0; mask != 0; ++o, mask >>= 1) {
        if (!(mask & 1) || o == self)
            continue;
        TxDesc &ot = txs_[o];
        if (ot.status == TxDesc::Status::Active && my_age != 0 &&
            ot.age < my_age) {
            return false; // Older conflictor: the caller stalls.
        }
    }
    mask = owners;
    for (int o = 0; mask != 0; ++o, mask >>= 1) {
        if (!(mask & 1) || o == self)
            continue;
        TxDesc &ot = txs_[o];
        if (ot.status == TxDesc::Status::Active ||
            ot.status == TxDesc::Status::Retrying) {
            // A Retrying transaction is killable by anyone regardless
            // of age: the kill doubles as its wakeup (Section 6).
            ot.killedAge = ot.age;
            ot.killerTid = me ? self : -1;
            ot.killerAge = me ? me->age : 0;
            ot.aggrSite = tc.currentSite();
            ot.aggrLine = line;
            victims[n_victims++] = {static_cast<ThreadId>(o), ot.age};
            machine_.stats().inc(
                ot.status == TxDesc::Status::Retrying
                    ? "ustm.retry_wakeups"
                    : "ustm.kills");
        } else if (ot.status == TxDesc::Status::Aborting ||
                   ot.status == TxDesc::Status::Committing) {
            victims[n_victims++] = {static_cast<ThreadId>(o), ot.age};
        }
    }

    // Blocking STM: wait for each victim to unwind itself before
    // touching the otable again (Section 4.1).
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm, ProfPhase::Stall);
    for (int i = 0; i < n_victims; ++i) {
        TxDesc &ot = txs_[victims[i].tid];
        long spins = 0;
        while (ot.age == victims[i].age &&
               ot.status != TxDesc::Status::Inactive) {
            if (me)
                checkKill(tc); // We may be killed while waiting.
            tc.advance(policy_.stallPoll);
            tc.yield();
            if (++spins > kWaitSanityBound)
                utm_panic("victim-unwind wait did not terminate");
        }
    }
    return true;
}

void
Ustm::releaseAll(ThreadContext &tc, TxDesc &tx)
{
    // Cross-shard commit/abort protocol: drain ownership shard by
    // shard in canonical (ascending) shard-index order, preserving
    // acquisition order within a shard.  Together with the svc
    // layer's canonical-order acquisition this keeps cross-shard
    // lock/release traffic deadlock-free, and the otable↔UFO lockstep
    // invariant holds per shard throughout the drain (each entry is
    // released under its own row lock, exactly as in the single-shard
    // protocol).  Host-side sort: costs no simulated cycles, and is a
    // no-op for single-shard configs.
    if (sharded_) {
        std::stable_sort(tx.owned.begin(), tx.owned.end(),
                         [this](const TxDesc::Owned &a,
                                const TxDesc::Owned &b) {
                             return shardOf(a.line) < shardOf(b.line);
                         });
    }
    for (const auto &o : tx.owned)
        releaseEntry(tc, tx, o);
    tx.owned.clear();
    tx.ownedIndex.clear();
}

void
Ustm::releaseEntry(ThreadContext &tc, TxDesc &tx,
                   const TxDesc::Owned &o)
{
    (void)tx;
    const ThreadId self = tc.id();
    const std::uint64_t my_bit = 1ull << self;
    Otable &ot = otableFor(o.line);
    const Addr head = ot.bucketAddr(o.line);
    // Stall-injection hook: pretend the row lock is perpetually
    // contended, reproducing the ReleaseStarvation livelock's steady
    // state (see UstmPolicy::testOnlyStarveReleaseEntry).
    const std::uint64_t w0 =
        waitRowLock(tc, o.line, head, policy_.testOnlyStarveReleaseEntry);

    if (o.entry == head) {
        utm_assert(Otable::used(w0) &&
                   Otable::tag(w0) == Otable::tagOf(o.line));
        std::uint64_t owners = ownersOf(tc, head, w0) & ~my_bit;
        if (owners == 0) {
            clearUfo(tc, o.line);
            tc.store(head, Otable::hasChain(w0) ? Otable::kHasChain : 0,
                     8);
        } else {
            utm_assert(!Otable::writeState(w0));
            tc.store(head + 8, owners, 8);
            tc.store(head, (w0 | Otable::kMulti) & ~Otable::kLock, 8);
        }
        return;
    }

    // Chain node: find its predecessor pointer.
    Addr prev_ptr = head + 16;
    Addr node = tc.load(prev_ptr, 8);
    while (node != 0 && node != o.entry) {
        prev_ptr = node + 16;
        node = tc.load(prev_ptr, 8);
    }
    utm_assert(node == o.entry);
    std::uint64_t nw0 = tc.load(node, 8);
    std::uint64_t owners = ownersOf(tc, node, nw0) & ~my_bit;
    if (owners == 0) {
        clearUfo(tc, o.line);
        Addr next = tc.load(node + 16, 8);
        tc.store(prev_ptr, next, 8);
        ot.freeNode(node);
        Addr first = tc.load(head + 16, 8);
        std::uint64_t neww0 = w0;
        if (first == 0)
            neww0 &= ~Otable::kHasChain;
        tc.store(head, neww0 & ~Otable::kLock, 8);
    } else {
        utm_assert(!Otable::writeState(nw0));
        tc.store(node + 8, owners, 8);
        if (!Otable::multi(nw0))
            tc.store(node, nw0 | Otable::kMulti, 8);
        tc.store(head, w0 & ~Otable::kLock, 8);
    }
}

void
Ustm::downgradeEntry(ThreadContext &tc, TxDesc::Owned &o)
{
    utm_assert(o.write);
    const Addr head = otableFor(o.line).bucketAddr(o.line);
    const std::uint64_t w0 = waitRowLock(tc, o.line, head);
    if (o.entry == head) {
        utm_assert(Otable::writeState(w0));
        if (strong_)
            tc.setUfoBits(o.line, kUfoWriteOnly);
        tc.store(head, w0 & ~(Otable::kWrite | Otable::kLock), 8);
    } else {
        std::uint64_t nw0 = tc.load(o.entry, 8);
        utm_assert(Otable::writeState(nw0));
        tc.store(o.entry, nw0 & ~Otable::kWrite, 8);
        if (strong_)
            tc.setUfoBits(o.line, kUfoWriteOnly);
        tc.store(head, w0 & ~Otable::kLock, 8);
    }
    o.write = false;
}

void
Ustm::txRetryWait(ThreadContext &tc)
{
    TxDesc &tx = txs_[tc.id()];
    utm_assert(tx.status == TxDesc::Status::Active);
    utm_assert(tx.depth == 1); // retry composes via flattening only
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm,
                   ProfPhase::RetryWait);
    machine_.stats().inc("ustm.retries");
    UTM_TRACE_EVENT(machine_, tc, TraceEvent::TxRetry,
                    TracePath::Software, AbortReason::None);

    // Undo speculative writes, then convert write ownership to read
    // ownership so future writers conflict with (and thereby wake)
    // us.
    for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it)
        tc.store(it->addr, it->old, it->size);
    tx.undo.clear();
    for (auto &o : tx.owned) {
        if (o.write)
            downgradeEntry(tc, o);
    }

    setStatus(tx, TxDesc::Status::Retrying);
    long spins = 0;
    while (tx.killedAge == 0 || tx.killedAge != tx.age) {
        tc.advance(policy_.stallPoll);
        tc.yield();
        if (++spins > kWaitSanityBound)
            utm_panic("txRetryWait never woken (lost wakeup?)");
    }
    // Woken: unwind (releases remaining read ownership) and let the
    // retry loop re-execute the body.
    setStatus(tx, TxDesc::Status::Active);
    unwindAbort(tc, tx, "retry_wakeup");
}

void
Ustm::unwindAbort(ThreadContext &tc, TxDesc &tx, const char *why)
{
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm,
                   ProfPhase::AbortUnwind);
    setStatus(tx, TxDesc::Status::Aborting);
    machine_.stats().inc("ustm.aborts");
    machine_.stats().inc(std::string("ustm.aborts.") + why);
    // Telemetry edge, victim-side, for genuine conflict kills only
    // (retry_wakeup is a cooperative wakeup, not a conflict) — keeps
    // conflict.edges.ustm a lower bound on ustm.aborts.
    if (machine_.telemetry().enabled() &&
        std::strcmp(why, "killed") == 0) {
        ConflictEdge e;
        e.aggressor = tx.killerTid;
        e.aggressorSite = tx.aggrSite;
        e.victim = tc.id();
        e.victimSite = tc.currentSite();
        e.line = tx.aggrLine;
        machine_.telemetry().recordConflictEdge("ustm", e);
    }
    UTM_TRACE_EVENT(machine_, tc, TraceEvent::TxAbort,
                    TracePath::Software, AbortReason::Conflict);
    // Eager versioning: restore logged values, newest first, before
    // releasing write ownership.
    for (auto it = tx.undo.rbegin(); it != tx.undo.rend(); ++it)
        tc.store(it->addr, it->old, it->size);
    releaseAll(tc, tx);
    tx.undo.clear();
    setStatus(tx, TxDesc::Status::Inactive);
    tx.depth = 0;
    tx.killedAge = 0;
    if (strong_)
        tc.enableUfo();
    tc.advance(kAbortPenalty);
    throw UstmAbortException{};
}

std::uint64_t
Ustm::peekOwners(LineAddr line) const
{
    return peekEntry(line).owners;
}

Ustm::PeekedEntry
Ustm::peekEntry(LineAddr line) const
{
    const SimMemory &mem = machine_.memory();
    const auto read = [&mem](Addr a) { return mem.read(a, 8); };
    const Otable::Entry e = otableFor(line).find(line, read);
    const bool locked = Otable::locked(e.head);
    if (e.addr == 0)
        return {false, false, 0, locked};
    return {true, Otable::writeState(e.w0),
            Otable::owners(e.addr, e.w0, read), locked};
}

bool
Ustm::anyOwnerRetrying(std::uint64_t owners) const
{
    for (int o = 0; owners != 0; ++o, owners >>= 1)
        if ((owners & 1) &&
            txs_[o].status == TxDesc::Status::Retrying)
            return true;
    return false;
}

bool
Ustm::verifyOracleInvariants(std::string *why) const
{
    if (!undoLogsBalanced(why))
        return false;
    if (!strong_)
        return true;
    const LockstepInputs in = lockstepInputs();
    if (lockstepPassed_ == in)
        return true; // Nothing the scan reads changed since it passed.
    if (!lockstepHolds(why))
        return false;
    lockstepPassed_ = in;
    return true;
}

bool
Ustm::verifyOracleInvariantsFull(std::string *why) const
{
    return undoLogsBalanced(why) && (!strong_ || lockstepHolds(why));
}

Ustm::LockstepInputs
Ustm::lockstepInputs() const
{
    // The shards sit back to back in ascending address order.
    const SimMemory &mem = machine_.memory();
    std::uint64_t writes = 0;
    for (Addr page = otables_.front().base() & ~(SimMemory::kPageSize - 1);
         page < otables_.back().end(); page += SimMemory::kPageSize)
        writes += mem.pageWrites(page);
    return {writes, mem.ufoChanges(), descChanges_};
}

bool
Ustm::undoLogsBalanced(std::string *why) const
{
    // Outside a transaction (and while parked in txRetryWait, which
    // restores before parking) the undo log must be empty, and a
    // quiescent descriptor must hold no ownership.
    for (ThreadId t = 0; t < machine_.numThreads(); ++t) {
        const TxDesc &tx = txs_[t];
        if (tx.status == TxDesc::Status::Inactive &&
            (!tx.undo.empty() || !tx.owned.empty() || tx.depth != 0)) {
            return violation(why,
                             "thread %d inactive but undo=%zu owned=%zu "
                             "depth=%d",
                             t, tx.undo.size(), tx.owned.size(), tx.depth);
        }
        if (tx.status == TxDesc::Status::Retrying && !tx.undo.empty()) {
            return violation(why,
                             "thread %d parked in retry with %zu "
                             "unrestored undo records",
                             t, tx.undo.size());
        }
    }
    return true;
}

bool
Ustm::lockstepHolds(std::string *why) const
{
    const SimMemory &mem = machine_.memory();

    // Direction 1: every owned, published (row unlocked) otable entry
    // has the protection bits Algorithm 2 installed with it —
    // fault-on-read+write for write ownership, fault-on-write for read
    // ownership.
    for (ThreadId t = 0; t < machine_.numThreads(); ++t) {
        const TxDesc &tx = txs_[t];
        if (tx.status == TxDesc::Status::Inactive)
            continue;
        for (const auto &o : tx.owned) {
            PeekedEntry e = peekEntry(o.line);
            if (e.locked)
                continue; // Mid-update under the Algorithm 2 row lock.
            if (!e.found || !(e.owners & (1ull << t)))
                continue; // Already released (mid-releaseAll).
            if (anyOwnerRetrying(e.owners))
                continue; // BTM Section 6 may have spec-cleared bits.
            UfoBits expect = e.write ? kUfoBoth : kUfoWriteOnly;
            UfoBits got = mem.ufoBits(o.line);
            if (!(got == expect)) {
                return violation(why,
                                 "line 0x%llx: otable %s-owned (thread "
                                 "%d) but UFO bits are {r=%d,w=%d}",
                                 (unsigned long long)o.line,
                                 e.write ? "write" : "read", t,
                                 got.faultOnRead, got.faultOnWrite);
            }
        }
    }

    // Direction 2: every line with UFO protection has a matching
    // published otable entry.  forEachUfoLine walks lines in ascending
    // order, so the first violation is the lowest line.
    bool ok = true;
    mem.forEachUfoLine([&](LineAddr line, UfoBits bits) {
        PeekedEntry e = peekEntry(line);
        if (e.locked)
            return true;
        const char *what = nullptr;
        if (!e.found || e.owners == 0) {
            what = "no otable owner";
        } else if (!anyOwnerRetrying(e.owners)) {
            UfoBits expect = e.write ? kUfoBoth : kUfoWriteOnly;
            if (!(bits == expect))
                what = "an otable entry of the other ownership kind";
        }
        if (!what)
            return true;
        ok = violation(why, "line 0x%llx: UFO bits {r=%d,w=%d} but %s",
                       (unsigned long long)line, bits.faultOnRead,
                       bits.faultOnWrite, what);
        return false;
    });
    return ok;
}

bool
Ustm::lineBusy(LineAddr line) const
{
    for (ThreadId t = 0; t < machine_.numThreads(); ++t) {
        const TxDesc &tx = txs_[t];
        if (tx.status == TxDesc::Status::Inactive)
            continue;
        if (tx.ownedIndex.count(line))
            return true;
        for (const auto &u : tx.undo)
            if (lineOf(u.addr) == line)
                return true;
    }
    return false;
}

bool
Ustm::inspectForRetryers(ThreadContext &tc, LineAddr line,
                         std::vector<RetryWakeupHooks::Token> *tokens)
{
    tc.advance(30); // In-BTM handler execution cost.
    // A locked row is mid-update and must not be trusted: the
    // chain-insert and tombstone-reclaim paths of lockedAcquire()
    // install UFO protection *before* publishing the entry at unlock,
    // so "no owner" here may really be an about-to-be-published Active
    // owner.  Clearing the bits in that window would leave a published
    // entry unprotected (found by tmtorture; see
    // tests/test_tmtorture.cc InspectRowLockWindow).
    const PeekedEntry e = peekEntry(line);
    if (e.locked)
        return false;
    std::uint64_t owners = e.owners;
    if (owners == 0)
        return true; // Bits mid-release: safe to clear.
    for (int o = 0; owners != 0; ++o, owners >>= 1) {
        if (!(owners & 1))
            continue;
        TxDesc &ot = txs_[o];
        if (ot.status == TxDesc::Status::Retrying)
            tokens->emplace_back(static_cast<ThreadId>(o), ot.age);
        else if (ot.status != TxDesc::Status::Inactive)
            return false; // Live STM owner: a real conflict.
    }
    return true;
}

void
Ustm::wakeRetryers(const std::vector<RetryWakeupHooks::Token> &tokens)
{
    for (const auto &[tid, age] : tokens) {
        TxDesc &ot = txs_[tid];
        if (ot.status == TxDesc::Status::Retrying && ot.age == age) {
            ot.killedAge = ot.age;
            ot.killerTid = -1;
            machine_.stats().inc("ustm.retry_wakeups");
        }
    }
}

void
Ustm::nonTFaultHandler(ThreadContext &tc, Addr a, AccessType t)
{
    UTM_PROF_PHASE(machine_, tc, ProfComp::Ustm, ProfPhase::NonTx);
    const LineAddr line = lineOf(a);
    machine_.stats().inc("ustm.nont_faults");

    // Parked `retry` transactions never release on their own: wake
    // them first so the stall below terminates.
    std::uint64_t parked = peekOwners(line);
    for (int o = 0; parked != 0; ++o, parked >>= 1) {
        if ((parked & 1) &&
            txs_[o].status == TxDesc::Status::Retrying) {
            txs_[o].killedAge = txs_[o].age;
            txs_[o].killerTid = -1;
            machine_.stats().inc("ustm.retry_wakeups");
        }
    }

    if (policy_.nonTFault == UstmPolicy::NonTFault::Stall) {
        long spins = 0;
        for (;;) {
            tc.advance(policy_.stallPoll);
            tc.yield();
            if (!machine_.memory().ufoBits(line).faults(t))
                return;
            if (++spins > kWaitSanityBound)
                utm_panic("nonT UFO stall did not terminate");
        }
    }

    // AbortTx policy: look up the owners and kill them.
    const Otable::Entry e = otableFor(line).find(
        line, [&tc](Addr a) { return tc.load(a, 8); });
    const std::uint64_t owners = e.addr ? ownersOf(tc, e.addr, e.w0) : 0;
    if (owners == 0) {
        // Protection is mid-flight (insert or release in progress);
        // let the access retry.
        tc.advance(policy_.stallPoll);
        tc.yield();
        return;
    }
    killOwners(tc, owners, /*my_age=*/0, /*me=*/nullptr, line);
}

} // namespace utm
