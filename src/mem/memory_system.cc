#include "mem/memory_system.hh"

#include "sim/logging.hh"
#include "sim/machine.hh"
#include "sim/thread_context.hh"

namespace utm {

const char *
abortReasonName(AbortReason r)
{
    switch (r) {
      case AbortReason::None: return "none";
      case AbortReason::Conflict: return "conflict";
      case AbortReason::SetOverflow: return "set_overflow";
      case AbortReason::Explicit: return "explicit";
      case AbortReason::Interrupt: return "interrupt";
      case AbortReason::Exception: return "exception";
      case AbortReason::Syscall: return "syscall";
      case AbortReason::Io: return "io";
      case AbortReason::Uncacheable: return "uncacheable";
      case AbortReason::PageFault: return "page_fault";
      case AbortReason::NestingOverflow: return "nesting_overflow";
      case AbortReason::UfoFault: return "ufo_fault";
      case AbortReason::UfoBitSet: return "ufo_bit_set";
      case AbortReason::NonTConflict: return "nont_conflict";
    }
    return "unknown";
}

MemorySystem::MemorySystem(Machine &machine, const MachineConfig &cfg)
    : machine_(machine), cfg_(cfg), mem_(machine.memory())
{
    // One L1 per thread id in use: the worker cores (Machine::addThread
    // bounds ids by numCores) and the init context's reserved last
    // slot, so every ThreadContext has a cache.
    l1_.resize(kMaxThreads);
    for (int i = 0; i < cfg.numCores; ++i)
        l1_[i] = std::make_unique<Cache>(cfg.l1Sets, cfg.l1Ways);
    l1_[kMaxThreads - 1] = std::make_unique<Cache>(cfg.l1Sets, cfg.l1Ways);
    l2_ = std::make_unique<Cache>(cfg.l2Sets, cfg.l2Ways);
}

void
MemorySystem::setBtmClient(ThreadId t, BtmClient *c)
{
    utm_assert(t >= 0 && t < kMaxThreads);
    btm_[t] = c;
}

BtmClient *
MemorySystem::btmClient(ThreadId t) const
{
    utm_assert(t >= 0 && t < kMaxThreads);
    return btm_[t];
}

void
MemorySystem::setUfoFaultHandler(UfoFaultHandler h)
{
    ufoHandler_ = std::move(h);
}

void
MemorySystem::setRetryWakeupHooks(RetryWakeupHooks h)
{
    retryHooks_ = std::move(h);
}

std::uint64_t
MemorySystem::read(ThreadContext &tc, Addr a, unsigned size)
{
    return accessImpl(tc, a, AccessType::Read, size, 0, RmwKind::None, 0,
                      nullptr);
}

void
MemorySystem::write(ThreadContext &tc, Addr a, std::uint64_t v,
                    unsigned size)
{
    accessImpl(tc, a, AccessType::Write, size, v, RmwKind::None, 0,
               nullptr);
}

bool
MemorySystem::cas(ThreadContext &tc, Addr a, unsigned size,
                  std::uint64_t expect, std::uint64_t desired,
                  std::uint64_t *old_out)
{
    bool ok = false;
    std::uint64_t old = accessImpl(tc, a, AccessType::Write, size,
                                   desired, RmwKind::Cas, expect, &ok);
    if (old_out)
        *old_out = old;
    return ok;
}

std::uint64_t
MemorySystem::fetchAdd(ThreadContext &tc, Addr a, unsigned size,
                       std::uint64_t delta)
{
    return accessImpl(tc, a, AccessType::Write, size, delta,
                      RmwKind::FetchAdd, 0, nullptr);
}

std::uint64_t
MemorySystem::accessImpl(ThreadContext &tc, Addr a, AccessType t,
                         unsigned size, std::uint64_t wval, RmwKind rmw,
                         std::uint64_t rmw_expect, bool *rmw_success)
{
    const LineAddr line = lineOf(a);
    BtmClient *me = btm_[tc.id()];

    // Reschedule point BEFORE the event: lower-clock threads run
    // first, so events complete in simulated-timestamp order.
    tc.yield();

    for (;;) {
        // A durably-committing transaction is past its linearization
        // point: its redo-log accesses are non-speculative, cannot be
        // doomed, and must not page-fault (the domain pre-materializes
        // the log), so it is treated as non-transactional here.
        const bool in_tx = me && me->inTx() && !me->committing();
        if (in_tx) {
            if (me->doomed())
                me->takePendingAbort(); // throws
            if (!mem_.pageExists(a))
                me->onPageFault(a); // throws
        }
        // UFO protection check. In hardware this is performed at
        // retirement alongside the tag check; checking it before
        // coherence keeps contention management clean and changes no
        // observable TM behaviour (the access never completes either
        // way).
        if (tc.ufoEnabled()) {
            UfoBits bits = mem_.ufoBits(line);
            if (bits.faults(t)) {
                machine_.stats().inc("ufo.faults");
                if (in_tx) {
                    me->onUfoFault(a, t); // throws or stalls
                    continue;
                }
                if (!ufoHandler_) {
                    utm_panic("UFO fault at %#lx with no handler "
                              "registered",
                              static_cast<unsigned long>(a));
                }
                machine_.stats().inc("ufo.faults.nont");
                ufoHandler_(tc, a, t);
                continue;
            }
        }
        if (!resolveSpecConflicts(tc, line, t)) {
            machine_.stats().inc("btm.nacks");
            tc.advance(cfg_.nackRetryDelay);
            tc.yield();
            continue;
        }
        break;
    }

    chargeAccess(tc, line, t); // may throw (overflow, timer)

    if (me && me->inTx() && !me->committing())
        me->onTxAccess(a, size, t); // undo log + read/write sets

    // Functional completion: one atomic event.
    std::uint64_t result;
    switch (rmw) {
      case RmwKind::None:
        if (t == AccessType::Read) {
            result = mem_.read(a, size);
        } else {
            mem_.write(a, wval, size);
            result = wval;
        }
        break;
      case RmwKind::Cas: {
        std::uint64_t old = mem_.read(a, size);
        result = old;
        if (old == rmw_expect) {
            mem_.write(a, wval, size);
            *rmw_success = true;
        } else {
            *rmw_success = false;
        }
        break;
      }
      case RmwKind::FetchAdd: {
        std::uint64_t old = mem_.read(a, size);
        mem_.write(a, old + wval, size);
        result = old;
        break;
      }
      default:
        utm_panic("bad rmw kind");
    }
    if (t == AccessType::Write &&
        (rmw != RmwKind::Cas || *rmw_success))
        machine_.persist().markDirty(line);
    return result;
}

bool
MemorySystem::resolveSpecConflicts(ThreadContext &tc, LineAddr line,
                                   AccessType t)
{
    auto it = spec_.find(line);
    if (it == spec_.end())
        return true;

    const ThreadId self = tc.id();
    const std::uint64_t self_bit = 1ull << self;
    std::uint64_t victims = 0;
    if (t == AccessType::Write) {
        victims = it->second.readers;
        if (it->second.writer >= 0)
            victims |= 1ull << it->second.writer;
    } else if (it->second.writer >= 0) {
        victims = 1ull << it->second.writer;
    }
    victims &= ~self_bit;
    if (!victims)
        return true;

    BtmClient *me = btm_[self];
    const bool me_tx = me && me->inTx() && !me->committing();

    // Don't hold the iterator across wound() calls: wounding erases
    // spec-table entries.
    for (int v = 0; victims != 0; ++v, victims >>= 1) {
        if (!(victims & 1))
            continue;
        BtmClient *vc = btm_[v];
        utm_assert(vc && vc->inTx());
        // Durable-commit shield: a victim inside its redo-log fence
        // window is logically committed — wounding it would roll back
        // final writes.  NACK the requester; the window is short.
        if (vc->committing()) {
            machine_.stats().inc("dur.commit_shield_nacks");
            return false;
        }
        bool requester_wins;
        AbortReason reason;
        if (!me_tx) {
            // Non-transactional (or STM) requesters always win:
            // strong atomicity of the hardware TM.
            requester_wins = true;
            reason = AbortReason::NonTConflict;
        } else if (policy_.cm == BtmPolicy::Cm::RequesterWins) {
            requester_wins = true;
            reason = AbortReason::Conflict;
        } else {
            requester_wins = me->txAge() < vc->txAge();
            reason = AbortReason::Conflict;
        }
        if (requester_wins) {
            vc->wound(reason, self, line);
        } else {
            return false; // NACKed; retry after the delay.
        }
    }
    return true;
}

void
MemorySystem::invalidateOthers(LineAddr line, ThreadId self)
{
    std::uint64_t others = dir_.othersMask(line, self);
    for (int c = 0; others != 0; ++c, others >>= 1) {
        if (!(others & 1))
            continue;
        l1_[c]->invalidate(line);
        dir_.removeSharer(line, c);
    }
}

void
MemorySystem::chargeAccess(ThreadContext &tc, LineAddr line,
                           AccessType t)
{
    const ThreadId self = tc.id();
    Cache &l1 = *l1_[self];
    BtmClient *me = btm_[self];
    // Committing (fence-window) accesses are non-speculative: they may
    // evict speculative lines and never count toward the L1 bound.
    const bool in_tx = me && me->inTx() && !me->committing();
    StatsRegistry &stats = machine_.stats();

    Cycles lat = cfg_.l1HitLatency;
    Cache::Line *ln = l1.find(line);

    if (ln) {
        stats.inc("mem.l1_hits");
        if (t == AccessType::Write && !ln->excl) {
            // Upgrade: invalidate remote copies.
            if (dir_.othersMask(line, self) != 0)
                lat += cfg_.transferLatency / 2;
            invalidateOthers(line, self);
            ln->excl = true;
            dir_.setOwner(line, self);
        }
    } else {
        stats.inc("mem.l1_misses");
        // Fetch: dirty-remote transfer beats going to the L2.
        const Directory::Entry *de = dir_.find(line);
        const bool remote_dirty =
            de && de->owner >= 0 && de->owner != self;
        if (remote_dirty) {
            lat += cfg_.transferLatency;
            dir_.clearOwner(line);
            stats.inc("mem.cache_transfers");
            l2_->insert(line, true); // Writeback reaches the L2.
        } else if (l2_->find(line)) {
            lat += cfg_.l2HitLatency;
            l2_->touch(l2_->find(line));
            stats.inc("mem.l2_hits");
        } else {
            lat += cfg_.memLatency;
            stats.inc("mem.l2_misses");
            l2_->insert(line, true);
        }
        if (t == AccessType::Write)
            invalidateOthers(line, self);

        const bool allow_spec_evict = !in_tx || me->unbounded();
        Cache::InsertResult ins = l1.insert(line, allow_spec_evict);
        if (ins.overflowed) {
            utm_assert(in_tx);
            tc.advance(lat);
            me->onCapacityOverflow(line); // throws
        }
        if (ins.evicted) {
            dir_.removeSharer(ins.evictedAddr, self);
            if (ins.evictedDirty)
                l2_->insert(ins.evictedAddr, true);
        }
        ln = ins.line;
        if (t == AccessType::Write)
            dir_.setOwner(line, self);
        else
            dir_.addSharer(line, self);
    }

    if (t == AccessType::Write) {
        ln->excl = true;
        ln->dirty = true;
        dir_.setOwner(line, self);
    }
    if (in_tx)
        ln->spec = true;
    l1.touch(ln);
    tc.advance(lat); // may throw on a timer interrupt
}

void
MemorySystem::ufoSet(ThreadContext &tc, LineAddr line, UfoBits bits)
{
    utm_assert(lineOffset(line) == 0);
    BtmClient *me = btm_[tc.id()];
    utm_assert(!me || !me->inTx());
    machine_.stats().inc("ufo.bit_sets");
    tc.yield();

    // Durable-commit shield: a speculative owner inside its redo-log
    // fence window is logically committed and cannot be killed; wait
    // for its window to close (it only does bounded stores/clwbs, so
    // this terminates) before resolving the bit-set against it.
    for (;;) {
        bool commit_wait = false;
        auto sit = spec_.find(line);
        if (sit != spec_.end()) {
            std::uint64_t vmask = sit->second.readers;
            if (sit->second.writer >= 0)
                vmask |= 1ull << sit->second.writer;
            vmask &= ~(1ull << tc.id());
            for (int v = 0; vmask != 0; ++v, vmask >>= 1)
                if ((vmask & 1) && btm_[v] && btm_[v]->committing()) {
                    commit_wait = true;
                    break;
                }
        }
        if (!commit_wait)
            break;
        machine_.stats().inc("dur.commit_shield_waits");
        tc.advance(cfg_.nackRetryDelay);
        tc.yield();
    }

    // Exclusive coherence permission is required to keep the bits
    // coherent, so remote speculative copies are killed -- the
    // BTM/UFO false-sharing interaction of paper Section 4.3.
    auto it = spec_.find(line);
    if (it != spec_.end()) {
        std::uint64_t victims = it->second.readers;
        if (it->second.writer >= 0)
            victims |= 1ull << it->second.writer;
        victims &= ~(1ull << tc.id());
        for (int v = 0; victims != 0; ++v, victims >>= 1) {
            if (!(victims & 1))
                continue;
            BtmClient *vc = btm_[v];
            utm_assert(vc && vc->inTx());
            if (policy_.ufoSetTrueConflictOracle) {
                // Limit study: only kill on a true conflict. A reader
                // of the line conflicts only if the new bits fault
                // reads (i.e. an STM writer); a transactional writer
                // always conflicts. Clearing bits never conflicts.
                const bool true_conflict =
                    vc->wroteLine(line) ? bits.any() : bits.faultOnRead;
                if (!true_conflict) {
                    machine_.stats().inc("ufo.bit_set_false_spared");
                    continue;
                }
            }
            vc->wound(AbortReason::UfoBitSet, tc.id(), line);
        }
    }

    chargeAccess(tc, line, AccessType::Write);
    mem_.setUfoBits(line, bits);
}

void
MemorySystem::ufoAdd(ThreadContext &tc, LineAddr line, UfoBits bits)
{
    UfoBits merged = mem_.ufoBits(line);
    merged.faultOnRead |= bits.faultOnRead;
    merged.faultOnWrite |= bits.faultOnWrite;
    ufoSet(tc, line, merged);
}

UfoBits
MemorySystem::ufoRead(ThreadContext &tc, LineAddr line)
{
    tc.yield();
    chargeAccess(tc, line, AccessType::Read);
    return mem_.ufoBits(line);
}

void
MemorySystem::addSpecRead(ThreadId t, LineAddr line)
{
    spec_[line].readers |= 1ull << t;
}

void
MemorySystem::addSpecWrite(ThreadId t, LineAddr line)
{
    SpecEntry &e = spec_[line];
    utm_assert(e.writer < 0 || e.writer == t);
    e.writer = t;
    e.readers |= 1ull << t;
}

void
MemorySystem::clearSpec(ThreadId t, const std::vector<LineAddr> &reads,
                        const std::vector<LineAddr> &writes,
                        bool invalidate_writes)
{
    auto drop = [&](LineAddr line, bool wrote) {
        auto it = spec_.find(line);
        if (it == spec_.end())
            return;
        SpecEntry &e = it->second;
        e.readers &= ~(1ull << t);
        if (wrote && e.writer == t)
            e.writer = -1;
        if (e.readers == 0 && e.writer < 0)
            spec_.erase(it);
    };
    for (LineAddr line : reads)
        drop(line, false);
    for (LineAddr line : writes) {
        drop(line, true);
        if (invalidate_writes) {
            // The L1 copy held speculative data; discard it.
            l1_[t]->invalidate(line);
            dir_.removeSharer(line, t);
        }
    }
    l1_[t]->clearAllSpec();
}

bool
MemorySystem::lineHasSpecWriter(LineAddr line) const
{
    auto it = spec_.find(line);
    return it != spec_.end() && it->second.writer >= 0;
}

std::uint64_t
MemorySystem::specReaders(LineAddr line) const
{
    auto it = spec_.find(line);
    return it == spec_.end() ? 0 : it->second.readers;
}

} // namespace utm
