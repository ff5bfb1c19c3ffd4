/**
 * @file
 * Cycle-accounting profiler implementation (see prof.hh).
 */

#include "sim/prof.hh"

#include "sim/logging.hh"
#include "sim/machine.hh"
#include "sim/thread_context.hh"

namespace utm {

const char *
profCompName(ProfComp c)
{
    switch (c) {
    case ProfComp::Ustm: return "ustm";
    case ProfComp::Btm: return "btm";
    case ProfComp::Tl2: return "tl2";
    case ProfComp::HyTm: return "hytm";
    case ProfComp::PhTm: return "phtm";
    case ProfComp::Sle: return "sle";
    case ProfComp::Tm: return "tm";
    }
    return "?";
}

const char *
profPhaseName(ProfPhase p)
{
    switch (p) {
    case ProfPhase::Begin: return "begin";
    case ProfPhase::BarrierRead: return "barrier_read";
    case ProfPhase::BarrierWrite: return "barrier_write";
    case ProfPhase::Commit: return "commit";
    case ProfPhase::AbortUnwind: return "abort_unwind";
    case ProfPhase::Stall: return "stall";
    case ProfPhase::Backoff: return "backoff";
    case ProfPhase::RetryWait: return "retry_wait";
    case ProfPhase::UfoHandler: return "ufo_handler";
    case ProfPhase::OtableWalk: return "otable_walk";
    case ProfPhase::NonTx: return "nontx";
    case ProfPhase::Persist: return "persist";
    }
    return "?";
}

std::string
profSlotName(int slot)
{
    const auto c = static_cast<ProfComp>(slot / kNumProfPhases);
    const auto p = static_cast<ProfPhase>(slot % kNumProfPhases);
    return std::string(profCompName(c)) + "." + profPhaseName(p);
}

void
CycleProfiler::flushTo(PerThread &pt, Cycles now)
{
    utm_assert(now >= pt.lastMark,
               "profiler: thread clock moved backwards");
    const Cycles d = now - pt.lastMark;
    if (d != 0) {
        if (pt.depth > 0)
            pt.cycles[pt.stack[pt.depth - 1]] += d;
        else
            pt.app += d;
    }
    pt.lastMark = now;
}

void
CycleProfiler::push(ThreadId t, Cycles now, ProfComp c, ProfPhase p)
{
    PerThread &pt = threads_[t];
    flushTo(pt, now);
    utm_assert(pt.depth < kMaxDepth, "profiler: phase stack overflow");
    pt.stack[pt.depth++] = static_cast<std::int8_t>(slot(c, p));
}

void
CycleProfiler::pop(ThreadId t, Cycles now)
{
    PerThread &pt = threads_[t];
    flushTo(pt, now);
    utm_assert(pt.depth > 0, "profiler: phase stack underflow");
    --pt.depth;
}

CycleProfiler::Snapshot
CycleProfiler::snapshot(ThreadId t, Cycles now) const
{
    const PerThread &pt = threads_[t];
    Snapshot s{pt.cycles, pt.app};
    if (now >= pt.lastMark) {
        const Cycles d = now - pt.lastMark;
        if (pt.depth > 0)
            s.cycles[pt.stack[pt.depth - 1]] += d;
        else
            s.app += d;
    }
    return s;
}

void
CycleProfiler::finalize(Machine &machine)
{
    std::array<Cycles, kNumSlots> agg{};
    Cycles app = 0;
    for (int t = 0; t < machine.numThreads(); ++t) {
        PerThread &pt = threads_[t];
        utm_assert(pt.depth == 0,
                   "profiler: phase scope still open at run end");
        flushTo(pt, machine.thread(t).now());
        for (int s = 0; s < kNumSlots; ++s)
            agg[s] += pt.cycles[s];
        app += pt.app;
    }
    StatsRegistry &stats = machine.stats();
    for (int s = 0; s < kNumSlots; ++s)
        if (agg[s] != 0)
            stats.set(std::string("prof.cycles.") + profSlotName(s),
                      agg[s]);
    if (app != 0)
        stats.set(std::string("prof.cycles.") + "app", app);
}

ProfScope::ProfScope(Machine &machine, ThreadContext &tc, ProfComp c,
                     ProfPhase p)
    : prof_(machine.profiler()), tc_(tc)
{
    prof_.push(tc.id(), tc.now(), c, p);
}

ProfScope::~ProfScope()
{
    prof_.pop(tc_.id(), tc_.now());
}

} // namespace utm
