#include "hybrid/hytm.hh"

#include "sim/machine.hh"

namespace utm {

HyTm::HyTm(Machine &machine, const TmPolicy &policy)
    : HybridTmBase(TxSystemKind::HyTm, machine, policy,
                   /*strong_atomic_stm=*/false,
                   /*explicit_means_conflict=*/true)
{
}

void
HyTm::hwBarrier(ThreadContext &tc, LineAddr line, bool is_write)
{
    UTM_PROF_PHASE(machine_, tc, ProfComp::HyTm,
                   ProfPhase::OtableWalk);
    BarrierMemo &memo = checked_[tc.id()];
    const std::uint64_t age = btm(tc).txAge();
    if (memo.age != age) {
        memo.age = age;
        memo.lines.clear();
    }
    const int need = is_write ? 2 : 1;
    auto mit = memo.lines.find(line);
    if (mit != memo.lines.end() && mit->second >= need)
        return; // Redundant barrier eliminated.

    // Transactional reads: the otable words join this hardware
    // transaction's read set.  A locked row has a mutation in flight:
    // be conservative.
    const Otable::Entry e = ustm_->otableFor(line).find(
        line, [&tc](Addr a) { return tc.load(a, 8); },
        /*stop_at_lock=*/true);
    if (Otable::locked(e.head) ||
        (e.addr != 0 && (is_write || Otable::writeState(e.w0)))) {
        machine_.stats().inc("hytm.barrier_conflicts");
        btm(tc).txAbort(); // throws Explicit; handler retries in HW
    }
    memo.lines[line] = need;
}

std::uint64_t
HyTm::htmRead(ThreadContext &tc, Addr a, unsigned size)
{
    hwBarrier(tc, lineOf(a), /*is_write=*/false);
    return tc.load(a, size);
}

void
HyTm::htmWrite(ThreadContext &tc, Addr a, std::uint64_t v, unsigned size)
{
    hwBarrier(tc, lineOf(a), /*is_write=*/true);
    tc.store(a, v, size);
}

} // namespace utm
