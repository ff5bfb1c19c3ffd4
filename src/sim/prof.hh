/**
 * @file
 * Deterministic cycle-accounting profiler and contention attribution.
 *
 * The stats layer counts *events*; the paper's Section 5 claims are
 * about *cycles* — barrier overhead, commit cost, stall time.  The
 * profiler charges every simulated cycle of every worker thread to a
 * phase via scoped annotations (UTM_PROF_PHASE) placed in the TM
 * backends.  Attribution is exclusive: a cycle is charged to the
 * innermost open phase scope, and cycles outside any scope accrue to
 * the `app` residual, so for each thread
 *
 *     sum over phases(cycles) + app == thread total cycles
 *
 * holds exactly.  Aggregates are exported as
 * `prof.cycles.<component>.<phase>` counters and surfaced in the
 * stats-JSON `profile` section; per-thread breakdowns appear as
 * `per_thread[].phase_cycles`.
 *
 * The profiler is purely observational — it never advances simulated
 * time — so it cannot perturb an execution.
 *
 * This header also hosts the contention attribution: per-backend
 * Misra–Gries top-K hot-line tables (TopKTable, space-capped heavy
 * hitters over conflicting cache lines) and the otable chain-length /
 * row-lock-wait histograms, surfaced as the stats-JSON `contention`
 * section.
 */

#ifndef UFOTM_SIM_PROF_HH
#define UFOTM_SIM_PROF_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace utm {

class Machine;
class ThreadContext;

/** Which TM layer a phase scope belongs to. */
enum class ProfComp : std::uint8_t {
    Ustm,
    Btm,
    Tl2,
    HyTm,
    PhTm,
    Sle,
    Tm, ///< The hybrid dispatch layer (failover, retry backoff).
};
constexpr int kNumProfComps = 7;

/** What the thread is doing inside the scope. */
enum class ProfPhase : std::uint8_t {
    Begin,
    BarrierRead,
    BarrierWrite,
    Commit,
    AbortUnwind,
    Stall,
    Backoff,
    RetryWait,
    UfoHandler,
    OtableWalk,
    NonTx,
    Persist, ///< Durable-commit redo-log append + clwb/sfence drain.
};
constexpr int kNumProfPhases = 12;

const char *profCompName(ProfComp c);
const char *profPhaseName(ProfPhase p);

/** "<component>.<phase>" for a flattened slot index. */
std::string profSlotName(int slot);

/**
 * Per-thread phase-cycle accounting.
 *
 * Each thread carries a stack of open phase scopes and a low-water
 * mark (the thread-local cycle count at the last attribution event).
 * Every push/pop flushes the cycles since the mark to the scope that
 * was on top — or to the `app` residual when the stack is empty —
 * which makes attribution exclusive and the per-thread sum exact by
 * construction.
 */
class CycleProfiler
{
  public:
    static constexpr int kNumSlots = kNumProfComps * kNumProfPhases;
    static constexpr int kMaxDepth = 16;

    static constexpr int
    slot(ProfComp c, ProfPhase p)
    {
        return static_cast<int>(c) * kNumProfPhases +
               static_cast<int>(p);
    }

    /** Open a phase scope for thread @p t at thread-local time @p now. */
    void push(ThreadId t, Cycles now, ProfComp c, ProfPhase p);

    /** Close the innermost scope for thread @p t. */
    void pop(ThreadId t, Cycles now);

    /**
     * A thread's attribution with the pending span (cycles since the
     * last push/pop) charged, without mutating profiler state.  Safe
     * to call at any point; at @p now == the thread's final clock the
     * invariant sum(cycles) + app == total holds.
     */
    struct Snapshot
    {
        std::array<Cycles, kNumSlots> cycles{};
        Cycles app = 0;
    };
    Snapshot snapshot(ThreadId t, Cycles now) const;

    /**
     * Flush every worker thread at its final clock and export the
     * aggregate `prof.cycles.<component>.<phase>` (+ `prof.cycles.app`)
     * counters.  Called once by Machine::run() after the scheduler
     * loop drains.
     */
    void finalize(Machine &machine);

  private:
    struct PerThread
    {
        std::array<Cycles, kNumSlots> cycles{};
        Cycles app = 0;
        Cycles lastMark = 0;
        std::array<std::int8_t, kMaxDepth> stack{};
        int depth = 0;
    };

    /** Charge [lastMark, now) to the innermost scope (or app). */
    void flushTo(PerThread &pt, Cycles now);

    std::array<PerThread, kMaxThreads> threads_{};
};

/**
 * RAII phase scope; create via UTM_PROF_PHASE.  Exception-safe: TM
 * abort paths throw through these, and stack unwinding closes the
 * scopes in LIFO order, keeping attribution consistent.
 */
class ProfScope
{
  public:
    ProfScope(Machine &machine, ThreadContext &tc, ProfComp c,
              ProfPhase p);
    ~ProfScope();

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    CycleProfiler &prof_;
    ThreadContext &tc_;
};

#define UTM_PROF_CONCAT2(a, b) a##b
#define UTM_PROF_CONCAT(a, b) UTM_PROF_CONCAT2(a, b)
#define UTM_PROF_PHASE(machine, tc, comp, phase)                        \
    ::utm::ProfScope UTM_PROF_CONCAT(utm_prof_scope_, __LINE__)(        \
        (machine), (tc), (comp), (phase))

/**
 * Contention attribution owned by the Machine: per-backend hot-line
 * tables plus otable shape/wait histograms, exported as the
 * stats-JSON `contention` section.
 */
class ContentionTracker
{
  public:
    /** Hot-line table capacity, per backend. */
    static constexpr int kHotLines = 16;

    /** Lines observed at USTM conflict resolution (<= ustm.conflicts). */
    TopKTable &ustmHotLines() { return ustm_; }
    const TopKTable &ustmHotLines() const { return ustm_; }

    /** Lines observed at BTM wounds, one per btm.wounds. */
    TopKTable &btmHotLines() { return btm_; }
    const TopKTable &btmHotLines() const { return btm_; }

    /** Otable chain length after each chain insert (aliasing depth). */
    Histogram &chainLen() { return chainLen_; }
    const Histogram &chainLen() const { return chainLen_; }

    /** Cycles spent waiting on contended otable rows per barrier. */
    Histogram &rowLockWait() { return rowLockWait_; }
    const Histogram &rowLockWait() const { return rowLockWait_; }

  private:
    TopKTable ustm_{kHotLines};
    TopKTable btm_{kHotLines};
    Histogram chainLen_;
    Histogram rowLockWait_;
};

} // namespace utm

#endif // UFOTM_SIM_PROF_HH
