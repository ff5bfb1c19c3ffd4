/**
 * @file
 * The top-level simulated machine: memory hierarchy, cores/threads,
 * and the deterministic cooperative scheduler.
 *
 * Scheduling is delegated to a pluggable SchedulerPolicy
 * (sim/scheduler.hh).  The default, MinClock, always resumes the
 * unfinished thread with the smallest local clock (ties broken by
 * thread id); combined with the rule that every shared-memory access
 * is a single atomic event, this makes runs bit-reproducible for a
 * given seed.  Alternative policies (random-walk, PCT, max-clock,
 * round-robin) deliberately explore other interleavings — equally
 * deterministically — for the tmtorture harness, which also uses the
 * schedule record/replay and invariant-oracle hooks here.
 */

#ifndef UFOTM_SIM_MACHINE_HH
#define UFOTM_SIM_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/persist.hh"
#include "mem/sim_memory.hh"
#include "sim/config.hh"
#include "sim/prof.hh"
#include "sim/scheduler.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "sim/thread_context.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace utm {

class InvariantOracle;
class MemorySystem;

/** A simulated multicore machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg = MachineConfig{});
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    /**
     * Add a simulated thread; ids are assigned 0, 1, ... in call
     * order. All threads must be added before run().
     */
    ThreadContext &addThread(ThreadContext::Fn fn);

    /**
     * Run the scheduler until every thread's entry fn returns, an
     * oracle violation throws OracleViolation, or the crash step is
     * reached.  The scheduler counters are exported in all three.
     */
    void run();

    /**
     * Override the scheduling policy (default: built from
     * config().sched).  Must be called before run().
     */
    void setSchedulerPolicy(std::unique_ptr<SchedulerPolicy> policy);

    /** @name Schedule recording (tmtorture record/replay). @{ */
    void recordSchedule(bool on) { recording_ = on; }
    const ScheduleTrace &recordedSchedule() const { return schedule_; }
    /** @} */

    /**
     * @name Invariant oracles (sim/oracle.hh).
     *
     * Registered oracles are evaluated every @p interval scheduling
     * steps, at preemption points only; a failed check throws
     * OracleViolation out of run().  Oracles are borrowed, not owned.
     * @{
     */
    void addOracle(InvariantOracle *oracle) { oracles_.push_back(oracle); }
    void clearOracles() { oracles_.clear(); }
    void setOracleInterval(std::uint64_t interval)
    {
        oracleInterval_ = interval ? interval : 1;
    }
    /** @} */

    /**
     * @name Commit-publication hook.
     *
     * Every backend calls notifyCommitPoint() at its commit
     * linearization point — the moment an attempt's writes become
     * logically final (USTM: status ➔ Committing; BTM: past the doom
     * check, before clearing speculative state; TL2: after read-set
     * validation passes).  The torture harness uses this to publish
     * the attempt's pending writes into its shadow memory in commit
     * order.  No-op unless a hook is installed.
     * @{
     */
    void setCommitPublishHook(std::function<void(ThreadContext &)> fn)
    {
        commitPublish_ = std::move(fn);
    }

    void
    notifyCommitPoint(ThreadContext &tc)
    {
        // Durable runs stamp the commit timestamp first, so the
        // publish hook can read persist().lastCommitTs().
        if (persist_.active())
            persist_.assignCommitTs(tc.id());
        telemetry_.onCommit(tc.id());
        if (commitPublish_)
            commitPublish_(tc);
    }
    /** @} */

    /**
     * @name Crash injection (crash-torture harness).
     *
     * When armed, run() stops abruptly after the given scheduling
     * step: fibers are abandoned where they stand, no end-of-run
     * finalization happens, and crashed() reports true.  The only
     * state the harness may then trust is host-side — the recorded
     * schedule and the persistence domain's image.
     * @{
     */
    void setCrashStep(std::uint64_t step) { crashStep_ = step; }
    std::uint64_t crashStep() const { return crashStep_; }
    bool crashed() const { return crashed_; }
    /** @} */

    /** Scheduling steps taken so far (== shared-memory-event slices). */
    std::uint64_t schedSteps() const { return steps_; }

    /**
     * A context for untimed-ish setup/verification performed outside
     * the scheduler (tests, workload result checking).  It shares the
     * machine's memory system but never yields.
     */
    ThreadContext &initContext();

    /** Global transaction begin-sequence counter (age-based CM). */
    std::uint64_t nextTxSeq() { return txSeq_++; }

    const MachineConfig &config() const { return cfg_; }
    SimMemory &memory() { return mem_; }
    MemorySystem &memsys() { return *msys_; }
    PersistDomain &persist() { return persist_; }
    const PersistDomain &persist() const { return persist_; }
    StatsRegistry &stats() { return stats_; }
    TxTracer &tracer() { return tracer_; }
    CycleProfiler &profiler() { return prof_; }
    ContentionTracker &contention() { return contention_; }
    TelemetryBus &telemetry() { return telemetry_; }

    int numThreads() const { return static_cast<int>(threads_.size()); }
    ThreadContext &thread(ThreadId t) { return *threads_.at(t); }

    /** Completion time: max final clock across worker threads. */
    Cycles completionTime() const;

  private:
    void runOracles();
    /** Export sched.*, the policy's run-end counters and
     *  torture.oracle_checks (also for a run cut by an oracle
     *  violation or an injected crash). */
    void exportSchedCounters();

    MachineConfig cfg_;
    SimMemory mem_;
    StatsRegistry stats_;
    TxTracer tracer_;
    CycleProfiler prof_;
    ContentionTracker contention_;
    TelemetryBus telemetry_;
    PersistDomain persist_;
    std::unique_ptr<MemorySystem> msys_;
    std::vector<std::unique_ptr<ThreadContext>> threads_;
    std::unique_ptr<ThreadContext> initCtx_;
    std::unique_ptr<SchedulerPolicy> sched_;
    ScheduleTrace schedule_;
    std::vector<InvariantOracle *> oracles_;
    std::function<void(ThreadContext &)> commitPublish_;
    std::uint64_t oracleInterval_ = 1;
    std::uint64_t oracleChecks_ = 0;
    std::uint64_t steps_ = 0;
    std::uint64_t preemptions_ = 0;
    ThreadId lastPick_ = -1;
    std::uint64_t txSeq_ = 1;
    std::uint64_t crashStep_ = 0;
    bool crashed_ = false;
    bool recording_ = false;
    bool running_ = false;
};

} // namespace utm

#endif // UFOTM_SIM_MACHINE_HH
