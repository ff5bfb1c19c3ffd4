/**
 * @file
 * tmtorture: schedule-exploration torture harness.
 *
 * One torture run builds a Machine with a chosen SchedulerPolicy,
 * spins up a randomized multi-threaded workload — either over a small
 * array of contended cells, or over the tmserve KV store (skewed
 * GET/PUT/RMW/SCAN plus raw non-transactional GETs; src/svc) — and
 * checks invariant oracles at every preemption point:
 *
 *  - "shadow-memory": strong atomicity against a sequential shadow.
 *    Each transaction records the (cell, value) pairs it writes; the
 *    Machine commit-publication hook flushes them into a host-side
 *    shadow array at the backend's commit linearization point, i.e.
 *    in commit order.  At every preemption point each cell must equal
 *    its shadow value unless the backend declares the line busy
 *    (speculative writer, eager in-flight writes, commit write-back,
 *    abort unwind) via TxSystem::oracleLineBusy().
 *  - "backend-invariants": TxSystem::oracleInvariantsHold() — the
 *    USTM otable<->UFO-bit lockstep invariant, undo-log balance, BTM
 *    idle-state cleanliness, TL2 write-set consistency.
 *  - "raw-read" (Kv workload, strongly-atomic backends only): every
 *    raw GET must return a value that was committed for that key at
 *    some point — a non-transactional read observing a speculative
 *    (never-committed) value is exactly a strong-atomicity hole.
 *
 * A failing run throws OracleViolation out of Machine::run(); the
 * recorded ScheduleTrace replays it bit-identically, and
 * minimizeSchedule() greedily shrinks it while preserving the failure.
 */

#ifndef UFOTM_TORTURE_TORTURE_HH
#define UFOTM_TORTURE_TORTURE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/tx_system.hh"
#include "sim/scheduler.hh"
#include "sim/types.hh"

namespace utm::torture {

/** Which data structure + op mix the torture run drives. */
enum class TortureWorkload
{
    Cells, ///< Randomized ops over a contended cell array (default).
    Kv,    ///< The tmserve KV store: skewed GET/PUT/RMW/SCAN + raw GETs.
};

const char *tortureWorkloadName(TortureWorkload w);

/** Parameters of one torture run. */
struct TortureConfig
{
    TxSystemKind kind = TxSystemKind::UfoHybrid;
    TortureWorkload workload = TortureWorkload::Cells;

    /**
     * TM policy for the backend under test.  Defaults preserve the
     * historical torture behaviour; enable policy.predictor to torture
     * the adaptive path predictor under adversarial schedules (ops
     * carry per-op-class transaction sites).
     */
    TmPolicy policy;
    int threads = 4;      ///< Forced to 1 for NoTm (no concurrency control).
    int opsPerThread = 60;
    int cells = 48;       ///< 8-byte cells, line-aligned base: ~6 hot lines.
    std::uint64_t seed = 1;

    /** @name Kv-workload shape (ignored for Cells). @{ */
    std::uint64_t kvKeyspace = 24; ///< Keys 1..keyspace, fixed at setup.
    std::uint64_t kvBuckets = 8;   ///< TxMap buckets: short, shared chains.
    double kvTheta = 0.6;          ///< Zipfian skew of key choice.
    int kvRawPct = 20;             ///< Percent of ops that are raw GETs.
    /**
     * Store shards (also forced onto the machine's otableShards).
     * With > 1 the op mix adds two-key transfers — the cross-shard
     * transactions whose canonical-order acquisition the sharded
     * commit protocol relies on — while every oracle (shadow,
     * backend invariants incl. per-shard otable<->UFO lockstep and
     * undo-log balance, raw reads) stays armed.
     */
    unsigned kvShards = 1;
    /**
     * Coalesce consecutive batchable ops (single-key GET/SCAN and
     * PUT/RMW runs with the same verb class and home shard) into one
     * transaction via svc::Coalescer, the tmserve request-coalescing
     * machinery — multi-member footprints, split-on-abort
     * re-execution, and adaptive K (ceiling kvBatchMax) all under
     * adversarial schedules, with every oracle still armed.  The
     * fiber is the same either way: raw GETs, forced-software ops,
     * transfers — and, with this off, every op — run alone at their
     * op-class site.
     */
    bool kvBatch = false;
    static constexpr unsigned kvBatchMax = 4; ///< Coalescer K ceiling.
    /** @} */

    /**
     * Otable buckets for the machine.  Deliberately tiny (vs. the
     * 65536 default) so distinct hot lines collide in buckets and the
     * USTM chain-insert / tombstone-reclaim paths get exercised under
     * adversarial schedules.
     */
    unsigned otableBuckets = 4;

    /** Scheduling policy + knobs (ignored when @p replay is set). */
    SchedulerConfig sched;

    /** Record the schedule (always on when @p replay is set). */
    bool record = false;

    /** Replay this trace instead of running @p sched. Borrowed. */
    const ScheduleTrace *replay = nullptr;

    /**
     * Durable crash injection: abandon the run after this many
     * scheduling steps (Machine::setCrashStep), leaving only the
     * persistent image behind.  0 = no crash.  Meaningful only with
     * policy.durable on a durable-capable backend; use
     * runCrashTorture() for the full crash-recover-check cycle.
     */
    std::uint64_t crashStep = 0;

    std::uint64_t oracleInterval = 1;
    bool oraclesEnabled = true;

    /**
     * Mutation self-test: disable Ustm::installUfo via the test-only
     * hook, deliberately breaking otable<->UFO lockstep.  Only
     * meaningful for systems with a strongly-atomic USTM (ufo-hybrid,
     * ustm-ufo); the harness must then report a
     * "backend-invariants" violation.
     */
    bool injectLockstepBug = false;

    /** @name Timeline telemetry + stall watchdog (sim/telemetry.hh).
     * @{ */
    /** Enable the telemetry bus and return its `ufotm-timeline`
     *  document in TortureResult::timeline (captured even when the run
     *  is cut short by an oracle violation). */
    bool timeline = false;
    /** Window width in cycles; 0 = TelemetryConfig default. */
    Cycles timelineWindow = 0;
    /** Arm the "stall-watchdog" oracle: the run is reported violated
     *  when the telemetry watchdog flags a livelock/starvation
     *  episode.  Implies the telemetry bus (not timeline export). */
    bool watchdog = false;
    /** Watchdog threshold in consecutive commitless windows;
     *  0 = TelemetryConfig default. */
    unsigned watchdogWindows = 0;
    /** @} */
};

/** Outcome of one torture run. */
struct TortureResult
{
    bool violated = false; ///< An oracle threw during the run.
    std::string oracle;    ///< Failed oracle name (when violated).
    std::string why;       ///< Violation description.
    std::uint64_t violationStep = 0;

    bool crashed = false;  ///< The injected crash step was reached.
    bool validated = false; ///< End-of-run shadow equality (when !violated).
    std::uint64_t steps = 0;
    Cycles cycles = 0;
    std::uint64_t commits = 0;  ///< Total committed transactions.
    std::uint64_t rawReads = 0; ///< Non-transactional GETs issued (Kv).

    ScheduleTrace schedule; ///< Recorded schedule (when recording).
    std::map<std::string, std::uint64_t> stats; ///< Final counter map.
    std::string timeline; ///< ufotm-timeline doc (cfg.timeline only).

    bool ok() const { return !violated && validated; }
};

/**
 * Called with the built machine and backend once the workload is laid
 * out, before the harness registers its oracles: tests use it to add
 * oracles that run ahead of them at every checked step.
 */
using TortureSetupHook = std::function<void(Machine &, TxSystem &)>;

/** Run one torture configuration to completion (or first violation). */
TortureResult runTorture(const TortureConfig &cfg,
                         const TortureSetupHook &hook = {});

/**
 * Outcome of one crash-torture cycle: crash run, recovery, and the
 * prefix-consistency oracles.
 */
struct CrashTortureResult
{
    bool ok = false;       ///< Every crash-recovery oracle held.
    std::string why;       ///< First failed oracle (when !ok).

    std::uint64_t crashStep = 0;  ///< Injected crash step (in schedule).
    std::uint64_t probeSteps = 0; ///< Crash-free probe length (0: pinned).
    std::uint64_t crashSteps = 0; ///< Steps the crash run executed.

    std::uint64_t committedTx = 0; ///< Durable-write commits at crash.
    std::uint64_t fencedTx = 0;    ///< ... whose commit fence completed.
    std::uint64_t recoveredTx = 0; ///< Redo records recovery replayed.
    std::uint64_t discardedRecords = 0; ///< Torn tails truncated.

    std::string recoverJson; ///< The `ufotm-recover` report.
    /** @name The crash run's forensics, or the probe's when the
     *  probe itself failed (then the schedule is crash-free).  @{ */
    ScheduleTrace schedule;  ///< Recorded schedule, crash step included.
    std::map<std::string, std::uint64_t> stats; ///< Final counters.
    std::string timeline; ///< ufotm-timeline doc (cfg.timeline).
    /** @} */
};

/**
 * One full crash-torture cycle on a durable backend:
 *
 *  1. Probe: run the configuration crash-free (all oracles armed) and
 *     derive a crash step from the seed, uniform over the schedule —
 *     unless @p crash_step pins one (or cfg.replay carries one).
 *  2. Crash: re-run with the crash injected; the machine is abandoned
 *     at that scheduling step and only the persistent image survives.
 *     The commit-publish hook records the committed history (commit
 *     timestamp + writes) and the fence-completed timestamp set.
 *  3. Recover: build a fresh machine, deterministically re-create the
 *     store layout, and dur::recover() from the surviving image.
 *  4. Check prefix consistency: fence-completed ⊆ recovered ⊆
 *     committed; per-key recovered writes form a prefix of that key's
 *     committed write sequence; the recovered state equals a replay of
 *     exactly the recovered subset; no UFO protection bit survives and
 *     the backend's otable↔UFO lockstep invariant holds on the
 *     recovered machine; recovering twice is byte-identical to once.
 *
 * Forces policy.durable and schedule recording; cfg.kind must be
 * durable-capable (core/tx_system.hh:txSystemKindDurable).
 */
CrashTortureResult runCrashTorture(const TortureConfig &cfg,
                                   std::uint64_t crash_step = 0);

/** Outcome of minimizeSchedule(). */
struct MinimizeResult
{
    ScheduleTrace schedule; ///< Smallest schedule still failing.
    bool reproduced = false;///< Original failure replayed at all.
    int runs = 0;           ///< Replay runs spent.
};

/**
 * Greedily shrink @p failing while the replay still violates oracle
 * @p oracle: first truncate everything after @p violation_step, then
 * repeatedly try dropping whole RLE blocks (back to front), keeping
 * each removal that preserves the failure.  Spends at most @p budget
 * replay runs.
 */
MinimizeResult minimizeSchedule(const TortureConfig &cfg,
                                const ScheduleTrace &failing,
                                const std::string &oracle,
                                std::uint64_t violation_step,
                                int budget = 200);

} // namespace utm::torture

#endif // UFOTM_TORTURE_TORTURE_HH
