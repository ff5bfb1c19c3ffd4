/**
 * @file
 * Windowed timeline telemetry bus + causal conflict forensics.
 *
 * The bus divides a run into fixed simulated-cycle windows and, at
 * every window boundary, snapshots the *delta* of every counter and
 * histogram in the machine's StatsRegistry against the previous
 * boundary — turning the end-of-run aggregates every other
 * observability surface reports into a time series (exported as the
 * `ufotm-timeline` v1 JSON document, docs/OBSERVABILITY.md).  On top
 * of the window clock it aggregates *conflict edges*: every conflict
 * detection point in ustm/btm/hybrid reports an aggressor→victim edge
 * carrying both transaction sites and the conflicting line, folded
 * into per-window Misra–Gries top-K hot-line and site×site matrices
 * (bounded memory, deterministic).  A stall watchdog rides the same
 * windows: N consecutive windows in which the whole machine commits
 * nothing — while some scheduled thread keeps aborting, or while
 * some thread sits parked inside atomic() — flag a livelock or
 * starvation episode, sticky for the rest of the run; the tmtorture
 * harness surfaces it as the "stall-watchdog" oracle.
 *
 * Everything here is host-side bookkeeping: no simulated cycles are
 * charged, no RNG is drawn, and with `TelemetryConfig::enabled` off
 * (the default) every hook is a single branch, so all existing
 * baselines stay byte-identical.
 */

#ifndef UFOTM_SIM_TELEMETRY_HH
#define UFOTM_SIM_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace utm {

class Machine;
class ThreadContext;

/** Timeline telemetry knobs (MachineConfig::telemetry). */
struct TelemetryConfig
{
    /** Master switch; off = every hook is a single branch. */
    bool enabled = false;

    /** Window width in simulated cycles. */
    Cycles windowCycles = 100000;

    /** Stall-watchdog threshold: consecutive commitless windows (per
     *  thread or machine-wide) before an episode is flagged.  The
     *  default is calibrated against the adversarial torture sweeps:
     *  under PCT a healthy run can spend >16 windows commit-free
     *  (backoff loops burn simulated cycles fast while a parked
     *  lock-holder waits for the next priority-change point), so the
     *  default sits at ~2-3x that worst observed healthy streak.
     *  Genuine livelocks are unbounded and hit any threshold. */
    unsigned watchdogWindows = 48;

    /** Misra–Gries slots for the per-window hot-line and site×site
     *  conflict tables. */
    int topK = 8;
};

/** One aborter→victim conflict edge (see recordConflictEdge()). */
struct ConflictEdge
{
    ThreadId aggressor = -1;
    TxSiteId aggressorSite = kTxSiteNone;
    ThreadId victim = -1;
    TxSiteId victimSite = kTxSiteNone;
    LineAddr line = 0;
};

/** The windowed telemetry sampler; one per Machine. */
class TelemetryBus
{
  public:
    /** Wire the bus to its machine; called once from the Machine
     *  constructor.  All hooks stay no-ops unless cfg.enabled. */
    void configure(Machine &machine, const TelemetryConfig &cfg);

    bool enabled() const { return enabled_; }

    /** @name Machine::run() hooks (hot path: one branch when off). @{ */
    void
    onStep(ThreadId tid, Cycles clock)
    {
        if (enabled_)
            step(tid, clock);
    }

    void
    onCommit(ThreadId tid)
    {
        if (enabled_ && tid >= 0 && tid < kMaxThreads)
            ++threadWindow_[tid].commits;
    }

    void
    onAbort(ThreadId tid)
    {
        if (enabled_ && tid >= 0 && tid < kMaxThreads)
            ++threadWindow_[tid].aborts;
    }
    /** @} */

    /**
     * Record one conflict edge from @p backend ("btm" or "ustm").
     * Called at the backend's conflict-detection point, on whichever
     * thread detects the conflict.
     */
    void recordConflictEdge(const char *backend, const ConflictEdge &e);

    /**
     * Record the hybrid's UFO-bit-trap edge: @p victim took a UFO
     * fault on @p line inside a hardware transaction and is aborting.
     * The aggressor — the software transaction owning the line — is
     * resolved through the owner-resolver hook; without a resolver (or
     * with no current owner) no edge is recorded, keeping edge counts
     * a lower bound on abort counts.
     */
    void onUfoTrapEdge(ThreadContext &victim, LineAddr line);

    /** @name Owner resolution (registered by Ustm::setup). @{ */
    using OwnerResolver =
        std::function<std::uint64_t(ThreadContext &, LineAddr)>;
    void setOwnerResolver(OwnerResolver fn) { ownerResolver_ = std::move(fn); }
    /** @} */

    /**
     * Close the final (partial) window, export the conflict./watchdog.
     * counters into the machine's StatsRegistry, and snapshot the
     * end-of-run totals.  Called at the end of Machine::run(); also
     * safe to call directly after an OracleViolation unwound run()
     * (the torture harness does, to capture the timeline of a failing
     * run).  Idempotent.
     */
    void finalize();

    /** @name Stall watchdog (sticky once flagged). @{ */
    bool stallFlagged() const { return stalled_; }
    const std::string &stallWhy() const { return stallWhy_; }
    /** @} */

    /** Render the `ufotm-timeline` v1 document. */
    std::string dumpJson() const;

  private:
    struct ThreadWindow
    {
        std::uint64_t steps = 0;
        std::uint64_t commits = 0;
        std::uint64_t aborts = 0;
    };

    struct HistSnapshot
    {
        std::uint64_t buckets[Histogram::kBuckets] = {};
        std::uint64_t samples = 0;
        std::uint64_t sum = 0;
    };

    struct HistDelta
    {
        std::uint64_t samples = 0;
        std::uint64_t sum = 0;
        std::uint64_t p50 = 0;
        std::uint64_t p90 = 0;
        std::uint64_t p99 = 0;
    };

    struct WindowRecord
    {
        std::uint64_t id = 0;
        std::map<std::string, std::uint64_t> counters; ///< deltas > 0
        std::map<std::string, HistDelta> hists; ///< delta samples > 0
        std::vector<std::pair<int, ThreadWindow>> threads;
        std::uint64_t edges = 0;
        std::uint64_t edgesBtm = 0;
        std::uint64_t edgesUstm = 0;
        std::vector<TopKTable::Entry> hotLines;
        std::vector<TopKTable::Entry> sitePairs;
        std::vector<int> starvedThreads; ///< streak hit threshold here
        bool globalStall = false;
    };

    void step(ThreadId tid, Cycles clock);
    /** Watchdog pass over the open window; fills the episode lists. */
    void evalWatchdog(WindowRecord *rec);
    /** Capture counter/histogram deltas and reset per-window state. */
    void captureWindow(WindowRecord *rec);
    void closeWindow();

    Machine *machine_ = nullptr;
    bool enabled_ = false;
    bool finalized_ = false;
    TelemetryConfig cfg_;

    std::uint64_t curWindow_ = 0;
    std::vector<WindowRecord> windows_;

    /** Full-counter snapshot at the last window boundary. */
    std::map<std::string, std::uint64_t> counterSnap_;
    std::map<std::string, HistSnapshot> histSnap_;
    std::map<std::string, std::uint64_t> totals_;

    ThreadWindow threadWindow_[kMaxThreads];
    unsigned starveStreak_[kMaxThreads] = {};
    unsigned globalStreak_ = 0;

    /** Open-window conflict state. */
    std::uint64_t winEdges_ = 0;
    std::uint64_t winEdgesBtm_ = 0;
    std::uint64_t winEdgesUstm_ = 0;
    TopKTable hotLines_;
    TopKTable sitePairs_;

    /** Run-cumulative edge totals (exported as conflict.*). */
    std::uint64_t edgesBtm_ = 0;
    std::uint64_t edgesUstm_ = 0;

    struct Episode
    {
        std::uint64_t window;
        int thread; ///< -1 for a machine-wide stall
    };
    std::vector<Episode> episodes_;
    bool stalled_ = false;
    std::string stallWhy_;

    OwnerResolver ownerResolver_;
};

} // namespace utm

#endif // UFOTM_SIM_TELEMETRY_HH
