/**
 * @file
 * Per-thread transaction event tracer.
 *
 * Every TM backend records begin/commit/abort-with-reason/retry/
 * failover/UFO-fault events here, cycle-stamped from the simulator
 * clock, through the UTM_TRACE_EVENT macro.  Each thread owns a
 * fixed-capacity ring buffer (oldest events are overwritten on wrap;
 * the drop count is kept), plus per-event-type counters that never
 * wrap — the counters feed the stats JSON `per_thread` section, the
 * rings feed the chrome://tracing exporter.
 *
 * Recording costs one branch plus array stores per transaction
 * event.
 */

#ifndef UFOTM_SIM_TRACE_HH
#define UFOTM_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/tm_iface.hh"
#include "sim/types.hh"

namespace utm {

/** The transaction lifecycle events the backends report. */
enum class TraceEvent : std::uint8_t
{
    TxBegin,  ///< Outermost attempt started (hardware or software).
    TxCommit, ///< Outermost attempt committed.
    TxAbort,  ///< Attempt aborted; `reason` says why.
    TxRetry,  ///< Transaction parked in retryWait.
    Failover, ///< Transaction moved to the software path.
    UfoFault, ///< A transactional access hit UFO protection.
};

constexpr int kNumTraceEvents = 6;

/** Stable snake_case event name (stats JSON / chrome trace). */
const char *traceEventName(TraceEvent e);

/** Which execution path the event happened on. */
enum class TracePath : std::uint8_t
{
    None,     ///< Not path-specific.
    Hardware, ///< BTM attempt.
    Software, ///< USTM/TL2 attempt.
};

const char *tracePathName(TracePath p);

/** One recorded event. */
struct TraceRecord
{
    Cycles cycle;
    TraceEvent event;
    TracePath path;
    AbortReason reason;
};

/** The machine-wide tracer (one ring per thread). */
class TxTracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    /** Per-thread ring capacity; 0 disables recording entirely.
     *  Existing rings are discarded. */
    void setCapacity(std::size_t n);
    std::size_t capacity() const { return capacity_; }

    void record(ThreadId t, Cycles cycle, TraceEvent e,
                TracePath path = TracePath::None,
                AbortReason reason = AbortReason::None);

    /** Retained events of thread @p t, oldest first. */
    std::vector<TraceRecord> snapshot(ThreadId t) const;
    /** Number of retained (not overwritten) events for @p t. */
    std::size_t size(ThreadId t) const;
    /** Events lost to ring wraparound for @p t. */
    std::uint64_t dropped(ThreadId t) const;

    /** @name Per-event-type counters (never wrap). @{ */
    std::uint64_t count(ThreadId t, TraceEvent e) const;
    std::uint64_t total(TraceEvent e) const;
    /** @} */

    /** Discard all recorded events and counters. */
    void clear();

    /**
     * Render every retained event as a chrome://tracing document
     * (JSON object format; load via chrome://tracing or Perfetto).
     * Begin/commit become duration slices, aborts close the slice and
     * add an instant marker, everything else is an instant event.
     */
    std::string dumpChromeTrace() const;

  private:
    struct PerThread
    {
        std::vector<TraceRecord> ring;
        std::size_t head = 0; ///< Next write index once full.
        std::uint64_t recorded = 0;
        std::array<std::uint64_t, kNumTraceEvents> counts{};
    };

    std::array<PerThread, kMaxThreads> threads_;
    std::size_t capacity_ = kDefaultCapacity;
};

} // namespace utm

/**
 * Record a transaction event on @p machine's tracer, stamped with
 * @p tc's local clock.
 */
#define UTM_TRACE_EVENT(machine, tc, ...)                              \
    ((machine).tracer().record((tc).id(), (tc).now(), __VA_ARGS__))

#endif // UFOTM_SIM_TRACE_HH
