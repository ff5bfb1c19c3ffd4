/**
 * @file
 * Public transactional-memory API.
 *
 * A TxSystem wraps one of the paper's TM configurations around a
 * simulated Machine.  Workload code runs transactions with:
 *
 *   auto sys = TxSystem::create(TxSystemKind::UfoHybrid, machine);
 *   sys->setup();                       // once, before machine.run()
 *   ...inside a simulated thread...
 *   sys->atomic(tc, [&](TxHandle &h) {
 *       std::uint64_t v = h.read<std::uint64_t>(addr);
 *       h.write<std::uint64_t>(addr, v + 1);
 *   });
 *
 * The body may be re-executed after aborts, so it must only mutate
 * simulated memory through the handle (plus idempotent host-local
 * state).  TxHandle::read/write dispatch to the current execution
 * path: raw (no TM), hardware (BTM — zero instrumentation in the UFO
 * hybrid, otable-checking barriers in HyTM), or software (USTM/TL2
 * barriers).
 */

#ifndef UFOTM_CORE_TX_SYSTEM_HH
#define UFOTM_CORE_TX_SYSTEM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hybrid/policy.hh"
#include "sim/thread_context.hh"
#include "sim/types.hh"

namespace utm {

class Machine;
class TxSystem;
class Ustm;

/** The TM configurations evaluated in the paper (Section 5). */
enum class TxSystemKind
{
    NoTm,         ///< No concurrency control (sequential baseline).
    UnboundedHtm, ///< Idealized HTM without the L1 capacity bound.
    UfoHybrid,    ///< The paper's proposal (BTM + strongly-atomic USTM).
    HyTm,         ///< Hybrid with otable-checking hardware barriers.
    PhTm,         ///< Phased TM (HTM/STM phases exclude each other).
    Ustm,         ///< Pure USTM, weakly atomic.
    UstmStrong,   ///< Pure USTM with UFO strong atomicity.
    Tl2,          ///< TL2 baseline STM.
};

const char *txSystemKindName(TxSystemKind k);

/**
 * Does this configuration guarantee strong atomicity — i.e. are plain
 * (non-transactional) accesses isolated from in-flight transactions?
 * True for the paper's UFO-protected systems and for HTM-only
 * configurations (hardware transactions are invisible until commit);
 * false wherever an uninstrumented read can observe speculative STM
 * state (HyTM, PhTM, plain USTM, TL2).
 */
bool txSystemKindStronglyAtomic(TxSystemKind k);

/**
 * Can this configuration run with durable (redo-log) commits
 * (TmPolicy::durable, mem/persist.hh)?  True for every real TM
 * backend — their commits funnel through Ustm::txEnd (software) or
 * BtmUnit::txEnd (hardware), which host the redo-log append.  False
 * for NoTm (no commit point to anchor a record to) and TL2 (lazy
 * version-clock commit; out of scope for the durability study).
 */
bool txSystemKindDurable(TxSystemKind k);

/** Handle passed to a transaction body; routes accesses per path. */
class TxHandle
{
  public:
    enum class Path { Raw, Hardware, Software };

    Path path() const { return path_; }
    ThreadContext &ctx() { return *tc_; }

    std::uint64_t read(Addr a, unsigned size);
    void write(Addr a, std::uint64_t v, unsigned size);

    template <typename T>
    T
    read(Addr a)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        std::uint64_t raw = read(a, sizeof(T));
        T v;
        std::memcpy(&v, &raw, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(Addr a, T v)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        std::uint64_t raw = 0;
        std::memcpy(&raw, &v, sizeof(T));
        write(a, raw, sizeof(T));
    }

    /**
     * Force this transaction onto the software path (models
     * operations only the STM supports; also drives the Figure 7
     * forced-failover microbenchmark).  On systems with no software
     * path this is a no-op.
     */
    void requireSoftware();

    /**
     * Defer a side effect until this transaction commits (paper
     * Section 6: "deferring" is how most side-effecting operations —
     * output I/O, frees, notifications — become transaction-safe).
     * The action runs exactly once, after the commit, in registration
     * order; if the attempt aborts, the queue from that attempt is
     * discarded.
     */
    void onCommit(std::function<void(ThreadContext &)> action);

    /**
     * Register compensation to run if this transaction attempt
     * aborts (paper Section 6: "compensation code" for operations
     * that had to happen eagerly).  Discarded on commit.
     */
    void onAbort(std::function<void(ThreadContext &)> action);

    /**
     * Perform an (idempotent) system call inside the transaction
     * (paper Section 6: e.g. sbrk, gettimeofday).  Hardware
     * transactions cannot survive kernel entry, so on the hardware
     * path this aborts and the transaction fails over to software,
     * where the call is simply charged.
     */
    void
    syscall()
    {
        tc_->syscallMarker();
    }

    /** As syscall(), for I/O (deferred/compensated in the STM). */
    void
    io()
    {
        tc_->ioMarker();
    }

    /**
     * Transactional waiting (paper Section 6's `retry`): blocks until
     * another transaction writes something this transaction has read,
     * then re-executes the body from the start.  Never returns to the
     * caller.  On the hardware path this compiles to an explicit
     * abort that fails over to software, exactly as the paper
     * describes; only software (USTM-backed) systems support the wait
     * itself.
     */
    [[noreturn]] void retryWait();

  private:
    friend class TxSystem;
    TxHandle(TxSystem &sys, ThreadContext &tc, Path path)
        : sys_(&sys), tc_(&tc), path_(path)
    {
    }

    TxSystem *sys_;
    ThreadContext *tc_;
    Path path_;
};

/** Base class of every TM configuration. */
class TxSystem
{
  public:
    using Body = std::function<void(TxHandle &)>;

    /** Build a TM system of the given kind over @p machine. */
    static std::unique_ptr<TxSystem> create(TxSystemKind kind,
                                            Machine &machine,
                                            const TmPolicy &policy = {});

    virtual ~TxSystem() = default;

    /** One-time metadata setup (otable, counters); call before run(). */
    virtual void setup();

    /** Run @p body as one transaction on thread @p tc. */
    void
    atomic(ThreadContext &tc, const Body &body)
    {
        AtomicSiteGuard guard(tc, kTxSiteNone);
        atomicAt(tc, kTxSiteNone, body);
    }

    /**
     * As atomic(), tagged with a static transaction-site id
     * (sim/types.hh) for the adaptive path predictor
     * (src/hybrid/path_predictor.hh).  tmserve keys sites by request
     * verb (optionally by key-range bucket); systems without a
     * predictor — and any system with the predictor disabled, the
     * default — treat the site as inert metadata.
     */
    void
    atomic(ThreadContext &tc, TxSiteId site, const Body &body)
    {
        AtomicSiteGuard guard(tc, site);
        atomicAt(tc, site, body);
    }

    /** Implementation hook behind both atomic() overloads. */
    virtual void atomicAt(ThreadContext &tc, TxSiteId site,
                          const Body &body) = 0;

    /** The system's name; txSystemKindName(kind()) by default. */
    virtual const char *name() const;

    /**
     * Reason of the most recent hardware-path abort observed by
     * @p tc's BTM unit, or AbortReason::None on systems without a
     * hardware path.  Host-visible feedback for adaptive callers
     * (the tmserve coalescer shrinks its batch size on
     * conflict/capacity aborts); the value persists across the retry
     * that follows the abort, so a re-executed transaction body can
     * classify why its previous attempt died.
     */
    virtual AbortReason
    lastHwAbortReason(ThreadContext &tc) const
    {
        (void)tc;
        return AbortReason::None;
    }

    TxSystemKind kind() const { return kind_; }
    Machine &machine() { return machine_; }
    const TmPolicy &policy() const { return policy_; }

    /**
     * @name tmtorture oracle hooks (sim/oracle.hh).
     *
     * Functional machine-state predicates evaluated by the torture
     * harness at preemption points (no thread is mid-event).
     * @{
     */

    /** Backend-internal invariants (lockstep, undo balance, ...). */
    virtual bool oracleInvariantsHold(std::string *why) const;

    /**
     * May @p line legitimately differ from serially-committed state
     * right now (speculative writer, eager in-flight writes, commit
     * write-back, or abort unwinding touching the line)?
     */
    virtual bool oracleLineBusy(LineAddr line) const;

    /** The USTM runtime behind this system, if it has one. */
    virtual Ustm *ustmRuntime() { return nullptr; }
    /** @} */

  protected:
    TxSystem(TxSystemKind kind, Machine &machine,
             const TmPolicy &policy);

    friend class TxHandle;

    /**
     * Marks @p tc as inside an atomic section for its whole dynamic
     * extent (across every retry), labelled with the outermost site.
     * Exception-safe, so the telemetry bus (sim/telemetry.hh) can
     * attribute conflict edges and watchdog state by site even while
     * an abort unwinds.
     */
    struct AtomicSiteGuard
    {
        AtomicSiteGuard(ThreadContext &tc, TxSiteId site) : tc_(tc)
        {
            tc_.pushAtomicSite(site);
        }
        ~AtomicSiteGuard() { tc_.popAtomicSite(); }
        AtomicSiteGuard(const AtomicSiteGuard &) = delete;
        AtomicSiteGuard &operator=(const AtomicSiteGuard &) = delete;

      private:
        ThreadContext &tc_;
    };

    /** Per-attempt deferred/compensating actions (paper Section 6). */
    struct DeferredActions
    {
        std::vector<std::function<void(ThreadContext &)>> commit;
        std::vector<std::function<void(ThreadContext &)>> abort;

        void
        clear()
        {
            commit.clear();
            abort.clear();
        }
    };

    /** Reset the per-attempt queues (call when an attempt starts). */
    void beginAttempt(ThreadContext &tc);
    /** Run + clear commit actions (call after a commit). */
    void commitAttempt(ThreadContext &tc);
    /** Run + clear compensation (call after an attempt aborts). */
    void abortAttempt(ThreadContext &tc);

    DeferredActions &deferred(ThreadContext &tc);

    /** @name Per-path access hooks. @{ */
    virtual std::uint64_t
    htmRead(ThreadContext &tc, Addr a, unsigned size)
    {
        return tc.load(a, size); // Zero-overhead hardware access.
    }

    virtual void
    htmWrite(ThreadContext &tc, Addr a, std::uint64_t v, unsigned size)
    {
        tc.store(a, v, size);
    }

    virtual std::uint64_t stmRead(ThreadContext &tc, Addr a,
                                  unsigned size);
    virtual void stmWrite(ThreadContext &tc, Addr a, std::uint64_t v,
                          unsigned size);
    /** @} */

    /** requireSoftware() hook; default: ignore. */
    virtual void onRequireSoftware(ThreadContext &tc, TxHandle::Path p);

    /** retryWait() hook; default: unsupported (panics). */
    [[noreturn]] virtual void onRetryWait(ThreadContext &tc,
                                          TxHandle::Path p);

    TxHandle makeHandle(ThreadContext &tc, TxHandle::Path p)
    {
        return TxHandle(*this, tc, p);
    }

    TxSystemKind kind_;
    Machine &machine_;
    TmPolicy policy_;

  private:
    std::array<DeferredActions, kMaxThreads> deferred_;
};

} // namespace utm

#endif // UFOTM_CORE_TX_SYSTEM_HH
