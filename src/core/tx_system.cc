#include "core/tx_system.hh"

#include "hybrid/hytm.hh"
#include "hybrid/phtm.hh"
#include "hybrid/unbounded_htm.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"
#include "tl2/tl2.hh"
#include "ustm/ustm.hh"

namespace utm {

const char *
txSystemKindName(TxSystemKind k)
{
    switch (k) {
      case TxSystemKind::NoTm: return "no-tm";
      case TxSystemKind::UnboundedHtm: return "unbounded-htm";
      case TxSystemKind::UfoHybrid: return "ufo-hybrid";
      case TxSystemKind::HyTm: return "hytm";
      case TxSystemKind::PhTm: return "phtm";
      case TxSystemKind::Ustm: return "ustm";
      case TxSystemKind::UstmStrong: return "ustm-ufo";
      case TxSystemKind::Tl2: return "tl2";
    }
    return "unknown";
}

bool
txSystemKindStronglyAtomic(TxSystemKind k)
{
    switch (k) {
      case TxSystemKind::NoTm:
      case TxSystemKind::UnboundedHtm:
      case TxSystemKind::UfoHybrid:
      case TxSystemKind::UstmStrong:
        return true;
      case TxSystemKind::HyTm:
      case TxSystemKind::PhTm:
      case TxSystemKind::Ustm:
      case TxSystemKind::Tl2:
        return false;
    }
    return false;
}

bool
txSystemKindDurable(TxSystemKind k)
{
    switch (k) {
      case TxSystemKind::UnboundedHtm:
      case TxSystemKind::UfoHybrid:
      case TxSystemKind::HyTm:
      case TxSystemKind::PhTm:
      case TxSystemKind::Ustm:
      case TxSystemKind::UstmStrong:
        return true;
      case TxSystemKind::NoTm:
      case TxSystemKind::Tl2:
        return false;
    }
    return false;
}

// ---------------------------------------------------------------------
// TxHandle

std::uint64_t
TxHandle::read(Addr a, unsigned size)
{
    switch (path_) {
      case Path::Raw:
        return tc_->load(a, size);
      case Path::Hardware:
        return sys_->htmRead(*tc_, a, size);
      case Path::Software:
        return sys_->stmRead(*tc_, a, size);
    }
    utm_panic("bad TxHandle path");
}

void
TxHandle::write(Addr a, std::uint64_t v, unsigned size)
{
    switch (path_) {
      case Path::Raw:
        tc_->store(a, v, size);
        return;
      case Path::Hardware:
        sys_->htmWrite(*tc_, a, v, size);
        return;
      case Path::Software:
        sys_->stmWrite(*tc_, a, v, size);
        return;
    }
    utm_panic("bad TxHandle path");
}

void
TxHandle::requireSoftware()
{
    sys_->onRequireSoftware(*tc_, path_);
}

void
TxHandle::retryWait()
{
    sys_->onRetryWait(*tc_, path_);
    utm_panic("onRetryWait returned"); // Unreachable by contract.
}

void
TxHandle::onCommit(std::function<void(ThreadContext &)> action)
{
    sys_->deferred(*tc_).commit.push_back(std::move(action));
}

void
TxHandle::onAbort(std::function<void(ThreadContext &)> action)
{
    sys_->deferred(*tc_).abort.push_back(std::move(action));
}

// ---------------------------------------------------------------------
// TxSystem base

TxSystem::TxSystem(TxSystemKind kind, Machine &machine,
                   const TmPolicy &policy)
    : kind_(kind), machine_(machine), policy_(policy)
{
}

void
TxSystem::setup()
{
}

const char *
TxSystem::name() const
{
    return txSystemKindName(kind_);
}

std::uint64_t
TxSystem::stmRead(ThreadContext &, Addr, unsigned)
{
    utm_panic("%s has no software path", name());
}

void
TxSystem::stmWrite(ThreadContext &, Addr, std::uint64_t, unsigned)
{
    utm_panic("%s has no software path", name());
}

void
TxSystem::onRequireSoftware(ThreadContext &, TxHandle::Path)
{
    // Systems with no (distinct) software path ignore the request.
}

bool
TxSystem::oracleInvariantsHold(std::string *) const
{
    return true;
}

bool
TxSystem::oracleLineBusy(LineAddr) const
{
    return false;
}

void
TxSystem::onRetryWait(ThreadContext &, TxHandle::Path)
{
    utm_panic("%s does not support transactional waiting", name());
}

TxSystem::DeferredActions &
TxSystem::deferred(ThreadContext &tc)
{
    return deferred_[tc.id()];
}

void
TxSystem::beginAttempt(ThreadContext &tc)
{
    deferred_[tc.id()].clear();
}

void
TxSystem::commitAttempt(ThreadContext &tc)
{
    DeferredActions &d = deferred_[tc.id()];
    for (auto &fn : d.commit)
        fn(tc);
    d.clear();
}

void
TxSystem::abortAttempt(ThreadContext &tc)
{
    machine_.telemetry().onAbort(tc.id());
    DeferredActions &d = deferred_[tc.id()];
    // Compensation runs newest-first (like scope unwinding).
    for (auto it = d.abort.rbegin(); it != d.abort.rend(); ++it)
        (*it)(tc);
    d.clear();
}

// ---------------------------------------------------------------------
// Simple systems: NoTm, pure USTM, TL2

namespace {

/** No concurrency control at all; sequential-baseline runs only. */
class NoTmSystem final : public TxSystem
{
  public:
    NoTmSystem(Machine &machine, const TmPolicy &policy)
        : TxSystem(TxSystemKind::NoTm, machine, policy)
    {
    }

    void
    atomicAt(ThreadContext &tc, TxSiteId, const Body &body) override
    {
        if (depth_[tc.id()] > 0) {
            // Flattened nesting: stay in the enclosing "transaction".
            TxHandle h = makeHandle(tc, TxHandle::Path::Raw);
            body(h);
            return;
        }
        ++depth_[tc.id()];
        beginAttempt(tc);
        TxHandle h = makeHandle(tc, TxHandle::Path::Raw);
        body(h);
        machine_.notifyCommitPoint(tc); // Trivial commit point.
        machine_.stats().inc("tm.commits.raw");
        commitAttempt(tc);
        --depth_[tc.id()];
    }

    bool
    oracleLineBusy(LineAddr) const override
    {
        // Raw in-place writes: mid-body state is legitimately ahead
        // of any committed-state model while a body is running.
        for (int d : depth_)
            if (d > 0)
                return true;
        return false;
    }

  private:
    std::array<int, kMaxThreads> depth_{};
};

/** Pure software TM: USTM, optionally with UFO strong atomicity. */
class UstmSystem final : public TxSystem
{
  public:
    UstmSystem(TxSystemKind kind, Machine &machine,
               const TmPolicy &policy, bool strong)
        : TxSystem(kind, machine, policy),
          ustm_(machine, strong, policy.ustm)
    {
    }

    void setup() override { ustm_.setup(machine_.initContext()); }

    void
    atomicAt(ThreadContext &tc, TxSiteId, const Body &body) override
    {
        if (ustm_.inTx(tc.id())) {
            // Flattened nesting.
            ustm_.txBegin(tc);
            TxHandle h = makeHandle(tc, TxHandle::Path::Software);
            body(h);
            ustm_.txEnd(tc);
            return;
        }
        for (;;) {
            try {
                beginAttempt(tc);
                ustm_.txBegin(tc);
                TxHandle h = makeHandle(tc, TxHandle::Path::Software);
                body(h);
                ustm_.txEnd(tc);
                machine_.stats().inc("tm.commits.sw");
                commitAttempt(tc);
                return;
            } catch (const UstmAbortException &) {
                abortAttempt(tc);
                machine_.stats().inc("tm.sw_retries");
            }
        }
    }

    [[noreturn]] void
    onRetryWait(ThreadContext &tc, TxHandle::Path) override
    {
        ustm_.txRetryWait(tc); // throws after wakeup
    }

    bool
    oracleInvariantsHold(std::string *why) const override
    {
        return ustm_.verifyOracleInvariants(why);
    }

    bool
    oracleLineBusy(LineAddr line) const override
    {
        return ustm_.lineBusy(line);
    }

    Ustm *ustmRuntime() override { return &ustm_; }

  protected:
    std::uint64_t
    stmRead(ThreadContext &tc, Addr a, unsigned size) override
    {
        return ustm_.txRead(tc, a, size);
    }

    void
    stmWrite(ThreadContext &tc, Addr a, std::uint64_t v,
             unsigned size) override
    {
        ustm_.txWrite(tc, a, v, size);
    }

  private:
    Ustm ustm_;
};

/** TL2 baseline. */
class Tl2System final : public TxSystem
{
  public:
    Tl2System(Machine &machine, const TmPolicy &policy)
        : TxSystem(TxSystemKind::Tl2, machine, policy), tl2_(machine)
    {
    }

    void setup() override { tl2_.setup(machine_.initContext()); }

    void
    atomicAt(ThreadContext &tc, TxSiteId, const Body &body) override
    {
        if (tl2_.inTx(tc.id())) {
            // Flattened nesting: run inside the enclosing attempt.
            TxHandle h = makeHandle(tc, TxHandle::Path::Software);
            body(h);
            return;
        }
        int attempts = 0;
        for (;;) {
            try {
                beginAttempt(tc);
                tl2_.txBegin(tc);
                TxHandle h = makeHandle(tc, TxHandle::Path::Software);
                body(h);
                tl2_.txEnd(tc);
                machine_.stats().inc("tm.commits.sw");
                commitAttempt(tc);
                return;
            } catch (const Tl2AbortException &) {
                abortAttempt(tc);
                machine_.stats().inc("tm.sw_retries");
                retryBackoff(tc, policy_, ++attempts);
            }
        }
    }

    bool
    oracleInvariantsHold(std::string *why) const override
    {
        return tl2_.verifyOracleInvariants(why);
    }

    bool
    oracleLineBusy(LineAddr line) const override
    {
        return tl2_.lineBusy(line);
    }

  protected:
    std::uint64_t
    stmRead(ThreadContext &tc, Addr a, unsigned size) override
    {
        return tl2_.txRead(tc, a, size);
    }

    void
    stmWrite(ThreadContext &tc, Addr a, std::uint64_t v,
             unsigned size) override
    {
        tl2_.txWrite(tc, a, v, size);
    }

  private:
    Tl2 tl2_;
};

} // namespace

// ---------------------------------------------------------------------
// Factory

std::unique_ptr<TxSystem>
TxSystem::create(TxSystemKind kind, Machine &machine,
                 const TmPolicy &policy)
{
    std::unique_ptr<TxSystem> sys;
    switch (kind) {
      case TxSystemKind::NoTm:
        sys = std::make_unique<NoTmSystem>(machine, policy);
        break;
      case TxSystemKind::UnboundedHtm:
        sys = std::make_unique<UnboundedHtm>(machine, policy);
        break;
      case TxSystemKind::UfoHybrid:
        sys = std::make_unique<HybridTmBase>(
            TxSystemKind::UfoHybrid, machine, policy,
            /*strong_atomic_stm=*/true, /*explicit_means_conflict=*/false);
        break;
      case TxSystemKind::HyTm:
        sys = std::make_unique<HyTm>(machine, policy);
        break;
      case TxSystemKind::PhTm:
        sys = std::make_unique<PhTm>(machine, policy);
        break;
      case TxSystemKind::Ustm:
        sys = std::make_unique<UstmSystem>(TxSystemKind::Ustm, machine,
                                           policy, false);
        break;
      case TxSystemKind::UstmStrong:
        sys = std::make_unique<UstmSystem>(TxSystemKind::UstmStrong,
                                           machine, policy, true);
        break;
      case TxSystemKind::Tl2:
        sys = std::make_unique<Tl2System>(machine, policy);
        break;
    }
    if (!sys)
        utm_panic("bad TxSystemKind");
    if (policy.durable) {
        if (txSystemKindDurable(kind))
            machine.persist().activate();
        else
            utm_warn("backend %s cannot run durable commits; "
                     "TmPolicy::durable ignored",
                     txSystemKindName(kind));
    }
    return sys;
}

} // namespace utm
