#include "sim/machine.hh"

#include <array>

#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sim/oracle.hh"

namespace utm {

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), persist_(*this)
{
    utm_assert(cfg_.numCores >= 1 && cfg_.numCores < kMaxThreads);
    telemetry_.configure(*this, cfg_.telemetry);
    msys_ = std::make_unique<MemorySystem>(*this, cfg_);
}

Machine::~Machine() = default;

ThreadContext &
Machine::addThread(ThreadContext::Fn fn)
{
    utm_assert(!running_);
    if (static_cast<int>(threads_.size()) >= cfg_.numCores)
        utm_fatal("more threads (%zu) than cores (%d)",
                  threads_.size() + 1, cfg_.numCores);
    ThreadId id = static_cast<ThreadId>(threads_.size());
    threads_.push_back(
        std::make_unique<ThreadContext>(*this, id, std::move(fn)));
    return *threads_.back();
}

ThreadContext &
Machine::initContext()
{
    if (!initCtx_) {
        // The init context gets the last thread id so it never
        // collides with worker cores; it has its own L1 slot.
        initCtx_ = std::make_unique<ThreadContext>(
            *this, kMaxThreads - 1, nullptr);
    }
    return *initCtx_;
}

void
Machine::setSchedulerPolicy(std::unique_ptr<SchedulerPolicy> policy)
{
    utm_assert(!running_);
    sched_ = std::move(policy);
}

void
Machine::run()
{
    running_ = true;
    if (!sched_)
        sched_ = makeSchedulerPolicy(cfg_.sched, cfg_.seed);
    std::array<SchedulerView::Runnable, kMaxThreads> runnable;
    // On an oracle violation, leave the machine in a state the harness
    // can still inspect (recorded schedule, stats) before rethrowing.
    try {
        for (;;) {
            int n = 0;
            for (auto &t : threads_)
                if (!t->done())
                    runnable[n++] = {t->id(), t->now()};
            if (n == 0)
                break;
            ThreadId pick =
                sched_->pick(SchedulerView{runnable.data(), n, steps_});
            bool valid = false;
            for (int i = 0; i < n && !valid; ++i)
                valid = runnable[i].id == pick;
            if (!valid)
                utm_fatal("scheduler '%s' picked non-runnable thread %d",
                          sched_->name(), pick);
            if (recording_)
                schedule_.append(pick);
            if (lastPick_ >= 0 && pick != lastPick_)
                ++preemptions_;
            lastPick_ = pick;
            ++steps_;
            threads_[pick]->resume();
            telemetry_.onStep(pick, threads_[pick]->now());
            // A crash is abrupt: no oracle pass, no finalization.
            // Suspended fibers stay where they are; only host-side
            // state (recorded schedule, persistent image, scheduler
            // counters) survives.
            if (crashStep_ != 0 && steps_ >= crashStep_) {
                crashed_ = true;
                break;
            }
            if (!oracles_.empty() && steps_ % oracleInterval_ == 0)
                runOracles();
        }
    } catch (...) {
        exportSchedCounters();
        running_ = false;
        throw;
    }
    exportSchedCounters();
    if (!crashed_) {
        prof_.finalize(*this);
        telemetry_.finalize();
    }
    running_ = false;
}

void
Machine::exportSchedCounters()
{
    // Hot-path scheduler counters are accumulated in plain members and
    // exported once per run, however it ends, keeping the per-step
    // cost to integer adds.
    sched_->onRunEnd(stats_);
    stats_.set("sched.steps", steps_);
    stats_.set("sched.preemptions", preemptions_);
    if (oracleChecks_)
        stats_.set("torture.oracle_checks", oracleChecks_);
}

void
Machine::runOracles()
{
    for (InvariantOracle *oracle : oracles_) {
        ++oracleChecks_;
        std::string why;
        if (!oracle->check(&why)) {
            stats_.inc("torture.oracle_violations");
            throw OracleViolation{oracle->name(), why, steps_};
        }
    }
}

Cycles
Machine::completionTime() const
{
    Cycles max = 0;
    for (const auto &t : threads_)
        max = std::max(max, t->now());
    return max;
}

} // namespace utm
