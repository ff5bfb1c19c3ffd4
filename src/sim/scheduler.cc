#include "sim/scheduler.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace utm {

const char *
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::MinClock: return "minclock";
      case SchedPolicy::MaxClock: return "maxclock";
      case SchedPolicy::RandomWalk: return "random";
      case SchedPolicy::Pct: return "pct";
      case SchedPolicy::RoundRobin: return "roundrobin";
    }
    return "?";
}

bool
parseSchedPolicy(const std::string &name, SchedPolicy *out)
{
    if (name == "minclock") *out = SchedPolicy::MinClock;
    else if (name == "maxclock") *out = SchedPolicy::MaxClock;
    else if (name == "random" || name == "randomwalk")
        *out = SchedPolicy::RandomWalk;
    else if (name == "pct") *out = SchedPolicy::Pct;
    else if (name == "roundrobin" || name == "rr")
        *out = SchedPolicy::RoundRobin;
    else
        return false;
    return true;
}

void
SchedulerPolicy::onRunEnd(StatsRegistry &)
{
}

namespace {

/** Smallest clock, ties to lowest id: the seed repo's original rule. */
ThreadId
minClockPick(const SchedulerView &view)
{
    const SchedulerView::Runnable *best = &view.runnable[0];
    for (int i = 1; i < view.n; ++i)
        if (view.runnable[i].clock < best->clock)
            best = &view.runnable[i];
    return best->id;
}

class MinClockScheduler final : public SchedulerPolicy
{
  public:
    const char *name() const override { return "minclock"; }

    ThreadId
    pick(const SchedulerView &view) override
    {
        return minClockPick(view);
    }
};

/**
 * Adversarial MaxClock: the thread that is furthest ahead in simulated
 * time runs again, so slower threads observe its state changes as
 * abruptly as the memory model allows.  The starvation bound keeps
 * blocking spin-waits (which never advance other threads' clocks past
 * the leader) from running forever.
 */
class MaxClockScheduler final : public SchedulerPolicy
{
  public:
    explicit MaxClockScheduler(const SchedulerConfig &cfg)
        : bound_(cfg.starvationBound ? cfg.starvationBound : 1)
    {
    }

    const char *name() const override { return "maxclock"; }

    ThreadId
    pick(const SchedulerView &view) override
    {
        ThreadId choice;
        if (view.n > 1 && last_ >= 0 && streak_ >= bound_) {
            // Fairness escape: let the laggard run one slice.
            choice = minClockPick(view);
            fairness_++;
        } else {
            const SchedulerView::Runnable *best = &view.runnable[0];
            for (int i = 1; i < view.n; ++i)
                if (view.runnable[i].clock > best->clock)
                    best = &view.runnable[i];
            choice = best->id;
        }
        streak_ = choice == last_ ? streak_ + 1 : 1;
        last_ = choice;
        return choice;
    }

    void
    onRunEnd(StatsRegistry &stats) override
    {
        stats.set("sched.fairness_picks", fairness_);
    }

  private:
    unsigned bound_;
    ThreadId last_ = -1;
    unsigned streak_ = 0;
    std::uint64_t fairness_ = 0;
};

class RandomWalkScheduler final : public SchedulerPolicy
{
  public:
    explicit RandomWalkScheduler(std::uint64_t seed) : rng_(seed) {}

    const char *name() const override { return "random"; }

    ThreadId
    pick(const SchedulerView &view) override
    {
        return view.runnable[rng_.nextBounded(view.n)].id;
    }

  private:
    Rng rng_;
};

/**
 * PCT-style priority scheduling.  Threads get distinct random
 * priorities; the highest-priority runnable thread always runs.  At
 * `pctChangePoints` pre-sampled step numbers the currently-running
 * thread drops to the lowest priority, forcing exactly the kind of
 * untimely preemption PCT's probabilistic bug-depth guarantee relies
 * on.  Deviation from the paper: a starvation bound also demotes a
 * thread stuck in a blocking spin-wait, since our STM slow paths
 * contain waits PCT's preemptive model does not have.
 *
 * The starvation bound is re-drawn (from the policy's own seeded RNG)
 * after every demotion it triggers.  A *fixed* demotion cadence can
 * phase-lock with a fixed-event-length lock-retry loop: priority
 * scheduling ignores clocks, so a thread whose probe cycle has a
 * constant event count is demoted at the same loop phase every time —
 * if that phase is inside its row-lock critical section, every lower
 * priority thread then burns its whole scheduling window against a
 * lock whose holder is parked, forever (found by tmtorture,
 * ustm-ufo/pct seed 12 with the batched kv workload; the cycle-jitter
 * fix for the analogous minclock phase-lock — ReleaseStarvation —
 * cannot help here because PCT never consults clocks).  An aperiodic
 * bound drifts the demotion phase across the loop, so the holder
 * eventually gets demoted outside the critical section and the
 * waiters' windows find the lock free.
 */
class PctScheduler final : public SchedulerPolicy
{
  public:
    PctScheduler(const SchedulerConfig &cfg, std::uint64_t seed)
        : rng_(seed),
          bound_(cfg.starvationBound ? cfg.starvationBound : 1),
          curBound_(bound_),
          fixedBound_(cfg.testOnlyFixedPctBound)
    {
        std::array<ThreadId, kMaxThreads> order;
        for (int t = 0; t < kMaxThreads; ++t)
            order[t] = static_cast<ThreadId>(t);
        // Fisher-Yates: order[0] is the highest priority.
        for (int t = kMaxThreads - 1; t > 0; --t)
            std::swap(order[t], order[rng_.nextBounded(t + 1)]);
        for (int t = 0; t < kMaxThreads; ++t)
            rank_[order[t]] = static_cast<unsigned>(t);
        unsigned points = cfg.pctChangePoints;
        std::uint64_t horizon =
            cfg.pctExpectedSteps ? cfg.pctExpectedSteps : 1;
        for (unsigned i = 0; i < points; ++i)
            changePoints_.push_back(1 + rng_.nextBounded(horizon));
        std::sort(changePoints_.begin(), changePoints_.end());
    }

    const char *name() const override { return "pct"; }

    ThreadId
    pick(const SchedulerView &view) override
    {
        while (nextPoint_ < changePoints_.size() &&
               changePoints_[nextPoint_] <= view.step) {
            ++nextPoint_;
            if (last_ >= 0) {
                demote(last_);
                ++changePointsHit_;
            }
        }
        if (view.n > 1 && last_ >= 0 && streak_ >= curBound_) {
            demote(last_);
            ++demotions_;
            if (!fixedBound_)
                curBound_ = bound_ + rng_.nextBounded(bound_);
        }
        ThreadId choice = view.runnable[0].id;
        for (int i = 1; i < view.n; ++i)
            if (rank_[view.runnable[i].id] < rank_[choice])
                choice = view.runnable[i].id;
        streak_ = choice == last_ ? streak_ + 1 : 1;
        last_ = choice;
        return choice;
    }

    void
    onRunEnd(StatsRegistry &stats) override
    {
        stats.set("sched.pct_change_points", changePointsHit_);
        stats.set("sched.pct_demotions", demotions_);
    }

  private:
    /** Move @p tid to the lowest priority; everyone below it moves
     *  up one place. */
    void
    demote(ThreadId tid)
    {
        const unsigned r = rank_[tid];
        for (unsigned &x : rank_)
            if (x > r)
                --x;
        rank_[tid] = kMaxThreads - 1;
        streak_ = 0;
    }

    Rng rng_;
    unsigned bound_;
    unsigned curBound_;
    bool fixedBound_;
    /** Priority rank per thread id: 0 is the highest. */
    std::array<unsigned, kMaxThreads> rank_;
    std::vector<std::uint64_t> changePoints_;
    std::size_t nextPoint_ = 0;
    ThreadId last_ = -1;
    unsigned streak_ = 0;
    std::uint64_t changePointsHit_ = 0;
    std::uint64_t demotions_ = 0;
};

class RoundRobinScheduler final : public SchedulerPolicy
{
  public:
    explicit RoundRobinScheduler(const SchedulerConfig &cfg)
        : quantum_(cfg.quantum ? cfg.quantum : 1)
    {
    }

    const char *name() const override { return "roundrobin"; }

    ThreadId
    pick(const SchedulerView &view) override
    {
        // Keep the current thread until its quantum of shared-memory
        // events expires, then rotate to the next runnable id.
        if (used_ < quantum_)
            for (int i = 0; i < view.n; ++i)
                if (view.runnable[i].id == current_) {
                    ++used_;
                    return current_;
                }
        for (int i = 0; i < view.n; ++i)
            if (view.runnable[i].id > current_) {
                current_ = view.runnable[i].id;
                used_ = 1;
                return current_;
            }
        current_ = view.runnable[0].id;
        used_ = 1;
        return current_;
    }

  private:
    unsigned quantum_;
    ThreadId current_ = -1;
    unsigned used_ = 0;
};

} // namespace

std::unique_ptr<SchedulerPolicy>
makeSchedulerPolicy(const SchedulerConfig &cfg, std::uint64_t machine_seed)
{
    std::uint64_t seed = cfg.seed
        ? cfg.seed
        : machine_seed * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull;
    switch (cfg.policy) {
      case SchedPolicy::MinClock:
        return std::make_unique<MinClockScheduler>();
      case SchedPolicy::MaxClock:
        return std::make_unique<MaxClockScheduler>(cfg);
      case SchedPolicy::RandomWalk:
        return std::make_unique<RandomWalkScheduler>(seed);
      case SchedPolicy::Pct:
        return std::make_unique<PctScheduler>(cfg, seed);
      case SchedPolicy::RoundRobin:
        return std::make_unique<RoundRobinScheduler>(cfg);
    }
    utm_fatal("unknown scheduler policy %d", static_cast<int>(cfg.policy));
}

void
ScheduleTrace::appendBlock(ThreadId tid, std::uint64_t count)
{
    if (!count)
        return;
    if (!blocks_.empty() && blocks_.back().tid == tid)
        blocks_.back().count += count;
    else
        blocks_.push_back({tid, count});
    steps_ += count;
}

void
ScheduleTrace::clear()
{
    blocks_.clear();
    steps_ = 0;
    crashStep_ = 0;
}

ScheduleTrace
ScheduleTrace::fromBlocks(const std::vector<Block> &blocks)
{
    ScheduleTrace t;
    for (const Block &b : blocks)
        t.appendBlock(b.tid, b.count);
    return t;
}

std::string
ScheduleTrace::serialize() const
{
    std::ostringstream os;
    // Crash-free traces keep the v1 rendering byte-identical so every
    // pre-existing trace file and pinned regression string round-trips.
    if (crashStep_ == 0)
        os << "ufotm-sched v1";
    else
        os << "ufotm-sched v2 crash=" << crashStep_;
    for (const Block &b : blocks_)
        os << ' ' << b.tid << 'x' << b.count;
    return os.str();
}

bool
ScheduleTrace::parse(const std::string &text, ScheduleTrace *out)
{
    std::istringstream is(text);
    std::string magic, version;
    if (!(is >> magic >> version) || magic != "ufotm-sched" ||
        (version != "v1" && version != "v2"))
        return false;
    ScheduleTrace t;
    std::string tok;
    if (version == "v2") {
        if (!(is >> tok) || tok.rfind("crash=", 0) != 0)
            return false;
        std::uint64_t crash = 0;
        auto r = std::from_chars(tok.data() + 6,
                                 tok.data() + tok.size(), crash);
        if (r.ec != std::errc{} || r.ptr != tok.data() + tok.size() ||
            crash == 0)
            return false;
        t.setCrashStep(crash);
    }
    while (is >> tok) {
        std::size_t x = tok.find('x');
        if (x == std::string::npos)
            return false;
        int tid = 0;
        std::uint64_t count = 0;
        auto r1 = std::from_chars(tok.data(), tok.data() + x, tid);
        auto r2 = std::from_chars(tok.data() + x + 1,
                                  tok.data() + tok.size(), count);
        if (r1.ec != std::errc{} || r1.ptr != tok.data() + x ||
            r2.ec != std::errc{} ||
            r2.ptr != tok.data() + tok.size() ||
            tid < 0 || tid >= kMaxThreads || count == 0)
            return false;
        t.appendBlock(static_cast<ThreadId>(tid), count);
    }
    *out = std::move(t);
    return true;
}

bool
ScheduleTrace::saveFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << serialize() << '\n';
    return bool(os);
}

bool
ScheduleTrace::loadFile(const std::string &path, ScheduleTrace *out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return parse(text, out);
}

ReplayScheduler::ReplayScheduler(ScheduleTrace trace)
    : trace_(std::move(trace))
{
}

ThreadId
ReplayScheduler::pick(const SchedulerView &view)
{
    const auto &blocks = trace_.blocks();
    while (block_ < blocks.size()) {
        ThreadId want = blocks[block_].tid;
        for (int i = 0; i < view.n; ++i)
            if (view.runnable[i].id == want) {
                if (++used_ >= blocks[block_].count) {
                    ++block_;
                    used_ = 0;
                }
                return want;
            }
        // The recorded thread finished earlier than in the original
        // run (the trace was minimized or hand-edited); skip the rest
        // of its block.
        ++divergences_;
        ++block_;
        used_ = 0;
    }
    return minClockPick(view);
}

void
ReplayScheduler::onRunEnd(StatsRegistry &stats)
{
    // Only report on divergence: a faithful replay must produce a
    // counter map byte-identical to the recorded run's.
    if (divergences_)
        stats.set("sched.replay_divergences", divergences_);
}

} // namespace utm
