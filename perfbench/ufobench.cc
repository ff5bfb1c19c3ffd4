/**
 * @file
 * ufobench: runs one benchmark workload through the simulator's
 * public calls and prints one JSON document of raw measurements for
 * perfbench/run.py, which turns them into metrics.
 *
 *   ufobench WORKLOAD SEED SECONDS TRACE SPANS_OUT
 *
 * WORKLOAD is one of stamp-kmeans-high, stamp-vacation-low,
 * stamp-genome, kv-durable, torture-crash.  Each workload is a fixed
 * set of instances (simulations, or crash-torture cycles); rounds over
 * them repeat until SECONDS of host time have gone by, and every
 * instance run is timed on the host clock (set-up, Machine::run,
 * validate), between two runs of a fixed reference computation.  Its
 * simulated counters must repeat exactly from round to round (observer
 * check), and the first round's must equal those of
 * runWorkload()/svc::runService() on the same configuration
 * (product-path check).  With TRACE=1, traced rounds
 * alternate with untraced ones: host spans wrap each call into a layer
 * and a forwarding TxSystem records every atomic() in simulated time;
 * the spans are kept in memory and written to SPANS_OUT at exit.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tx_system.hh"
#include "rt/heap.hh"
#include "sim/json.hh"
#include "sim/machine.hh"
#include "sim/stats_json.hh"
#include "stamp/genome.hh"
#include "stamp/kmeans.hh"
#include "stamp/vacation.hh"
#include "stamp/workload.hh"
#include "svc/service.hh"
#include "torture/torture.hh"

namespace {

using namespace utm;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
hostNow()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

volatile std::uint64_t gRefSink = 0;

/**
 * The reference computation: fixed host work that shares no code with
 * the simulator but is built like its hot paths, hash-map inserts and
 * lookups over random keys (the directory, the speculative-line table
 * and the page map are unordered_maps) mixed with data-dependent
 * branches.  It runs between every two timed units, so run.py can
 * express host time in multiples of it: a slower or busier host slows
 * both alike, and the ratio keeps.  Returns its host seconds.
 */
double
referenceRun()
{
    constexpr std::uint64_t kKeys = 1u << 16;
    constexpr int kOps = 1 << 20;
    const double t0 = hostNow();
    {
        std::unordered_map<std::uint64_t, std::uint64_t> map;
        std::uint64_t x = 0x9e3779b97f4a7c15ull, h = 0;
        for (int k = 0; k < kOps; ++k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            auto [it, fresh] = map.try_emplace(x % kKeys, x);
            if (!fresh && (it->second & 1))
                h += it->second;
            it->second ^= h;
        }
        gRefSink = h + map.size();
    }
    return hostNow() - t0;
}

/** A host-time span around one call into a layer. */
struct HostSpan
{
    std::string name;
    int instance = 0;
    double start = 0, end = 0;
    int parent = -1;
};

/** A simulated-time span: one atomic() on one simulated thread. */
struct SimSpan
{
    int pass = 0;
    int instance = 0;
    ThreadId thread = 0;
    TxSiteId site = kTxSiteNone;
    Cycles start = 0, end = 0;
    int parent = -1;
};

/** In-memory span recorder; inactive unless a traced round runs. */
class Tracer
{
  public:
    bool active = false;
    int pass = 0;     ///< Current traced round (SimSpan tagging).
    int instance = 0; ///< Current instance within the round.
    std::vector<HostSpan> host;
    std::vector<SimSpan> sim;

    int
    begin(const std::string &name)
    {
        if (!active)
            return -1;
        host.push_back({name, instance, hostNow(), 0,
                        open_.empty() ? -1 : open_.back()});
        open_.push_back(int(host.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        host[std::size_t(id)].end = hostNow();
        open_.pop_back();
    }

  private:
    std::vector<int> open_;
};

Tracer gTracer;

/** RAII host span; a no-op while the tracer is inactive. */
class Scope
{
  public:
    explicit Scope(const char *name) : id_(gTracer.begin(name)) {}
    ~Scope() { gTracer.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

/**
 * Forwards every call to the TxSystem it wraps and records each
 * atomic() as a SimSpan (thread, site, simulated start/end).  Reading
 * a thread's clock charges nothing, so a traced run's simulated
 * counters equal an untraced run's (the observer check proves it).
 */
class TracingTxSystem final : public TxSystem
{
  public:
    explicit TracingTxSystem(std::unique_ptr<TxSystem> inner)
        : TxSystem(inner->kind(), inner->machine(), inner->policy()),
          inner_(std::move(inner))
    {
    }

    void setup() override { inner_->setup(); }

    void
    atomicAt(ThreadContext &tc, TxSiteId site, const Body &body) override
    {
        std::vector<int> &stack = open_[std::size_t(tc.id())];
        const int id = int(gTracer.sim.size());
        gTracer.sim.push_back({gTracer.pass, gTracer.instance, tc.id(),
                               site, tc.now(), 0,
                               stack.empty() ? -1 : stack.back()});
        stack.push_back(id);
        try {
            inner_->atomicAt(tc, site, body);
        } catch (...) {
            stack.pop_back();
            throw;
        }
        stack.pop_back();
        gTracer.sim[std::size_t(id)].end = tc.now();
    }

    const char *name() const override { return inner_->name(); }

    AbortReason
    lastHwAbortReason(ThreadContext &tc) const override
    {
        return inner_->lastHwAbortReason(tc);
    }

    bool
    oracleInvariantsHold(std::string *why) const override
    {
        return inner_->oracleInvariantsHold(why);
    }

    bool
    oracleLineBusy(LineAddr line) const override
    {
        return inner_->oracleLineBusy(line);
    }

    Ustm *ustmRuntime() override { return inner_->ustmRuntime(); }

  private:
    std::unique_ptr<TxSystem> inner_;
    std::array<std::vector<int>, kMaxThreads> open_;
};

/** Simulated outcome of one simulation; must repeat exactly. */
struct SimOutcome
{
    Cycles cycles = 0;
    bool valid = false;
    std::map<std::string, std::uint64_t> stats;
    std::map<std::string, Histogram> hists;
};

bool
sameHist(const Histogram &a, const Histogram &b)
{
    if (a.samples() != b.samples() || a.sum() != b.sum() ||
        a.min() != b.min() || a.max() != b.max())
        return false;
    for (int i = 0; i < Histogram::kBuckets; ++i)
        if (a.bucketCount(i) != b.bucketCount(i))
            return false;
    return true;
}

/** Empty when equal, else the first difference found. */
std::string
diffOutcome(const SimOutcome &a, const SimOutcome &b)
{
    if (a.cycles != b.cycles)
        return "cycles " + std::to_string(a.cycles) + " vs " +
               std::to_string(b.cycles);
    if (a.valid != b.valid)
        return "validate() result differs";
    if (a.stats != b.stats) {
        for (const auto &[k, v] : a.stats) {
            auto it = b.stats.find(k);
            if (it == b.stats.end() || it->second != v)
                return "counter " + k;
        }
        return "counter set differs";
    }
    if (a.hists.size() != b.hists.size())
        return "histogram set differs";
    for (const auto &[k, h] : a.hists) {
        auto it = b.hists.find(k);
        if (it == b.hists.end() || !sameHist(h, it->second))
            return "histogram " + k;
    }
    return {};
}

/** Host timings of one simulation, seconds. */
struct HostTimes
{
    double machine = 0;  ///< Machine + TxHeap + TxSystem::create/setup.
    double workload = 0; ///< Workload::setup (+ durable checkpoint).
    double run = 0;      ///< Machine::run.
    double validate = 0; ///< Workload::validate.
};

/**
 * runWorkload() (src/stamp/workload.cc) call for call, with host
 * timers between the calls so set-up and run are timed apart.
 */
SimOutcome
runTimed(Workload &w, const RunConfig &cfg, bool traced, HostTimes *t)
{
    MachineConfig mc = cfg.machine;
    mc.numCores = std::max(mc.numCores, cfg.threads);

    double t0 = hostNow();
    int span = gTracer.begin("TxSystem::setup");
    Machine machine(mc);
    TxHeap heap(machine);
    std::unique_ptr<TxSystem> sys =
        TxSystem::create(cfg.kind, machine, cfg.policy);
    if (traced)
        sys = std::make_unique<TracingTxSystem>(std::move(sys));
    sys->setup();
    gTracer.end(span);
    double t1 = hostNow();
    t->machine += t1 - t0;

    span = gTracer.begin("Workload::setup");
    w.setup(machine.initContext(), heap, cfg.threads);
    if (machine.persist().active())
        machine.persist().checkpointHeap();
    gTracer.end(span);
    double t2 = hostNow();
    t->workload += t2 - t1;

    for (int i = 0; i < cfg.threads; ++i) {
        machine.addThread([&w, s = sys.get(), i, n = cfg.threads](
                              ThreadContext &tc) {
            w.threadBody(tc, *s, i, n);
        });
    }
    span = gTracer.begin("Machine::run");
    machine.run();
    gTracer.end(span);
    double t3 = hostNow();
    t->run += t3 - t2;

    SimOutcome out;
    span = gTracer.begin("Workload::validate");
    out.valid = w.validate(machine.initContext());
    gTracer.end(span);
    t->validate += hostNow() - t3;

    out.cycles = machine.completionTime();
    for (const auto &kv : machine.stats().withPrefix(""))
        out.stats[kv.first] = kv.second;
    out.hists = machine.stats().histograms();
    return out;
}

SimOutcome
fromRunResult(const RunResult &r)
{
    return {r.cycles, r.valid, r.stats, r.hists};
}

/** Seed of instance @p i of benchmark seed @p seed (inputs + machine). */
std::uint64_t
instanceSeed(std::uint64_t seed, int i)
{
    return seed * 1000 + std::uint64_t(i);
}

/** One simulation of a simulated workload: its config and product path. */
struct Instance
{
    RunConfig cfg;
    std::function<std::unique_ptr<Workload>()> make;
    std::function<SimOutcome()> product; ///< runWorkload / runService.
};

constexpr int kStampThreads = 8;

std::vector<Instance>
stampInstances(const std::string &kernel, std::uint64_t seed)
{
    // Instances per round and the problem scale: vacation-low
    // overflows the L1 and fails over (the UFO path), and runs as eight
    // half-second simulations that fit between two reference runs;
    // genome grows by instances, since scale 4 overfills its
    // 2048-entry hashset.
    int count = 0;
    double scale = 1.0;
    if (kernel == "kmeans-high") {
        count = 16;
        scale = 2.0;
    } else if (kernel == "vacation-low") {
        count = 8;
        scale = 2.0;
    } else if (kernel == "genome") {
        count = 24;
        scale = 1.0;
    }
    std::vector<Instance> out;
    for (int i = 0; i < count; ++i) {
        const std::uint64_t s = instanceSeed(seed, i);
        Instance in;
        in.cfg.kind = TxSystemKind::UfoHybrid;
        in.cfg.threads = kStampThreads;
        in.cfg.machine.seed = s;
        in.cfg.scale = scale;
        if (kernel == "kmeans-high") {
            in.make = [s, scale] {
                KmeansParams p = KmeansParams::contention(true);
                p.points = int(p.points * scale);
                p.seed = s;
                return std::unique_ptr<Workload>(
                    std::make_unique<KmeansWorkload>(p));
            };
        } else if (kernel == "vacation-low") {
            in.make = [s, scale] {
                VacationParams p = VacationParams::contention(false);
                p.totalTasks = int(p.totalTasks * scale);
                p.seed = s;
                return std::unique_ptr<Workload>(
                    std::make_unique<VacationWorkload>(p));
            };
        } else {
            in.make = [s, scale] {
                GenomeParams p;
                p.segments = int(p.segments * scale);
                p.uniquePool = int(p.uniquePool * scale);
                p.seed = s;
                return std::unique_ptr<Workload>(
                    std::make_unique<GenomeWorkload>(p));
            };
        }
        in.product = [make = in.make, cfg = in.cfg] {
            auto w = make();
            return fromRunResult(runWorkload(*w, cfg));
        };
        out.push_back(std::move(in));
    }
    return out;
}

constexpr unsigned kKvShards = 4;
constexpr int kKvClients = 4;
constexpr int kKvRequestsPerClient = 5000;

svc::SvcParams
kvParams(std::uint64_t seed)
{
    svc::SvcParams p;
    p.load.keyspace = 128;
    p.load.zipfTheta = 0.8;
    p.load.mix.getPct = 45;
    p.load.mix.putPct = 20;
    p.load.mix.scanPct = 10;
    p.load.mix.rmwPct = 10;
    p.load.mix.xferPct = 5;
    p.load.mix.rawGetPct = 10;
    p.load.requestsPerClient = kKvRequestsPerClient;
    p.load.scanLen = 8;
    p.load.openLoop = false;
    p.load.meanThink = 200;
    p.load.seed = seed;
    p.mapBuckets = 32;
    p.shards = kKvShards;
    return p;
}

std::vector<Instance>
kvInstances(std::uint64_t seed)
{
    const std::uint64_t s = instanceSeed(seed, 0);
    const svc::SvcParams p = kvParams(s);
    Instance in;
    in.cfg.kind = TxSystemKind::UfoHybrid;
    in.cfg.threads = kKvClients;
    in.cfg.machine.seed = s;
    in.cfg.policy.durable = true;
    RunConfig product_cfg = in.cfg;
    // svc::runService forces this; the timed path must match it.
    in.cfg.machine.otableShards = p.shards;
    in.make = [p] {
        return std::unique_ptr<Workload>(
            std::make_unique<svc::KvServiceWorkload>(p));
    };
    in.product = [p, product_cfg] {
        return fromRunResult(svc::runService(p, product_cfg));
    };
    return {std::move(in)};
}

void
writeHist(json::Writer &w, const Histogram &h)
{
    w.beginObject();
    w.kv("samples", h.samples());
    w.kv("sum", h.sum());
    w.key("buckets").beginArray();
    for (int i = 0; i < Histogram::kBuckets; ++i)
        w.value(h.bucketCount(i));
    w.endArray();
    w.endObject();
}

/** Host measurements of one timed run of one instance, seconds. */
struct Sample
{
    bool traced = false;
    double wall = 0, cpu = 0;
    double ref = 0;      ///< The reference computation, run right before,
    double refAfter = 0; ///< ... and right after.
    HostTimes t;
};

void
writeSamples(json::Writer &w,
             const std::vector<std::vector<Sample>> &samples)
{
    w.key("samples").beginArray();
    for (const std::vector<Sample> &runs : samples) {
        w.beginArray();
        for (const Sample &s : runs) {
            w.beginObject();
            w.kv("traced", s.traced);
            w.kv("wall_s", s.wall);
            w.kv("cpu_s", s.cpu);
            w.kv("ref_s", s.ref);
            w.kv("ref_after_s", s.refAfter);
            w.kv("setup_machine_s", s.t.machine);
            w.kv("setup_workload_s", s.t.workload);
            w.kv("run_s", s.t.run);
            w.kv("validate_s", s.t.validate);
            w.endObject();
        }
        w.endArray();
    }
    w.endArray();
}

void
writeSpans(const std::string &path)
{
    json::Writer w;
    w.beginObject();
    w.kv("schema", "ufobench-spans");
    w.key("host").beginArray();
    for (const HostSpan &s : gTracer.host) {
        w.beginObject();
        w.kv("name", s.name);
        w.kv("instance", s.instance);
        w.kv("start_s", s.start);
        w.kv("end_s", s.end);
        w.kv("parent", s.parent);
        w.endObject();
    }
    w.endArray();
    // Every traced round records the same simulated spans (the
    // observer check proves it), so the first round's are written.
    w.key("atomic").beginArray();
    for (const SimSpan &s : gTracer.sim) {
        if (s.pass != 0)
            continue;
        w.beginArray();
        w.value(s.instance);
        w.value(s.thread);
        w.value(std::uint64_t(s.site));
        w.value(std::uint64_t(s.start));
        w.value(std::uint64_t(s.end));
        w.value(s.parent);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    if (!stats::writeFile(path, w.str() + "\n")) {
        std::fprintf(stderr, "ufobench: cannot write spans to %s\n",
                     path.c_str());
        std::exit(2);
    }
}

/**
 * Runs every instance once per round, round after round, until
 * @p seconds have gone by and at least @p min_rounds rounds are done.  A
 * run of the reference computation comes between every two units, so
 * that perfbench/run.py can time each unit against the runs beside it.
 * With @p trace, every second round is traced.  Returns one Sample list
 * per instance.
 */
template <typename RunOne>
std::vector<std::vector<Sample>>
timedRounds(std::size_t n, double seconds, bool trace, int min_rounds,
            RunOne run_one)
{
    std::vector<std::vector<Sample>> out(n);
    referenceRun(); // The first run in a process pays for fresh pages.
    double ref = referenceRun();
    const double t0 = hostNow();
    // Past the first min_rounds rounds, stop at the deadline even
    // mid-round, so a run overshoots by one instance, not one round.
    auto done = [&](int round) {
        return round >= min_rounds && hostNow() - t0 >= seconds;
    };
    for (int round = 0; !done(round); ++round) {
        const bool traced = trace && round % 2 == 1;
        gTracer.active = traced;
        gTracer.pass = round / 2;
        for (std::size_t i = 0; i < n && !done(round); ++i) {
            gTracer.instance = int(i);
            Sample s;
            s.traced = traced;
            s.ref = ref;
            const double w0 = hostNow(), c0 = cpuNow();
            run_one(i, traced, &s.t);
            s.wall = hostNow() - w0;
            s.cpu = cpuNow() - c0;
            ref = referenceRun();
            s.refAfter = ref;
            out[i].push_back(s);
        }
        gTracer.active = false;
    }
    return out;
}

void
simulatedWorkload(const std::vector<Instance> &instances, double seconds,
                  bool trace, json::Writer &w)
{
    // Product path first: the library's own runner on every config.
    std::vector<SimOutcome> reference;
    for (const Instance &in : instances)
        reference.push_back(in.product());

    std::string product_diff, observer_diff;
    std::vector<SimOutcome> first(instances.size());
    std::vector<bool> seen(instances.size(), false);
    auto run_one = [&](std::size_t i, bool traced, HostTimes *t) {
        Scope s("instance");
        auto wl = instances[i].make();
        SimOutcome o = runTimed(*wl, instances[i].cfg, traced, t);
        const std::string where = std::string(traced ? "traced" : "untraced") +
                                  " instance " + std::to_string(i) + ": ";
        if (!seen[i]) {
            seen[i] = true;
            const std::string d = diffOutcome(reference[i], o);
            if (!d.empty() && product_diff.empty())
                product_diff = where + d;
            first[i] = std::move(o);
        } else {
            const std::string d = diffOutcome(first[i], o);
            if (!d.empty() && observer_diff.empty())
                observer_diff = where + d;
        }
    };
    const auto samples = timedRounds(instances.size(), seconds, trace,
                                     trace ? 4 : 1, run_one);

    int invalid = 0;
    for (const SimOutcome &o : first)
        invalid += !o.valid;

    w.kv("simulations", std::uint64_t(first.size()));
    w.kv("invalid", std::uint64_t(invalid));
    w.kv("product_check", product_diff.empty() ? "ok" : product_diff);
    w.kv("observer_check", observer_diff.empty() ? "ok" : observer_diff);
    writeSamples(w, samples);
    w.key("instances").beginArray();
    for (const SimOutcome &o : first) {
        w.beginObject();
        w.kv("cycles", std::uint64_t(o.cycles));
        w.kv("valid", o.valid);
        w.key("counters").beginObject();
        for (const auto &[k, v] : o.stats)
            w.kv(k, v);
        w.endObject();
        w.key("histograms").beginObject();
        for (const auto &[k, h] : o.hists) {
            w.key(k);
            writeHist(w, h);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

/** @name torture-crash: the CI crash sweep, over every policy. @{ */
constexpr int kTortureSeeds = 8;
const std::array<TxSystemKind, 2> kTortureBackends = {
    TxSystemKind::UfoHybrid, TxSystemKind::UstmStrong};
const std::array<SchedPolicy, 5> kTorturePolicies = {
    SchedPolicy::MinClock, SchedPolicy::MaxClock, SchedPolicy::RandomWalk,
    SchedPolicy::Pct, SchedPolicy::RoundRobin};

/** First tmtorture seed of benchmark seed @p seed (seed 1 -> 1). */
std::uint64_t
tortureBaseSeed(std::uint64_t seed)
{
    return (seed - 1) * kTortureSeeds + 1;
}

/**
 * The TortureConfig `tmtorture --crash --workloads kv --timeline
 * --watchdog` builds (tools/tmtorture.cc makeConfig, default options).
 */
torture::TortureConfig
tortureConfig(TxSystemKind kind, SchedPolicy policy, std::uint64_t seed)
{
    torture::TortureConfig cfg;
    cfg.kind = kind;
    cfg.workload = torture::TortureWorkload::Kv;
    cfg.threads = 4;
    cfg.opsPerThread = 60;
    cfg.cells = 48;
    cfg.otableBuckets = 4;
    cfg.seed = seed;
    cfg.sched.policy = policy;
    cfg.sched.pctExpectedSteps = 1u << 12;
    cfg.oracleInterval = 1;
    cfg.record = true;
    cfg.timeline = true;
    cfg.watchdog = true;
    return cfg;
}

std::string
diffCrash(const torture::CrashTortureResult &a,
          const torture::CrashTortureResult &b)
{
    if (a.ok != b.ok || a.crashStep != b.crashStep ||
        a.probeSteps != b.probeSteps || a.crashSteps != b.crashSteps ||
        a.committedTx != b.committedTx || a.fencedTx != b.fencedTx ||
        a.recoveredTx != b.recoveredTx ||
        a.discardedRecords != b.discardedRecords)
        return "crash outcome differs";
    if (a.recoverJson != b.recoverJson)
        return "ufotm-recover report differs";
    if (a.stats != b.stats)
        return "crash-run counters differ";
    return {};
}

/**
 * Machine + TxHeap + TxSystem::create/setup for each swept backend, in
 * the torture machine shape: the fixed set-up every crash cycle pays
 * for each of its three machines.
 */
double
tortureSetup(std::uint64_t seed)
{
    const double t0 = hostNow();
    for (TxSystemKind kind : kTortureBackends) {
        const torture::TortureConfig cfg =
            tortureConfig(kind, SchedPolicy::MinClock, seed);
        MachineConfig mc;
        mc.numCores = cfg.threads;
        mc.timerQuantum = 0;
        mc.seed = cfg.seed;
        mc.otableBuckets = cfg.otableBuckets;
        mc.telemetry.enabled = true;
        TmPolicy policy = cfg.policy;
        policy.durable = true;
        Machine m(mc);
        TxHeap heap(m);
        auto sys = TxSystem::create(kind, m, policy);
        sys->setup();
    }
    return hostNow() - t0;
}

constexpr int kTortureSetupReps = 101;

/**
 * torture-crash: runs every crash cycle of the sweep through
 * torture::runCrashTorture() in rounds, as for the simulated workloads,
 * each cycle a timed unit (with a span around it when traced); measures
 * set-up and lists the tmtorture CLI invocations of the same sweep,
 * whose reports perfbench/run.py checks against these results.
 */
void
tortureWorkload(std::uint64_t seed, double seconds, bool trace,
                json::Writer &w)
{
    const std::uint64_t base = tortureBaseSeed(seed);
    referenceRun(); // The first run in a process pays for fresh pages.
    const double setup_ref_before = referenceRun();
    std::vector<double> setups;
    for (int r = 0; r < kTortureSetupReps; ++r)
        setups.push_back(tortureSetup(base));
    const double setup_ref_after = referenceRun();

    std::vector<torture::TortureConfig> cfgs;
    for (TxSystemKind kind : kTortureBackends)
        for (SchedPolicy policy : kTorturePolicies)
            for (int i = 0; i < kTortureSeeds; ++i)
                cfgs.push_back(tortureConfig(kind, policy, base + i));

    std::vector<torture::CrashTortureResult> first(cfgs.size());
    std::vector<bool> seen(cfgs.size(), false);
    std::string observer_diff;
    auto run_one = [&](std::size_t i, bool traced, HostTimes *t) {
        (void)traced;
        const double t0 = hostNow();
        torture::CrashTortureResult res;
        {
            Scope s("runCrashTorture");
            res = torture::runCrashTorture(cfgs[i]);
        }
        t->run = hostNow() - t0;
        if (!seen[i]) {
            seen[i] = true;
            first[i] = std::move(res);
            return;
        }
        const std::string d = diffCrash(first[i], res);
        if (!d.empty() && observer_diff.empty())
            observer_diff = std::string(txSystemKindName(cfgs[i].kind)) +
                            "/" + schedPolicyName(cfgs[i].sched.policy) +
                            " seed " + std::to_string(cfgs[i].seed) + ": " +
                            d;
    };
    const auto samples =
        timedRounds(cfgs.size(), seconds, trace, 2, run_one);

    // The traced run re-runs each configuration crash-free through
    // runTorture() for the counters a crashed machine never finalizes
    // (sched.*, prof.cycles.*, torture.oracle_checks); its step count
    // must equal the crash cycle's own probe.
    std::vector<torture::TortureResult> probes;
    if (trace) {
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            torture::TortureConfig cfg = cfgs[i];
            cfg.policy.durable = true;
            cfg.record = false;
            probes.push_back(torture::runTorture(cfg));
            if (probes.back().steps != first[i].probeSteps &&
                observer_diff.empty())
                observer_diff = "runTorture steps differ from the crash "
                                "cycle's probe";
        }
    }

    int failed = 0;
    for (const torture::CrashTortureResult &r : first)
        failed += !r.ok;
    w.kv("simulations", std::uint64_t(cfgs.size()));
    w.kv("invalid", std::uint64_t(failed));
    w.kv("product_check", "tmtorture");
    w.kv("observer_check", observer_diff.empty() ? "ok" : observer_diff);
    // One tmtorture invocation per (backend, policy) cell of the sweep.
    w.key("torture_invocations").beginArray();
    for (TxSystemKind kind : kTortureBackends) {
        for (SchedPolicy policy : kTorturePolicies) {
            w.beginArray();
            for (const char *a : {"--crash", "--workloads", "kv",
                                  "--timeline", "--watchdog", "--backends"})
                w.value(a);
            w.value(txSystemKindName(kind));
            w.value("--policies");
            w.value(schedPolicyName(policy));
            w.value("--seed");
            w.value(std::to_string(base));
            w.value("--seeds");
            w.value(std::to_string(kTortureSeeds));
            w.endArray();
        }
    }
    w.endArray();
    w.key("setup_s").beginArray();
    for (double t : setups)
        w.value(t);
    w.endArray();
    w.key("setup_ref_s").beginArray();
    w.value(setup_ref_before);
    w.value(setup_ref_after);
    w.endArray();
    writeSamples(w, samples);
    w.key("runs").beginArray();
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const torture::CrashTortureResult &r = first[i];
        w.beginObject();
        w.kv("backend", txSystemKindName(cfgs[i].kind));
        w.kv("policy", schedPolicyName(cfgs[i].sched.policy));
        w.kv("seed", cfgs[i].seed);
        w.kv("ok", r.ok);
        w.kv("why", r.why);
        w.kv("crash_step", r.crashStep);
        w.kv("probe_steps", r.probeSteps);
        w.kv("crash_steps", r.crashSteps);
        w.kv("committed", r.committedTx);
        w.kv("fenced", r.fencedTx);
        w.kv("recovered", r.recoveredTx);
        w.kv("discarded", r.discardedRecords);
        if (!r.recoverJson.empty())
            w.key("recover").raw(r.recoverJson);
        w.endObject();
    }
    w.endArray();
    w.key("probes").beginArray();
    for (const torture::TortureResult &r : probes) {
        w.beginObject();
        w.kv("ok", r.ok());
        w.kv("steps", r.steps);
        w.kv("cycles", std::uint64_t(r.cycles));
        w.key("counters").beginObject();
        for (const auto &[k, v] : r.stats)
            w.kv(k, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();
}
/** @} */

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: ufobench WORKLOAD SEED SECONDS TRACE SPANS_OUT\n"
                 "  WORKLOAD: stamp-kmeans-high stamp-vacation-low "
                 "stamp-genome kv-durable torture-crash\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 6)
        usage();
    const std::string workload = argv[1];
    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(argv[2], &end, 10);
    if (*end || seed == 0)
        usage();
    const double seconds = std::strtod(argv[3], &end);
    if (*end || seconds <= 0)
        usage();
    const bool trace = std::strcmp(argv[4], "1") == 0;
    const std::string spans_out = argv[5];

    json::Writer w;
    w.beginObject();
    w.kv("workload", workload);
    w.kv("seed", seed);
    if (workload == "stamp-kmeans-high") {
        simulatedWorkload(stampInstances("kmeans-high", seed), seconds,
                          trace, w);
    } else if (workload == "stamp-vacation-low") {
        simulatedWorkload(stampInstances("vacation-low", seed), seconds,
                          trace, w);
    } else if (workload == "stamp-genome") {
        simulatedWorkload(stampInstances("genome", seed), seconds, trace,
                          w);
    } else if (workload == "kv-durable") {
        simulatedWorkload(kvInstances(seed), seconds, trace, w);
        w.kv("offered_requests",
             std::uint64_t(kKvClients) * kKvRequestsPerClient);
    } else if (workload == "torture-crash") {
        tortureWorkload(seed, seconds, trace, w);
    } else {
        usage();
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    w.kv("peak_rss_kb", std::uint64_t(ru.ru_maxrss));
    w.endObject();
    if (trace)
        writeSpans(spans_out);
    std::printf("%s\n", w.str().c_str());
    return 0;
}
