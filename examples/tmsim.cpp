/**
 * @file
 * tmsim — command-line driver for the simulator: run any workload on
 * any TM system with any machine configuration and inspect the
 * statistics.
 *
 *   $ ./tmsim --workload vacation-low --system ufo-hybrid --threads 8
 *   $ ./tmsim -w genome -s phtm -t 16 --seed 7 --stats btm.aborts
 *   $ ./tmsim -w ubench -s hytm --failover-rate 0.2
 *   $ ./tmsim --list
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "stamp/failover_ubench.hh"
#include "stamp/genome.hh"
#include "stamp/intruder.hh"
#include "stamp/kmeans.hh"
#include "stamp/labyrinth.hh"
#include "stamp/ssca2.hh"
#include "stamp/vacation.hh"
#include "stamp/workload.hh"
#include "svc/service.hh"

using namespace utm;

namespace {

struct Options
{
    std::string workload = "kmeans-high";
    std::string system = "ufo-hybrid";
    int threads = 8;
    std::uint64_t seed = 42;
    double scale = 1.0;
    double failoverRate = 0.0;
    bool batch = false; // Request coalescing (kv-service only).
    bool durable = false; // Redo-log commits (durable backends only).
    unsigned l1Sets = 0;   // 0 = default
    Cycles quantum = ~Cycles(0); // ~0 = default
    std::string statsPrefix;
    std::string statsJsonPath;
    std::string tracePath;
    std::string timelinePath;
    Cycles timelineWindow = 0; // 0 = TelemetryConfig default
    bool listAndExit = false;
};

const char *kWorkloads[] = {
    "kmeans-high", "kmeans-low",   "vacation-high", "vacation-low",
    "genome",      "labyrinth",    "intruder",      "ssca2",
    "ubench",      "kv-service",   "kv-service-open",
};

const std::pair<const char *, TxSystemKind> kSystems[] = {
    {"no-tm", TxSystemKind::NoTm},
    {"unbounded-htm", TxSystemKind::UnboundedHtm},
    {"ufo-hybrid", TxSystemKind::UfoHybrid},
    {"hytm", TxSystemKind::HyTm},
    {"phtm", TxSystemKind::PhTm},
    {"ustm", TxSystemKind::Ustm},
    {"ustm-ufo", TxSystemKind::UstmStrong},
    {"tl2", TxSystemKind::Tl2},
};

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  -w, --workload NAME    workload (see --list)\n"
        "  -s, --system NAME      TM system (see --list)\n"
        "  -t, --threads N        simulated threads (default 8)\n"
        "      --seed N           RNG seed (default 42)\n"
        "      --scale F          problem-size multiplier\n"
        "      --failover-rate F  forced failover rate (ubench only)\n"
        "      --batch            request coalescing (kv-service\n"
        "                         only; emits the batch.* counters)\n"
        "      --durable          redo-log commits (durable\n"
        "                         backends only; emits the dur.*\n"
        "                         counters and the persist profile\n"
        "                         phase)\n"
        "      --l1-sets N        L1 set count (default 64 = 32 KiB)\n"
        "      --quantum N        timer quantum in cycles (0 = off)\n"
        "      --stats PREFIX     dump counters matching PREFIX\n"
        "      --stats-json PATH  write the stats-JSON document\n"
        "                         (docs/OBSERVABILITY.md; - = stdout)\n"
        "      --trace PATH       write a chrome://tracing trace\n"
        "      --timeline PATH    write the ufotm-timeline document\n"
        "                         (docs/OBSERVABILITY.md; - = stdout)\n"
        "      --timeline-window N  timeline window width in cycles\n"
        "      --list             list workloads and systems\n",
        argv0);
    std::exit(code);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage(argv[0], 1);
            }
            return argv[++i];
        };
        const char *a = argv[i];
        if (!std::strcmp(a, "-w") || !std::strcmp(a, "--workload"))
            o.workload = need(a);
        else if (!std::strcmp(a, "-s") || !std::strcmp(a, "--system"))
            o.system = need(a);
        else if (!std::strcmp(a, "-t") || !std::strcmp(a, "--threads"))
            o.threads = std::atoi(need(a));
        else if (!std::strcmp(a, "--seed"))
            o.seed = std::strtoull(need(a), nullptr, 0);
        else if (!std::strcmp(a, "--scale"))
            o.scale = std::atof(need(a));
        else if (!std::strcmp(a, "--failover-rate"))
            o.failoverRate = std::atof(need(a));
        else if (!std::strcmp(a, "--batch"))
            o.batch = true;
        else if (!std::strcmp(a, "--durable"))
            o.durable = true;
        else if (!std::strcmp(a, "--l1-sets"))
            o.l1Sets = unsigned(std::atoi(need(a)));
        else if (!std::strcmp(a, "--quantum"))
            o.quantum = std::strtoull(need(a), nullptr, 0);
        else if (!std::strcmp(a, "--stats"))
            o.statsPrefix = need(a);
        else if (!std::strcmp(a, "--stats-json"))
            o.statsJsonPath = need(a);
        else if (!std::strncmp(a, "--stats-json=", 13))
            o.statsJsonPath = a + 13;
        else if (!std::strcmp(a, "--trace"))
            o.tracePath = need(a);
        else if (!std::strncmp(a, "--trace=", 8))
            o.tracePath = a + 8;
        else if (!std::strcmp(a, "--timeline"))
            o.timelinePath = need(a);
        else if (!std::strncmp(a, "--timeline=", 11))
            o.timelinePath = a + 11;
        else if (!std::strcmp(a, "--timeline-window"))
            o.timelineWindow = std::strtoull(need(a), nullptr, 0);
        else if (!std::strcmp(a, "--list"))
            o.listAndExit = true;
        else if (!std::strcmp(a, "-h") || !std::strcmp(a, "--help"))
            usage(argv[0], 0);
        else {
            std::fprintf(stderr, "unknown option %s\n", a);
            usage(argv[0], 1);
        }
    }
    if (o.threads < 1) {
        std::fprintf(stderr, "thread count must be >= 1\n");
        std::exit(1);
    }
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    const std::string &w = o.workload;
    auto scaled = [&](int v) {
        return std::max(1, static_cast<int>(v * o.scale));
    };
    if (w == "kmeans-high" || w == "kmeans-low") {
        KmeansParams p = KmeansParams::contention(w == "kmeans-high");
        p.points = scaled(p.points);
        p.seed = o.seed;
        return std::make_unique<KmeansWorkload>(p);
    }
    if (w == "vacation-high" || w == "vacation-low") {
        VacationParams p =
            VacationParams::contention(w == "vacation-high");
        p.totalTasks = scaled(p.totalTasks);
        p.seed = o.seed;
        return std::make_unique<VacationWorkload>(p);
    }
    if (w == "genome") {
        GenomeParams p;
        p.segments = scaled(p.segments);
        p.uniquePool = scaled(p.uniquePool);
        p.seed = o.seed;
        return std::make_unique<GenomeWorkload>(p);
    }
    if (w == "labyrinth") {
        LabyrinthParams p;
        p.totalTasks = scaled(p.totalTasks);
        p.seed = o.seed;
        return std::make_unique<LabyrinthWorkload>(p);
    }
    if (w == "intruder") {
        IntruderParams p;
        p.flows = scaled(p.flows);
        p.seed = o.seed;
        return std::make_unique<IntruderWorkload>(p);
    }
    if (w == "ssca2") {
        Ssca2Params p;
        p.edges = scaled(p.edges);
        p.seed = o.seed;
        return std::make_unique<Ssca2Workload>(p);
    }
    if (w == "ubench") {
        FailoverParams p;
        p.txPerThread = scaled(p.txPerThread);
        p.failoverRate = o.failoverRate;
        p.seed = o.seed;
        return std::make_unique<FailoverUbench>(p);
    }
    if (w == "kv-service" || w == "kv-service-open") {
        svc::SvcParams p;
        p.load.openLoop = (w == "kv-service-open");
        p.load.zipfTheta = 0.8;
        p.load.requestsPerClient = scaled(p.load.requestsPerClient);
        p.load.seed = o.seed;
        p.maxBatch = o.batch ? 8 : 0;
        return std::make_unique<svc::KvServiceWorkload>(p);
    }
    std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    if (o.listAndExit) {
        std::printf("workloads:");
        for (const char *w : kWorkloads)
            std::printf(" %s", w);
        std::printf("\nsystems:  ");
        for (auto &[n, k] : kSystems)
            std::printf(" %s", n);
        std::printf("\n");
        return 0;
    }

    TxSystemKind kind = TxSystemKind::UfoHybrid;
    bool found = false;
    for (auto &[n, k] : kSystems) {
        if (o.system == n) {
            kind = k;
            found = true;
        }
    }
    if (!found) {
        std::fprintf(stderr, "unknown system '%s'\n",
                     o.system.c_str());
        return 1;
    }

    auto w = makeWorkload(o);
    RunConfig cfg;
    cfg.kind = kind;
    cfg.threads = o.threads;
    cfg.machine.seed = o.seed;
    if (o.l1Sets)
        cfg.machine.l1Sets = o.l1Sets;
    if (o.quantum != ~Cycles(0))
        cfg.machine.timerQuantum = o.quantum;
    cfg.scale = o.scale;
    cfg.policy.durable = o.durable;
    cfg.statsJsonPath = o.statsJsonPath;
    cfg.tracePath = o.tracePath;
    cfg.timelinePath = o.timelinePath;
    if (o.timelineWindow)
        cfg.machine.telemetry.windowCycles = o.timelineWindow;

    RunResult r = runWorkload(*w, cfg);

    // With --stats-json=- or --timeline=- the document owns stdout.
    if (o.statsJsonPath == "-" || o.timelinePath == "-")
        return r.valid ? 0 : 1;

    std::printf("workload      : %s\n", o.workload.c_str());
    std::printf("system        : %s\n", txSystemKindName(kind));
    std::printf("threads       : %d\n", o.threads);
    std::printf("cycles        : %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("validated     : %s\n", r.valid ? "yes" : "NO");
    std::printf("hw/sw commits : %llu / %llu\n",
                static_cast<unsigned long long>(r.hwCommits),
                static_cast<unsigned long long>(r.swCommits));
    std::printf("failovers     : %llu\n",
                static_cast<unsigned long long>(r.failovers));
    if (!o.statsPrefix.empty()) {
        std::printf("-- stats matching '%s' --\n",
                    o.statsPrefix.c_str());
        for (const auto &[name, value] : r.stats) {
            if (name.compare(0, o.statsPrefix.size(),
                             o.statsPrefix) == 0) {
                std::printf("%-36s %llu\n", name.c_str(),
                            static_cast<unsigned long long>(value));
            }
        }
    }
    return r.valid ? 0 : 1;
}
