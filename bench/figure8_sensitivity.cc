/**
 * @file
 * Figure 8 / Section 5.4: sensitivity of the UFO hybrid to the
 * contention-management policy choices, on the contention-heavy
 * benchmarks (8 threads).  Bars, normalized to the paper's
 * recommended policy (higher is better):
 *
 *   1. requester-wins hardware CM (with failover after 5 conflict
 *      aborts to preserve forward progress) — "performance tanks";
 *   2. age-ordered CM but failing over to software on the 5th
 *      contention abort — worse than never failing over;
 *   3. stall (rather than abort) on UFO faults — partial mitigation
 *      when combined with bar 2's failover policy;
 *   4. oracle: UFO bit sets only kill true conflicts — little gain,
 *      false conflicts are not a first-order cost.
 */

#include <cstdio>
#include <cstring>

#include "bench_util.hh"

using namespace utm;
using namespace utm::bench;

namespace {

struct PolicyCase
{
    const char *label;
    TmPolicy policy;
};

std::vector<PolicyCase>
policyCases()
{
    std::vector<PolicyCase> out;

    TmPolicy recommended; // Paper defaults.
    out.push_back({"recommended", recommended});

    TmPolicy requester_wins = recommended;
    requester_wins.btm.cm = BtmPolicy::Cm::RequesterWins;
    requester_wins.conflictFailoverThreshold = 5; // Livelock escape.
    out.push_back({"requester-wins", requester_wins});

    TmPolicy failover_nth = recommended;
    failover_nth.conflictFailoverThreshold = 5;
    out.push_back({"failover-on-5th-conflict", failover_nth});

    TmPolicy stall_ufo = failover_nth;
    stall_ufo.btm.ufoFaultResponse = BtmPolicy::UfoFaultResponse::Stall;
    out.push_back({"stall-on-ufo-fault", stall_ufo});

    TmPolicy oracle = recommended;
    oracle.btm.ufoSetTrueConflictOracle = true;
    out.push_back({"true-conflict-oracle", oracle});

    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 1.0;
    int threads = 8;
    JsonReport report("figure8_sensitivity", argc, argv);
    parseSchedArgs(argc, argv);
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--quick"))
            scale = 0.5;

    std::printf("Figure 8: UFO-hybrid CM policy sensitivity "
                "(%d threads; performance normalized to the "
                "recommended policy)\n\n", threads);

    const BenchSpec benches[] = {
        {"kmeans-high", "kmeans", true},
        {"vacation-high", "vacation", true},
        {"vacation-low", "vacation", false},
        {"genome", "genome", false},
    };

    auto cases = policyCases();
    std::printf("%-26s", "policy");
    for (const BenchSpec &b : benches)
        std::printf(" %14s", b.id.c_str());
    std::printf("\n");

    auto run = [&](std::size_t i, const TmPolicy &policy) {
        auto w = makeStampWorkload(benches[i], scale);
        RunConfig cfg = baseRunConfig();
        cfg.kind = TxSystemKind::UfoHybrid;
        cfg.threads = threads;
        cfg.machine.seed = 42;
        cfg.policy = policy;
        return runWorkload(*w, cfg);
    };

    // The recommended policy's runs are the baseline; its row reuses
    // them.
    std::vector<RunResult> recommended;
    for (std::size_t i = 0; i < std::size(benches); ++i) {
        recommended.push_back(run(i, cases[0].policy));
        if (!recommended.back().valid)
            std::abort();
    }

    for (const PolicyCase &pc : cases) {
        std::printf("%-26s", pc.label);
        for (std::size_t i = 0; i < std::size(benches); ++i) {
            const Cycles base = recommended[i].cycles;
            const RunResult r =
                &pc == &cases[0] ? recommended[i] : run(i, pc.policy);
            if (!r.valid) {
                std::printf(" %14s", "INVALID");
                continue;
            }
            std::printf(" %14.2f", double(base) / double(r.cycles));
            if (report.enabled()) {
                json::Writer jw;
                jw.beginObject();
                jw.kv("policy", pc.label);
                jw.kv("benchmark", benches[i].id);
                jw.kv("threads", threads);
                jw.kv("relative_performance",
                      double(base) / double(r.cycles));
                emitRunResult(jw, r);
                jw.endObject();
                report.row(jw);
            }
        }
        std::printf("\n");
    }
    return report.write() ? 0 : 1;
}
