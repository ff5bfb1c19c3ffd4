/**
 * @file
 * bench_svc: tmserve throughput and tail-latency benchmarks.
 *
 * Each mode writes one "ufotm-svc" document (docs/OBSERVABILITY.md).
 * A mode is a list of arms, one svc::runService configuration each,
 * plus a gate over their results.  One runner runs the arms in order:
 * it fails on an invalid run, prints the arm's table line, and writes
 * the arm's throughput row and its six per-request-type latency rows
 * (p50/p99/p99.9 cycles; open-loop latency counts from arrival, so
 * queueing delay lands in the tail).
 *
 *  - default, svc_latency (schema v2): every Figure-5 system in closed
 *    loop (think time) and open loop (arrival rate + admission
 *    control), over Zipfian keys with a raw non-transactional GET
 *    fraction.  No gate.
 *  - `--scaling`, svc_scaling (v2, EXPERIMENTS.md E12): closed-loop
 *    ustm-ufo throughput and tail latency versus core count x shard
 *    count, at a constant total index/otable budget; one row per
 *    point and no per-type rows.  Gate: 8 shards reach >= 3x the
 *    1-shard throughput at 32 cores at a comparable abort rate.
 *  - `--predictor`, svc_predictor (v3): the ufo-hybrid with the path
 *    predictor (src/hybrid/path_predictor.hh) off and on, on a mix
 *    whose SCANs deterministically overflow the L1 read set.  Gate
 *    (full scale only): closed-loop p99.9 SCAN latency improves at
 *    equal-or-better throughput; open-loop served count and
 *    throughput improve.
 *  - `--batching`, svc_batching (v4): request coalescing
 *    (src/svc/coalescer.hh) off and on, on the ufo-hybrid and the
 *    all-software ustm-ufo, in both loop modes.  Gate (full scale
 *    only): higher throughput at an equal-or-lower abort rate, with
 *    fewer begin+commit cycles per served request.
 *  - `--durable`, svc_durable (v5): TmPolicy::durable off and on
 *    (src/mem/persist.hh), same systems and loop modes.  Gate: the off
 *    arm carries no persistence counters, the on arm logs every
 *    writing commit and charges persist cycles, and closed-loop
 *    throughput stays within 3x of the off arm.
 *
 * A failed validation or gate exits 1.  `--json[=PATH]` writes the
 * document (default BENCH_<document>.json); CI compares it byte for
 * byte with its committed baseline in bench/baselines/.  `--quick`
 * shrinks the request counts to the scale tools/runbench.sh pins.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "sim/prof.hh"
#include "svc/service.hh"

namespace {

using namespace utm;
using ull = unsigned long long;

/** Clients (one per simulated core) in every mode but --scaling. */
constexpr int kClients = 4;

/** The systems the batching and durability A/Bs compare. */
const std::vector<TxSystemKind> kAbSystems = {TxSystemKind::UfoHybrid,
                                              TxSystemKind::UstmStrong};

const std::array<svc::ReqType, svc::kNumReqTypes> kReqTypes = {
    svc::ReqType::Get,  svc::ReqType::Put,  svc::ReqType::Scan,
    svc::ReqType::Rmw,  svc::ReqType::Xfer, svc::ReqType::RawGet,
};

/** One svc::runService configuration and the row keys naming it. */
struct Arm
{
    const char *mode;   ///< "closed", "open" or "scaling".
    const char *series; ///< A/B arm label; nullptr writes no series key.
    svc::SvcParams params;
    RunConfig cfg;
};

/** A closed- or open-loop arm on the kClients-core machine, seed 42. */
Arm
clientArm(TxSystemKind kind, const char *series, const svc::SvcParams &p)
{
    Arm a{p.load.openLoop ? "open" : "closed", series, p,
          bench::baseRunConfig()};
    a.cfg.kind = kind;
    a.cfg.threads = kClients;
    a.cfg.machine.seed = 42;
    return a;
}

/**
 * The A/B modes' arms: an off/on pair for each system in @p kinds, in
 * closed loop then open loop.  @p make builds one arm.
 */
template <typename Make>
std::vector<Arm>
abArms(const std::vector<TxSystemKind> &kinds, Make make)
{
    std::vector<Arm> arms;
    for (TxSystemKind kind : kinds)
        for (const bool open_loop : {false, true})
            for (const bool on : {false, true})
                arms.push_back(make(kind, open_loop, on));
    return arms;
}

/** One arm's result and the figures every mode derives from it. */
struct Point
{
    RunResult res;
    std::uint64_t served = 0;
    std::uint64_t shed = 0;
    std::uint64_t aborts = 0;
    double abortRate = 0.0;
    double throughput = 0.0; ///< Served requests per million cycles.

    /** @p total per served request. */
    double
    perReq(std::uint64_t total) const
    {
        return served ? double(total) / double(served) : 0.0;
    }
};

/** Simulated cycles all threads spent in profiler phase @p phase. */
std::uint64_t
phaseCycles(const RunResult &res, const char *phase)
{
    std::uint64_t sum = 0;
    for (int c = 0; c < kNumProfComps; ++c)
        sum += res.stat(std::string("prof.cycles.") +
                        profCompName(ProfComp(c)) + "." + phase);
    return sum;
}

/** The row fields a mode writes beyond those every mode writes. */
struct Rows
{
    const char *benchmark; ///< Every row's "benchmark" value.
    bool batchK = false;   ///< batch_k key after series (svc-batching).
    /** svc-scaling: a shards key after threads, no shed field and no
     *  per-request-type rows. */
    bool scaling = false;
    bool queued = false;    ///< queued after shed (svc-latency).
    bool abortRate = false; ///< abort_rate after aborts.
    /** Fields that end the throughput row; none when null. */
    void (*fields)(json::Writer &, const Point &) = nullptr;
    /** Print the mode's table line for one arm. */
    void (*line)(const Arm &, const Point &) = nullptr;
};

/** Open a row with the keys that identify arm @p a. */
void
beginRow(json::Writer &w, const Rows &rows, const Arm &a)
{
    w.beginObject();
    w.kv("benchmark", rows.benchmark);
    w.kv("system", txSystemKindName(a.cfg.kind));
    w.kv("mode", a.mode);
    if (a.series)
        w.kv("series", a.series);
    if (rows.batchK)
        w.kv("batch_k", std::uint64_t(a.params.maxBatch));
    w.kv("threads", a.cfg.threads);
    if (rows.scaling)
        w.kv("shards", std::uint64_t(a.params.shards));
}

void
writeQuantiles(json::Writer &w, const Histogram &h)
{
    w.kv("p50_cycles", h.quantile(0.50));
    w.kv("p99_cycles", h.quantile(0.99));
    w.kv("p999_cycles", h.quantile(0.999));
}

/** One latency row per request type for arm @p a. */
void
writeLatencyRows(bench::JsonReport &report, const Rows &rows,
                 const Arm &a, const RunResult &res)
{
    for (svc::ReqType t : kReqTypes) {
        const char *tname = svc::reqTypeName(t);
        json::Writer r;
        beginRow(r, rows, a);
        r.kv("request", tname);
        r.kv("requests", res.stat(std::string("svc.requests.") + tname));
        writeQuantiles(r, res.hist(std::string("svc.latency.") + tname));
        r.endObject();
        report.row(r);
    }
}

/**
 * Run arm @p a into @p p: fail if the run does not validate, print
 * its table line, and write its throughput row plus (except under
 * --scaling) its per-request-type latency rows.
 */
bool
runArm(const Rows &rows, const Arm &a, bench::JsonReport &report,
       Point *p)
{
    p->res = svc::runService(a.params, a.cfg);
    const RunResult &res = p->res;
    if (!res.valid) {
        std::fprintf(stderr,
                     "VALIDATION FAILED: %s on %s (%s%s%s, %d threads, "
                     "%u shards)\n",
                     rows.benchmark, txSystemKindName(a.cfg.kind), a.mode,
                     a.series ? " " : "", a.series ? a.series : "",
                     a.cfg.threads, a.params.shards);
        return false;
    }
    p->served = res.stat("svc.requests");
    p->shed = res.stat("svc.shed");
    p->aborts = res.stat("svc.request_aborts");
    p->abortRate = p->perReq(p->aborts);
    p->throughput =
        res.cycles ? double(p->served) * 1e6 / double(res.cycles) : 0.0;
    rows.line(a, *p);

    if (!report.enabled())
        return true;
    json::Writer w;
    beginRow(w, rows, a);
    w.kv("requests", p->served);
    if (!rows.scaling)
        w.kv("shed", p->shed);
    if (rows.queued)
        w.kv("queued", res.stat("svc.queued"));
    w.kv("aborts", p->aborts);
    if (rows.abortRate)
        w.kv("abort_rate", p->abortRate);
    w.kv("run_cycles", res.cycles);
    w.kv("throughput_req_per_mcycle", p->throughput);
    if (rows.fields)
        rows.fields(w, *p);
    w.endObject();
    report.row(w);
    if (!rows.scaling)
        writeLatencyRows(report, rows, a, res);
    return true;
}

/** Run @p arms in order; @p points gets one entry per arm. */
bool
runArms(const Rows &rows, const std::vector<Arm> &arms,
        bench::JsonReport &report, std::vector<Point> *points)
{
    points->resize(arms.size());
    for (std::size_t i = 0; i < arms.size(); ++i)
        if (!runArm(rows, arms[i], report, &(*points)[i]))
            return false;
    return true;
}

svc::SvcParams
benchParams(bool open_loop, bool quick)
{
    svc::SvcParams p;
    p.load.keyspace = 128;
    p.load.zipfTheta = 0.8; // Skewed: a few hot keys carry the load.
    p.load.requestsPerClient = quick ? 24 : 96;
    p.load.scanLen = 8;
    p.load.seed = 7;
    p.load.openLoop = open_loop;
    // Open loop: arrivals faster than the contended service rate, so
    // queues build and the admission bound sheds under pressure.
    p.load.meanInterarrival = 150;
    p.load.meanThink = 200;
    p.mapBuckets = 32;
    p.maxQueueDepth = 16;
    return p;
}

int
runLatency(bool quick, bench::JsonReport &report)
{
    std::printf("tmserve: KV service, %d clients, Zipfian(0.8) keys, "
                "%d requests/client%s\n",
                kClients, benchParams(false, quick).load.requestsPerClient,
                quick ? " (quick)" : "");
    std::printf("%-13s %-6s %9s %6s %11s %9s %9s %9s\n", "system",
                "mode", "requests", "shed", "req/Mcyc", "p50", "p99",
                "p99.9");

    std::vector<Arm> arms;
    for (const bool open_loop : {false, true})
        for (TxSystemKind kind : bench::figure5Systems())
            arms.push_back(
                clientArm(kind, nullptr, benchParams(open_loop, quick)));
    const Rows rows{
        .benchmark = "svc-latency",
        .queued = true,
        .line =
            [](const Arm &a, const Point &p) {
                const Histogram &lat = p.res.hist("svc.latency");
                std::printf("%-13s %-6s %9llu %6llu %11.1f %9llu %9llu "
                            "%9llu\n",
                            txSystemKindName(a.cfg.kind), a.mode,
                            ull(p.served), ull(p.shed), p.throughput,
                            ull(lat.quantile(0.50)),
                            ull(lat.quantile(0.99)),
                            ull(lat.quantile(0.999)));
            },
    };
    std::vector<Point> points;
    return runArms(rows, arms, report, &points) ? 0 : 1;
}

/**
 * Predictor A/B configuration: the latency-bench service shape with
 * lengthened SCANs, on a capacity-bound L1 (kPredictorL1Sets x
 * kPredictorL1Ways = 64 speculative lines; the default 64x8 geometry
 * holds the whole 128-key store, so nothing ever overflows) — every
 * hardware SCAN attempt deterministically SetOverflows its way to
 * software, while the point requests still fit.  That
 * re-discovered-every-time failover is exactly what the path
 * predictor learns away.
 */
constexpr unsigned kPredictorL1Sets = 16;
constexpr unsigned kPredictorL1Ways = 4;

svc::SvcParams
predictorParams(bool open_loop, bool quick)
{
    svc::SvcParams p = benchParams(open_loop, quick);
    p.load.scanLen = 48;
    // Scan-heavy, lightly-written mix: the SCAN tail then measures the
    // serving path (is the doomed hardware attempt skipped?) rather
    // than software-retry noise from writers on the hot keys.
    p.load.mix.getPct = 45;
    p.load.mix.putPct = 10;
    p.load.mix.scanPct = 30;
    p.load.mix.rmwPct = 5;
    p.load.mix.xferPct = 0;
    p.load.mix.rawGetPct = 10;
    // Long scans make requests ~10x slower than the latency bench's
    // but arrivals keep the 150-cycle spacing: the open-loop point is
    // a deliberate overload probe — the predictor's win there is
    // capacity (more requests served before the admission bound sheds),
    // measured by the throughput gate below.
    p.load.meanInterarrival = 1500;
    return p;
}

std::uint64_t
scanP999(const Point &p)
{
    return p.res.hist("svc.latency.scan").quantile(0.999);
}

int
runPredictor(bool quick, bench::JsonReport &report)
{
    const TxSystemKind kind = TxSystemKind::UfoHybrid;
    std::printf("tmserve predictor A/B: %s, %d clients, Zipfian(0.8) "
                "keys, scanLen %llu%s\n",
                txSystemKindName(kind), kClients,
                ull(predictorParams(false, quick).load.scanLen),
                quick ? " (quick)" : "");
    std::printf("%-6s %-9s %9s %6s %11s %10s %10s %10s %12s %11s\n",
                "mode", "predictor", "requests", "shed", "req/Mcyc",
                "scan p50", "scan p99", "scan p99.9", "predictions",
                "mispredicts");

    const std::vector<Arm> arms =
        abArms({kind}, [&](TxSystemKind k, bool open_loop, bool on) {
            Arm a = clientArm(k, on ? "predictor-on" : "predictor-off",
                              predictorParams(open_loop, quick));
            a.cfg.machine.l1Sets = kPredictorL1Sets;
            a.cfg.machine.l1Ways = kPredictorL1Ways;
            a.cfg.policy.predictor.enable = on;
            return a;
        });
    const Rows rows{
        .benchmark = "svc-predictor",
        .fields =
            [](json::Writer &w, const Point &p) {
                w.kv("predictions", p.res.stat("pred.predictions"));
                w.kv("predicted_sw", p.res.stat("pred.predictions.sw"));
                w.kv("hits", p.res.stat("pred.hits"));
                w.kv("mispredicts", p.res.stat("pred.mispredicts"));
            },
        .line =
            [](const Arm &a, const Point &p) {
                const Histogram &scan = p.res.hist("svc.latency.scan");
                std::printf("%-6s %-9s %9llu %6llu %11.1f %10llu %10llu "
                            "%10llu %12llu %11llu\n",
                            a.mode,
                            a.cfg.policy.predictor.enable ? "on" : "off",
                            ull(p.served), ull(p.shed), p.throughput,
                            ull(scan.quantile(0.50)),
                            ull(scan.quantile(0.99)),
                            ull(scan.quantile(0.999)),
                            ull(p.res.stat("pred.predictions")),
                            ull(p.res.stat("pred.mispredicts")));
            },
    };
    std::vector<Point> points;
    if (!runArms(rows, arms, report, &points))
        return 1;

    // The win criterion, self-gating so CI fails loudly if the
    // predictor stops paying for itself:
    //  - closed loop (the latency criterion): predicted-software SCAN
    //    starts skip the doomed hardware attempt, so p99.9 SCAN
    //    latency improves at equal-or-better throughput;
    //  - open loop (the capacity criterion): under overload, the
    //    cycles not wasted on doomed attempts serve more requests
    //    before the admission bound sheds — served count and
    //    throughput must both improve.
    // Quick mode reports the same rows but does not gate: with 24
    // requests per client the predictor's warm-up (one hard failover
    // per site) is a large fraction of the whole run.
    if (quick) {
        std::printf("predictor gate: skipped in --quick (warm-up "
                    "dominates the short streams)\n");
        return 0;
    }
    int rc = 0;
    const Point &c_off = points[0];
    const Point &c_on = points[1];
    std::printf("predictor gate (closed): scan p99.9 %llu -> %llu, "
                "throughput %.1f -> %.1f req/Mcyc\n",
                ull(scanP999(c_off)), ull(scanP999(c_on)),
                c_off.throughput, c_on.throughput);
    if (scanP999(c_on) >= scanP999(c_off)) {
        std::fprintf(stderr,
                     "PREDICTOR GATE FAILED (closed): scan p99.9 "
                     "%llu !< %llu\n",
                     ull(scanP999(c_on)), ull(scanP999(c_off)));
        rc = 1;
    }
    if (c_on.throughput < c_off.throughput) {
        std::fprintf(stderr,
                     "PREDICTOR GATE FAILED (closed): throughput "
                     "%.2f < %.2f req/Mcyc\n",
                     c_on.throughput, c_off.throughput);
        rc = 1;
    }
    const Point &o_off = points[2];
    const Point &o_on = points[3];
    std::printf("predictor gate (open): served %llu -> %llu, "
                "throughput %.1f -> %.1f req/Mcyc\n",
                ull(o_off.served), ull(o_on.served), o_off.throughput,
                o_on.throughput);
    if (o_on.served < o_off.served || o_on.throughput < o_off.throughput) {
        std::fprintf(stderr,
                     "PREDICTOR GATE FAILED (open): served %llu / "
                     "throughput %.2f not better than %llu / %.2f\n",
                     ull(o_on.served), o_on.throughput,
                     ull(o_off.served), o_off.throughput);
        rc = 1;
    }
    return rc;
}

/**
 * Batching A/B configuration: the latency-bench service shape with a
 * read-heavy, xfer-free mix (long same-class runs are what the
 * coalescer drains), a thin closed-loop think time (so the
 * per-transaction begin/commit tax is a visible fraction of each
 * request), and an open-loop overload (deep admission queues are
 * where coalescing recovers capacity).
 */
svc::SvcParams
batchingParams(TxSystemKind kind, bool open_loop, bool quick,
               bool batch_on)
{
    svc::SvcParams p = benchParams(open_loop, quick);
    p.load.mix.getPct = 50;
    p.load.mix.putPct = 15;
    p.load.mix.scanPct = 15;
    p.load.mix.rmwPct = 10;
    p.load.mix.xferPct = 0;
    p.load.mix.rawGetPct = 10;
    p.load.keyspace = 256;
    p.load.zipfTheta = 0.4;
    p.load.meanThink = 20;
    // Moderate open-loop overload *relative to each system's service
    // rate* (ustm-strong serves ~8x slower than ufo-hybrid): deep
    // enough that admission backlogs form and coalescing has work,
    // shallow enough that most requests are served, not shed.
    p.load.meanInterarrival =
        kind == TxSystemKind::UstmStrong ? 900 : 100;
    p.mapBuckets = 256;
    // The sweep includes the all-software baseline (ustm-strong),
    // where amortizing the fixed software begin/commit tax is the
    // whole point (clean commits grow K on either path); the adaptive
    // shrink still protects contended sites.
    p.maxBatch = batch_on ? 8 : 0;
    return p;
}

/** Begin and commit cycles per served request: the per-transaction
 *  tax that coalescing amortizes. */
double
beginCommitPerReq(const Point &p)
{
    return p.perReq(phaseCycles(p.res, "begin") +
                    phaseCycles(p.res, "commit"));
}

int
runBatching(bool quick, bench::JsonReport &report)
{
    std::printf("tmserve batching A/B: %d clients, Zipfian(0.4) keys, "
                "maxBatch %u%s\n",
                kClients,
                batchingParams(TxSystemKind::UfoHybrid, false, quick, true)
                    .maxBatch,
                quick ? " (quick)" : "");
    std::printf("%-13s %-6s %-9s %9s %11s %10s %8s %8s %7s %11s\n",
                "system", "mode", "batching", "requests", "req/Mcyc",
                "abort_rate", "batches", "members", "splits",
                "beg+com/req");

    const std::vector<Arm> arms = abArms(
        kAbSystems, [&](TxSystemKind kind, bool open_loop, bool on) {
            return clientArm(kind, on ? "batching-on" : "batching-off",
                             batchingParams(kind, open_loop, quick, on));
        });
    const Rows rows{
        .benchmark = "svc-batching",
        .batchK = true,
        .abortRate = true,
        .fields =
            [](json::Writer &w, const Point &p) {
                w.kv("batches", p.res.stat("batch.batches"));
                w.kv("batch_members", p.res.stat("batch.members"));
                w.kv("batch_splits", p.res.stat("batch.splits"));
                w.kv("batch_aborts", p.res.stat("batch.aborts"));
                w.kv("begin_commit_cycles_per_req", beginCommitPerReq(p));
            },
        .line =
            [](const Arm &a, const Point &p) {
                std::printf("%-13s %-6s %-9s %9llu %11.1f %10.3f %8llu "
                            "%8llu %7llu %11.1f\n",
                            txSystemKindName(a.cfg.kind), a.mode,
                            a.params.maxBatch ? "on" : "off",
                            ull(p.served), p.throughput, p.abortRate,
                            ull(p.res.stat("batch.batches")),
                            ull(p.res.stat("batch.members")),
                            ull(p.res.stat("batch.splits")),
                            beginCommitPerReq(p));
            },
    };
    std::vector<Point> points;
    if (!runArms(rows, arms, report, &points))
        return 1;

    // The win criterion, self-gating so CI fails loudly if coalescing
    // stops paying for itself: for every swept system and loop mode,
    // batching-on must beat batching-off throughput at an
    // equal-or-lower per-request abort rate, and must spend fewer
    // begin/commit cycles per served request — the amortization the
    // batch exists to recover.  Quick mode reports the same rows but
    // does not gate: with 24 requests per client the adaptive K
    // barely warms up.
    if (quick) {
        std::printf("batching gate: skipped in --quick (adaptive K "
                    "warm-up dominates the short streams)\n");
        return 0;
    }
    int rc = 0;
    for (std::size_t i = 0; i < points.size(); i += 2) {
        const char *system = txSystemKindName(arms[i].cfg.kind);
        const char *mode = arms[i].mode;
        const Point &off = points[i];
        const Point &on = points[i + 1];
        std::printf("batching gate (%s, %s): throughput %.1f -> %.1f "
                    "req/Mcyc, abort rate %.3f -> %.3f, beg+com/req "
                    "%.1f -> %.1f\n",
                    system, mode, off.throughput, on.throughput,
                    off.abortRate, on.abortRate, beginCommitPerReq(off),
                    beginCommitPerReq(on));
        if (on.throughput <= off.throughput) {
            std::fprintf(stderr,
                         "BATCHING GATE FAILED (%s, %s): throughput "
                         "%.2f !> %.2f req/Mcyc\n",
                         system, mode, on.throughput, off.throughput);
            rc = 1;
        }
        if (on.abortRate > off.abortRate) {
            std::fprintf(stderr,
                         "BATCHING GATE FAILED (%s, %s): abort rate "
                         "%.3f > %.3f\n",
                         system, mode, on.abortRate, off.abortRate);
            rc = 1;
        }
        if (beginCommitPerReq(on) >= beginCommitPerReq(off)) {
            std::fprintf(stderr,
                         "BATCHING GATE FAILED (%s, %s): begin+commit "
                         "%.2f !< %.2f cycles/req\n",
                         system, mode, beginCommitPerReq(on),
                         beginCommitPerReq(off));
            rc = 1;
        }
    }
    return rc;
}

/** Persist cycles per served request: clwb write-backs and commit
 *  fences charged to the redo-log append (0 on a non-durable run). */
double
persistPerReq(const Point &p)
{
    return p.perReq(phaseCycles(p.res, "persist"));
}

int
runDurable(bool quick, bench::JsonReport &report)
{
    std::printf("tmserve durability A/B: %d clients, Zipfian(0.8) "
                "keys%s\n",
                kClients, quick ? " (quick)" : "");
    std::printf("%-13s %-6s %-8s %9s %11s %10s %8s %10s %12s\n",
                "system", "mode", "durable", "requests", "req/Mcyc",
                "abort_rate", "records", "log_bytes", "persist/req");

    const std::vector<Arm> arms = abArms(
        kAbSystems, [&](TxSystemKind kind, bool open_loop, bool on) {
            Arm a = clientArm(kind, on ? "durable-on" : "durable-off",
                              benchParams(open_loop, quick));
            a.cfg.policy.durable = on;
            return a;
        });
    const Rows rows{
        .benchmark = "svc-durable",
        .abortRate = true,
        .fields =
            [](json::Writer &w, const Point &p) {
                w.kv("dur_records", p.res.stat("dur.commits.logged"));
                w.kv("dur_log_bytes", p.res.stat("dur.log_bytes"));
                w.kv("dur_sfence", p.res.stat("dur.sfence"));
                w.kv("dur_clwb", p.res.stat("dur.clwb.dirty") +
                                     p.res.stat("dur.clwb.clean"));
                w.kv("persist_cycles_per_req", persistPerReq(p));
            },
        .line =
            [](const Arm &a, const Point &p) {
                std::printf("%-13s %-6s %-8s %9llu %11.1f %10.3f %8llu "
                            "%10llu %12.1f\n",
                            txSystemKindName(a.cfg.kind), a.mode,
                            a.cfg.policy.durable ? "on" : "off",
                            ull(p.served), p.throughput, p.abortRate,
                            ull(p.res.stat("dur.commits.logged")),
                            ull(p.res.stat("dur.log_bytes")),
                            persistPerReq(p));
            },
    };
    std::vector<Point> points;
    if (!runArms(rows, arms, report, &points))
        return 1;

    // The durability-overhead measurement, self-gating so CI fails
    // loudly if the redo log stops being cheap or stops logging: for
    // every swept system and loop mode the durable-off arm must be
    // exactly the non-durable machine (no persistence counters, no
    // persist cycles — the inert-domain guarantee the byte-identical
    // committed baselines rest on), the durable-on arm must actually
    // log (records > 0, >= 56 bytes each — the minimum record is
    // header + txid/ts/count + one write triple) and charge its cost
    // to prof.cycles.*.persist, and the measured overhead must stay
    // bounded: closed-loop durable-on throughput >= 1/3 of
    // durable-off.  The bound is deliberately loose — the interesting
    // number is the committed baseline row, which CI pins byte for
    // byte — but a 3x closed-loop collapse means the append
    // path grew a pathology.  Open-loop throughput is not bounded:
    // there the fence latency pushes the contended service rate below
    // the fixed arrival rate, so the off/on ratio measures how
    // overloaded the arrival schedule is, not what the log costs (the
    // fast hybrid drops past 1/3 while spending ~350 persist
    // cycles/request — both numbers are pinned in the baseline).
    int rc = 0;
    for (std::size_t i = 0; i < points.size(); i += 2) {
        const char *system = txSystemKindName(arms[i].cfg.kind);
        const char *mode = arms[i].mode;
        const Point &off = points[i];
        const Point &on = points[i + 1];
        const std::uint64_t logged = on.res.stat("dur.commits.logged");
        const std::uint64_t log_bytes = on.res.stat("dur.log_bytes");
        std::printf("durable gate (%s, %s): throughput %.1f -> %.1f "
                    "req/Mcyc (%.1f%%), %llu records / %llu log bytes, "
                    "persist %.1f cyc/req\n",
                    system, mode, off.throughput, on.throughput,
                    off.throughput > 0.0
                        ? 100.0 * on.throughput / off.throughput
                        : 0.0,
                    ull(logged), ull(log_bytes), persistPerReq(on));
        if (off.res.stat("dur.commits.logged") != 0 ||
            off.res.stat("dur.log_bytes") != 0 ||
            persistPerReq(off) != 0.0) {
            std::fprintf(stderr,
                         "DURABLE GATE FAILED (%s, %s): durable-off arm "
                         "has persistence counters (inert domain "
                         "leaked)\n",
                         system, mode);
            rc = 1;
        }
        if (logged == 0 || log_bytes < 56 * logged) {
            std::fprintf(stderr,
                         "DURABLE GATE FAILED (%s, %s): %llu records / "
                         "%llu bytes logged\n",
                         system, mode, ull(logged), ull(log_bytes));
            rc = 1;
        }
        if (persistPerReq(on) <= 0.0) {
            std::fprintf(stderr,
                         "DURABLE GATE FAILED (%s, %s): no persist "
                         "cycles charged (the prof.cycles.*.persist "
                         "attribution broke)\n",
                         system, mode);
            rc = 1;
        }
        if (!arms[i].params.load.openLoop &&
            3.0 * on.throughput < off.throughput) {
            std::fprintf(stderr,
                         "DURABLE GATE FAILED (%s, %s): throughput "
                         "%.2f < 1/3 of %.2f req/Mcyc\n",
                         system, mode, on.throughput, off.throughput);
            rc = 1;
        }
    }
    return rc;
}

/**
 * Scaling-curve configuration.  Uniform keys keep logical (key-level)
 * conflicts — and therefore abort rates — low and comparable across
 * shard counts; the mix includes two-key transfers so cross-shard
 * commits are exercised on every sharded point.  The TOTAL map-bucket
 * and otable-bucket budgets are held constant (split across shards),
 * so the single-shard curve hits an index of the same capacity — its
 * flattening is physical contention on the store's singleton lines
 * (map/index header rows in the one otable, whose row locks every
 * transaction's read-set joins and releases serialize through), not a
 * smaller cache.  Sharding splits exactly those singletons; that this
 * is the mechanism is visible in prof.cycles.ustm.backoff collapsing
 * on the sharded points while abort counts stay flat.
 */
constexpr std::uint64_t kScalingMapBuckets = 512;
constexpr unsigned kScalingOtableBuckets = 65536; ///< Total, all shards.

svc::SvcParams
scalingParams(bool quick, unsigned shards)
{
    svc::SvcParams p;
    p.load.keyspace = 128;
    p.load.zipfTheta = 0.0; // Uniform: contention from structure, not skew.
    p.load.mix.getPct = 60;
    p.load.mix.putPct = 25;
    p.load.mix.scanPct = 0;
    p.load.mix.rmwPct = 10;
    p.load.mix.xferPct = 5;
    p.load.mix.rawGetPct = 0;
    p.load.requestsPerClient = quick ? 12 : 48;
    p.load.scanLen = 4;
    p.load.seed = 11;
    p.load.openLoop = false;
    p.load.meanThink = 0; // Saturating clients: peak-throughput regime.
    p.mapBuckets = std::max<std::uint64_t>(1, kScalingMapBuckets / shards);
    p.shards = shards;
    return p;
}

int
runScaling(bool quick, bench::JsonReport &report)
{
    const TxSystemKind kind = TxSystemKind::UstmStrong;
    std::vector<std::pair<int, unsigned>> grid;
    for (const int cores : {4, 8, 16, 32})
        for (const unsigned shards : {1u, 8u})
            grid.emplace_back(cores, shards);
    if (!quick) {
        // Full mode: extend the curve to 48 cores — the largest
        // machine the simulator supports (the otable owner set is one
        // 64-bit word, one bit per hardware thread, with the top slot
        // reserved for the init context) — and sweep the shard count
        // at the 32-core gate point.
        grid.emplace_back(48, 1u);
        grid.emplace_back(48, 8u);
        for (const unsigned shards : {2u, 4u, 16u})
            grid.emplace_back(32, shards);
    }

    std::printf("tmserve scaling: closed-loop %s, uniform keys, "
                "total %llu map buckets / %u otable buckets%s\n",
                txSystemKindName(kind), ull(kScalingMapBuckets),
                kScalingOtableBuckets, quick ? " (quick)" : "");
    std::printf("%-13s %5s %6s %9s %9s %10s %11s %9s %9s\n", "system",
                "cores", "shards", "requests", "aborts", "abort_rate",
                "req/Mcyc", "p99", "p99.9");

    std::vector<Arm> arms;
    for (const auto &[cores, shards] : grid) {
        Arm a{"scaling", nullptr, scalingParams(quick, shards),
              bench::baseRunConfig()};
        a.cfg.kind = kind;
        a.cfg.threads = cores;
        a.cfg.machine = MachineConfig::withCores(cores);
        a.cfg.machine.sched = bench::benchSched();
        a.cfg.machine.seed = 42;
        a.cfg.machine.otableBuckets =
            std::max(1024u, kScalingOtableBuckets / shards);
        arms.push_back(a);
    }
    const Rows rows{
        .benchmark = "svc-scaling",
        .scaling = true,
        .abortRate = true,
        .fields =
            [](json::Writer &w, const Point &p) {
                writeQuantiles(w, p.res.hist("svc.latency"));
            },
        .line =
            [](const Arm &a, const Point &p) {
                const Histogram &lat = p.res.hist("svc.latency");
                std::printf("%-13s %5d %6u %9llu %9llu %10.3f %11.1f "
                            "%9llu %9llu\n",
                            txSystemKindName(a.cfg.kind), a.cfg.threads,
                            a.params.shards, ull(p.served), ull(p.aborts),
                            p.abortRate, p.throughput,
                            ull(lat.quantile(0.99)),
                            ull(lat.quantile(0.999)));
            },
    };
    std::vector<Point> points;
    if (!runArms(rows, arms, report, &points))
        return 1;

    // The win criterion: >= 3x throughput at 32 cores with 8 shards
    // vs 1 shard, at a comparable abort rate.  Self-gating so CI fails
    // loudly if a regression flattens the sharded curve.
    const auto at32 = [&](unsigned shards) -> const Point & {
        return points[std::find(grid.begin(), grid.end(),
                                std::pair(32, shards)) -
                      grid.begin()];
    };
    const Point &one = at32(1);
    const Point &eight = at32(8);
    const double speedup =
        one.throughput > 0.0 ? eight.throughput / one.throughput : 0.0;
    std::printf("scaling gate: 32 cores, 8 shards vs 1 shard: %.2fx "
                "throughput (abort rate %.3f vs %.3f)\n",
                speedup, eight.abortRate, one.abortRate);
    if (speedup < 3.0) {
        std::fprintf(stderr,
                     "SCALING GATE FAILED: %.2fx < 3x at 32 cores\n",
                     speedup);
        return 1;
    }
    if (eight.abortRate > one.abortRate + 0.05) {
        std::fprintf(stderr,
                     "SCALING GATE FAILED: sharded abort rate %.3f "
                     "not comparable to unsharded %.3f\n",
                     eight.abortRate, one.abortRate);
        return 1;
    }
    return 0;
}

/** One bench_svc mode: its flag, its document and its runner. */
struct Mode
{
    const char *flag;
    const char *document;
    int schemaVersion;
    int (*run)(bool quick, bench::JsonReport &report);
};

/**
 * The modes in flag precedence order, the flagless default last.  Each
 * document keeps the "ufotm-svc" schema version it was introduced with,
 * so its committed baseline stays byte-stable (docs/OBSERVABILITY.md
 * has the migration notes):
 *  - v2: the xfer verb, the svc-scaling rows with their `shards` key,
 *    and the shard.* counters;
 *  - v3: the `series` key and the pred.* row fields;
 *  - v4: the `batch_k` key and the batch.* row fields;
 *  - v5: the durable-off/on series and the dur.* row fields.
 */
const Mode kModes[] = {
    {"--scaling", "svc_scaling", 2, runScaling},
    {"--predictor", "svc_predictor", 3, runPredictor},
    {"--batching", "svc_batching", 4, runBatching},
    {"--durable", "svc_durable", 5, runDurable},
    {"", "svc_latency", 2, runLatency},
};

} // namespace

int
main(int argc, char **argv)
{
    const auto given = [&](const char *flag) {
        for (int i = 1; i < argc; ++i)
            if (!std::strcmp(argv[i], flag))
                return true;
        return false;
    };
    const Mode *mode =
        std::find_if(std::begin(kModes), std::end(kModes) - 1,
                     [&](const Mode &m) { return given(m.flag); });
    bench::parseSchedArgs(argc, argv);
    bench::JsonReport report(mode->document, argc, argv, "ufotm-svc",
                             mode->schemaVersion);
    const int rc = mode->run(given("--quick"), report);
    if (rc != 0)
        return rc;
    return report.write() ? 0 : 1;
}
