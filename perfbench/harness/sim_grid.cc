/**
 * @file
 * sim_grid: the single-thread figure path on defaultConfig, timed
 * pass by pass. Per point: makeWorkload, System::reset on one
 * reused System, runWorkloadOn, RunCache::insert into a private
 * cache file; each pass ends with a flush.
 */

#include "sim_grid.hh"

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/runner.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "core/system.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

using namespace migc;

struct Point
{
    const char *workload;
    const char *policy;
    /** Metric name of this point's simulate span. */
    const char *metric;
};

// Why each point is here: perfbench/README.md, "sim_grid".
constexpr Point kPoints[] = {
    {"FwPool", "CacheRW", "core.runner.simulate_ms.FwPool-CacheRW"},
    {"FwAct", "Uncached", "core.runner.simulate_ms.FwAct-Uncached"},
    {"FwBwLSTM", "CacheRW", "core.runner.simulate_ms.FwBwLSTM-CacheRW"},
    {"BwBN", "CacheRW-Duel", "core.runner.simulate_ms.BwBN-CacheRW-Duel"},
    {"FwLSTM", "CacheRW-DynCR",
     "core.runner.simulate_ms.FwLSTM-CacheRW-DynCR"},
    {"FwBN", "CacheRW-PCby", "core.runner.simulate_ms.FwBN-CacheRW-PCby"},
    {"CM", "CacheRW-CR", "core.runner.simulate_ms.CM-CacheRW-CR"},
    {"SGEMM", "CacheR", "core.runner.simulate_ms.SGEMM-CacheR"},
};
constexpr std::size_t kNumPoints = sizeof(kPoints) / sizeof(kPoints[0]);

/**
 * setup_s is the median of set-up samples. A sample is the mean of
 * kSetupBatch set-ups timed one by one, about 10 ms of work rather
 * than one 0.35 ms allocation burst. kSetupSamplesFirst samples are
 * taken before the first pass and kSetupSamplesPerPass before every
 * later one, so the median follows the host's speed over the whole
 * run, as wall_s does, not over the run's first few milliseconds.
 */
constexpr int kSetupBatch = 32;
constexpr int kSetupSamplesFirst = 5;
constexpr int kSetupSamplesPerPass = 2;

constexpr EventCategory kCategories[] = {
    EventCategory::gpu, EventCategory::cache, EventCategory::mem,
    EventCategory::dram};

/** One point's outcome within one pass. */
struct PointRun
{
    std::string row;
    RunMetrics metrics;
    std::uint64_t events[4] = {};
};

/** Counts per pass from the simulated statistics; identical on every
 *  pass of one seed (a host-speed change must leave them so). */
void
reportSimulatedStats(const std::vector<PointRun> &pass, Result &r)
{
    double ticks = 0, mem_req = 0, l1h = 0, l1m = 0, l2h = 0, l2m = 0,
           l2wb = 0, stalls = 0, dram = 0, row_hits = 0, bypassed = 0,
           pred = 0, rinse = 0, events = 0;
    double by_cat[4] = {};
    for (const PointRun &p : pass) {
        const RunMetrics &m = p.metrics;
        ticks += static_cast<double>(m.execTicks);
        mem_req += m.gpuMemRequests;
        l1h += m.l1Hits;
        l1m += m.l1Misses;
        l2h += m.l2Hits;
        l2m += m.l2Misses;
        l2wb += m.l2Writebacks;
        stalls += m.cacheStallCycles;
        dram += m.dramAccesses;
        row_hits += m.dramRowHitRate * m.dramAccesses;
        bypassed += m.allocBypassed;
        pred += m.predictorBypasses;
        rinse += m.rinseWritebacks;
        events += m.simEvents;
        for (int c = 0; c < 4; ++c)
            by_cat[c] += static_cast<double>(p.events[c]);
    }
    const std::uint64_t n = pass.size();
    r.set("sim.ticks", ticks, "ticks", n);
    r.set("gpu.mem_requests", mem_req, "count", n);
    r.set("cache.l1_hits", l1h, "count", n);
    r.set("cache.l1_misses", l1m, "count", n);
    r.set("cache.l2_hits", l2h, "count", n);
    r.set("cache.l2_misses", l2m, "count", n);
    r.set("cache.l2_writebacks", l2wb, "count", n);
    r.set("cache.stall_cycles", stalls, "cycles", n);
    r.set("dram.accesses", dram, "count", n);
    r.set("dram.row_hit_rate", dram > 0 ? row_hits / dram : 0.0,
          "ratio", n);
    r.set("policy.alloc_bypassed", bypassed, "count", n);
    r.set("policy.predictor_bypasses", pred, "count", n);
    r.set("policy.rinse_writebacks", rinse, "count", n);
    r.set("sim.events", events, "count", n);
    r.set("sim.events.gpu", by_cat[0], "count", n);
    r.set("sim.events.cache", by_cat[1], "count", n);
    r.set("sim.events.mem", by_cat[2], "count", n);
    r.set("sim.events.dram", by_cat[3], "count", n);
}

/** Pinned reference rows (one CSV row per point, in kPoints order). */
std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    return lines;
}

} // namespace

Result
runSimGrid(const SimGridOptions &opt, SpanRecorder &rec)
{
    Result r;
    SimConfig cfg = SimConfig::defaultConfig();
    cfg.seed = opt.seed;

    // Set-up: everything a pass needs before it starts - the config
    // signature and the System the pass reuses for all its points.
    // Each set-up replaces the System; its destruction is not timed.
    std::vector<double> setup_s, construct_ms;
    std::unique_ptr<System> sys;
    std::string sig;
    auto set_up = [&](int samples) {
        for (int s = 0; s < samples; ++s) {
            const std::int64_t root =
                opt.trace ? rec.open("harness.setup", -1, 0) : -1;
            double setup_ns = 0, construct_ns = 0;
            for (int k = 0; k < kSetupBatch; ++k) {
                sys.reset();
                const std::int64_t t0 = nowNs();
                sig = cfg.signature();
                SimConfig run_cfg = cfg;
                run_cfg.seed = runSeedFor(cfg, kPoints[0].workload,
                                          kPoints[0].policy);
                const std::int64_t c0 = nowNs();
                sys = std::make_unique<System>(
                    run_cfg, CachePolicy::fromName(kPoints[0].policy));
                const std::int64_t t1 = nowNs();
                if (opt.trace)
                    rec.add("core.system.construct", c0, t1, root, 0);
                setup_ns += static_cast<double>(t1 - t0);
                construct_ns += static_cast<double>(t1 - c0);
            }
            if (opt.trace)
                rec.close(root);
            setup_s.push_back(setup_ns * 1e-9 / kSetupBatch);
            construct_ms.push_back(construct_ns * 1e-6 / kSetupBatch);
        }
    };

    const std::string cache_path = opt.workdir + "/sim_grid_cache.v4";
    std::vector<std::vector<PointRun>> passes;
    std::vector<double> pass_s, traced_pass_s, untraced_pass_s;
    // Per traced pass: time in each layer's calls, summed over the
    // pass's points, so each compares directly with wall_s.
    std::vector<double> reset_ms, build_ms, insert_ms, flush_ms;
    std::vector<std::vector<double>> sim_ms(kNumPoints);
    std::vector<double> ns_per_event;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    std::uint64_t request = 0;
    // A pass that starts before the deadline completes; at least
    // kMinPasses are measured however long a pass takes.
    constexpr std::size_t kMinPasses = 3;
    while (passes.size() < kMinPasses || nowNs() < deadline) {
        set_up(passes.empty() ? kSetupSamplesFirst : kSetupSamplesPerPass);
        // In a traced run every other pass is untraced, so the
        // tracing overhead is measured within the run.
        const bool traced = opt.trace && passes.size() % 2 == 0;
        std::remove(cache_path.c_str());
        RunCache cache(cache_path);
        std::vector<PointRun> pass(kNumPoints);
        double sim_ns = 0, events = 0;
        double build_ns = 0, reset_ns = 0, insert_ns = 0;

        const std::int64_t p0 = nowNs();
        const std::int64_t root =
            traced ? rec.add("harness.pass", p0, p0, -1, 0) : -1;
        for (std::size_t i = 0; i < kNumPoints; ++i) {
            const Point &pt = kPoints[i];
            ++request;
            std::int64_t t0 = nowNs();
            std::unique_ptr<Workload> wl = makeWorkload(pt.workload);
            std::int64_t t1 = nowNs();
            const CachePolicy policy = CachePolicy::fromName(pt.policy);
            const std::uint64_t seed =
                runSeedFor(cfg, pt.workload, pt.policy);
            std::int64_t t2 = nowNs();
            sys->reset(policy, seed);
            std::int64_t t3 = nowNs();
            RunMetrics m = runWorkloadOn(*sys, *wl);
            std::int64_t t4 = nowNs();
            for (int c = 0; c < 4; ++c)
                pass[i].events[c] =
                    sys->eventQueue().numProcessed(kCategories[c]);
            pass[i].row = m.toCsv();
            pass[i].metrics = m;
            std::int64_t t5 = nowNs();
            cache.insert(sig, std::move(m));
            std::int64_t t6 = nowNs();
            if (traced) {
                rec.add("workloads.build", t0, t1, root, request);
                rec.add("core.system.reset", t2, t3, root, request);
                rec.add("core.runner.simulate", t3, t4, root, request);
                rec.add("core.sweep_engine.insert", t5, t6, root,
                        request);
                build_ns += static_cast<double>(t1 - t0);
                reset_ns += static_cast<double>(t3 - t2);
                insert_ns += static_cast<double>(t6 - t5);
                sim_ms[i].push_back((t4 - t3) * 1e-6);
            }
            sim_ns += static_cast<double>(t4 - t3);
            events += pass[i].metrics.simEvents;
        }
        const std::int64_t f0 = nowNs();
        cache.flush();
        const std::int64_t p1 = nowNs();
        if (traced) {
            rec.add("core.sweep_engine.flush", f0, p1, root, 0);
            rec.close(root);
            build_ms.push_back(build_ns * 1e-6);
            reset_ms.push_back(reset_ns * 1e-6);
            insert_ms.push_back(insert_ns * 1e-6);
            flush_ms.push_back((p1 - f0) * 1e-6);
            ns_per_event.push_back(sim_ns / events);
        }
        const double secs = static_cast<double>(p1 - p0) * 1e-9;
        pass_s.push_back(secs);
        (traced ? traced_pass_s : untraced_pass_s).push_back(secs);
        passes.push_back(std::move(pass));
        r.attempted += kNumPoints;
    }
    const double peak_rss = peakRssMb();
    std::remove(cache_path.c_str());

    // Output checks. Every pass must reproduce the first pass's rows
    // byte for byte (the reused System is deterministic), the rows
    // must equal a fresh runNamedWorkload (a fresh System per point,
    // the independent path), and for the default seed they must be
    // the pinned reference rows.
    const std::vector<PointRun> &first = passes.front();
    for (std::size_t p = 1; p < passes.size(); ++p) {
        for (std::size_t i = 0; i < kNumPoints; ++i) {
            if (passes[p][i].row != first[i].row) {
                r.fail(std::string("sim_grid pass ") +
                       std::to_string(p) + " row differs from pass 0 for " +
                       kPoints[i].workload + "/" + kPoints[i].policy);
            }
        }
    }
    sys.reset();
    for (std::size_t i = 0; i < kNumPoints; ++i) {
        ++r.attempted;
        const std::string fresh =
            runNamedWorkload(kPoints[i].workload, cfg, kPoints[i].policy)
                .toCsv();
        if (fresh != first[i].row) {
            r.fail(std::string("sim_grid reused-System row differs from "
                               "a fresh runNamedWorkload for ") +
                   kPoints[i].workload + "/" + kPoints[i].policy);
        }
    }
    if (opt.seed == kDefaultSeed) {
        const std::vector<std::string> pinned =
            readLines(opt.referenceRows);
        if (pinned.size() != kNumPoints)
            r.fail("sim_grid reference rows missing: " + opt.referenceRows);
        for (std::size_t i = 0; i < kNumPoints && i < pinned.size();
             ++i) {
            if (pinned[i] != first[i].row) {
                r.fail(std::string("sim_grid row differs from the pinned "
                                   "reference for ") +
                       kPoints[i].workload + "/" + kPoints[i].policy);
            }
        }
    }
    if (!opt.dumpRows.empty()) {
        std::string text;
        for (const PointRun &p : first)
            text += p.row + "\n";
        writeFile(opt.dumpRows, text);
    }

    const std::uint64_t n = pass_s.size();
    // A sim_grid request is a whole pass, so p50_ms is wall_s in ms.
    r.set("wall_s", median(pass_s), "s", n);
    r.set("p50_ms", median(pass_s) * 1e3, "ms", n);
    // ...and its replies are the pass's grid points.
    r.set("qps", kNumPoints / median(pass_s), "1/s", n);
    r.set("setup_s", median(setup_s), "s", setup_s.size());
    r.set("peak_rss_mb", peak_rss, "MiB", 1);
    if (opt.trace) {
        r.set("core.system.construct_ms", median(construct_ms), "ms",
              construct_ms.size());
        r.set("core.system.reset_ms", median(reset_ms), "ms",
              reset_ms.size());
        r.set("workloads.build_ms", median(build_ms), "ms",
              build_ms.size());
        r.set("core.sweep_engine.insert_ms", median(insert_ms), "ms",
              insert_ms.size());
        r.set("core.sweep_engine.flush_ms", median(flush_ms), "ms",
              flush_ms.size());
        for (std::size_t i = 0; i < kNumPoints; ++i) {
            r.set(kPoints[i].metric, median(sim_ms[i]), "ms",
                  sim_ms[i].size());
        }
        r.set("sim.ns_per_event", median(ns_per_event), "ns",
              ns_per_event.size());
        r.set("trace.overhead",
              (median(traced_pass_s) - median(untraced_pass_s)) * 1e3,
              "ms", traced_pass_s.size() + untraced_pass_s.size());
        reportSimulatedStats(first, r);
    }
    return r;
}

} // namespace perfbench
