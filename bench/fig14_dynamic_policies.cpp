/**
 * @file
 * Figure 14 (beyond the paper): the three dynamic policies - adaptive
 * occupancy bypass (CacheRW-DynAB), CacheR-vs-CacheRW set dueling
 * (CacheRW-Duel), and dynamic-threshold rinsing (CacheRW-DynCR) -
 * against the paper's six configurations, across all 17 paper
 * workloads plus the attention extension (18 x 9 grid).
 *
 * The whole grid runs through the SweepEngine: dynamic policies are
 * addressed purely by registry name, so they share the scheduler,
 * the per-worker System reuse, and the on-disk RunCache with the
 * paper figures - a re-run serves every point from cache with zero
 * simulations. Results print as execution time normalized to CacheRW
 * (how much each mechanism buys over plain store coalescing) plus a
 * per-policy geomean summary, and export as
 * fig14_dynamic_policies.csv.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/experiments.hh"
#include "core/report.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "workloads/workload.hh"

int
main()
{
    using namespace migc;

    const std::vector<std::string> policies =
        ExperimentSweep::dynamicPolicyNames();

    SimConfig cfg = SimConfig::defaultConfig();
    const auto workloads = extendedWorkloadOrder();

    std::vector<RunRequest> requests;
    requests.reserve(workloads.size() * policies.size());
    for (const auto &w : workloads) {
        for (const auto &p : policies)
            requests.push_back(RunRequest{cfg, w, p});
    }

    SweepEngine engine;
    std::vector<RunMetrics> results = engine.run(requests);

    FigureData fig;
    fig.title = "Figure 14: dynamic policies vs the paper's six "
                "(execution time)";
    fig.valueLabel = "normalized to CacheRW";
    fig.workloads = workloads;
    fig.series = policies;

    // results is in request order: workload-major, policy-minor.
    auto ticks = [&](std::size_t w, std::size_t p) {
        return static_cast<double>(
            results[w * policies.size() + p].execTicks);
    };
    const std::size_t cacherw = 2; // "CacheRW" index in `policies`
    for (std::size_t p = 0; p < policies.size(); ++p) {
        std::vector<double> row;
        row.reserve(workloads.size());
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            double base = ticks(w, cacherw);
            row.push_back(base > 0 ? ticks(w, p) / base : 0.0);
        }
        fig.values.push_back(std::move(row));
    }

    printFigure(std::cout, fig, 4);
    writeFigureCsv("fig14_dynamic_policies.csv", fig);

    std::printf("\n%-14s %10s\n", "policy", "geomean");
    for (std::size_t p = 0; p < policies.size(); ++p)
        std::printf("%-14s %10.4f\n", policies[p].c_str(),
                    geoMean(fig.values[p]));
    std::printf("\n(%zu workloads x %zu policies; %llu simulated, "
                "%llu from cache)\n",
                workloads.size(), policies.size(),
                static_cast<unsigned long long>(
                    engine.simulationsPerformed()),
                static_cast<unsigned long long>(engine.cacheHits()));
    return 0;
}
