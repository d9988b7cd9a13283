#include "core/experiments.hh"

#include <utility>

#include "policy/cache_policy.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace migc
{

ExperimentSweep::ExperimentSweep(SimConfig cfg) : cfg_(std::move(cfg))
{}

const RunMetrics &
ExperimentSweep::get(const std::string &workload,
                     const std::string &policy)
{
    return engine_.get(cfg_, workload, policy);
}

void
ExperimentSweep::prefetch(const std::vector<std::string> &policies)
{
    // Submit the full grid in the deterministic workload-major
    // order; the engine skips cached points, schedules the missing
    // ones longest-first across the worker pool, reuses each
    // worker's System across runs, and checkpoints the cache
    // periodically so an interrupted sweep resumes from the finished
    // runs instead of starting over. Each run seeds its RNG streams
    // from the (workload, policy) labels, so the shards never share
    // mutable simulation state and any job count is bit-identical.
    std::vector<RunRequest> requests;
    requests.reserve(workloadOrder().size() * policies.size());
    for (const auto &w : workloadOrder()) {
        for (const auto &p : policies)
            requests.push_back(RunRequest{cfg_, w, p});
    }
    engine_.run(requests);
}

std::vector<std::string>
ExperimentSweep::staticPolicyNames()
{
    return {"Uncached", "CacheR", "CacheRW"};
}

std::vector<std::string>
ExperimentSweep::allPolicyNames()
{
    return {"Uncached",   "CacheR",     "CacheRW",
            "CacheRW-AB", "CacheRW-CR", "CacheRW-PCby"};
}

std::vector<std::string>
ExperimentSweep::dynamicPolicyNames()
{
    std::vector<std::string> names = allPolicyNames();
    for (const CachePolicy &p : CachePolicy::dynamicPolicies())
        names.push_back(p.name);
    return names;
}

std::string
ExperimentSweep::staticBest(const std::string &workload)
{
    std::string best;
    double best_ticks = 0;
    for (const auto &p : staticPolicyNames()) {
        double t = static_cast<double>(get(workload, p).execTicks);
        if (best.empty() || t < best_ticks) {
            best = p;
            best_ticks = t;
        }
    }
    return best;
}

std::string
ExperimentSweep::staticWorst(const std::string &workload)
{
    std::string worst;
    double worst_ticks = 0;
    for (const auto &p : staticPolicyNames()) {
        double t = static_cast<double>(get(workload, p).execTicks);
        if (worst.empty() || t > worst_ticks) {
            worst = p;
            worst_ticks = t;
        }
    }
    return worst;
}

// ---------------------------------------------------------------------
// Figure builders
// ---------------------------------------------------------------------

namespace
{

/** Common scaffolding: one series per policy, rows in paper order. */
FigureData
policyFigure(ExperimentSweep &sweep, const std::string &title,
             const std::string &label,
             const std::vector<std::string> &policies,
             double (*extract)(const RunMetrics &),
             const char *normalize_to_policy)
{
    FigureData fig;
    fig.title = title;
    fig.valueLabel = label;
    fig.workloads = workloadOrder();
    fig.series = policies;
    for (const auto &p : policies) {
        std::vector<double> row;
        for (const auto &w : fig.workloads) {
            double v = extract(sweep.get(w, p));
            if (normalize_to_policy) {
                double base = extract(sweep.get(w, normalize_to_policy));
                v = base > 0 ? v / base : 0.0;
            }
            row.push_back(v);
        }
        fig.values.push_back(std::move(row));
    }
    return fig;
}

double
extractExecTicks(const RunMetrics &m)
{
    return static_cast<double>(m.execTicks);
}

double
extractDramAccesses(const RunMetrics &m)
{
    return m.dramAccesses;
}

double
extractStalls(const RunMetrics &m)
{
    return m.stallsPerRequest;
}

double
extractRowHit(const RunMetrics &m)
{
    return m.dramRowHitRate;
}

/** The five series of Figures 10-13. */
std::vector<std::string>
optSeriesNames()
{
    return {"StaticBest", "StaticWorst", "CacheRW-AB", "CacheRW-CR",
            "CacheRW-PCby"};
}

/** Resolve an optimization-figure series name to a concrete policy. */
std::string
resolveSeries(ExperimentSweep &sweep, const std::string &series,
              const std::string &workload)
{
    if (series == "StaticBest")
        return sweep.staticBest(workload);
    if (series == "StaticWorst")
        return sweep.staticWorst(workload);
    return series;
}

FigureData
optFigure(ExperimentSweep &sweep, const std::string &title,
          const std::string &label,
          double (*extract)(const RunMetrics &), bool norm_to_best,
          bool norm_to_uncached)
{
    FigureData fig;
    fig.title = title;
    fig.valueLabel = label;
    fig.workloads = workloadOrder();
    fig.series = optSeriesNames();
    for (const auto &series : fig.series) {
        std::vector<double> row;
        for (const auto &w : fig.workloads) {
            std::string policy = resolveSeries(sweep, series, w);
            double v = extract(sweep.get(w, policy));
            if (norm_to_best) {
                double base = extract(sweep.get(w, sweep.staticBest(w)));
                v = base > 0 ? v / base : 0.0;
            } else if (norm_to_uncached) {
                double base = extract(sweep.get(w, "Uncached"));
                v = base > 0 ? v / base : 0.0;
            }
            row.push_back(v);
        }
        fig.values.push_back(std::move(row));
    }
    return fig;
}

} // namespace

FigureData
figure4(ExperimentSweep &sweep)
{
    FigureData fig;
    fig.title = "Figure 4: compute bandwidth with CacheR policy";
    fig.valueLabel = "GVOPS";
    fig.workloads = workloadOrder();
    fig.series = {"CacheR"};
    std::vector<double> row;
    for (const auto &w : fig.workloads)
        row.push_back(sweep.get(w, "CacheR").gvops);
    fig.values.push_back(std::move(row));
    return fig;
}

FigureData
figure5(ExperimentSweep &sweep)
{
    FigureData fig;
    fig.title = "Figure 5: memory request bandwidth with CacheR policy";
    fig.valueLabel = "GMR/s";
    fig.workloads = workloadOrder();
    fig.series = {"CacheR"};
    std::vector<double> row;
    for (const auto &w : fig.workloads)
        row.push_back(sweep.get(w, "CacheR").gmrps);
    fig.values.push_back(std::move(row));
    return fig;
}

FigureData
figure6(ExperimentSweep &sweep)
{
    return policyFigure(
        sweep, "Figure 6: execution time, static policies",
        "normalized to Uncached",
        ExperimentSweep::staticPolicyNames(), extractExecTicks,
        "Uncached");
}

FigureData
figure7(ExperimentSweep &sweep)
{
    return policyFigure(
        sweep, "Figure 7: GPU memory requests reaching DRAM",
        "normalized to Uncached",
        ExperimentSweep::staticPolicyNames(), extractDramAccesses,
        "Uncached");
}

FigureData
figure8(ExperimentSweep &sweep)
{
    return policyFigure(
        sweep, "Figure 8: cache stalls per GPU memory request",
        "stall cycles / request (log-scale in the paper)",
        ExperimentSweep::staticPolicyNames(), extractStalls, nullptr);
}

FigureData
figure9(ExperimentSweep &sweep)
{
    return policyFigure(sweep,
                        "Figure 9: DRAM row buffer hit ratio",
                        "row hits / DRAM accesses",
                        ExperimentSweep::staticPolicyNames(),
                        extractRowHit, nullptr);
}

FigureData
figure10(ExperimentSweep &sweep)
{
    return optFigure(sweep,
                     "Figure 10: execution time with optimizations",
                     "normalized to best static policy",
                     extractExecTicks, true, false);
}

FigureData
figure11(ExperimentSweep &sweep)
{
    return optFigure(
        sweep, "Figure 11: DRAM accesses with optimizations",
        "normalized to Uncached", extractDramAccesses, false, true);
}

FigureData
figure12(ExperimentSweep &sweep)
{
    return optFigure(
        sweep, "Figure 12: cache stalls per request, optimizations",
        "stall cycles / request (log-scale in the paper)",
        extractStalls, false, false);
}

FigureData
figure13(ExperimentSweep &sweep)
{
    return optFigure(sweep,
                     "Figure 13: DRAM row hit ratio, optimizations",
                     "row hits / DRAM accesses", extractRowHit, false,
                     false);
}

std::string
table1Text(const SimConfig &cfg)
{
    std::string s;
    s += "== Table 1: key simulated system parameters ==\n";
    s += csprintf("GPU clock                %.0f MHz\n",
                  1e-6 * static_cast<double>(simSecond) /
                      static_cast<double>(cfg.gpu.clockPeriod));
    s += csprintf("# of CUs                 %u\n", cfg.gpu.numCus);
    s += csprintf("SIMD units per CU        %u\n", cfg.gpu.simdsPerCu);
    s += csprintf("Wavefront slots per SIMD %u\n",
                  cfg.gpu.wfSlotsPerSimd);
    s += csprintf("Wavefront width          %u lanes\n",
                  cfg.gpu.wavefrontSize);
    s += csprintf("L1D per CU               %llu KB, %u-way, %uB line, "
                  "write-through\n",
                  static_cast<unsigned long long>(cfg.l1.size / 1024),
                  cfg.l1.assoc, cfg.l1.lineSize);
    s += csprintf("Shared L2                %llu KB total, %u banks, "
                  "%u-way, write-through (write-back for W data)\n",
                  static_cast<unsigned long long>(
                      cfg.l2Bank.size * cfg.l2Banks / 1024),
                  cfg.l2Banks, cfg.l2Bank.assoc);
    s += csprintf("Main memory              HBM2-like, %u channels, "
                  "%u banks/channel, %u B rows\n",
                  cfg.dram.channels, cfg.dram.banksPerChannel,
                  cfg.dram.rowBytes);
    s += csprintf("Approx. uncontested L1/L2/Memory latency "
                  "~50/~125/~225 GPU cycles\n");
    s += csprintf("Workload footprint scale %.3f "
                  "(see docs/ARCHITECTURE.md, scaling note)\n",
                  cfg.workloadScale);
    return s;
}

} // namespace migc
