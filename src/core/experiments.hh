/**
 * @file
 * The experiment harness shared by all bench binaries: the grid
 * registry, a cached sweep, and builders for every figure in the
 * paper's evaluation (Figures 4-13).
 *
 * experimentGrid() is the one definition of each named grid: "paper"
 * (17 workloads x the six paper policies, Figures 4-13) and "dynamic"
 * (18 x 9, fig14), on whatever SimConfig the caller picks - usually a
 * preset by name, SimConfig::preset(). The figure binaries,
 * migc_sweep --grid and the tests all read it.
 *
 * All figures derive from one sweep, so results are cached on disk
 * through the SweepEngine's multi-config RunCache (keyed by the
 * configuration signature). Set MIGC_NO_CACHE=1 to force fresh
 * simulation, or MIGC_SWEEP_CACHE=<path> to relocate the cache file.
 *
 * Each figure builder fetches exactly the points it reads: it calls
 * prefetch() with its policies, which submits the missing (workload,
 * policy) runs to the engine. The engine shards them longest-job-
 * first across a thread pool (MIGC_JOBS workers, default one per
 * core) with per-worker System reuse. Each run seeds its own RNG
 * streams, so a parallel sweep is bit-identical to a serial one.
 */

#ifndef MIGC_CORE_EXPERIMENTS_HH
#define MIGC_CORE_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "core/metrics.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"

namespace migc
{

/** Every workload under every policy on one configuration. */
struct ExperimentGrid
{
    SimConfig cfg;
    std::vector<std::string> workloads;
    std::vector<std::string> policies;

    /** The grid's points, workload-major: each workload's policies in
     *  list order. Leases index this order and gridFingerprint()
     *  hashes it, so it is part of the grid's identity. */
    std::vector<RunRequest> requests() const;
};

/**
 * The registry: grid @p name on @p cfg. "paper" is workloadOrder()
 * under CachePolicy::allPolicies(); "dynamic" is
 * extendedWorkloadOrder() under those six and then
 * CachePolicy::dynamicPolicies(). Fatal on any other name, listing
 * the valid ones.
 */
ExperimentGrid experimentGrid(const std::string &name,
                              const SimConfig &cfg);

class ExperimentSweep
{
  public:
    explicit ExperimentSweep(SimConfig cfg = SimConfig::defaultConfig());

    /** Metrics for (workload, policy); simulates on first use. */
    const RunMetrics &get(const std::string &workload,
                          const std::string &policy);

    /**
     * Ensure every workload has a row under each of @p policies,
     * simulating missing ones in parallel through the sweep engine.
     * The on-disk cache is checkpointed periodically and on
     * completion, so an interrupted sweep resumes where it left.
     */
    void prefetch(const std::vector<std::string> &policies);

    const SimConfig &config() const { return cfg_; }

    /** The static policy with the lowest exec time for @p workload. */
    std::string staticBest(const std::string &workload);

    /** The static policy with the highest exec time for @p workload. */
    std::string staticWorst(const std::string &workload);

    /** The underlying engine (shared scheduler + run cache). */
    SweepEngine &engine() { return engine_; }

  private:
    SimConfig cfg_;
    SweepEngine engine_;
};

// Each builder prefetches the policies it reads: CacheR (Figures 4
// and 5, 17 points), the static three (6-9, 51 points) or all six
// (10-13, the 102-point paper grid).

/** Figure 4: compute bandwidth (GVOPS) per workload, CacheR. */
FigureData figure4(ExperimentSweep &sweep);

/** Figure 5: memory request bandwidth (GMR/s) per workload, CacheR. */
FigureData figure5(ExperimentSweep &sweep);

/** Figure 6: execution time of the static policies, normalized to
 *  Uncached. */
FigureData figure6(ExperimentSweep &sweep);

/** Figure 7: DRAM accesses of the static policies, normalized to
 *  Uncached. */
FigureData figure7(ExperimentSweep &sweep);

/** Figure 8: cache stalls per GPU memory request, static policies. */
FigureData figure8(ExperimentSweep &sweep);

/** Figure 9: DRAM row-buffer hit ratio, static policies. */
FigureData figure9(ExperimentSweep &sweep);

/** Figure 10: execution time of StaticBest/StaticWorst/AB/CR/PCby,
 *  normalized to the best static policy per workload. */
FigureData figure10(ExperimentSweep &sweep);

/** Figure 11: DRAM accesses of the optimized configurations,
 *  normalized to Uncached. */
FigureData figure11(ExperimentSweep &sweep);

/** Figure 12: cache stalls per request, optimized configurations. */
FigureData figure12(ExperimentSweep &sweep);

/** Figure 13: DRAM row hit ratio, optimized configurations. */
FigureData figure13(ExperimentSweep &sweep);

/** Table 1: render the simulated system parameters. */
std::string table1Text(const SimConfig &cfg);

} // namespace migc

#endif // MIGC_CORE_EXPERIMENTS_HH
