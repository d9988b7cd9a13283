/**
 * @file
 * The experiment harness shared by all bench binaries: a cached
 * 17-workload x 6-policy sweep plus builders for every figure in the
 * paper's evaluation (Figures 4-13).
 *
 * All figures derive from one sweep, so results are cached on disk
 * through the SweepEngine's multi-config RunCache (keyed by the
 * configuration signature). Set MIGC_NO_CACHE=1 to force fresh
 * simulation, or MIGC_SWEEP_CACHE=<path> to relocate the cache file.
 *
 * prefetch() submits missing (workload, policy) runs to the engine,
 * which shards them longest-job-first across a thread pool
 * (MIGC_JOBS workers, default one per core) with per-worker System
 * reuse. Each run seeds its own RNG streams, so a parallel sweep is
 * bit-identical to a serial one.
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

class ExperimentSweep
{
  public:
    explicit ExperimentSweep(SimConfig cfg = SimConfig::defaultConfig());

    /** Metrics for (workload, policy); simulates on first use. */
    const RunMetrics &get(const std::string &workload,
                          const std::string &policy);

    /**
     * Ensure all (workload x policy) combinations are available,
     * simulating missing ones in parallel through the sweep engine.
     * The on-disk cache is checkpointed periodically and on
     * completion, so an interrupted sweep resumes where it left.
     */
    void prefetch(const std::vector<std::string> &policies);

    /** Prefetch the full 17-workload x 6-policy grid. */
    void prefetchAll() { prefetch(allPolicyNames()); }

    const SimConfig &config() const { return cfg_; }

    /** The static policy with the lowest exec time for @p workload. */
    std::string staticBest(const std::string &workload);

    /** The static policy with the highest exec time for @p workload. */
    std::string staticWorst(const std::string &workload);

    /** Names of the three static policies, paper order. */
    static std::vector<std::string> staticPolicyNames();

    /** All six configuration names, paper order. */
    static std::vector<std::string> allPolicyNames();

    /** The dynamic grid's nine policies (fig14, migc_sweep --grid
     *  dynamic): allPolicyNames(), then the names of
     *  CachePolicy::dynamicPolicies(). */
    static std::vector<std::string> dynamicPolicyNames();

    /** The underlying engine (shared scheduler + run cache). */
    SweepEngine &engine() { return engine_; }

  private:
    SimConfig cfg_;
    SweepEngine engine_;
};

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
