/**
 * @file
 * Whole-system configuration presets.
 *
 * paperConfig() mirrors Table 1 (64 CUs, 4 MB L2, 16-channel HBM2).
 * defaultConfig() is the 1/4-scale system used by the experiment
 * harness so a full 17-workload x 6-policy sweep runs in minutes;
 * footprints in src/workloads are sized against it, preserving the
 * footprint:capacity ratios that drive the paper's effects (see
 * docs/ARCHITECTURE.md, scaling note). testConfig() is a tiny fast
 * preset for unit and integration tests. preset() looks each one up
 * by its name ("default", "paper", "test"), the name command lines
 * and the serve protocol use.
 */

#ifndef MIGC_CORE_SIM_CONFIG_HH
#define MIGC_CORE_SIM_CONFIG_HH

#include <string>
#include <vector>

#include "cache/gpu_cache.hh"
#include "dram/dram_config.hh"
#include "gpu/gpu_config.hh"
#include "mem/xbar.hh"
#include "policy/reuse_predictor.hh"

namespace migc
{

struct SimConfig
{
    std::string name = "default";

    GpuConfig gpu;

    /** Template for the per-CU L1 data caches. */
    GpuCacheConfig l1;

    /** Template for one L2 bank. */
    GpuCacheConfig l2Bank;

    unsigned l2Banks = 8;

    XBar::Config xbar;

    DramConfig dram;

    ReusePredictor::Config predictor;

    /** Footprint multiplier handed to Workload::kernels(). */
    double workloadScale = 1.0;

    std::uint64_t seed = 1;

    /** Table 1 system (64 CUs, 4 MB L2, 16 channels). */
    static SimConfig paperConfig();

    /** 1/4-scale system used for all reported experiments. */
    static SimConfig defaultConfig();

    /** Tiny system for fast tests. */
    static SimConfig testConfig();

    /** The three presets above: default, paper, test. */
    static std::vector<SimConfig> presets();

    /** The preset whose name is @p name; fatal on any other name,
     *  listing the valid ones. */
    static SimConfig preset(const std::string &name);

    /**
     * One-line signature used to key the sweep result cache. Covers
     * every structural parameter (via a hash of structureKey()) plus
     * the seed, so any config change - including ablation axes like
     * L1 associativity, DBI rows, or predictor geometry - lands in
     * its own cache namespace.
     */
    std::string signature() const;

    /**
     * Canonical dump of every behavior-affecting parameter except
     * the seed and the preset name. Two configs with equal
     * structureKey() build interchangeable Systems: a worker may
     * satisfy both with one System via System::reset().
     */
    std::string structureKey() const;

    /** True when a System built for @p a can be reset to serve @p b. */
    static bool structurallyEqual(const SimConfig &a, const SimConfig &b)
    {
        return a.structureKey() == b.structureKey();
    }
};

} // namespace migc

#endif // MIGC_CORE_SIM_CONFIG_HH
