/**
 * @file
 * The sim_grid workload: single-thread figure-path passes over eight
 * defaultConfig grid points (see sim_grid.cc and README.md).
 */

#ifndef PERFBENCH_SIM_GRID_HH
#define PERFBENCH_SIM_GRID_HH

#include <cstdint>
#include <string>

#include "trace.hh"

namespace perfbench
{

/** The seed the figures run with (SimConfig::seed's default) and the
 *  one the pinned reference rows were produced under. */
constexpr std::uint64_t kDefaultSeed = 1;

struct SimGridOptions
{
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for the private run cache. */
    std::string workdir;
    /** Pinned rows for kDefaultSeed, one CSV row per point. */
    std::string referenceRows;
    /** When set, write the first pass's rows here (re-pinning). */
    std::string dumpRows;
};

Result runSimGrid(const SimGridOptions &opt, SpanRecorder &rec);

} // namespace perfbench

#endif // PERFBENCH_SIM_GRID_HH
