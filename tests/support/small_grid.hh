/**
 * @file
 * The small grid the end-to-end fleet, fault and serve suites sweep.
 */

#ifndef MIGC_TESTS_SUPPORT_SMALL_GRID_HH
#define MIGC_TESTS_SUPPORT_SMALL_GRID_HH

#include <vector>

#include "core/experiments.hh"

namespace migc::test
{

/** FwSoft and FwBN under the three static policies on the test
 *  preset: six cheap points, workload-major. */
inline std::vector<RunRequest>
smallGrid()
{
    return ExperimentGrid{SimConfig::testConfig(),
                          {"FwSoft", "FwBN"},
                          {"Uncached", "CacheR", "CacheRW"}}
        .requests();
}

} // namespace migc::test

#endif // MIGC_TESTS_SUPPORT_SMALL_GRID_HH
