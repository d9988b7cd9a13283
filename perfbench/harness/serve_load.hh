/**
 * @file
 * The serve_mixed workload's in-process parts: the seeded synthetic
 * v4 cache, the two-connection closed-loop client that drives a
 * running migc_serve, and the in-process timing of the same query
 * stream through ServeService and CacheSnapshot.
 */

#ifndef PERFBENCH_SERVE_LOAD_HH
#define PERFBENCH_SERVE_LOAD_HH

#include <cstdint>
#include <string>

#include "trace.hh"

namespace perfbench
{

struct ServeOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** The synthetic v4 cache (written by generateServeCache). */
    std::string cache;
    /** AF_UNIX socket path migc_serve listens on. */
    std::string socket;
    /** v3 CSV export holding the expected rows of the test-preset
     *  points the cold gets ask for. */
    std::string coldRows;
};

/** Write the seed's synthetic cache to @p path as one compacted v4
 *  segment. @return false (with @p why) on failure. */
bool generateServeCache(std::uint64_t seed, const std::string &path,
                        std::string &why);

/** Drive migc_serve for opt.seconds with two connections. */
Result runServeLoad(const ServeOptions &opt, SpanRecorder &rec);

/** Time ServeService::handleLine, CacheSnapshot::findCsv/matchCsv
 *  and MappedCacheV4::map in this process over the same stream. */
Result runServeInProcess(const ServeOptions &opt, SpanRecorder &rec);

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_HH
