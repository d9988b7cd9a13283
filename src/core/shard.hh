/**
 * @file
 * The coordinator side of a multi-process sweep that is not the
 * socket: the run-key hash, the removed-variable check, and the plan
 * step that decides which grid points a fleet still has to lease.
 *
 * A migc_sweep fleet (core/fleet.hh) spreads a grid over worker
 * processes by leasing run keys. A worker keeps its rows in memory
 * and pushes one v4 segment per finished key; the coordinator merges
 * each push into the one RunCache it opened on the canonical file
 * and appends it there before acknowledging. The plan below reads
 * that same cache, and the join at drain is its ordinary compaction
 * (RunCache::saveNow), so the canonical file is the fleet's only
 * store and ends byte-identical to the one a single-process sweep
 * writes (pinned by tests/test_fleet.cc and the CI fleet smokes).
 */

#ifndef MIGC_CORE_SHARD_HH
#define MIGC_CORE_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace migc
{

/**
 * Stable 64-bit hash of one run key. Depends only on the three key
 * strings (FNV-1a over their concatenation), so it is identical
 * across processes, architectures of the same width, and runs.
 */
std::uint64_t runKeyHash(const std::string &sig,
                         const std::string &workload,
                         const std::string &policy);

/**
 * Fatal when a removed environment variable is set to anything:
 * MIGC_SHARDS or MIGC_SHARD_INDEX (static key-hash sharding is gone;
 * a script written for it would otherwise run the full grid once per
 * "shard") or MIGC_CACHE_FORMAT (caches are always written as v4; a
 * script asking for csv would otherwise get binary files). Every
 * default-constructed SweepEngine, migc_sweep and migc_serve call it
 * before anything simulates.
 */
void rejectRemovedEnv();

class RunCache;      // core/sweep_engine.hh
struct RunRequest;   // core/sweep_engine.hh

/**
 * What a fleet coordinator knows before the first lease: which grid
 * indices still need simulating, and what each one is expected to
 * cost. Built by planFleetSweep().
 */
struct FleetPlan
{
    /** Grid indices with no cached row yet (deduplicated; the
     *  FleetQueue serves them longest-estimate-first). */
    std::vector<std::uint32_t> pending;

    /** Scheduler cost estimate per grid index (sim_events of a prior
     *  run of the same (workload, policy), falling back to the
     *  workload-footprint heuristic - the same ladder run() uses). */
    std::vector<double> costs;

    /** Grid points already satisfied by the canonical cache. */
    std::size_t cached = 0;
};

/**
 * The coordinator's grid scan: classify each of @p requests as
 * cached in @p canonical (the cache the coordinator opened on the
 * canonical file, and later stores pushes in) or pending, and
 * estimate pending costs. A rerun after a crash is exactly this:
 * every row pushed before the crash is in the canonical file, so
 * only the keys no worker ever pushed come back pending.
 */
FleetPlan planFleetSweep(const std::vector<RunRequest> &requests,
                         const RunCache &canonical);

} // namespace migc

#endif // MIGC_CORE_SHARD_HH
