/**
 * @file
 * The file side of a multi-process sweep: per-worker shard caches and
 * the join that merges them.
 *
 * A migc_sweep fleet (core/fleet.hh) spreads a grid over worker
 * processes by leasing run keys. Each worker checkpoints its leased
 * rows to a private file (workerCheckpointPath) and pushes that file
 * to the coordinator, which stores it as the worker's shard
 * (shardCachePath) - the only shard file the join and `--resume`
 * read. At join, mergeShardCaches() unions the stored shards into
 * the canonical file, deduplicating identical rows and failing
 * loudly on conflicting rows for the same key (which would mean a
 * nondeterministic simulator or mismatched sweeps - never something
 * to paper over). Because every input is one sorted v4 segment, the
 * merged file is byte-identical to the one a single-process sweep
 * would have written (pinned by tests/test_fleet.cc and the CI fleet
 * smokes).
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

/** The coordinator's stored copy of worker @p index's shard for
 *  canonical @p base: what the join and `--resume` read. */
std::string shardCachePath(const std::string &base, unsigned index);

/** Worker @p index's private checkpoint for canonical @p base. Only
 *  that worker writes it; the coordinator never reads it. */
std::string workerCheckpointPath(const std::string &base,
                                 unsigned index);

/** What a coordinator merge accomplished. */
struct ShardMergeStats
{
    /** Stored shard files found, merged, and removed. */
    std::size_t files = 0;

    /** Rows newly added to the canonical cache. */
    std::size_t rows = 0;

    /** Identical rows present in more than one input (deduplicated). */
    std::size_t duplicates = 0;

    /** Unparseable rows skipped across all inputs. */
    std::size_t parseErrors = 0;
};

/**
 * Coordinator join step: union every existing stored shard of @p base
 * (indices [0, shards)) into the canonical file at @p base, then
 * delete the merged shard files. Any input that is not one clean v4
 * segment (v3 text, checkpoint appends, a torn tail) is first
 * compacted in place; then one k-way walk merges the sorted inputs.
 * Identical rows for the same key deduplicate; conflicting rows are
 * fatal, and the inputs are left on disk for inspection. Missing
 * shard files are skipped (a worker that finished no key pushes
 * nothing).
 */
ShardMergeStats mergeShardCaches(const std::string &base,
                                 unsigned shards);

struct RunRequest; // core/sweep_engine.hh

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

    /** Grid points already satisfied by the canonical cache (or, on
     *  resume, a stored shard). */
    std::size_t cached = 0;

    /** Rows recovered from stored shard files (resume only). */
    std::size_t resumedRows = 0;
};

/**
 * The coordinator's resume-aware grid scan: load the canonical cache
 * at @p cache (memory-only - nothing is written), plus, when
 * @p resume is set, every existing stored shard of it (left on disk;
 * the join merge consumes them later), then classify each of
 * @p requests as cached or pending and estimate pending costs.
 * `--resume` is exactly this with the stored shards folded in: only
 * the keys a crashed fleet never pushed come back pending.
 */
FleetPlan planFleetSweep(const std::vector<RunRequest> &requests,
                         const std::string &cache, unsigned shards,
                         bool resume);

} // namespace migc

#endif // MIGC_CORE_SHARD_HH
