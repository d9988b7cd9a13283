/**
 * @file
 * The process-wide sweep engine: every bench/figure/ablation binary
 * submits (SimConfig, workload, policy) run requests here instead of
 * rolling its own parallelFor loop.
 *
 * Three mechanisms make multi-config grids cheap:
 *
 *  - RunCache: one on-disk namespace holds results for *many*
 *    configurations at once, keyed by (cfg.signature(), workload,
 *    policy). Ablation grids and the paper-scale sweep coexist in
 *    one file, a config change no longer discards foreign results,
 *    and checkpoints are amortized (every K completions + on flush)
 *    instead of rewriting the whole file after every run.
 *
 *  - Cost-model scheduler: planSweep() dispatches missing runs
 *    longest-job-first, using simulator event counts from prior
 *    cached runs of the same (workload, policy) - falling back to a
 *    workload-size heuristic - which removes the FIFO tail-straggler
 *    problem. The single-process sweep and the fleet coordinator
 *    plan with it alike. Scheduling only reorders execution; results
 *    depend solely on (cfg, workload, policy) (see runNamedWorkload),
 *    so any MIGC_JOBS value is bit-identical.
 *
 *  - System reuse: batches run on parallelFor (sim/parallel.hh), the
 *    one thread pool. Each pool slot keeps its System alive between
 *    runs and re-runs on it via System::reset() whenever the next
 *    run's config is structurally equal, so PacketPool chunks, the
 *    event heap, tag/DBI storage, and DRAM bank state stay warm
 *    instead of being reconstructed per run.
 *
 * A fourth mechanism scales past one process: as a fleet worker
 * (runFleet, on a memory-only engine) the engine simulates the run
 * keys a coordinator leases it, each lease on the same pool slots,
 * and pushes each finished row as one v4 segment before reporting
 * the key done; the coordinator (bench/migc_sweep) plans the grid
 * with planSweep(), appends every push to the canonical cache and
 * compacts it at the join, byte-identical to a single-process sweep
 * (see fleet.hh).
 */

#ifndef MIGC_CORE_SWEEP_ENGINE_HH
#define MIGC_CORE_SWEEP_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/metrics.hh"
#include "core/sim_config.hh"

namespace migc
{

class System;
class FleetClient;

/**
 * The canonical cache path a default-constructed engine uses:
 * empty when MIGC_NO_CACHE=1, else MIGC_SWEEP_CACHE, else
 * "mi_sweep_cache.csv". The single source of truth for tools (like
 * bench/migc_sweep) that must agree with the figure binaries on
 * where the cache lives.
 */
std::string sweepCachePathFromEnv();

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

/**
 * A cache serialization. RunCache reads and writes v4 only; csv
 * exists for RunCache::exportFile.
 *
 *  - v4: binary columnar segments (cache_v4.hh) - interned sorted
 *    keys, fixed-width metric columns, checksummed footers, mmap'd
 *    zero-copy serving, O(fresh) checkpoint appends.
 *  - csv: the v3 text format, byte-identical to what pre-v4 builds
 *    wrote - for diffing, grep, and foreign tooling. Export only:
 *    no build reads it back.
 */
enum class CacheFormat
{
    v4,
    csv,
};

/** "v4" / "csv" for messages. */
const char *cacheFormatName(CacheFormat format);

/** One grid point: run @p workload under @p policy on @p cfg. */
struct RunRequest
{
    SimConfig cfg;
    std::string workload;
    std::string policy;
};

/**
 * Stable fingerprint of a request grid: a hash over every run key in
 * order, plus the count. A fleet coordinator and its workers build
 * the grid independently from identical flags; leases then carry
 * plain indices into that vector, and this fingerprint (sent with
 * every `lease` request) is what catches a worker whose flags built
 * a different grid before it misinterprets a single index.
 */
std::uint64_t gridFingerprint(const std::vector<RunRequest> &requests);

struct V4SegmentView; // core/cache_v4.hh

/**
 * Multi-config on-disk result store.
 *
 * The cache reads and writes one format, v4 binary columnar
 * segments (cache_v4.hh). Any other file - the v3 and v2 text
 * caches of older builds included - loads as foreign with a
 * warning, serves nothing, and is replaced by v4 at the next save.
 * Rows whose signature belongs to some other configuration are
 * preserved across save cycles, so binaries with different configs
 * can share one cache path without clobbering each other.
 *
 * Durability is two-tier. checkpoint() appends only the rows
 * inserted since the last durable write - one small segment at the
 * end of the file, O(fresh) bytes, which is what the amortized
 * insert checkpointing and the fleet coordinator's store-before-ack
 * contract use; a sweep writing N rows costs O(N) total bytes
 * instead of the O(N^2) of rewriting the file at every checkpoint.
 * flush()/saveNow() compact: one canonical sorted rewrite via
 * tmp+rename, so the *final* file bytes are a pure function of the
 * row set - identical across job counts, steal schedules, and
 * crash/resume histories - and a once-appended file never stays
 * fragmented past the next flush. A torn append (crash mid-write)
 * is detected on load by the footer checksum, costs only the torn
 * rows, and is cleaned up by the next compaction.
 *
 * An empty path disables disk I/O; results are then memoized in
 * memory only (the MIGC_NO_CACHE=1 behavior).
 *
 * Internally the cache is an append-only row store plus an immutable
 * index: rows land in a log (a deque whose elements never move) and
 * are indexed either by the published CacheSnapshot (`base_`) or by
 * the not-yet-published append index (`fresh_`). snapshot() folds
 * the append index into a new immutable snapshot and swaps it in -
 * that snapshot can then be queried by any number of threads with no
 * locking while this cache keeps inserting (see cache_snapshot.hh
 * and docs/SERVE.md). Row pointers handed out by find()/insert()
 * stay valid for the cache's lifetime (and beyond it, for as long as
 * any snapshot lives - snapshots retain the row store).
 *
 * The mutating API is not internally synchronized: the owning engine
 * serializes writers. Published snapshots are safe to read from
 * anywhere.
 */
class RunCache
{
  public:
    /** @p format must be v4, the only format a cache writes (the
     *  parameter stays because perfbench/harness/serve_load.cc
     *  passes it); exportFile() writes a csv copy. */
    explicit RunCache(std::string path,
                      std::size_t checkpoint_interval = 8,
                      CacheFormat format = CacheFormat::v4);

    /** Flushes pending results (best effort). */
    ~RunCache();

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    bool enabled() const { return !path_.empty(); }

    /** Format the initial load found on disk: "v4", "foreign" (not
     *  v4, so nothing loaded), or "none" (missing/empty file).
     *  Operator-facing (migc_serve stats). */
    const char *loadedFormatName() const;

    /** What one mergeFile() call found in its input. */
    struct MergeStats
    {
        /** Rows merged in under keys not previously held. */
        std::size_t rows = 0;

        /** Rows identical to one already held (deduplicated). */
        std::size_t duplicates = 0;

        /** Rows differing from the held row for the same key. The
         *  held row wins; the caller decides how loud to be. */
        std::size_t conflicts = 0;

        /** The first conflicting key of a v4 merge (what
         *  mergeSegment() refuses), as "<workload>/<policy> under
         *  config <signature>"; empty when there was none. */
        std::string firstConflict;

        /** Damaged v4 tails (a torn append, a corrupted segment)
         *  this cache had not seen before: each is remembered by
         *  file, offset and reason, so re-reading the same damaged
         *  file - e.g. at a checkpoint save - counts each loss
         *  once. */
        std::size_t parseErrors = 0;
    };

    /**
     * Union another v4 cache file into memory without writing
     * anything; rows already held win. A missing or empty file
     * merges zero rows; a file that is not v4 merges none, with a
     * warning the first time this cache reads it.
     */
    MergeStats mergeFile(const std::string &path);

    /**
     * Union one parsed v4 segment from outside - a fleet worker's
     * push - into memory, all or nothing: duplicates and conflicts
     * are classified exactly as mergeFile() classifies them, and
     * when any row conflicts, nothing is merged (stats.conflicts and
     * stats.firstConflict say why). New rows become pending, so the
     * next checkpoint() appends them to the file.
     */
    MergeStats mergeSegment(const V4SegmentView &seg);

    /**
     * Distinct damaged v4 tails seen across the initial load, every
     * explicit mergeFile(), and the pre-write merge of each save -
     * torn or corrupted segments whose rows were lost. Surfaced in
     * the sweep summary line so a truncated cache cannot silently
     * masquerade as a cold one.
     */
    std::size_t parseErrors() const { return parseErrors_; }

    /**
     * Compact the file now even if nothing is pending. The fleet
     * join uses it: a rerun that loaded a multi-segment file and has
     * nothing pending must still leave the one canonical segment,
     * which flush() would skip.
     * @return false when the file could not be written or moved
     * into place.
     */
    bool saveNow();

    /**
     * Write the current contents to @p path in @p format (tmp +
     * rename; this cache's own file and state are untouched). The
     * CSV export of a v4 cache is byte-identical to the v3 file a
     * pure-text pipeline would have written for the same rows.
     * @return false when the file could not be written, or, with a
     * warning, when @p path names this cache's own file (by name or
     * as the same file).
     */
    bool exportFile(const std::string &path, CacheFormat format);

    /** Result for (sig, workload, policy), or nullptr. Stable. */
    const RunMetrics *find(const std::string &sig,
                           const std::string &workload,
                           const std::string &policy) const;

    /**
     * Record a completed run under @p sig (first write wins). The
     * file is checkpointed (appended to) after every
     * checkpoint_interval inserts; call flush() when a sweep
     * finishes. Fatal on workload/policy names its CSV rows cannot
     * round-trip: ',', line breaks, a leading '#' (see
     * sim/names.hh).
     * @return the stored row (stable reference).
     */
    const RunMetrics &insert(const std::string &sig, RunMetrics m);

    /**
     * Make every in-memory row durable cheaply: append the rows
     * inserted since the last durable write to the end of the file
     * (O(fresh) bytes), falling back to a full compacting save when
     * the file cannot take an append (not v4, torn tail, first
     * write). This is what the fleet coordinator runs before it
     * acknowledges a push; the file stays fragmented until the next
     * flush()/saveNow() compacts it.
     * @return false, with a warning, when the rows did not reach the
     * file (they stay pending, so the next durable write tries
     * again); true when they did, or when I/O is off.
     */
    bool checkpoint();

    /**
     * The current contents as an immutable snapshot: publishes any
     * append-log rows into a fresh CacheSnapshot, swaps it in, and
     * returns it. The returned snapshot is safe for concurrent
     * lock-free reads and stays valid (rows included) independent of
     * this cache's later inserts or destruction. Cheap when nothing
     * was appended since the last call (returns the held snapshot).
     */
    std::shared_ptr<const CacheSnapshot> snapshot();

    /**
     * Scheduler cost estimate for (workload, policy): the largest
     * sim_events recorded for the pair under *any* signature (a run
     * of the same pair on a nearby config is the best predictor of
     * length). 0 when the pair has never been seen.
     */
    double estimateEvents(const std::string &workload,
                          const std::string &policy) const;

    /** Compact the file now if any unpersisted rows or un-compacted
     *  appends exist, so a finished sweep always leaves the one
     *  canonical byte representation of its row set. */
    void flush();

    /** Total rows across all sections (tests / introspection). */
    std::size_t size() const;

  private:
    using Key = CacheSnapshot::Key;

    /** Index of appended-but-unpublished rows in one section. */
    using FreshSection = std::map<Key, const RunMetrics *>;

    /** What the on-disk file currently is, as far as appends care:
     *  only a clean v4 file takes appends; everything else forces
     *  the next durable write to compact. */
    enum class FileState
    {
        absent,   ///< missing or empty
        cleanV4,  ///< v4, no damaged tail seen
        other,    ///< foreign (not v4) / torn v4 tail
    };

    void load();

    /**
     * Union @p path into memory; rows already held in memory win.
     * The one reader: it opens the file once, takes a zero-length
     * file as empty, refuses anything without the v4 magic as
     * foreign, and merges the v4 segments up to the first damaged
     * one. Shared by load(), mergeFile(), and save()'s pre-write
     * merge -
     * the latter is what lets concurrently running binaries share
     * one cache path: each writer unions the other's finished
     * sections instead of clobbering them with its own load-time
     * snapshot. @p classify_collisions distinguishes duplicates
     * from conflicts by re-serializing both rows; save()'s
     * self-merge turns it off because there nearly every row
     * collides (with this process's own prior checkpoint) and the
     * classification would dominate checkpoint cost.
     */
    MergeStats mergeFromFile(const std::string &path,
                             bool classify_collisions = true);

    /** Merge one parsed v4 segment. @p durable marks rows already in
     *  this cache's own file; @p all_or_nothing merges no row at all
     *  when any row conflicts (mergeSegment). */
    void mergeV4Segment(const V4SegmentView &seg,
                        bool classify_collisions, bool durable,
                        MergeStats &stats, bool all_or_nothing = false);

    /** Record what the initial load found (first observation only). */
    void noteLoadedFormat(const char *format);

    /** Compacting rewrite: pre-merge the file, then write the whole
     *  snapshot via tmp+rename. @return true when the file reached
     *  disk (or I/O is off). */
    bool save();

    /** Append pendingAppend_ as one segment at the end of the
     *  file. @return false when the write failed (the caller falls
     *  back to save()). */
    bool appendPending();

    /** Append @p m to the row log and index it in fresh_; the row
     *  address is stable for the log's lifetime. @p durable marks
     *  rows that are already bytes in this cache's own file (initial
     *  load / pre-write merge) and therefore never need appending. */
    const RunMetrics *appendRow(const std::string &sig, RunMetrics m,
                                bool durable = false);

    std::string path_;
    std::size_t checkpointInterval_;
    std::size_t unsaved_ = 0;
    std::size_t parseErrors_ = 0;

    /** See FileState. */
    FileState fileState_ = FileState::absent;

    /** First format the load found; nullptr until it found one. */
    const char *loadedFormat_ = nullptr;

    /** Rows inserted/merged since the last durable write of this
     *  file, in arrival order: exactly what checkpoint() appends. */
    std::vector<std::pair<std::string, const RunMetrics *>>
        pendingAppend_;

    /** True when checkpoint() appended since the last compaction,
     *  so flush() knows the file needs its canonical rewrite even
     *  if nothing is pending. */
    bool appendedSinceCompact_ = false;

    /** Damage already reported: a (path, segment offset, reason)
     *  triple, counted as one parse error, or a path that is not v4.
     *  Re-reading the same file warns and counts nothing new, while
     *  the same damage in two different files still counts twice. */
    std::set<std::string> reported_;

    /**
     * The append log: every row this cache ever learned (from disk
     * or insert()), in arrival order. A deque never relocates
     * elements, so `const RunMetrics *` handed to snapshots and
     * callers stay valid across appends. Held by shared_ptr because
     * every published snapshot retains it.
     */
    std::shared_ptr<std::deque<RunMetrics>> log_;

    /** Immutable index over the published prefix of log_. */
    std::shared_ptr<const CacheSnapshot> base_;

    /** Index of rows appended since the last publish (pointers into
     *  log_); folded into base_ by snapshot(). */
    std::map<std::string, FreshSection> fresh_;
};

/** What a batch of grid points still needs; see planSweep(). */
struct SweepPlan
{
    /** Uncached request indices, deduplicated (a repeated point runs
     *  once, at its first index), longest estimate first and lower
     *  index first among equal estimates. */
    std::vector<std::uint32_t> pending;

    /** Cost estimate per request index, 0 unless pending: sim_events
     *  of a prior run of the (workload, policy) under any config,
     *  else the workload's footprint. Costs only order runs. */
    std::vector<double> costs;

    /** Per request index, the config signature it is cached under. */
    std::vector<std::string> sigs;

    /** Requests the cache already answers (every copy counts). */
    std::size_t cached = 0;
};

/**
 * The one plan step, shared by SweepEngine::run() and the fleet
 * coordinator (bench/migc_sweep): classify each of @p requests as
 * cached in @p cache or pending, and estimate and order the pending.
 */
SweepPlan planSweep(const std::vector<RunRequest> &requests,
                    const RunCache &cache);

/**
 * Shared run scheduler + cache. Construct once per process (the
 * default constructor reads MIGC_SWEEP_CACHE / MIGC_NO_CACHE) and
 * route every simulation request through it.
 */
class SweepEngine
{
  public:
    /**
     * Cache path from the environment, like the figure binaries:
     * MIGC_SWEEP_CACHE / MIGC_NO_CACHE select the cache. Fatal when
     * a removed variable is set (rejectRemovedEnv).
     */
    SweepEngine();

    /** Explicit cache path (empty disables the on-disk cache). Tests
     *  and library users get hermetic behavior. */
    explicit SweepEngine(std::string cache_path);

    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /**
     * Result for one grid point; simulates on first use. The
     * reference stays valid for the engine's lifetime.
     */
    const RunMetrics &get(const SimConfig &cfg,
                          const std::string &workload,
                          const std::string &policy);

    /**
     * Ensure every request is available, simulating the missing ones
     * in planSweep() order on parallelFor (@p jobs threads; 0 =
     * MIGC_JOBS / hardware default).
     * @return metrics in request order.
     */
    std::vector<RunMetrics> run(const std::vector<RunRequest> &requests,
                                unsigned jobs = 0);

    /** What one runFleet() session amounted to (worker side). */
    struct FleetRunStats
    {
        std::uint64_t runs = 0;     ///< keys simulated here
        std::uint64_t hits = 0;     ///< keys answered from cache
        std::uint64_t stale = 0;    ///< completions a peer beat
        std::uint64_t leases = 0;   ///< leases taken
    };

    /**
     * Fleet-worker main loop: lease run-key ranges from @p client
     * until the coordinator reports the grid drained, running one
     * lease at a time on parallelFor (@p jobs threads; 0 = MIGC_JOBS
     * / hardware default) with each slot's System warm across
     * leases. Each leased key's row is pushed to the coordinator as
     * one one-row v4 segment *before* the key is reported done, so a
     * worker killed at any instant leaves every reported key in the
     * coordinator's file - the crash-safety half of the lease
     * protocol. A key whose row this engine already holds (leased to
     * it again after an expiry) is pushed again without simulating.
     * Keys the coordinator stole (observed at renew) are skipped
     * without simulating. A fleet worker runs on a memory-only engine
     * (an empty cache path), so it writes no file.
     */
    FleetRunStats runFleet(const std::vector<RunRequest> &requests,
                           FleetClient &client, unsigned jobs = 0);

    /**
     * Testing/CI knob: sleep this long after every simulated run,
     * making this worker an artificial straggler so steal/expiry
     * paths trigger deterministically on fast grids. Sleeping never
     * changes metrics - only wall clock.
     */
    void setInjectedRunDelayMs(unsigned ms) { slowMs_ = ms; }

    /** Persist any un-checkpointed results now. */
    void flush();

    /**
     * Immutable snapshot of everything this engine can currently
     * answer from memory. Safe for concurrent lock-free queries;
     * stays valid independent of later engine activity. This is the
     * serving surface of migc_serve (src/serve/).
     */
    std::shared_ptr<const CacheSnapshot> snapshot();

    /** The cache's on-disk format at load ("v4", "foreign",
     *  "none"); loads the cache if this engine has not touched it
     *  yet. Operator-facing (migc_serve stats). */
    const char *cacheFileFormat() const;

    /** Simulations actually executed (cache misses). */
    std::uint64_t simulationsPerformed() const { return sims_.load(); }

    /** Requests answered from the cache without simulating. */
    std::uint64_t cacheHits() const { return hits_.load(); }

    /** Unparseable cache rows seen by the underlying RunCache. */
    std::size_t cacheParseErrors() const;

  private:
    /** One pool slot's System, kept between runs, and the structure
     *  key of the config it was built for. */
    struct WarmSystem
    {
        std::unique_ptr<System> sys;
        std::string structure;
    };

    /**
     * Execute @p req on @p warm, reusing its System via
     * System::reset() when the structure key matches, rebuilding it
     * otherwise.
     */
    RunMetrics runJob(const RunRequest &req, WarmSystem &warm);

    /**
     * The cache, constructed (and its file loaded) on
     * first touch. The laziness is what lets migc_serve answer its
     * first queries from an mmap'd snapshot without this engine
     * ever parsing the file - the cache materializes only when the
     * first cold miss needs it. Caller holds mu_ (or is a
     * constructor/destructor).
     */
    RunCache &cache() const;

    mutable std::mutex mu_;

    /** Path cache() opens (empty: memory only). */
    std::string cachePath_;

    /** See cache(). */
    mutable std::unique_ptr<RunCache> cachePtr_;

    /** Injected per-run straggler delay (setInjectedRunDelayMs). */
    unsigned slowMs_ = 0;

    std::atomic<std::uint64_t> sims_{0};
    std::atomic<std::uint64_t> hits_{0};
};

} // namespace migc

#endif // MIGC_CORE_SWEEP_ENGINE_HH
