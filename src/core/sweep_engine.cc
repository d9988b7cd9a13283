#include "core/sweep_engine.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>

#include <chrono>
#include <condition_variable>

#include "core/cache_v4.hh"
#include "core/fleet.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "sim/logging.hh"
#include "sim/names.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace migc
{

namespace
{

/** v3: multi-config sections, one per signature. */
constexpr const char *kCacheTagV3 = "# migc-sweep-v3";

/** Section separator inside a v3 file. */
constexpr const char *kSectionTag = "# config ";

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Serialize @p snap as a v3 text cache, byte-identical to what the
 *  pre-v4 writer produced for the same rows. */
void
writeCsvCache(std::string &out, const CacheSnapshot &snap)
{
    out += kCacheTagV3;
    out += '\n';
    for (const auto &[sig, section] : snap.sections()) {
        out += kSectionTag;
        out += sig;
        out += '\n';
        out += RunMetrics::csvHeader();
        out += '\n';
        for (const auto &[key, m] : *section) {
            m->appendCsv(out);
            out += '\n';
        }
    }
}

/** @p snap's rows in canonical (sig, workload, policy) order, ready
 *  for buildV4Segment (the snapshot's own iteration order IS the
 *  canonical order - both maps sort lexicographically). */
std::vector<V4RowRef>
v4RowsOf(const CacheSnapshot &snap)
{
    std::vector<V4RowRef> rows;
    rows.reserve(snap.rows());
    for (const auto &[sig, section] : snap.sections()) {
        for (const auto &[key, m] : *section) {
            rows.push_back(
                V4RowRef{sig, m->workload, m->policy, packV4Row(*m)});
        }
    }
    return rows;
}

/**
 * Serialize @p snap to @p path in @p format via tmp+rename: the
 * compacting write shared by save() and exportFile(). The pid suffix
 * keeps concurrent processes' tmp files private.
 */
bool
writeSnapshotTo(const std::string &path, const CacheSnapshot &snap,
                CacheFormat format)
{
    std::string bytes;
    if (format == CacheFormat::csv)
        writeCsvCache(bytes, snap);
    else
        bytes = buildV4Segment(v4RowsOf(snap));
    const std::string tmp = csprintf("%s.%d.tmp", path.c_str(),
                                     static_cast<int>(::getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return false;
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("could not move sweep cache into place at %s",
             path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace

std::string
sweepCachePathFromEnv()
{
    const char *no_cache = std::getenv("MIGC_NO_CACHE");
    if (no_cache && no_cache[0] == '1')
        return "";
    const char *path = std::getenv("MIGC_SWEEP_CACHE");
    return path ? path : "mi_sweep_cache.csv";
}

void
rejectRemovedEnv()
{
    const char *use_fleet =
        "static sharding was removed. Spread a grid over processes "
        "with `migc_sweep --grid paper|dynamic --shards N`, then run "
        "the figure binaries on the merged cache";
    const std::pair<const char *, const char *> removed[] = {
        {"MIGC_SHARDS", use_fleet},
        {"MIGC_SHARD_INDEX", use_fleet},
        {"MIGC_CACHE_FORMAT",
         "caches are always written as v4. For a v3 text copy, run "
         "`migc_sweep --export PATH --cache-format csv`"},
    };
    for (const auto &[name, instead] : removed) {
        const char *value = std::getenv(name);
        fatal_if(value != nullptr && value[0] != '\0',
                 "%s is no longer supported: %s", name, instead);
    }
}

const char *
cacheFormatName(CacheFormat format)
{
    return format == CacheFormat::v4 ? "v4" : "csv";
}

// ---------------------------------------------------------------------
// RunCache
// ---------------------------------------------------------------------

RunCache::RunCache(std::string path, std::size_t checkpoint_interval,
                   CacheFormat format)
    : path_(std::move(path)),
      checkpointInterval_(checkpoint_interval > 0 ? checkpoint_interval
                                                  : 1),
      log_(std::make_shared<std::deque<RunMetrics>>()),
      base_(CacheSnapshot::empty())
{
    panic_if(format != CacheFormat::v4,
             "a run cache writes v4 only; write a csv copy with "
             "exportFile()");
    if (enabled())
        load();
}

RunCache::~RunCache()
{
    flush();
}

void
RunCache::noteLoadedFormat(const char *format)
{
    if (loadedFormat_ == nullptr)
        loadedFormat_ = format;
}

const char *
RunCache::loadedFormatName() const
{
    return loadedFormat_ != nullptr ? loadedFormat_ : "none";
}

RunCache::MergeStats
RunCache::mergeFromFile(const std::string &path,
                        bool classify_collisions)
{
    // Sniff the first 8 bytes: the v4 magic never begins a v3
    // text file (those start with '#'), so the dispatch is exact.
    char magic[sizeof(kV4SegMagic)];
    std::size_t got = 0;
    {
        std::FILE *probe = std::fopen(path.c_str(), "rb");
        if (probe == nullptr) {
            if (path == path_)
                fileState_ = FileState::absent;
            return {};
        }
        got = std::fread(magic, 1, sizeof(magic), probe);
        std::fclose(probe);
    }
    if (got == sizeof(magic) && isV4Magic(magic))
        return mergeV4File(path, classify_collisions);
    return mergeTextFile(path, classify_collisions);
}

RunCache::MergeStats
RunCache::mergeTextFile(const std::string &path,
                        bool classify_collisions)
{
    MergeStats stats;
    std::ifstream in(path);
    if (!in) {
        if (path == path_)
            fileState_ = FileState::absent;
        return stats;
    }
    std::string line;
    // Scan past blank lines for the format tag; running out of lines
    // first means the file is empty. A zero-length file is a
    // legitimate empty cache, not a corrupt one (a process killed
    // between creating and writing it leaves one behind), so it
    // merges as zero rows: no parse error, no format warning.
    for (;;) {
        if (!std::getline(in, line)) {
            if (path == path_)
                fileState_ = FileState::absent;
            return stats;
        }
        if (!line.empty() && line != "\r")
            break;
    }

    const bool durable = path == path_;
    if (path == path_)
        fileState_ = FileState::other; // text never takes appends
    if (line != kCacheTagV3) {
        // Anything else - including the single-config "# migc-sweep-
        // v2" caches of early builds, whose signatures aliased
        // structurally different configs - serves nothing.
        warn("ignoring sweep cache %s: unrecognized format tag",
             path.c_str());
        if (path == path_)
            noteLoadedFormat("foreign");
        return stats;
    }
    // Sections follow; rows before the first "# config" line (there
    // should be none) are ignored.
    if (path == path_)
        noteLoadedFormat("v3");
    std::string sig;
    bool in_section = false;

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (startsWith(line, kSectionTag)) {
            sig = line.substr(std::strlen(kSectionTag));
            in_section = true;
            continue;
        }
        if (line[0] == '#' || startsWith(line, "workload,"))
            continue; // comment / csv header
        RunMetrics m;
        if (in_section && RunMetrics::fromCsv(line, m)) {
            // Rows already in memory win; for a key both sides hold,
            // determinism says the values must be identical, so an
            // actual difference is worth counting. The collision
            // cases are rare, so rows only re-serialize for
            // comparison when the key already exists.
            const RunMetrics *held = find(sig, m.workload, m.policy);
            if (held == nullptr) {
                appendRow(sig, std::move(m), durable);
                ++stats.rows;
            } else if (!classify_collisions) {
                ++stats.duplicates;
            } else if (held->toCsv() == m.toCsv()) {
                ++stats.duplicates;
            } else {
                ++stats.conflicts;
            }
        } else if (badLines_.insert(path + '\n' + line).second) {
            // Each damaged line counts once per source file: a later
            // checkpoint save re-reading the same file dedupes, but
            // the same damaged text in two different files is two
            // lost rows.
            ++stats.parseErrors;
            ++parseErrors_;
        }
    }
    return stats;
}

RunCache::MergeStats
RunCache::mergeV4File(const std::string &path, bool classify_collisions)
{
    MergeStats stats;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return stats;
    std::fseek(f, 0, SEEK_END);
    const long flen = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    // A u64 vector keeps the buffer 8-byte aligned, which is what
    // parseV4Segment's typed column views require.
    std::vector<std::uint64_t> words(
        (static_cast<std::size_t>(flen > 0 ? flen : 0) + 7) / 8, 0);
    const std::size_t got =
        flen > 0 ? std::fread(words.data(), 1,
                              static_cast<std::size_t>(flen), f)
                 : 0;
    std::fclose(f);
    const char *buf = reinterpret_cast<const char *>(words.data());

    const bool durable = path == path_;
    bool damaged = false;
    std::size_t off = 0;
    while (off < got) {
        V4SegmentView seg;
        std::string why;
        if (!parseV4Segment(buf + off, got - off, seg, &why)) {
            damaged = true;
            // The damaged tail counts as one parse error, deduped
            // per (file, offset, reason) like bad text lines so a
            // checkpoint's re-read does not recount it.
            const std::string key =
                path + '\n' +
                csprintf("segment@%zu:%s", off, why.c_str());
            if (badLines_.insert(key).second) {
                ++stats.parseErrors;
                ++parseErrors_;
            }
            warn("sweep cache %s: damaged v4 segment at byte %zu "
                 "(%s); keeping the %zu row%s of earlier segments",
                 path.c_str(), off, why.c_str(), stats.rows,
                 stats.rows == 1 ? "" : "s");
            break;
        }
        mergeV4Segment(seg, classify_collisions, durable, stats);
        off += seg.bytes;
    }
    if (path == path_) {
        noteLoadedFormat("v4");
        // A damaged tail must not take appends: a fresh segment
        // after garbage would be unreachable (readers stop at the
        // first damaged segment), so the next durable write compacts
        // instead.
        fileState_ =
            damaged ? FileState::other : FileState::cleanV4;
    }
    return stats;
}

void
RunCache::mergeV4Segment(const V4SegmentView &seg,
                         bool classify_collisions, bool durable,
                         MergeStats &stats, bool all_or_nothing)
{
    const bool bulk =
        log_->empty() && fresh_.empty() && base_->rows() == 0;
    if (bulk) {
        // Loading into an empty cache (the overwhelmingly common
        // case: a compacted file's one big segment) skips the
        // per-row find(): the segment is already sorted-unique in
        // canonical order (parseV4Segment checked), so the index
        // builds with end-of-map hints and publishes directly as the
        // base snapshot. Every row lands in the log before the index
        // is built, so the index nodes sit together in memory rather
        // than between the log's chunks; publishes share these
        // sections, and glob scans walk them node by node.
        for (std::uint64_t i = 0; i < seg.rowCount; ++i) {
            const V4Key &k = seg.keys[i];
            RunMetrics m;
            const std::string_view wl = seg.str(k.workload);
            const std::string_view pol = seg.str(k.policy);
            m.workload.assign(wl.data(), wl.size());
            m.policy.assign(pol.data(), pol.size());
            unpackV4Row(seg.rows[i], m);
            log_->push_back(std::move(m));
        }
        CacheSnapshot::Builder b;
        std::string sig;
        for (std::uint64_t i = 0; i < seg.rowCount; ++i) {
            const std::string_view sv = seg.str(seg.keys[i].sig);
            sig.assign(sv.data(), sv.size());
            const RunMetrics *row = &(*log_)[i];
            if (!b.addSorted(sig, row))
                continue; // a duplicate key: parseV4Segment refuses those
            ++stats.rows;
            if (!durable && enabled())
                pendingAppend_.emplace_back(sig, row);
        }
        b.retain(log_);
        base_ = b.build();
        return;
    }

    // Classify every row before merging any, so an all-or-nothing
    // caller (a fleet push) can refuse a conflicting segment whole.
    // Keys are unique within a segment (parseV4Segment checked), so
    // deferring the appends changes no classification.
    std::vector<std::pair<std::string, RunMetrics>> fresh;
    std::string sig, wl, pol;
    for (std::uint64_t i = 0; i < seg.rowCount; ++i) {
        const V4Key &k = seg.keys[i];
        const std::string_view sv = seg.str(k.sig);
        const std::string_view wv = seg.str(k.workload);
        const std::string_view pv = seg.str(k.policy);
        sig.assign(sv.data(), sv.size());
        wl.assign(wv.data(), wv.size());
        pol.assign(pv.data(), pv.size());
        const RunMetrics *held = find(sig, wl, pol);
        if (held == nullptr) {
            RunMetrics m;
            m.workload = wl;
            m.policy = pol;
            unpackV4Row(seg.rows[i], m);
            fresh.emplace_back(sig, std::move(m));
        } else if (!classify_collisions) {
            ++stats.duplicates;
        } else {
            // Same dup/conflict test as the text reader: compare the
            // serialized forms, so v3-loaded and v4-loaded copies of
            // one row always classify as duplicates.
            RunMetrics m;
            m.workload = wl;
            m.policy = pol;
            unpackV4Row(seg.rows[i], m);
            if (held->toCsv() == m.toCsv()) {
                ++stats.duplicates;
            } else if (stats.conflicts++ == 0) {
                stats.firstConflict =
                    csprintf("%s/%s under config %s", wl.c_str(),
                             pol.c_str(), sig.c_str());
            }
        }
    }
    if (all_or_nothing && stats.conflicts > 0)
        return;
    for (auto &[row_sig, m] : fresh) {
        appendRow(row_sig, std::move(m), durable);
        ++stats.rows;
    }
}

void
RunCache::warnMergeProblems(const std::string &path,
                            const MergeStats &stats)
{
    if (stats.parseErrors > 0) {
        warn("sweep cache %s: ignored %zu unparseable row%s "
             "(corrupted file or stale schema?)",
             path.c_str(), stats.parseErrors,
             stats.parseErrors == 1 ? "" : "s");
    }
    if (stats.conflicts > 0) {
        warn("sweep cache %s: %zu row%s conflict with rows already "
             "in memory for the same key (kept the in-memory rows)",
             path.c_str(), stats.conflicts,
             stats.conflicts == 1 ? "" : "s");
    }
}

RunCache::MergeStats
RunCache::mergeFile(const std::string &path)
{
    MergeStats stats = mergeFromFile(path);
    warnMergeProblems(path, stats);
    return stats;
}

RunCache::MergeStats
RunCache::mergeSegment(const V4SegmentView &seg)
{
    MergeStats stats;
    mergeV4Segment(seg, /*classify_collisions=*/true,
                   /*durable=*/false, stats, /*all_or_nothing=*/true);
    return stats;
}

void
RunCache::load()
{
    mergeFile(path_);
}

bool
RunCache::save()
{
    if (!enabled())
        return true;
    // Union the file's current state first so two binaries sweeping
    // different configs against one cache path preserve each other's
    // freshly finished sections instead of racing whole-file
    // snapshots (a write between our merge and rename can still
    // lose, but the next writer's merge re-converges). Rows another
    // writer corrupted in the meantime are about to be dropped by
    // the rewrite, so they must be counted and warned about here -
    // this is the last time they are visible anywhere. Collision
    // classification is off: nearly every row in our own file
    // collides with the copy already in memory, and in-memory wins
    // regardless.
    warnMergeProblems(path_,
                      mergeFromFile(path_,
                                    /*classify_collisions=*/false));
    // Publish pending rows (including what the merge just pulled in)
    // so one sorted index covers everything; the snapshot's
    // canonical section/row order is the file's serialization order.
    std::shared_ptr<const CacheSnapshot> snap = snapshot();
    if (!writeSnapshotTo(path_, *snap, CacheFormat::v4))
        return false;
    pendingAppend_.clear();
    appendedSinceCompact_ = false;
    fileState_ = FileState::cleanV4;
    return true;
}

bool
RunCache::exportFile(const std::string &path, CacheFormat format)
{
    if (!writeSnapshotTo(path, *snapshot(), format))
        return false;
    if (path == path_) {
        // The export just rewrote our own file whole.
        pendingAppend_.clear();
        appendedSinceCompact_ = false;
        fileState_ = format == CacheFormat::v4 ? FileState::cleanV4
                                               : FileState::other;
    }
    return true;
}

bool
RunCache::appendPending()
{
    // Canonical order *within* the segment keeps it binary-
    // searchable; order across segments is the file's append
    // history, and the next compaction restores the one global
    // canonical order.
    std::vector<const std::pair<std::string, const RunMetrics *> *>
        rows;
    rows.reserve(pendingAppend_.size());
    for (const auto &entry : pendingAppend_)
        rows.push_back(&entry);
    std::sort(rows.begin(), rows.end(),
              [](const auto *a, const auto *b) {
                  return std::tie(a->first, a->second->workload,
                                  a->second->policy) <
                         std::tie(b->first, b->second->workload,
                                  b->second->policy);
              });

    std::vector<V4RowRef> refs;
    refs.reserve(rows.size());
    for (const auto *entry : rows) {
        refs.push_back(V4RowRef{entry->first, entry->second->workload,
                                entry->second->policy,
                                packV4Row(*entry->second)});
    }
    const std::string chunk = buildV4Segment(refs);

    std::FILE *f = std::fopen(path_.c_str(), "ab");
    if (f == nullptr)
        return false;
    bool ok =
        std::fwrite(chunk.data(), 1, chunk.size(), f) == chunk.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok)
        return false;
    pendingAppend_.clear();
    appendedSinceCompact_ = true;
    return true;
}

bool
RunCache::checkpoint()
{
    unsaved_ = 0;
    if (!enabled() || pendingAppend_.empty())
        return true;
    const bool appendable = fileState_ == FileState::cleanV4;
    if (appendable && appendPending())
        return true;
    if (appendable) {
        // The append failed partway; the tail is suspect, so only a
        // compacting rewrite may touch the file from here on.
        fileState_ = FileState::other;
    }
    if (save())
        return true;
    warn("sweep cache %s: checkpoint failed; %zu row%s stay in memory "
         "until a later write succeeds",
         path_.c_str(), pendingAppend_.size(),
         pendingAppend_.size() == 1 ? "" : "s");
    return false;
}

const RunMetrics *
RunCache::appendRow(const std::string &sig, RunMetrics m, bool durable)
{
    log_->push_back(std::move(m));
    const RunMetrics *row = &log_->back();
    fresh_[sig].emplace(Key{row->workload, row->policy}, row);
    if (!durable && enabled())
        pendingAppend_.emplace_back(sig, row);
    return row;
}

const RunMetrics *
RunCache::find(const std::string &sig, const std::string &workload,
               const std::string &policy) const
{
    auto sit = fresh_.find(sig);
    if (sit != fresh_.end()) {
        auto rit = sit->second.find(Key{workload, policy});
        if (rit != sit->second.end())
            return rit->second;
    }
    return base_->find(sig, workload, policy);
}

const RunMetrics &
RunCache::insert(const std::string &sig, RunMetrics m)
{
    checkCacheName("workload", m.workload);
    checkCacheName("policy", m.policy);
    fatal_if(m.workload == "workload",
             "workload name 'workload' cannot key the run cache: its "
             "rows would start with the CSV header prefix "
             "\"workload,\" and be skipped on reload");
    if (const RunMetrics *held = find(sig, m.workload, m.policy))
        return *held; // first write wins
    const RunMetrics *stored = appendRow(sig, std::move(m));
    // Amortized durability: every K inserts, append the fresh rows
    // to the file (O(fresh) bytes - NOT a whole-file rewrite, which
    // would make an N-row sweep cost O(N^2) checkpoint bytes).
    if (++unsaved_ >= checkpointInterval_)
        checkpoint();
    return *stored;
}

std::shared_ptr<const CacheSnapshot>
RunCache::snapshot()
{
    if (!fresh_.empty()) {
        // Start from base_'s sections: the ones no fresh row lands
        // in are shared, and each touched one is copied once. Every
        // row lives in log_, so retaining the log alone keeps the
        // new snapshot self-contained and lets superseded snapshots
        // die with their last reader instead of chaining.
        CacheSnapshot::Builder b(*base_);
        for (const auto &[sig, section] : fresh_) {
            for (const auto &[key, row] : section)
                b.add(sig, row);
        }
        b.retain(log_);
        base_ = b.build();
        fresh_.clear();
    }
    return base_;
}

double
RunCache::estimateEvents(const std::string &workload,
                         const std::string &policy) const
{
    double best = base_->estimateEvents(workload, policy);
    for (const auto &[sig, section] : fresh_) {
        auto it = section.find(Key{workload, policy});
        if (it != section.end() && it->second->simEvents > best)
            best = it->second->simEvents;
    }
    return best;
}

void
RunCache::flush()
{
    // Compact when anything is pending OR the file holds appended
    // segments: the flushed file must be the one canonical byte
    // representation of the row set. A cache that only ever *read*
    // its file (warm replay) has neither and skips the rewrite.
    if (!pendingAppend_.empty() || appendedSinceCompact_) {
        save();
        unsaved_ = 0;
    }
}

bool
RunCache::saveNow()
{
    bool ok = save();
    unsaved_ = 0;
    return ok;
}

std::size_t
RunCache::size() const
{
    std::size_t n = base_->rows();
    for (const auto &[sig, section] : fresh_)
        n += section.size();
    return n;
}

namespace
{

/**
 * Stable 64-bit hash of one run key: FNV-1a over the three key
 * strings, so it is identical across processes, architectures of
 * the same width, and runs.
 */
std::uint64_t
runKeyHash(const std::string &sig, const std::string &workload,
           const std::string &policy)
{
    // '\n' cannot appear inside a key component (keys are one-line
    // cache fields), so the concatenation is unambiguous.
    std::string key;
    key.reserve(sig.size() + workload.size() + policy.size() + 2);
    key += sig;
    key += '\n';
    key += workload;
    key += '\n';
    key += policy;
    return fnv1a(key);
}

} // namespace

std::uint64_t
gridFingerprint(const std::vector<RunRequest> &requests)
{
    // Chain the per-key hashes so order matters: leases are indices
    // into the vector, and two grids with the same keys in a
    // different order are NOT interchangeable.
    std::uint64_t h = fnv1a("migc-fleet-grid") ^
                      splitmix64(requests.size());
    for (const RunRequest &req : requests) {
        h = splitmix64(h ^ runKeyHash(req.cfg.signature(),
                                      req.workload, req.policy));
    }
    return h;
}

// ---------------------------------------------------------------------
// SweepEngine
// ---------------------------------------------------------------------

SweepEngine::SweepEngine()
    : SweepEngine(sweepCachePathFromEnv())
{
    rejectRemovedEnv();
}

SweepEngine::SweepEngine(std::string cache_path)
    : cachePath_(std::move(cache_path))
{}

RunCache &
SweepEngine::cache() const
{
    if (cachePtr_ == nullptr)
        cachePtr_ = std::make_unique<RunCache>(cachePath_);
    return *cachePtr_;
}

const char *
SweepEngine::cacheFileFormat() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cache().loadedFormatName();
}

SweepEngine::~SweepEngine() = default;

std::size_t
SweepEngine::cacheParseErrors() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return cache().parseErrors();
}

const RunMetrics &
SweepEngine::get(const SimConfig &cfg, const std::string &workload,
                 const std::string &policy)
{
    const std::string sig = cfg.signature();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (const RunMetrics *m = cache().find(sig, workload, policy)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return *m;
        }
    }

    inform("simulating %s under %s ...", workload.c_str(),
           policy.c_str());
    ++sims_;
    RunMetrics m = runNamedWorkload(workload, cfg, policy);

    std::lock_guard<std::mutex> lk(mu_);
    if (const RunMetrics *prior = cache().find(sig, workload, policy)) {
        // Lost a race with another thread simulating the same point;
        // both computed identical metrics, keep the first.
        return *prior;
    }
    const RunMetrics &stored = cache().insert(sig, std::move(m));
    // Interactive single runs are rare and expensive: make each one
    // durable immediately with an O(1)-row append (run()'s batch
    // path amortizes instead).
    cache().checkpoint();
    return stored;
}

RunMetrics
SweepEngine::runJob(const Job &job, std::unique_ptr<System> &sys,
                    std::string &sys_structure)
{
    const RunRequest &req = *job.req;
    const std::uint64_t run_seed =
        runSeedFor(req.cfg, req.workload, req.policy);
    const CachePolicy policy = CachePolicy::fromName(req.policy);

    std::string structure = req.cfg.structureKey();
    if (sys != nullptr && sys_structure == structure) {
        // Same machine, different run: keep every allocation warm.
        sys->reset(policy, run_seed);
    } else {
        SimConfig run_cfg = req.cfg;
        run_cfg.seed = run_seed;
        sys = std::make_unique<System>(run_cfg, policy);
        sys_structure = std::move(structure);
    }

    auto wl = makeWorkload(req.workload);
    sims_.fetch_add(1, std::memory_order_relaxed);
    RunMetrics m = runWorkloadOn(*sys, *wl);
    if (slowMs_ > 0) {
        // Straggler injection (setInjectedRunDelayMs): stretch wall
        // clock only, after the metrics are computed.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(slowMs_));
    }
    return m;
}

std::vector<RunMetrics>
SweepEngine::run(const std::vector<RunRequest> &requests, unsigned jobs)
{
    // Phase 1: split the batch into cached points and missing jobs,
    // deduplicating repeated grid points.
    std::vector<std::string> sigs;
    sigs.reserve(requests.size());
    std::vector<Job> missing;
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::map<std::tuple<std::string, std::string, std::string>,
                 bool>
            seen;
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const RunRequest &req = requests[i];
            sigs.push_back(req.cfg.signature());
            if (cache().find(sigs[i], req.workload, req.policy)) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            auto key = std::make_tuple(sigs[i], req.workload,
                                       req.policy);
            if (!seen.emplace(std::move(key), true).second)
                continue;
            missing.push_back(Job{&req, sigs[i],
                                  cache().estimateEvents(req.workload,
                                                         req.policy),
                                  i});
        }
    }
    if (!missing.empty()) {
        // Fill unknown costs from a workload-size heuristic: the
        // simulated footprint is a stable proxy for run length when
        // no prior run of the pair exists. Heuristic and measured
        // costs only ever order runs, never change them.
        for (Job &job : missing) {
            if (job.estimate <= 0.0) {
                job.estimate = static_cast<double>(
                    makeWorkload(job.req->workload)
                        ->footprintBytes(job.req->cfg.workloadScale));
            }
        }

        // Longest-job-first; submission order breaks ties so the
        // schedule is reproducible.
        std::sort(missing.begin(), missing.end(),
                  [](const Job &a, const Job &b) {
                      if (a.estimate != b.estimate)
                          return a.estimate > b.estimate;
                      return a.submitOrder < b.submitOrder;
                  });

        if (jobs == 0)
            jobs = sweepJobs();
        if (static_cast<std::size_t>(jobs) > missing.size())
            jobs = static_cast<unsigned>(missing.size());
        inform("sweeping %zu (workload, policy) runs on %u worker%s "
               "(longest-first) ...",
               missing.size(), jobs, jobs == 1 ? "" : "s");

        std::atomic<std::size_t> next{0};
        std::exception_ptr error;
        std::mutex error_mu;

        auto worker = [&] {
            // Worker-local System, reused across every structurally
            // compatible run this worker executes.
            std::unique_ptr<System> sys;
            std::string sys_structure;
            for (;;) {
                std::size_t k =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (k >= missing.size())
                    return;
                const Job &job = missing[k];
                try {
                    RunMetrics m = runJob(job, sys, sys_structure);
                    std::lock_guard<std::mutex> lk(mu_);
                    cache().insert(job.sig, std::move(m));
                } catch (...) {
                    std::lock_guard<std::mutex> lk(error_mu);
                    if (!error)
                        error = std::current_exception();
                    next.store(missing.size(),
                               std::memory_order_relaxed);
                    return;
                }
            }
        };

        if (jobs <= 1) {
            worker();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(jobs);
            for (unsigned t = 0; t < jobs; ++t)
                pool.emplace_back(worker);
            for (auto &th : pool)
                th.join();
        }
        if (error)
            std::rethrow_exception(error);

        flush();

        // The batch summary: what the sweep actually cost, and - so
        // a truncated cache cannot pass for a cold one - how many
        // cache rows were lost to parse errors.
        std::lock_guard<std::mutex> lk(mu_);
        const std::size_t lost = cache().parseErrors();
        inform("sweep batch done: %zu simulated, %zu cache parse "
               "error%s",
               missing.size(), lost, lost == 1 ? "" : "s");
    }

    // Phase 2: every request is now cached; answer in request order.
    std::vector<RunMetrics> results;
    results.reserve(requests.size());
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RunMetrics *m = cache().find(
            sigs[i], requests[i].workload, requests[i].policy);
        panic_if(m == nullptr, "sweep engine lost a result for %s/%s",
                 requests[i].workload.c_str(),
                 requests[i].policy.c_str());
        results.push_back(*m);
    }
    return results;
}

SweepEngine::FleetRunStats
SweepEngine::runFleet(const std::vector<RunRequest> &requests,
                      FleetClient &client, unsigned jobs)
{
    if (jobs == 0)
        jobs = sweepJobs();
    if (jobs == 0)
        jobs = 1;

    FleetRunStats stats;
    std::mutex stats_mu;

    // Leased keys flow through a small channel to a persistent
    // thread pool, so worker Systems stay warm across leases the
    // same way run()'s pool keeps them warm across jobs.
    std::mutex qmu;
    std::condition_variable qcv;   // work arrived / closed
    std::condition_variable idle;  // lease fully processed
    std::deque<std::pair<std::uint64_t, std::uint32_t>> work;
    std::size_t inflight = 0;
    bool closed = false;

    std::exception_ptr error;
    std::mutex error_mu;

    auto processKey = [&](std::uint64_t id, std::uint32_t key,
                          std::unique_ptr<System> &sys,
                          std::string &sys_structure) {
        panic_if(static_cast<std::size_t>(key) >= requests.size(),
                 "fleet lease key %u outside the %zu-point grid",
                 key, requests.size());
        if (!client.ownedNow(id, key))
            return; // stolen (or the lease went stale): not ours
        const RunRequest &req = requests[key];
        const std::string sig = req.cfg.signature();
        const RunMetrics *row;
        {
            std::lock_guard<std::mutex> lk(mu_);
            row = cache().find(sig, req.workload, req.policy);
        }
        const bool cached = row != nullptr;
        if (cached) {
            hits_.fetch_add(1, std::memory_order_relaxed);
        } else {
            Job job{&req, sig, 0.0, key};
            RunMetrics m = runJob(job, sys, sys_structure);
            std::lock_guard<std::mutex> lk(mu_);
            row = &cache().insert(sig, std::move(m));
        }
        // Push before done: the coordinator retires a key on `done`,
        // so its row must already be in the coordinator's file - this
        // ordering is the whole crash-safety contract. Each push is
        // one self-contained segment, so pushes may land in any order.
        // Stored rows never change, so reading *row unlocked is safe.
        client.pushSegment(
            id, buildV4Segment({V4RowRef{sig, row->workload,
                                         row->policy,
                                         packV4Row(*row)}}));
        bool fresh = client.done(id, key);
        std::lock_guard<std::mutex> lk(stats_mu);
        if (cached)
            ++stats.hits;
        else
            ++stats.runs;
        if (!fresh)
            ++stats.stale;
    };

    auto workerFn = [&] {
        std::unique_ptr<System> sys;
        std::string sys_structure;
        for (;;) {
            std::pair<std::uint64_t, std::uint32_t> item;
            {
                std::unique_lock<std::mutex> lk(qmu);
                qcv.wait(lk,
                         [&] { return closed || !work.empty(); });
                if (work.empty())
                    return; // closed and drained
                item = work.front();
                work.pop_front();
                ++inflight;
            }
            try {
                processKey(item.first, item.second, sys,
                           sys_structure);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lk(error_mu);
                    if (!error)
                        error = std::current_exception();
                }
                std::lock_guard<std::mutex> lk(qmu);
                work.clear();
                closed = true;
                --inflight;
                qcv.notify_all();
                idle.notify_all();
                return;
            }
            {
                std::lock_guard<std::mutex> lk(qmu);
                --inflight;
            }
            idle.notify_all();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(workerFn);

    for (;;) {
        {
            std::lock_guard<std::mutex> lk(qmu);
            if (closed)
                break; // a worker hit an error
        }
        FleetGrant grant = client.lease();
        if (grant.kind == FleetGrant::Kind::drained)
            break;
        {
            std::lock_guard<std::mutex> lk(stats_mu);
            ++stats.leases;
        }
        {
            std::lock_guard<std::mutex> lk(qmu);
            for (std::uint32_t key : grant.keys)
                work.emplace_back(grant.id, key);
        }
        qcv.notify_all();
        // One lease at a time: wait for this one to be fully
        // processed (the renewer keeps it alive throughout) before
        // asking for the next, so the coordinator's remaining-cost
        // picture stays honest for steal decisions.
        {
            std::unique_lock<std::mutex> lk(qmu);
            idle.wait(lk, [&] {
                return closed || (work.empty() && inflight == 0);
            });
        }
        client.finishLease();
    }

    {
        std::lock_guard<std::mutex> lk(qmu);
        closed = true;
    }
    qcv.notify_all();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);

    return stats;
}

void
SweepEngine::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    // An untouched lazy cache has nothing to flush; constructing it
    // here would force the file parse that mmap-serving avoided.
    if (cachePtr_ != nullptr)
        cachePtr_->flush();
}

std::shared_ptr<const CacheSnapshot>
SweepEngine::snapshot()
{
    std::lock_guard<std::mutex> lk(mu_);
    return cache().snapshot();
}

} // namespace migc
