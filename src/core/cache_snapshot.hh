/**
 * @file
 * An immutable, indexed view of run-cache contents, shared between
 * threads by shared_ptr swap.
 *
 * The serving story (bench/migc_serve, docs/SERVE.md) needs many
 * concurrent readers answering cache queries while a writer folds in
 * freshly simulated rows. The classic split: results live in an
 * append-only row store (rows are written once, then never move -
 * the "append log"), and a CacheSnapshot is an immutable index of
 * `const RunMetrics *` over some prefix of that log. The index is one
 * immutable Section per config signature, held by shared_ptr.
 * Publishing new results builds a *new* snapshot from the old one's
 * sections (Builder(const CacheSnapshot &)): every section the new
 * rows miss is shared, and a section they land in is copied once,
 * so a publish costs O(sections + rows of the touched sections), not
 * O(rows). Then one shared_ptr swaps; readers keep using whatever
 * snapshot they loaded, lock-free, for as long as they hold it.
 *
 * A snapshot has a second, zero-copy representation: fromMappedFile()
 * wraps an mmap'd single-segment v4 cache file (cache_v4.hh) without
 * materializing a single RunMetrics. Queries then run on the interned
 * columns directly - binary search over interned ids for exact finds
 * and for the key range a glob can match. Only the
 * serialization-level API (findCsv / matchCsv / rows / sectionCount)
 * works on a mapped snapshot; the pointer-returning
 * find() and sections() are materialized-only, because a mapped
 * snapshot has no RunMetrics objects to point at. This is how
 * migc_serve starts serving by mapping the cache instead of parsing
 * it.
 *
 * Ownership: a snapshot retains (via keep-alive shared_ptrs) every
 * row store - or mapped file - its pointers reach into, so a query
 * result stays valid for the lifetime of the snapshot that produced
 * it - even after the owning RunCache is gone.
 *
 * Thread-safety: a built CacheSnapshot is deeply immutable; any
 * number of threads may query one concurrently with no locking. The
 * Builder is single-threaded.
 */

#ifndef MIGC_CORE_CACHE_SNAPSHOT_HH
#define MIGC_CORE_CACHE_SNAPSHOT_HH

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/metrics.hh"

namespace migc
{

class MappedCacheV4;

/**
 * Glob match with '*' (any run, including empty) and '?' (exactly
 * one character); everything else matches literally. The pattern
 * language of migc_serve's `match` queries. Iterative two-pointer
 * matching with single-star backtracking: O(|pattern| * |text|)
 * worst case even on adversarial multi-'*' patterns, never the
 * exponential blowup of naive recursive matchers.
 */
bool globMatch(std::string_view pattern, std::string_view text);

class CacheSnapshot
{
  public:
    /** (workload, policy) - the row key inside one config section. */
    using Key = std::pair<std::string, std::string>;

    /** One config section: sorted rows, pointers into a row store. */
    using Section = std::map<Key, const RunMetrics *>;

    /** Sections keyed by config signature, sorted. A section is
     *  immutable once built, so snapshots share the ones a publish
     *  leaves untouched. */
    using SectionMap =
        std::map<std::string, std::shared_ptr<const Section>>;

    /** The shared empty snapshot. */
    static std::shared_ptr<const CacheSnapshot> empty();

    /**
     * Zero-copy snapshot over a mapped v4 cache file: no rows are
     * materialized, queries answer straight from the interned
     * columns. Serialization-level queries only (see the file
     * comment); find() and sections() on the result are empty.
     */
    static std::shared_ptr<const CacheSnapshot>
    fromMappedFile(std::shared_ptr<const MappedCacheV4> file);

    /** True for a fromMappedFile() snapshot. */
    bool mapped() const { return mapped_ != nullptr; }

    /** Row for (sig, workload, policy), or nullptr. Materialized
     *  snapshots only: always nullptr on a mapped snapshot. */
    const RunMetrics *find(const std::string &sig,
                           const std::string &workload,
                           const std::string &policy) const;

    /**
     * Serialization-level exact lookup, valid on both
     * representations: on a hit, appends the row's CSV line (no
     * trailing newline) to @p out and returns true. A mapped
     * snapshot resolves the key by interned-id binary search and
     * formats the CSV straight from the metric column.
     */
    bool findCsv(const std::string &sig, const std::string &workload,
                 const std::string &policy, std::string &out) const;

    /**
     * Serialization-level glob query, valid on both representations:
     * appends to @p out one '\n'-terminated CSV line per row whose
     * (signature, workload, policy) match the three globMatch()
     * patterns, in canonical order (sorted by signature, then
     * workload, then policy - the cache-file serialization order, so
     * answers are byte-stable across runs), and returns the count.
     *
     * Only the keys a pattern can match are visited. Every match
     * starts with the pattern's literal prefix (its text before the
     * first '*' or '?'), so each section's matches lie in one key
     * range: a literal signature is one section lookup, a workload
     * glob runs once per workload of its prefix's range, and a
     * literal policy is one lookup per matching workload. A mapped
     * snapshot finds the same ranges as interned-id ranges
     * (MappedCacheV4::prefixRange) by binary search.
     */
    std::size_t matchCsv(const std::string &sig_pattern,
                         const std::string &workload_pattern,
                         const std::string &policy_pattern,
                         std::string &out) const;

    /** Total rows, either representation. */
    std::size_t rows() const { return rows_; }

    /** Distinct config sections, either representation. */
    std::size_t sectionCount() const;

    /** Materialized index; empty for a mapped snapshot (use the
     *  serialization-level queries there). */
    const SectionMap &sections() const { return sections_; }

    /** Single-threaded assembler for a new snapshot. */
    class Builder
    {
      public:
        Builder() = default;

        /**
         * Start from @p base's rows and keep-alives. Its sections are
         * shared, not copied: a section is copied on the first add()
         * that lands in it, and the built snapshot shares every
         * section no add() touched. @p base itself never changes.
         * Mapped snapshots are refused (panic): they have no
         * sections to share.
         */
        explicit Builder(const CacheSnapshot &base);

        /**
         * Index @p row under (@p sig, row->workload, row->policy).
         * First add wins: returns false (and changes nothing) when
         * the key is already present - in a section shared from the
         * base too - or @p row is null.
         * The caller guarantees @p row outlives the built snapshot
         * or registers its owner via retain().
         */
        bool add(const std::string &sig, const RunMetrics *row);

        /**
         * add() for canonically ordered input: amortized O(1) per
         * row when rows arrive sorted by (sig, workload, policy) -
         * the order of a compacted v4 segment - via end-of-map
         * hints; falls back to add() whenever the hint is wrong, so
         * unsorted input stays correct, just slower.
         */
        bool addSorted(const std::string &sig, const RunMetrics *row);

        /** Keep @p owner alive as long as the built snapshot (once:
         *  an owner already retained is not added again). */
        void retain(std::shared_ptr<const void> owner);

        /** Finish; the builder is empty afterwards. */
        std::shared_ptr<const CacheSnapshot> build();

      private:
        /** The section add() may write for (@p sig, @p key): the
         *  one this builder owns, else a copy of the base's, else a
         *  new one - or nullptr when the base's section already
         *  holds @p key, which then stays shared. */
        Section *writable(const std::string &sig, const Key &key);

        /** Sections shared from the base and not yet written. */
        SectionMap shared_;

        /** Sections this builder created or copied. */
        std::map<std::string, std::shared_ptr<Section>> own_;

        std::size_t rows_ = 0;
        std::vector<std::shared_ptr<const void>> keepAlive_;

        /** addSorted() hint state: the section of the previous add. */
        std::string hintSig_;
        Section *hintSection_ = nullptr;
    };

  private:
    CacheSnapshot(SectionMap sections, std::size_t rows,
                  std::vector<std::shared_ptr<const void>> keep_alive);

    explicit CacheSnapshot(std::shared_ptr<const MappedCacheV4> file);

    SectionMap sections_;
    std::size_t rows_;
    std::vector<std::shared_ptr<const void>> keepAlive_;

    /** Zero-copy base; non-null exactly for mapped snapshots. */
    std::shared_ptr<const MappedCacheV4> mapped_;
};

} // namespace migc

#endif // MIGC_CORE_CACHE_SNAPSHOT_HH
