/**
 * @file
 * The v4 binary columnar sweep-cache format.
 *
 * A v4 file is a sequence of self-contained *segments*. Each segment
 * carries its own string table (every distinct signature / workload /
 * policy name, sorted, so interned ids order exactly like the
 * strings), a sorted key column of interned-id triples, a fixed-width
 * metric column (one 176-byte row per key, fields in CSV column
 * order), and a checksummed footer. A compacted cache is one segment
 * in canonical (signature, workload, policy) order - byte-identical
 * for a given row set no matter how it was produced; checkpoints
 * append one small segment of fresh rows instead of rewriting the
 * file (see RunCache::checkpoint).
 *
 * Layout (all integers little-endian, every part 8-byte aligned, so
 * segments always start on an 8-byte boundary):
 *
 *   header   (64 B): magic "MIGC4SEG", u32 version, u32 endian tag,
 *                    u64 segmentBytes, u64 stringCount,
 *                    u64 stringBytes, u64 rowCount, u64 reserved[2]
 *   stringEnds     : u64[stringCount]  (end offset of each string)
 *   blob           : char[stringBytes] (concatenated, 0-padded to 8)
 *   keys           : {u32 sig, u32 workload, u32 policy, u32 pad}
 *                    [rowCount], sorted by the id triple
 *   rows           : V4Row[rowCount]   (rows[i] belongs to keys[i])
 *   footer   (24 B): u64 checksum (over everything before the
 *                    footer), u64 rowCount, magic "MIGC4END"
 *
 * A torn append (crash mid-write) truncates or garbles the *last*
 * segment only; the footer checksum catches it, readers keep every
 * earlier segment and report the tail as one parse error, and the
 * next compaction rewrites a clean file. The tmp+rename discipline
 * of full saves is unchanged.
 */

#ifndef MIGC_CORE_CACHE_V4_HH
#define MIGC_CORE_CACHE_V4_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hh"

namespace migc
{

/** First / last 8 bytes of every segment. */
constexpr char kV4SegMagic[8] = {'M', 'I', 'G', 'C', '4', 'S', 'E', 'G'};
constexpr char kV4EndMagic[8] = {'M', 'I', 'G', 'C', '4', 'E', 'N', 'D'};
constexpr std::uint32_t kV4Version = 1;
constexpr std::uint32_t kV4EndianTag = 0x01020304u;
constexpr std::size_t kV4HeaderBytes = 64;
constexpr std::size_t kV4FooterBytes = 24;

/** @return true when @p p (>= 8 bytes) starts with the segment
 *  magic - the whole-file format sniff. */
inline bool
isV4Magic(const char *p)
{
    return std::memcmp(p, kV4SegMagic, sizeof(kV4SegMagic)) == 0;
}

/**
 * Checksum used by segment footers: splitmix64 chained over 64-bit
 * words (tail bytes zero-padded into a final word). Not
 * cryptographic - it exists to detect torn appends and truncation,
 * and to do so at memory bandwidth rather than byte-at-a-time FNV
 * speed, since every load verifies it.
 */
std::uint64_t v4Checksum(const void *data, std::size_t n);

/** The fixed-width metric column: RunMetrics' numeric fields in CSV
 *  column order (execTicks, then the 21 doubles of toCsv()). */
struct V4Row
{
    std::uint64_t execTicks;
    double m[21];
};
static_assert(sizeof(V4Row) == 176, "v4 metric row layout drifted");

/** Interned key triple; ids index the segment's string table. */
struct V4Key
{
    std::uint32_t sig;
    std::uint32_t workload;
    std::uint32_t policy;
    std::uint32_t pad;
};
static_assert(sizeof(V4Key) == 16, "v4 key layout drifted");

/** Pack the numeric fields of @p m (names travel via the string
 *  table). Doubles are stored verbatim, so CSV re-export formats the
 *  exact same values byte-identically. */
V4Row packV4Row(const RunMetrics &m);

/** Unpack numeric fields into @p out (leaves the names alone). */
void unpackV4Row(const V4Row &row, RunMetrics &out);

/** One row bound for a segment: names as views (the writer interns
 *  them), metrics by value. */
struct V4RowRef
{
    std::string_view sig;
    std::string_view workload;
    std::string_view policy;
    V4Row data;
};

/**
 * Serialize one segment from @p rows, which MUST be sorted by
 * (sig, workload, policy) with no duplicate keys - the canonical
 * cache order. Deterministic: same rows, same bytes.
 */
std::string buildV4Segment(const std::vector<V4RowRef> &rows);

/** A parsed, validated view over one segment's bytes (not owning). */
struct V4SegmentView
{
    std::size_t bytes = 0; ///< total segment size, header..footer
    std::uint64_t stringCount = 0;
    std::uint64_t rowCount = 0;
    const std::uint64_t *stringEnds = nullptr;
    const char *blob = nullptr;
    const V4Key *keys = nullptr;
    const V4Row *rows = nullptr;

    std::string_view
    str(std::uint32_t id) const
    {
        const std::uint64_t begin = id == 0 ? 0 : stringEnds[id - 1];
        return std::string_view(blob + begin, stringEnds[id] - begin);
    }
};

/**
 * Parse and validate the segment starting at @p p (8-byte aligned,
 * @p avail bytes available). Verifies magic, version, endianness,
 * internal bounds, the footer checksum, and that the string table is
 * sorted unique. @return false (with @p why set) on any mismatch -
 * including a torn tail shorter than the header claims.
 */
bool parseV4Segment(const char *p, std::size_t avail,
                    V4SegmentView &seg, std::string *why);

/**
 * A whole v4 cache file mapped read-only - the zero-copy base of a
 * mapped CacheSnapshot (cache_snapshot.hh). Mapping succeeds only
 * for a clean single-segment (i.e. compacted) file whose checksum
 * verifies; multi-segment files with pending appends and torn tails
 * must go through RunCache's parsing loader instead (which refuses
 * anything that is not v4 at all). The mapping lives until the last
 * shared_ptr drops.
 */
class MappedCacheV4
{
  public:
    /** Map @p path; nullptr (with @p why set) when not mappable. */
    static std::shared_ptr<const MappedCacheV4>
    map(const std::string &path, std::string *why);

    ~MappedCacheV4();

    MappedCacheV4(const MappedCacheV4 &) = delete;
    MappedCacheV4 &operator=(const MappedCacheV4 &) = delete;

    const V4SegmentView &segment() const { return seg_; }
    std::size_t rows() const { return seg_.rowCount; }

    /** Distinct signatures (= config sections). */
    std::size_t sections() const { return sections_.size(); }

    /** Interned id of @p s, or -1: binary search over the sorted
     *  string table (id order == string order). */
    std::int64_t stringId(std::string_view s) const;

    /** Interned ids [begin, end); empty when begin == end. */
    struct IdRange
    {
        std::uint32_t begin;
        std::uint32_t end;
    };

    /** Ids of every interned string that starts with @p prefix (all
     *  of them for an empty prefix). Ids order like the strings, so
     *  they are one range: two binary searches. */
    IdRange prefixRange(std::string_view prefix) const;

    /** Row index for the exact key triple, or -1: interned-id
     *  binary search over the sorted key column. */
    std::int64_t findRow(std::string_view sig, std::string_view workload,
                         std::string_view policy) const;

    /** One config section: key range [begin, end) in the row
     *  columns; every key in it shares keys[begin].sig. */
    struct SectionRange
    {
        std::size_t begin;
        std::size_t end;
    };

    const std::vector<SectionRange> &sectionRanges() const
    {
        return sections_;
    }

    /** Materialize row @p idx (names copied from the string
     *  table). */
    RunMetrics materialize(std::size_t idx) const;

  private:
    MappedCacheV4() = default;

    void *base_ = nullptr;
    std::size_t len_ = 0;
    V4SegmentView seg_;
    std::vector<SectionRange> sections_;
};

} // namespace migc

#endif // MIGC_CORE_CACHE_V4_HH
