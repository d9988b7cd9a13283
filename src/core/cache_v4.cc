#include "core/cache_v4.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace migc
{

namespace
{

/** Append a little-endian scalar to a byte buffer. */
template <typename T>
void
put(std::string &buf, T v)
{
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    buf.append(raw, sizeof(T));
}

/** Read a scalar from a byte pointer (alignment-safe). */
template <typename T>
T
get(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

constexpr std::uint64_t kChecksumSeed = 0x9E3779B97F4A7C15ull;

bool
fail(std::string *why, const char *msg)
{
    if (why != nullptr)
        *why = msg;
    return false;
}

/** The first id of @p seg's sorted string table whose string
 *  @p before rejects; @p before must hold on a leading run of ids
 *  and on none after it. */
template <typename Before>
std::uint32_t
firstId(const V4SegmentView &seg, Before before)
{
    std::size_t lo = 0, hi = seg.stringCount;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (before(seg.str(static_cast<std::uint32_t>(mid))))
            lo = mid + 1;
        else
            hi = mid;
    }
    return static_cast<std::uint32_t>(lo);
}

} // namespace

std::uint64_t
v4Checksum(const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    std::uint64_t h = kChecksumSeed ^ n;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        h = splitmix64(h ^ get<std::uint64_t>(p + i));
    if (i < n) {
        std::uint64_t tail = 0;
        std::memcpy(&tail, p + i, n - i);
        h = splitmix64(h ^ tail);
    }
    return h;
}

V4Row
packV4Row(const RunMetrics &m)
{
    V4Row r;
    r.execTicks = m.execTicks;
    r.m[0] = m.execSeconds;
    r.m[1] = m.gpuMemRequests;
    r.m[2] = m.dramReads;
    r.m[3] = m.dramWrites;
    r.m[4] = m.dramAccesses;
    r.m[5] = m.dramRowHitRate;
    r.m[6] = m.cacheStallCycles;
    r.m[7] = m.stallsPerRequest;
    r.m[8] = m.vops;
    r.m[9] = m.gvops;
    r.m[10] = m.gmrps;
    r.m[11] = m.l1Hits;
    r.m[12] = m.l1Misses;
    r.m[13] = m.l2Hits;
    r.m[14] = m.l2Misses;
    r.m[15] = m.l2Writebacks;
    r.m[16] = m.rinseWritebacks;
    r.m[17] = m.allocBypassed;
    r.m[18] = m.predictorBypasses;
    r.m[19] = m.kernels;
    r.m[20] = m.simEvents;
    return r;
}

void
unpackV4Row(const V4Row &row, RunMetrics &out)
{
    out.execTicks = row.execTicks;
    out.execSeconds = row.m[0];
    out.gpuMemRequests = row.m[1];
    out.dramReads = row.m[2];
    out.dramWrites = row.m[3];
    out.dramAccesses = row.m[4];
    out.dramRowHitRate = row.m[5];
    out.cacheStallCycles = row.m[6];
    out.stallsPerRequest = row.m[7];
    out.vops = row.m[8];
    out.gvops = row.m[9];
    out.gmrps = row.m[10];
    out.l1Hits = row.m[11];
    out.l1Misses = row.m[12];
    out.l2Hits = row.m[13];
    out.l2Misses = row.m[14];
    out.l2Writebacks = row.m[15];
    out.rinseWritebacks = row.m[16];
    out.allocBypassed = row.m[17];
    out.predictorBypasses = row.m[18];
    out.kernels = row.m[19];
    out.simEvents = row.m[20];
}

std::string
buildV4Segment(const std::vector<V4RowRef> &rows)
{
    // Intern: sorted unique names, so ids order like the strings and
    // sorting keys by id triple IS the canonical string order.
    std::vector<std::string_view> table;
    table.reserve(rows.size() * 3);
    for (const V4RowRef &r : rows) {
        table.push_back(r.sig);
        table.push_back(r.workload);
        table.push_back(r.policy);
    }
    std::sort(table.begin(), table.end());
    table.erase(std::unique(table.begin(), table.end()), table.end());
    panic_if(table.size() > UINT32_MAX,
             "v4 segment with more than 2^32 interned strings");

    auto idOf = [&](std::string_view s) {
        auto it = std::lower_bound(table.begin(), table.end(), s);
        return static_cast<std::uint32_t>(it - table.begin());
    };

    std::uint64_t string_bytes = 0;
    for (std::string_view s : table)
        string_bytes += s.size();
    const std::uint64_t blob_padded = (string_bytes + 7) & ~7ull;

    const std::uint64_t seg_bytes =
        kV4HeaderBytes + 8 * table.size() + blob_padded +
        sizeof(V4Key) * rows.size() + sizeof(V4Row) * rows.size() +
        kV4FooterBytes;

    std::string buf;
    buf.reserve(seg_bytes);
    buf.append(kV4SegMagic, sizeof(kV4SegMagic));
    put<std::uint32_t>(buf, kV4Version);
    put<std::uint32_t>(buf, kV4EndianTag);
    put<std::uint64_t>(buf, seg_bytes);
    put<std::uint64_t>(buf, table.size());
    put<std::uint64_t>(buf, blob_padded);
    put<std::uint64_t>(buf, rows.size());
    put<std::uint64_t>(buf, 0); // reserved
    put<std::uint64_t>(buf, 0); // reserved

    std::uint64_t end = 0;
    for (std::string_view s : table) {
        end += s.size();
        put<std::uint64_t>(buf, end);
    }
    for (std::string_view s : table)
        buf.append(s.data(), s.size());
    buf.append(blob_padded - string_bytes, '\0');

    V4Key prev{0, 0, 0, 0};
    bool first = true;
    for (const V4RowRef &r : rows) {
        V4Key k{idOf(r.sig), idOf(r.workload), idOf(r.policy), 0};
        panic_if(!first &&
                     std::tie(prev.sig, prev.workload, prev.policy) >=
                         std::tie(k.sig, k.workload, k.policy),
                 "buildV4Segment input not sorted-unique by "
                 "(sig, workload, policy)");
        prev = k;
        first = false;
        buf.append(reinterpret_cast<const char *>(&k), sizeof(k));
    }
    for (const V4RowRef &r : rows)
        buf.append(reinterpret_cast<const char *>(&r.data),
                   sizeof(r.data));

    put<std::uint64_t>(buf, v4Checksum(buf.data(), buf.size()));
    put<std::uint64_t>(buf, rows.size());
    buf.append(kV4EndMagic, sizeof(kV4EndMagic));
    panic_if(buf.size() != seg_bytes,
             "v4 segment size accounting drifted (%zu vs %llu)",
             buf.size(),
             static_cast<unsigned long long>(seg_bytes));
    return buf;
}

bool
parseV4Segment(const char *p, std::size_t avail, V4SegmentView &seg,
               std::string *why)
{
    if (avail < kV4HeaderBytes + kV4FooterBytes)
        return fail(why, "segment truncated before the header");
    if (!isV4Magic(p))
        return fail(why, "segment magic mismatch");
    if (get<std::uint32_t>(p + 8) != kV4Version)
        return fail(why, "unsupported v4 segment version");
    if (get<std::uint32_t>(p + 12) != kV4EndianTag)
        return fail(why, "endianness mismatch (foreign-byte-order "
                         "cache file)");
    const std::uint64_t seg_bytes = get<std::uint64_t>(p + 16);
    const std::uint64_t string_count = get<std::uint64_t>(p + 24);
    const std::uint64_t string_bytes = get<std::uint64_t>(p + 32);
    const std::uint64_t row_count = get<std::uint64_t>(p + 40);

    // Recompute the layout from the counts and demand exact
    // agreement with the declared size before touching any offset.
    if (string_count > avail / 8 || row_count > avail / sizeof(V4Row))
        return fail(why, "segment counts exceed the available bytes");
    const std::uint64_t expect =
        kV4HeaderBytes + 8 * string_count + string_bytes +
        sizeof(V4Key) * row_count + sizeof(V4Row) * row_count +
        kV4FooterBytes;
    if (seg_bytes != expect || (string_bytes & 7) != 0)
        return fail(why, "segment layout is inconsistent with its "
                         "declared size");
    if (seg_bytes > avail)
        return fail(why, "segment truncated (torn append?)");

    const char *footer = p + seg_bytes - kV4FooterBytes;
    if (std::memcmp(footer + 16, kV4EndMagic, sizeof(kV4EndMagic)) != 0)
        return fail(why, "footer magic mismatch (torn append?)");
    if (get<std::uint64_t>(footer + 8) != row_count)
        return fail(why, "footer row count disagrees with the header");
    if (get<std::uint64_t>(footer) !=
        v4Checksum(p, seg_bytes - kV4FooterBytes))
        return fail(why, "footer checksum mismatch (corrupted or "
                         "torn segment)");

    seg.bytes = seg_bytes;
    seg.stringCount = string_count;
    seg.rowCount = row_count;
    seg.stringEnds =
        reinterpret_cast<const std::uint64_t *>(p + kV4HeaderBytes);
    seg.blob = p + kV4HeaderBytes + 8 * string_count;
    seg.keys = reinterpret_cast<const V4Key *>(seg.blob + string_bytes);
    seg.rows = reinterpret_cast<const V4Row *>(seg.keys + row_count);

    // String ends must be monotone and inside the blob, and the
    // table sorted strictly ascending - every str() and every
    // binary search depends on it.
    std::uint64_t prev_end = 0;
    for (std::uint64_t i = 0; i < string_count; ++i) {
        if (seg.stringEnds[i] < prev_end ||
            seg.stringEnds[i] > string_bytes) {
            return fail(why, "string table offsets out of bounds");
        }
        prev_end = seg.stringEnds[i];
    }
    for (std::uint64_t i = 1; i < string_count; ++i) {
        if (seg.str(i - 1) >= seg.str(i))
            return fail(why, "string table not sorted unique");
    }
    for (std::uint64_t i = 0; i < row_count; ++i) {
        const V4Key &k = seg.keys[i];
        if (k.sig >= string_count || k.workload >= string_count ||
            k.policy >= string_count) {
            return fail(why, "key column references a string id "
                             "outside the table");
        }
        if (i > 0) {
            const V4Key &q = seg.keys[i - 1];
            if (std::tie(q.sig, q.workload, q.policy) >=
                std::tie(k.sig, k.workload, k.policy)) {
                return fail(why, "key column not sorted unique");
            }
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// MappedCacheV4
// ---------------------------------------------------------------------

std::shared_ptr<const MappedCacheV4>
MappedCacheV4::map(const std::string &path, std::string *why)
{
    auto set_why = [&](const std::string &m) {
        if (why != nullptr)
            *why = m;
    };
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        set_why("cannot open the file");
        return nullptr;
    }
    struct ::stat st;
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        set_why("cannot stat the file (or it is empty)");
        return nullptr;
    }
    const std::size_t len = static_cast<std::size_t>(st.st_size);
    void *base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping holds its own reference
    if (base == MAP_FAILED) {
        set_why("mmap failed");
        return nullptr;
    }

    auto mapped = std::shared_ptr<MappedCacheV4>(new MappedCacheV4());
    mapped->base_ = base;
    mapped->len_ = len;

    std::string parse_why;
    if (!parseV4Segment(static_cast<const char *>(base), len,
                        mapped->seg_, &parse_why)) {
        set_why(parse_why);
        return nullptr; // dtor unmaps
    }
    if (mapped->seg_.bytes != len) {
        // Pending append segments (or trailing garbage): the parsing
        // loader must fold them; a zero-copy snapshot needs the one
        // canonical sorted run a compaction produces.
        set_why("file is not a single compacted segment");
        return nullptr;
    }

    const V4SegmentView &seg = mapped->seg_;
    for (std::size_t i = 0; i < seg.rowCount; ++i) {
        if (i == 0 || seg.keys[i].sig != seg.keys[i - 1].sig)
            mapped->sections_.push_back(SectionRange{i, i + 1});
        else
            mapped->sections_.back().end = i + 1;
    }
    return mapped;
}

MappedCacheV4::~MappedCacheV4()
{
    if (base_ != nullptr)
        ::munmap(base_, len_);
}

std::int64_t
MappedCacheV4::stringId(std::string_view s) const
{
    const std::uint32_t id =
        firstId(seg_, [s](std::string_view t) { return t < s; });
    if (id < seg_.stringCount && seg_.str(id) == s)
        return id;
    return -1;
}

MappedCacheV4::IdRange
MappedCacheV4::prefixRange(std::string_view prefix) const
{
    // Cutting every string to the prefix's length keeps the table
    // sorted, and the strings that start with the prefix are exactly
    // those whose cut equals it.
    const auto cut = [prefix](std::string_view t) {
        return t.substr(0, prefix.size());
    };
    return IdRange{
        firstId(seg_, [&](std::string_view t) { return cut(t) < prefix; }),
        firstId(seg_,
                [&](std::string_view t) { return cut(t) <= prefix; })};
}

std::int64_t
MappedCacheV4::findRow(std::string_view sig, std::string_view workload,
                       std::string_view policy) const
{
    const std::int64_t s = stringId(sig);
    const std::int64_t w = stringId(workload);
    const std::int64_t p = stringId(policy);
    if (s < 0 || w < 0 || p < 0)
        return -1;
    const V4Key want{static_cast<std::uint32_t>(s),
                     static_cast<std::uint32_t>(w),
                     static_cast<std::uint32_t>(p), 0};
    const V4Key *begin = seg_.keys;
    const V4Key *end = seg_.keys + seg_.rowCount;
    const V4Key *it = std::lower_bound(
        begin, end, want, [](const V4Key &a, const V4Key &b) {
            return std::tie(a.sig, a.workload, a.policy) <
                   std::tie(b.sig, b.workload, b.policy);
        });
    if (it == end || it->sig != want.sig ||
        it->workload != want.workload || it->policy != want.policy) {
        return -1;
    }
    return it - begin;
}

RunMetrics
MappedCacheV4::materialize(std::size_t idx) const
{
    RunMetrics m;
    const V4Key &k = seg_.keys[idx];
    m.workload = std::string(seg_.str(k.workload));
    m.policy = std::string(seg_.str(k.policy));
    unpackV4Row(seg_.rows[idx], m);
    return m;
}

} // namespace migc
