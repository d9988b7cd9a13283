#include "core/cache_snapshot.hh"

#include <algorithm>

#include "core/cache_v4.hh"
#include "sim/logging.hh"

namespace migc
{

bool
globMatch(std::string_view pattern, std::string_view text)
{
    // Iterative two-pointer matcher with single-star backtracking:
    // on mismatch, retry from the most recent '*' consuming one more
    // character. O(|pattern| * |text|) worst case, no allocation.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string_view::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string_view::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

namespace
{

/**
 * One pattern of a `match` query, worked out once per query. Every
 * string the pattern matches starts with its literal prefix (the
 * text before the first '*' or '?'), so in a sorted index its
 * matches lie in one key range: the keys that start with the prefix,
 * or for a literal pattern the keys equal to it.
 */
struct GlobPlan
{
    std::string_view pattern;
    std::string_view prefix;
    bool literal; ///< no '*' or '?': matches only the pattern itself

    explicit GlobPlan(std::string_view p)
        : pattern(p), prefix(p.substr(0, p.find_first_of("*?"))),
          literal(prefix.size() == p.size())
    {}

    /** True while @p s, walked in sorted order, is in the range. */
    bool
    inRange(std::string_view s) const
    {
        return literal ? s == pattern : s.starts_with(prefix);
    }

    bool
    matches(std::string_view s) const
    {
        return literal ? s == pattern : globMatch(pattern, s);
    }
};

void
appendRow(const RunMetrics &row, std::string &out)
{
    row.appendCsv(out);
    out += '\n';
}

/**
 * Append the rows of @p section that @p wl and @p pol match, in key
 * order, and return how many. Only @p wl's key range is visited, and
 * its glob runs once per distinct workload; a literal @p pol is one
 * lookup per matching workload, any other policy pattern scans that
 * workload's rows.
 */
std::size_t
matchSection(const CacheSnapshot::Section &section, const GlobPlan &wl,
             const GlobPlan &pol, std::string &out)
{
    using Key = CacheSnapshot::Key;
    std::size_t n = 0;
    auto it = section.lower_bound(Key{std::string(wl.prefix), {}});
    while (it != section.end() && wl.inRange(it->first.first)) {
        const std::string &workload = it->first.first;
        const bool hit = wl.matches(workload);
        if (hit && !pol.literal) {
            // Ends on the first key of the next workload.
            for (; it != section.end() && it->first.first == workload;
                 ++it) {
                if (pol.matches(it->first.second)) {
                    appendRow(*it->second, out);
                    ++n;
                }
            }
            continue;
        }
        if (hit) {
            auto row =
                section.find(Key{workload, std::string(pol.pattern)});
            if (row != section.end()) {
                appendRow(*row->second, out);
                ++n;
            }
        }
        // The first key past this workload's rows.
        it = section.lower_bound(Key{workload + '\0', {}});
    }
    return n;
}

/** Ids of the interned strings @p plan's range holds in @p file. */
MappedCacheV4::IdRange
idRange(const MappedCacheV4 &file, const GlobPlan &plan)
{
    if (!plan.literal)
        return file.prefixRange(plan.prefix);
    const std::int64_t id = file.stringId(plan.pattern);
    if (id < 0)
        return {0, 0};
    return {static_cast<std::uint32_t>(id),
            static_cast<std::uint32_t>(id) + 1};
}

/** @p plan's verdict on each id of @p ids, at [id - ids.begin]. */
std::vector<unsigned char>
verdicts(const GlobPlan &plan, const V4SegmentView &seg,
         MappedCacheV4::IdRange ids)
{
    std::vector<unsigned char> ok(ids.end - ids.begin);
    for (std::uint32_t id = ids.begin; id < ids.end; ++id)
        ok[id - ids.begin] = plan.matches(seg.str(id)) ? 1 : 0;
    return ok;
}

} // namespace

CacheSnapshot::CacheSnapshot(
    SectionMap sections, std::size_t rows,
    std::vector<std::shared_ptr<const void>> keep_alive)
    : sections_(std::move(sections)), rows_(rows),
      keepAlive_(std::move(keep_alive))
{}

CacheSnapshot::CacheSnapshot(std::shared_ptr<const MappedCacheV4> file)
    : rows_(file->rows()), mapped_(std::move(file))
{}

std::shared_ptr<const CacheSnapshot>
CacheSnapshot::empty()
{
    static const std::shared_ptr<const CacheSnapshot> instance(
        new CacheSnapshot({}, 0, {}));
    return instance;
}

std::shared_ptr<const CacheSnapshot>
CacheSnapshot::fromMappedFile(std::shared_ptr<const MappedCacheV4> file)
{
    panic_if(file == nullptr,
             "fromMappedFile needs a mapped cache file");
    return std::shared_ptr<const CacheSnapshot>(
        new CacheSnapshot(std::move(file)));
}

const RunMetrics *
CacheSnapshot::find(const std::string &sig, const std::string &workload,
                    const std::string &policy) const
{
    auto sit = sections_.find(sig);
    if (sit == sections_.end())
        return nullptr;
    const Section &section = *sit->second;
    auto rit = section.find(Key{workload, policy});
    return rit == section.end() ? nullptr : rit->second;
}

bool
CacheSnapshot::findCsv(const std::string &sig,
                       const std::string &workload,
                       const std::string &policy,
                       std::string &out) const
{
    if (mapped_ != nullptr) {
        const std::int64_t idx =
            mapped_->findRow(sig, workload, policy);
        if (idx < 0)
            return false;
        mapped_->materialize(static_cast<std::size_t>(idx))
            .appendCsv(out);
        return true;
    }
    const RunMetrics *row = find(sig, workload, policy);
    if (row == nullptr)
        return false;
    row->appendCsv(out);
    return true;
}

std::size_t
CacheSnapshot::matchCsv(const std::string &sig_pattern,
                        const std::string &workload_pattern,
                        const std::string &policy_pattern,
                        std::string &out) const
{
    const GlobPlan sig(sig_pattern), wl(workload_pattern),
        pol(policy_pattern);
    std::size_t n = 0;
    if (mapped_ == nullptr) {
        // A literal signature is one lookup; a glob walks only the
        // sections that start with its prefix.
        auto sit = sig.literal
                       ? sections_.find(sig_pattern)
                       : sections_.lower_bound(std::string(sig.prefix));
        for (; sit != sections_.end() && sig.inRange(sit->first); ++sit) {
            if (sig.matches(sit->first))
                n += matchSection(*sit->second, wl, pol, out);
        }
        return n;
    }

    // Interned ids order like their strings, so each pattern's range
    // is one id range, and each section's keys - sorted by (workload,
    // policy) ids - hold their matches in one key range per
    // workload. Each glob runs once per id of its range, before any
    // key is read.
    const MappedCacheV4 &file = *mapped_;
    const V4SegmentView &seg = file.segment();
    const MappedCacheV4::IdRange sig_ids = idRange(file, sig);
    const MappedCacheV4::IdRange wl_ids = idRange(file, wl);
    const MappedCacheV4::IdRange pol_ids = idRange(file, pol);
    const std::vector<unsigned char> wl_ok = verdicts(wl, seg, wl_ids);
    const std::vector<unsigned char> pol_ok = verdicts(pol, seg, pol_ids);

    const V4Key *keys = seg.keys;
    const auto &ranges = file.sectionRanges();
    auto range = std::partition_point(
        ranges.begin(), ranges.end(),
        [&](const MappedCacheV4::SectionRange &r) {
            return keys[r.begin].sig < sig_ids.begin;
        });
    for (; range != ranges.end() && keys[range->begin].sig < sig_ids.end;
         ++range) {
        if (!sig.matches(seg.str(keys[range->begin].sig)))
            continue;
        const V4Key *end = keys + range->end;
        const V4Key *k = std::partition_point(
            keys + range->begin, end,
            [&](const V4Key &key) { return key.workload < wl_ids.begin; });
        while (k != end && k->workload < wl_ids.end) {
            const std::uint32_t w = k->workload;
            const V4Key *run_end = std::partition_point(
                k, end, [w](const V4Key &key) { return key.workload == w; });
            if (wl_ok[w - wl_ids.begin]) {
                const V4Key *p = std::partition_point(
                    k, run_end, [&](const V4Key &key) {
                        return key.policy < pol_ids.begin;
                    });
                for (; p != run_end && p->policy < pol_ids.end; ++p) {
                    if (pol_ok[p->policy - pol_ids.begin]) {
                        appendRow(file.materialize(
                                      static_cast<std::size_t>(p - keys)),
                                  out);
                        ++n;
                    }
                }
            }
            k = run_end;
        }
    }
    return n;
}

std::size_t
CacheSnapshot::sectionCount() const
{
    return mapped_ != nullptr ? mapped_->sections() : sections_.size();
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

CacheSnapshot::Builder::Builder(const CacheSnapshot &base)
    : shared_(base.sections_), rows_(base.rows_),
      keepAlive_(base.keepAlive_)
{
    panic_if(base.mapped(),
             "a Builder cannot start from a mapped snapshot: it has "
             "no sections to share");
}

CacheSnapshot::Section *
CacheSnapshot::Builder::writable(const std::string &sig, const Key &key)
{
    auto oit = own_.lower_bound(sig);
    if (oit != own_.end() && oit->first == sig)
        return oit->second.get();
    std::shared_ptr<Section> section;
    auto sit = shared_.find(sig);
    if (sit == shared_.end()) {
        section = std::make_shared<Section>();
    } else {
        if (sit->second->count(key) != 0)
            return nullptr; // first add wins; the section stays shared
        // Copy on first write: the base and every snapshot sharing
        // this section keep the original.
        section = std::make_shared<Section>(*sit->second);
        shared_.erase(sit);
    }
    return own_.emplace_hint(oit, sig, std::move(section))
        ->second.get();
}

bool
CacheSnapshot::Builder::add(const std::string &sig,
                            const RunMetrics *row)
{
    if (row == nullptr)
        return false;
    Key key{row->workload, row->policy};
    Section *section = writable(sig, key);
    if (section == nullptr ||
        !section->emplace(std::move(key), row).second)
        return false;
    ++rows_;
    return true;
}

bool
CacheSnapshot::Builder::addSorted(const std::string &sig,
                                  const RunMetrics *row)
{
    if (row == nullptr)
        return false;
    if (hintSection_ == nullptr || hintSig_ != sig) {
        // New (or first) section of the run: one lookup, then every
        // row of the section appends at its end.
        Section *section =
            writable(sig, Key{row->workload, row->policy});
        if (section == nullptr)
            return false;
        hintSection_ = section;
        hintSig_ = sig;
    }
    const std::size_t before = hintSection_->size();
    hintSection_->emplace_hint(hintSection_->end(),
                               Key{row->workload, row->policy}, row);
    if (hintSection_->size() == before)
        return false; // key already present: first add wins
    ++rows_;
    return true;
}

void
CacheSnapshot::Builder::retain(std::shared_ptr<const void> owner)
{
    if (owner && std::find(keepAlive_.begin(), keepAlive_.end(),
                           owner) == keepAlive_.end())
        keepAlive_.push_back(std::move(owner));
}

std::shared_ptr<const CacheSnapshot>
CacheSnapshot::Builder::build()
{
    // Sections are only ever created for a row that lands in them,
    // so none is empty.
    SectionMap sections = std::move(shared_);
    for (auto &[sig, section] : own_)
        sections.emplace(sig, std::move(section));
    auto snap = std::shared_ptr<const CacheSnapshot>(new CacheSnapshot(
        std::move(sections), rows_, std::move(keepAlive_)));
    shared_ = {};
    own_ = {};
    rows_ = 0;
    keepAlive_ = {};
    hintSection_ = nullptr;
    return snap;
}

} // namespace migc
