#include "policy/policy_registry.hh"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/names.hh"

namespace migc
{

namespace
{

/** Split "Base@param" into base and param (param empty if no "@"). */
void
splitSpec(const std::string &spec, std::string &base, std::string &param)
{
    auto at = spec.find('@');
    if (at == std::string::npos) {
        base = spec;
        param.clear();
    } else {
        base = spec.substr(0, at);
        param = spec.substr(at + 1);
    }
}

double
parseFraction(const std::string &spec, const std::string &param)
{
    char *end = nullptr;
    double v = std::strtod(param.c_str(), &end);
    fatal_if(end == param.c_str() || *end != '\0' || !std::isfinite(v) ||
                 v <= 0.0 || v > 1.0,
             "policy '%s': parameter must be a fraction in (0, 1]",
             spec.c_str());
    return v;
}

unsigned
parseUnsigned(const std::string &spec, const std::string &param,
              unsigned min_value)
{
    // strtoul would silently wrap a negative value to a huge one.
    fatal_if(param.empty() || !std::isdigit(
                 static_cast<unsigned char>(param[0])),
             "policy '%s': parameter must be an integer >= %u",
             spec.c_str(), min_value);
    char *end = nullptr;
    unsigned long v = std::strtoul(param.c_str(), &end, 10);
    fatal_if(*end != '\0' || v < min_value || v > UINT32_MAX,
             "policy '%s': parameter must be an integer >= %u",
             spec.c_str(), min_value);
    return static_cast<unsigned>(v);
}

PolicyRegistry::Entry
presetEntry(PolicyKind kind, const char *help)
{
    CachePolicy preset = CachePolicy::make(kind);
    PolicyRegistry::Entry e;
    e.name = preset.name;
    e.help = help;
    e.factory = [kind](const std::string &spec, const std::string &param) {
        fatal_if(!param.empty(), "policy '%s' takes no parameter",
                 spec.c_str());
        return CachePolicy::make(kind);
    };
    return e;
}

} // namespace

PolicyRegistry::PolicyRegistry()
{
    // The paper's six configurations, Figure 6/10 order.
    add(presetEntry(PolicyKind::uncached,
                    "loads and stores bypass all GPU caches"));
    add(presetEntry(PolicyKind::cacheR,
                    "loads cached in L1+L2; stores bypass"));
    add(presetEntry(PolicyKind::cacheRW,
                    "loads cached; stores coalesce in the L2"));
    add(presetEntry(PolicyKind::cacheRwAb,
                    "CacheRW + allocation bypass"));
    add(presetEntry(PolicyKind::cacheRwCr,
                    "CacheRW-AB + DBI row rinsing"));
    add(presetEntry(PolicyKind::cacheRwPcby,
                    "CacheRW-CR + PC reuse prediction"));

    // Dynamic policies (PolicyEngine-decided).
    add(Entry{
        "CacheRW-DynAB",
        "CacheRW-AB with occupancy-threshold pre-bypass",
        "busy-way fraction in (0, 1] triggering bypass (default 0.75)",
        [](const std::string &spec, const std::string &param) {
            CachePolicy p = CachePolicy::make(PolicyKind::cacheRwAb);
            p.name = spec;
            p.dynamic = DynPolicy::adaptiveBypass;
            if (!param.empty())
                p.dynBypassOccupancy = parseFraction(spec, param);
            return p;
        }});
    add(Entry{
        "CacheRW-Duel",
        "DIP-style set dueling between CacheR and CacheRW stores",
        "leader-set period, a power of two >= 2 (default 32)",
        [](const std::string &spec, const std::string &param) {
            CachePolicy p = CachePolicy::make(PolicyKind::cacheRW);
            p.name = spec;
            p.dynamic = DynPolicy::setDueling;
            if (!param.empty())
                p.duelLeaderPeriod = parseUnsigned(spec, param, 2);
            // A power of two always divides the (power-of-two) set
            // count, so the two leader constituencies stay the same
            // size and PSEL sampling is unbiased.
            fatal_if((p.duelLeaderPeriod &
                      (p.duelLeaderPeriod - 1)) != 0,
                     "policy '%s': leader period must be a power "
                     "of two",
                     spec.c_str());
            return p;
        }});
    add(Entry{
        "CacheRW-DynCR",
        "CacheRW-CR with a dynamic row-dirtiness rinse threshold",
        "minimum dirty lines per rinsed row, >= 1 (default 2)",
        [](const std::string &spec, const std::string &param) {
            CachePolicy p = CachePolicy::make(PolicyKind::cacheRwCr);
            p.name = spec;
            p.dynamic = DynPolicy::dynamicRinse;
            if (!param.empty())
                p.dynRinseMinLines = parseUnsigned(spec, param, 1);
            return p;
        }});
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

void
PolicyRegistry::add(Entry entry)
{
    // Policy names key RunCache rows; a name the cache cannot
    // round-trip would be cached-and-lost (reloaded rows fail the
    // CSV field-count check and the point silently re-simulates).
    checkCacheName("policy", entry.name);
    for (auto &e : entries_) {
        if (e.name == entry.name) {
            e = std::move(entry);
            return;
        }
    }
    entries_.push_back(std::move(entry));
}

const PolicyRegistry::Entry *
PolicyRegistry::findEntry(const std::string &base) const
{
    for (const auto &e : entries_) {
        if (e.name == base)
            return &e;
    }
    return nullptr;
}

bool
PolicyRegistry::tryMake(const std::string &spec, CachePolicy &out) const
{
    // The full spec - parameter included - becomes the policy's name
    // and therefore a cache key, so a spec like "CacheRW-DynAB@0,5"
    // must die here: its comma would split every CSV row carrying
    // it (the text export, serve replies) into the wrong fields. Fatal
    // rather than "unknown": the base name may be perfectly valid,
    // and an actionable message beats a misleading name listing.
    checkCacheName("policy", spec);
    std::string base, param;
    splitSpec(spec, base, param);
    // A trailing '@' ("CacheRW-DynAB@") would alias the default
    // parameters under a second cache namespace; reject it.
    if (spec.find('@') != std::string::npos && param.empty())
        return false;
    const Entry *e = findEntry(base);
    if (e == nullptr)
        return false;
    // Entries without a paramHelp accept no parameter: reject
    // "Uncached@5" here (gracefully) rather than in the factory.
    if (!param.empty() && e->paramHelp.empty())
        return false;
    out = e->factory(spec, param);
    out.name = spec;
    return true;
}

CachePolicy
PolicyRegistry::make(const std::string &spec) const
{
    CachePolicy p;
    if (tryMake(spec, p))
        return p;
    fatal("unknown cache policy '%s' (valid: %s; parameterized "
          "variants append '@value')",
          spec.c_str(), joinStrings(names()).c_str());
}

bool
PolicyRegistry::known(const std::string &spec) const
{
    // Full tryMake so a malformed spec over a valid base name
    // ("Uncached@5", "CacheRW-DynAB@") is reported unknown here
    // rather than fatal()ing later in make(). Malformed parameter
    // *values* still fatal with an actionable message, as in make().
    CachePolicy ignored;
    return tryMake(spec, ignored);
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e.name);
    return out;
}

std::string
PolicyRegistry::describe() const
{
    std::string out;
    for (const auto &e : entries_) {
        out += csprintf("  %-14s %s\n", e.name.c_str(), e.help.c_str());
        if (!e.paramHelp.empty())
            out += csprintf("  %-14s   @param: %s\n", "",
                            e.paramHelp.c_str());
    }
    return out;
}

} // namespace migc
