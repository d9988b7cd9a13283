/**
 * @file
 * Validation of user-visible names that key the on-disk run cache.
 *
 * Workload and policy names key the sweep cache (core/sweep_engine.hh)
 * and become the first two fields of every CSV row it hands out: the
 * v3 text export and migc_serve's replies (core/metrics.hh). A name
 * containing a field separator (','), a line break, or a leading
 * comment marker ('#') serializes into a row that no reader can split
 * back into the same fields. Such names must therefore be rejected
 * *before* they reach the cache: at registry registration
 * (PolicyRegistry::add / WorkloadRegistry::add), at policy-spec
 * resolution (a custom "@param" variant's full spec becomes its
 * name), and at RunCache::insert as the last line of defense.
 */

#ifndef MIGC_SIM_NAMES_HH
#define MIGC_SIM_NAMES_HH

#include <string>

#include "sim/logging.hh"

namespace migc
{

/**
 * Can @p name round-trip through a CSV cache row unharmed? False for
 * empty names and names containing ',', '\n', '\r', or a leading
 * '#'. (Leading/trailing whitespace also breaks round-tripping -
 * "a, b" reloads as " b" - so it is rejected too.)
 */
inline bool
cacheNameSafe(const std::string &name)
{
    if (name.empty() || name.front() == '#')
        return false;
    if (name.front() == ' ' || name.back() == ' ')
        return false;
    return name.find_first_of(",\n\r") == std::string::npos;
}

/** Fatal unless cacheNameSafe(@p name); @p what labels the field. */
inline void
checkCacheName(const char *what, const std::string &name)
{
    fatal_if(!cacheNameSafe(name),
             "%s name '%s' cannot key the run cache: names must be "
             "non-empty, free of ',' and line breaks, not start with "
             "'#', and carry no leading/trailing spaces (they would "
             "serialize into CSV rows - the cache's text export and "
             "migc_serve's replies - that do not split back into the "
             "same fields)",
             what, name.c_str());
}

} // namespace migc

#endif // MIGC_SIM_NAMES_HH
