#include "core/shard.hh"

#include <cstdlib>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sweep_engine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace migc
{

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

FleetPlan
planFleetSweep(const std::vector<RunRequest> &requests,
               const RunCache &canonical)
{
    FleetPlan plan;
    plan.costs.assign(requests.size(), 0.0);

    std::map<std::tuple<std::string, std::string, std::string>, bool>
        seen;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RunRequest &req = requests[i];
        const std::string sig = req.cfg.signature();
        if (canonical.find(sig, req.workload, req.policy) != nullptr) {
            ++plan.cached;
            continue;
        }
        // Duplicate grid points lease (and simulate) once; the
        // result answers every copy at replay time.
        if (!seen.emplace(std::make_tuple(sig, req.workload,
                                          req.policy),
                          true)
                 .second)
            continue;
        double est = canonical.estimateEvents(req.workload, req.policy);
        if (est <= 0.0) {
            est = static_cast<double>(
                makeWorkload(req.workload)
                    ->footprintBytes(req.cfg.workloadScale));
        }
        plan.costs[i] = est;
        plan.pending.push_back(static_cast<std::uint32_t>(i));
    }
    return plan;
}

} // namespace migc
