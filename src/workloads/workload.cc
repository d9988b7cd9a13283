#include "workloads/workload.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/names.hh"
#include "workloads/attention.hh"
#include "workloads/batchnorm.hh"
#include "workloads/composed.hh"
#include "workloads/elementwise.hh"
#include "workloads/gemm.hh"
#include "workloads/lrn.hh"
#include "workloads/pooling.hh"
#include "workloads/rnn.hh"
#include "workloads/softmax.hh"

namespace migc
{

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::insensitive:
        return "Insensitive";
      case Category::reuseSensitive:
        return "Reuse Sensitive";
      case Category::throughputSensitive:
        return "Throughput Sensitive";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Workload (scale-validating non-virtual entry points)
// ---------------------------------------------------------------------

std::vector<KernelDesc>
Workload::kernels(double scale) const
{
    workload_detail::checkScale(name().c_str(), scale);
    return buildKernels(scale);
}

std::uint64_t
Workload::footprintBytes(double scale) const
{
    workload_detail::checkScale(name().c_str(), scale);
    return modelFootprint(scale);
}

// ---------------------------------------------------------------------
// WorkloadRegistry
// ---------------------------------------------------------------------

namespace
{

template <typename W, typename... Args>
WorkloadRegistry::Entry
builtin(const char *name, int rank, Args... args)
{
    return WorkloadRegistry::Entry{
        name, [args...] { return std::make_unique<W>(args...); }, rank};
}

} // namespace

WorkloadRegistry::WorkloadRegistry()
{
    // The paper's 17 workloads; figure6Rank encodes the Figure 6
    // ordering (insensitive, reuse sensitive, throughput sensitive)
    // independently of registration order.
    add(builtin<DgemmWorkload>("DGEMM", 0));
    add(builtin<SgemmWorkload>("SGEMM", 1));
    add(builtin<ComposedModelWorkload>("CM", 2));
    add(builtin<FwBnWorkload>("FwBN", 3));
    add(builtin<FwPoolWorkload>("FwPool", 4));
    add(builtin<FwSoftWorkload>("FwSoft", 5));
    add(builtin<BwSoftWorkload>("BwSoft", 6));
    add(builtin<BwPoolWorkload>("BwPool", 7));
    add(builtin<RnnWorkload>("FwGRU", 8, RnnCell::gru, false));
    add(builtin<RnnWorkload>("FwLSTM", 9, RnnCell::lstm, false));
    add(builtin<RnnWorkload>("FwBwGRU", 10, RnnCell::gru, true));
    add(builtin<RnnWorkload>("FwBwLSTM", 11, RnnCell::lstm, true));
    add(builtin<BwBnWorkload>("BwBN", 12));
    add(builtin<FwFcWorkload>("FwFc", 13));
    add(builtin<FwActWorkload>("FwAct", 14));
    add(builtin<FwLrnWorkload>("FwLRN", 15));
    add(builtin<BwActWorkload>("BwAct", 16));

    // Model extensions beyond the paper's suite (rank -1).
    add(builtin<AttentionWorkload>("Attn", -1));
}

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry;
    return registry;
}

void
WorkloadRegistry::add(Entry entry)
{
    // Workload names are the first field of every CSV cache row (the
    // text export, serve replies): a name that cannot round-trip
    // through CSV is refused. The literal name "workload" is also
    // rejected - its rows would start with the CSV header prefix
    // "workload," and read as headers.
    checkCacheName("workload", entry.name);
    fatal_if(entry.name == "workload",
             "workload name 'workload' collides with the run-cache "
             "CSV header prefix; its rows would read as headers");
    for (auto &e : entries_) {
        if (e.name == entry.name) {
            e = std::move(entry);
            return;
        }
    }
    entries_.push_back(std::move(entry));
}

std::unique_ptr<Workload>
WorkloadRegistry::make(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return e.factory();
    }
    fatal("unknown workload '%s' (valid: %s)", name.c_str(),
          joinStrings(extendedOrder()).c_str());
}

bool
WorkloadRegistry::known(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return true;
    }
    return false;
}

std::vector<std::string>
WorkloadRegistry::paperOrder() const
{
    std::vector<const Entry *> paper;
    for (const auto &e : entries_) {
        if (e.figure6Rank >= 0)
            paper.push_back(&e);
    }
    std::sort(paper.begin(), paper.end(),
              [](const Entry *a, const Entry *b) {
                  return a->figure6Rank < b->figure6Rank;
              });
    std::vector<std::string> names;
    names.reserve(paper.size());
    for (const Entry *e : paper)
        names.push_back(e->name);
    return names;
}

std::vector<std::string>
WorkloadRegistry::extendedOrder() const
{
    std::vector<std::string> names = paperOrder();
    for (const auto &e : entries_) {
        if (e.figure6Rank < 0)
            names.push_back(e.name);
    }
    return names;
}

std::string
WorkloadRegistry::describe() const
{
    std::string out;
    for (const auto &name : extendedOrder()) {
        auto wl = make(name);
        out += csprintf("  %-9s %-20s %s\n", name.c_str(),
                        categoryName(wl->category()),
                        wl->paperInfo().input.c_str());
    }
    return out;
}

// ---------------------------------------------------------------------
// Registry-backed free functions
// ---------------------------------------------------------------------

std::vector<std::string>
workloadOrder()
{
    return WorkloadRegistry::instance().paperOrder();
}

std::vector<std::string>
extendedWorkloadOrder()
{
    return WorkloadRegistry::instance().extendedOrder();
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    return WorkloadRegistry::instance().make(name);
}

std::vector<std::unique_ptr<Workload>>
makeAllWorkloads()
{
    std::vector<std::unique_ptr<Workload>> all;
    for (const auto &name : workloadOrder())
        all.push_back(makeWorkload(name));
    return all;
}

namespace workload_detail
{

std::uint64_t
roundTo(double v, std::uint64_t m)
{
    auto r = static_cast<std::uint64_t>(v / static_cast<double>(m)) * m;
    return r < m ? m : r;
}

void
checkScale(const char *workload, double scale)
{
    fatal_if(!std::isfinite(scale) || scale <= 0.0,
             "workload %s: footprint scale must be finite and > 0 "
             "(got %g)",
             workload, scale);
}

} // namespace workload_detail

} // namespace migc
