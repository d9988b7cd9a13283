/**
 * @file
 * Benchmark-side timing: a span recorder kept in memory and written
 * out at the end of a run, sample statistics, and the JSON result
 * the harness hands back to perfbench/run.py.
 *
 * Spans are recorded around the calls the benchmark itself makes
 * into a layer; nothing inside the simulator is instrumented.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed call: which layer boundary, when, under which parent. */
struct Span
{
    /** Static string: "<layer>.<call>", e.g. "core.runner.simulate".
     *  The layer is everything before the last dot. */
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    /** Index of the enclosing span in the recorder, or -1. */
    std::int64_t parent;
    /** Spans of one request (a grid point, a query) share this. */
    std::uint64_t requestId;
};

/**
 * In-memory span log. Single-threaded: each client thread of the
 * serve load owns its own recorder, and they are merged at the end.
 */
class SpanRecorder
{
  public:
    /** Open a span now; returns its index for close()/children. */
    std::int64_t open(const char *name, std::int64_t parent,
                      std::uint64_t request_id);

    void close(std::int64_t index) { close(index, nowNs()); }

    /** Close span @p index at @p end_ns. */
    void close(std::int64_t index, std::int64_t end_ns);

    /** Record an already-timed span. */
    std::int64_t add(const char *name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t parent,
                     std::uint64_t request_id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Append @p other's spans, re-basing their parent indices. */
    void absorb(const SpanRecorder &other);

  private:
    std::vector<Span> spans_;
};

/** Write spans as CSV (id,parent,request,name,start_ns,end_ns).
 *  @return false when the file could not be written. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

/** Linear-interpolated quantile (q in [0,1]) of unsorted @p v. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One reported metric with its sample count. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/** What the harness returns for one workload run. */
struct Result
{
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Human-readable reasons for each failed output check. */
    std::vector<std::string> failures;

    void set(const std::string &name, double value, const char *unit,
             std::uint64_t samples)
    {
        metrics[name] = Metric{value, unit, samples};
    }

    void fail(std::string why)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(std::move(why));
    }

    /** Serialize as one JSON object. */
    std::string toJson() const;
};

/** Write @p text to @p path; false on any I/O error. */
bool writeFile(const std::string &path, const std::string &text);

/** Peak resident set of this process's own address space so far
 *  (VmHWM), MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
