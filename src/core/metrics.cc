#include "core/metrics.hh"

#include <charconv>

namespace migc
{

std::string
RunMetrics::csvHeader()
{
    return "workload,policy,exec_ticks,exec_seconds,gpu_mem_requests,"
           "dram_reads,dram_writes,dram_accesses,dram_row_hit_rate,"
           "cache_stall_cycles,stalls_per_request,vops,gvops,gmrps,"
           "l1_hits,l1_misses,l2_hits,l2_misses,l2_writebacks,"
           "rinse_writebacks,alloc_bypassed,predictor_bypasses,kernels,"
           "sim_events";
}

namespace
{

/** Room for any one field: "%.9f" of -DBL_MAX is a sign, 309
 *  integer digits, a point and nine decimals. */
constexpr std::size_t kFieldChars = 384;

/** ',' then @p v as printf's "%.<precision>f" or "%.<precision>e". */
void
appendDouble(std::string &out, double v, std::chars_format format,
             int precision)
{
    char buf[kFieldChars];
    buf[0] = ',';
    const std::to_chars_result r =
        std::to_chars(buf + 1, buf + sizeof(buf), v, format, precision);
    out.append(buf, r.ptr);
}

void
appendFixed(std::string &out, double v, int precision)
{
    appendDouble(out, v, std::chars_format::fixed, precision);
}

} // namespace

std::string
RunMetrics::toCsv() const
{
    std::string out;
    out.reserve(256);
    appendCsv(out);
    return out;
}

void
RunMetrics::appendCsv(std::string &out) const
{
    // c_str(): a name ends at its first NUL, as under "%s".
    out += workload.c_str();
    out += ',';
    out += policy.c_str();
    char buf[24];
    buf[0] = ',';
    const std::to_chars_result r = std::to_chars(
        buf + 1, buf + sizeof(buf),
        static_cast<unsigned long long>(execTicks));
    out.append(buf, r.ptr);
    appendDouble(out, execSeconds, std::chars_format::scientific, 9);
    appendFixed(out, gpuMemRequests, 0);
    appendFixed(out, dramReads, 0);
    appendFixed(out, dramWrites, 0);
    appendFixed(out, dramAccesses, 0);
    appendFixed(out, dramRowHitRate, 9);
    appendFixed(out, cacheStallCycles, 0);
    appendFixed(out, stallsPerRequest, 9);
    appendFixed(out, vops, 0);
    appendFixed(out, gvops, 6);
    appendFixed(out, gmrps, 6);
    for (double v : {l1Hits, l1Misses, l2Hits, l2Misses, l2Writebacks,
                     rinseWritebacks, allocBypassed, predictorBypasses,
                     kernels, simEvents})
        appendFixed(out, v, 0);
}

} // namespace migc
