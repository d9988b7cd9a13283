#include "core/metrics.hh"

#include <charconv>
#include <sstream>
#include <vector>

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

bool
RunMetrics::fromCsv(const std::string &line, RunMetrics &out)
{
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string item;
    while (std::getline(ss, item, ','))
        fields.push_back(item);
    // 23 fields is the pre-sim_events schema; those rows are still
    // valid results, just without a scheduler cost estimate.
    if (fields.size() != 23 && fields.size() != 24)
        return false;

    out.workload = fields[0];
    out.policy = fields[1];
    try {
        out.execTicks = std::stoull(fields[2]);
        out.execSeconds = std::stod(fields[3]);
        out.gpuMemRequests = std::stod(fields[4]);
        out.dramReads = std::stod(fields[5]);
        out.dramWrites = std::stod(fields[6]);
        out.dramAccesses = std::stod(fields[7]);
        out.dramRowHitRate = std::stod(fields[8]);
        out.cacheStallCycles = std::stod(fields[9]);
        out.stallsPerRequest = std::stod(fields[10]);
        out.vops = std::stod(fields[11]);
        out.gvops = std::stod(fields[12]);
        out.gmrps = std::stod(fields[13]);
        out.l1Hits = std::stod(fields[14]);
        out.l1Misses = std::stod(fields[15]);
        out.l2Hits = std::stod(fields[16]);
        out.l2Misses = std::stod(fields[17]);
        out.l2Writebacks = std::stod(fields[18]);
        out.rinseWritebacks = std::stod(fields[19]);
        out.allocBypassed = std::stod(fields[20]);
        out.predictorBypasses = std::stod(fields[21]);
        out.kernels = std::stod(fields[22]);
        out.simEvents = fields.size() > 23 ? std::stod(fields[23]) : 0.0;
    } catch (...) {
        return false;
    }
    return true;
}

} // namespace migc
