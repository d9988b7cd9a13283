/**
 * @file
 * Per-run metrics harvested after a workload completes: everything
 * the paper's figures are built from.
 */

#ifndef MIGC_CORE_METRICS_HH
#define MIGC_CORE_METRICS_HH

#include <map>
#include <string>

#include "sim/types.hh"

namespace migc
{

struct RunMetrics
{
    std::string workload;
    std::string policy;

    /** Wall time of the workload, host launch overheads included. */
    Tick execTicks = 0;
    double execSeconds = 0.0;

    /** Coalesced line requests issued by the CUs (Fig. 5 / Fig. 8
     *  denominator). */
    double gpuMemRequests = 0.0;

    /** DRAM bursts serviced (Fig. 7 / Fig. 11). */
    double dramReads = 0.0;
    double dramWrites = 0.0;
    double dramAccesses = 0.0;

    /** DRAM row-buffer behavior (Fig. 9 / Fig. 13). */
    double dramRowHitRate = 0.0;

    /** Cache stall cycles summed over L1s + L2 banks (Fig. 8 /
     *  Fig. 12). */
    double cacheStallCycles = 0.0;
    double stallsPerRequest = 0.0;

    /** Compute and memory bandwidth (Fig. 4 / Fig. 5). */
    double vops = 0.0;
    double gvops = 0.0;
    double gmrps = 0.0;

    /** Cache behavior breakdowns (diagnostics / ablations). */
    double l1Hits = 0.0;
    double l1Misses = 0.0;
    double l2Hits = 0.0;
    double l2Misses = 0.0;
    double l2Writebacks = 0.0;
    double rinseWritebacks = 0.0;
    double allocBypassed = 0.0;
    double predictorBypasses = 0.0;

    double kernels = 0.0;

    /**
     * Simulator events processed for this run (a cost, not a
     * modeled-hardware metric). The sweep engine's longest-job-first
     * scheduler uses it as the duration estimate for repeat runs.
     */
    double simEvents = 0.0;

    /** Serialize to CSV (schema in csvHeader()). */
    std::string toCsv() const;

    /**
     * Append the toCsv() line (no newline) to @p out: the one row
     * formatter, for callers that already hold an output buffer.
     * Each field is std::to_chars at a fixed precision, which the
     * standard defines as printf in the C locale, so the bytes are
     * those of "%s,%s,%llu,%.9e,%.0f,%.0f,%.0f,%.0f,%.9f,%.0f,%.9f,
     * %.0f,%.6f,%.6f" followed by ten "%.0f" fields.
     */
    void appendCsv(std::string &out) const;

    static std::string csvHeader();
};

} // namespace migc

#endif // MIGC_CORE_METRICS_HH
