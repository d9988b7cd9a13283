/** @file Tests for metrics serialization, reporting, and configs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/sim_config.hh"

using namespace migc;

// ---------------------------------------------------------------------
// toCsv against the printf format it replaced
// ---------------------------------------------------------------------

namespace
{

/** The format string toCsv() was defined by before it moved to
 *  std::to_chars: the reference every row must still match. */
constexpr const char *kPrintfRow =
    "%s,%s,%llu,%.9e,%.0f,%.0f,%.0f,%.0f,%.9f,%.0f,%.9f,%.0f,%.6f,"
    "%.6f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f";

/** The row's fields in kPrintfRow order: its conversion, and the
 *  member it formats. */
struct CsvField
{
    const char *format;
    double RunMetrics::*member;
};

constexpr CsvField kCsvDoubles[] = {
    {"%.9e", &RunMetrics::execSeconds},
    {"%.0f", &RunMetrics::gpuMemRequests},
    {"%.0f", &RunMetrics::dramReads},
    {"%.0f", &RunMetrics::dramWrites},
    {"%.0f", &RunMetrics::dramAccesses},
    {"%.9f", &RunMetrics::dramRowHitRate},
    {"%.0f", &RunMetrics::cacheStallCycles},
    {"%.9f", &RunMetrics::stallsPerRequest},
    {"%.0f", &RunMetrics::vops},
    {"%.6f", &RunMetrics::gvops},
    {"%.6f", &RunMetrics::gmrps},
    {"%.0f", &RunMetrics::l1Hits},
    {"%.0f", &RunMetrics::l1Misses},
    {"%.0f", &RunMetrics::l2Hits},
    {"%.0f", &RunMetrics::l2Misses},
    {"%.0f", &RunMetrics::l2Writebacks},
    {"%.0f", &RunMetrics::rinseWritebacks},
    {"%.0f", &RunMetrics::allocBypassed},
    {"%.0f", &RunMetrics::predictorBypasses},
    {"%.0f", &RunMetrics::kernels},
    {"%.0f", &RunMetrics::simEvents},
};

std::string
printfRow(const RunMetrics &m)
{
    // The widest row (every field a 309-digit "%.9f") fits easily.
    std::vector<char> buf(16384);
    const int n = std::snprintf(
        buf.data(), buf.size(), kPrintfRow, m.workload.c_str(),
        m.policy.c_str(), static_cast<unsigned long long>(m.execTicks),
        m.execSeconds, m.gpuMemRequests, m.dramReads, m.dramWrites,
        m.dramAccesses, m.dramRowHitRate, m.cacheStallCycles,
        m.stallsPerRequest, m.vops, m.gvops, m.gmrps, m.l1Hits,
        m.l1Misses, m.l2Hits, m.l2Misses, m.l2Writebacks,
        m.rinseWritebacks, m.allocBypassed, m.predictorBypasses,
        m.kernels, m.simEvents);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

std::vector<std::string>
splitCsv(const std::string &row)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = row.find(',', start);
        fields.push_back(row.substr(start, comma - start));
        if (comma == std::string::npos)
            return fields;
        start = comma + 1;
    }
}

/** "" when toCsv(@p m) equals the printf reference, else the first
 *  differing field with both spellings. */
std::string
csvMismatch(const RunMetrics &m)
{
    const std::string got = m.toCsv();
    const std::string want = printfRow(m);
    if (got == want)
        return "";
    const std::vector<std::string> g = splitCsv(got);
    const std::vector<std::string> w = splitCsv(want);
    for (std::size_t i = 0; i < std::min(g.size(), w.size()); ++i) {
        if (g[i] != w[i]) {
            return "field " + std::to_string(i) + ": to_chars '" + g[i] +
                   "', printf '" + w[i] + "'";
        }
    }
    return "rows differ: '" + got + "' vs '" + want + "'";
}

/** Check @p v in every double field at once: each of the row's four
 *  conversions formats it. */
void
expectAllFieldsMatch(double v)
{
    RunMetrics m;
    m.workload = std::string("w");
    m.policy = std::string("p");
    for (const CsvField &f : kCsvDoubles)
        m.*(f.member) = v;
    const std::string why = csvMismatch(m);
    EXPECT_EQ(why, "") << std::hexfloat << v;
}

double
fromBits(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

TEST(RunMetricsCsv, MatchesPrintfOnRandomBitPatterns)
{
    std::mt19937_64 rng(20191001);
    for (int i = 0; i < 20000; ++i)
        expectAllFieldsMatch(fromBits(rng()));
    // Whole rows with independent fields and tick counts.
    for (int i = 0; i < 2000; ++i) {
        RunMetrics m;
        m.workload = std::to_string(i) + "w";
        m.policy = std::to_string(rng() % 7) + "-CacheRW";
        m.execTicks = rng();
        for (const CsvField &f : kCsvDoubles)
            m.*(f.member) = fromBits(rng());
        ASSERT_EQ(csvMismatch(m), "");
    }
}

TEST(RunMetricsCsv, MatchesPrintfOnIntegersNearTwoTo53And64)
{
    for (const double base : {0x1p53, 0x1p64}) {
        double up = base, down = base;
        for (int i = 0; i < 64; ++i) {
            expectAllFieldsMatch(up);
            expectAllFieldsMatch(down);
            expectAllFieldsMatch(-up);
            up = std::nextafter(up, 0x1p100);
            down = std::nextafter(down, 0.0);
        }
    }
    RunMetrics m;
    m.workload = std::string("w");
    m.policy = std::string("p");
    for (const std::uint64_t base :
         {std::uint64_t{1} << 53, ~std::uint64_t{0} - 63}) {
        for (std::uint64_t t = base - 64; t != base + 64; ++t) {
            m.execTicks = t;
            ASSERT_EQ(csvMismatch(m), "") << t;
        }
    }
}

TEST(RunMetricsCsv, MatchesPrintfOnExactHalfwayTies)
{
    // j / 2^(p+1) for odd j has exactly p+1 decimals, the last a 5:
    // an exact tie when printed with p decimals. Both parities of
    // the kept digit are covered, so round-half-even shows.
    for (const int p : {0, 6, 9}) {
        const double scale = std::ldexp(1.0, -(p + 1));
        for (int j = 1; j < 4096; j += 2)
            expectAllFieldsMatch(j * scale);
    }
    expectAllFieldsMatch(std::ldexp(3.0, 50) + 0.5); // a large "%.0f" tie
    // "%.9e" keeps ten significant digits: eleven-digit integers
    // ending in 5 are its ties.
    for (double v = 12345678905.0; v < 12345678905.0 + 2000; v += 10)
        expectAllFieldsMatch(v);
}

TEST(RunMetricsCsv, MatchesPrintfOnSpecialValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::uint64_t quietNanBits = 0x7ff8000000000000ull;
    for (const double v :
         {0.0, -0.0, inf, -inf, std::nan(""), -std::nan(""),
          fromBits(quietNanBits | 0x123456789ull),
          fromBits(0xfff0000000000001ull), // negative signalling NaN
          DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_EPSILON, 1.0, -1.0})
        expectAllFieldsMatch(v);
}

TEST(RunMetricsCsv, MatchesPrintfOnSubnormals)
{
    expectAllFieldsMatch(std::numeric_limits<double>::denorm_min());
    expectAllFieldsMatch(std::nextafter(DBL_MIN, 0.0)); // largest
    std::mt19937_64 rng(7);
    const std::uint64_t fraction = (std::uint64_t{1} << 52) - 1;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t sign = (rng() & 1) << 63;
        expectAllFieldsMatch(fromBits(sign | (rng() & fraction)));
    }
}

TEST(RunMetrics, HeaderFieldCountMatchesRow)
{
    RunMetrics m;
    // std::string temporaries sidestep a GCC 12 -Wrestrict false
    // positive on consecutive short const-char* assignments.
    m.workload = std::string("X");
    m.policy = std::string("Y");
    auto count_commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count_commas(RunMetrics::csvHeader()),
              count_commas(m.toCsv()));
}

TEST(FigureData, AtAndPrint)
{
    FigureData fig;
    fig.title = "test";
    fig.workloads = {"A", "B"};
    fig.series = {"s0", "s1"};
    fig.values = {{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(fig.at(1, 0), 3.0);

    std::ostringstream os;
    printFigure(os, fig);
    EXPECT_NE(os.str().find("test"), std::string::npos);
    EXPECT_NE(os.str().find("s1"), std::string::npos);
    EXPECT_NE(os.str().find("A"), std::string::npos);
}

TEST(Report, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
    EXPECT_DOUBLE_EQ(geoMean({0.0, 8.0, 2.0}), 4.0); // ignores 0
}

TEST(SimConfig, PresetsAreConsistent)
{
    for (auto cfg : {SimConfig::paperConfig(), SimConfig::defaultConfig(),
                     SimConfig::testConfig()}) {
        EXPECT_GT(cfg.gpu.numCus, 0u);
        EXPECT_EQ(cfg.xbar.numInputs, cfg.gpu.numCus);
        EXPECT_EQ(cfg.xbar.numOutputs, cfg.l2Banks);
        EXPECT_GT(cfg.l2Bank.size, 0u);
        EXPECT_FALSE(cfg.signature().empty());
    }
}

TEST(SimConfig, PaperConfigMatchesTable1)
{
    SimConfig cfg = SimConfig::paperConfig();
    EXPECT_EQ(cfg.gpu.numCus, 64u);
    EXPECT_EQ(cfg.gpu.simdsPerCu, 4u);
    EXPECT_EQ(cfg.gpu.wfSlotsPerSimd, 10u);
    EXPECT_EQ(cfg.l1.size, 16u * 1024u);
    EXPECT_EQ(cfg.l1.assoc, 16u);
    EXPECT_EQ(cfg.l2Bank.size * cfg.l2Banks, 4ULL * 1024 * 1024);
    EXPECT_EQ(cfg.dram.channels, 16u);
    EXPECT_EQ(cfg.gpu.clockPeriod, 625u); // 1600 MHz
}

TEST(SimConfig, SignatureDistinguishesConfigs)
{
    EXPECT_NE(SimConfig::paperConfig().signature(),
              SimConfig::defaultConfig().signature());
    SimConfig a = SimConfig::testConfig();
    SimConfig b = SimConfig::testConfig();
    b.workloadScale *= 2;
    EXPECT_NE(a.signature(), b.signature());
}

TEST(Experiments, Table1TextMentionsKeyParameters)
{
    std::string t = table1Text(SimConfig::paperConfig());
    EXPECT_NE(t.find("64"), std::string::npos);
    EXPECT_NE(t.find("1600 MHz"), std::string::npos);
    EXPECT_NE(t.find("HBM2"), std::string::npos);
}
