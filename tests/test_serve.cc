/** @file Tests for the warm-cache serve layer and the input
 *  validation around it: glob matching, CacheSnapshot semantics
 *  (immutability, first-wins, row lifetime past the owning cache),
 *  the RunCache snapshot/append-log split, the ServeService protocol
 *  (warm hits, simulate-on-miss with exactly-one-enqueue, glob
 *  queries), a concurrent reader/writer torture test, and the fatal
 *  paths for malformed MIGC_JOBS values and cache-unsafe registry
 *  names. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "policy/policy_registry.hh"
#include "serve/serve_protocol.hh"
#include "serve/serve_service.hh"
#include "sim/parallel.hh"
#include "support/env.hh"
#include "support/small_grid.hh"
#include "workloads/workload.hh"

using namespace migc;
using migc::test::ScopedEnv;
using migc::test::smallGrid;
using migc::test::tempPath;

namespace
{

RunMetrics
fakeMetrics(const std::string &workload, const std::string &policy,
            Tick exec_ticks)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = exec_ticks;
    return m;
}

/** Expected CSV per (workload, policy), from an independent warm
 *  replay - the byte-identity oracle for everything serve returns. */
std::map<std::pair<std::string, std::string>, std::string>
expectedRows()
{
    static const auto rows = [] {
        std::string path = tempPath("expected.csv");
        std::remove(path.c_str());
        SweepEngine engine(path);
        std::vector<RunMetrics> results = engine.run(smallGrid());
        std::map<std::pair<std::string, std::string>, std::string>
            out;
        std::vector<RunRequest> grid = smallGrid();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            out[{grid[i].workload, grid[i].policy}] =
                results[i].toCsv();
        }
        std::remove(path.c_str());
        return out;
    }();
    return rows;
}

} // namespace

// ---------------------------------------------------------------------
// Glob matching
// ---------------------------------------------------------------------

TEST(Glob, LiteralAndWildcardMatching)
{
    EXPECT_TRUE(globMatch("FwBN", "FwBN"));
    EXPECT_FALSE(globMatch("FwBN", "FwBn"));
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("Fw*", "FwSoft"));
    EXPECT_FALSE(globMatch("Fw*", "BwSoft"));
    EXPECT_TRUE(globMatch("*Soft", "FwSoft"));
    EXPECT_TRUE(globMatch("F?Soft", "FwSoft"));
    EXPECT_FALSE(globMatch("F?Soft", "FSoft"));
    EXPECT_TRUE(globMatch("a*b*c", "aXXbYYc"));
    EXPECT_TRUE(globMatch("a*b*c", "abc"));
    EXPECT_FALSE(globMatch("a*b*c", "aXXbYY"));
    EXPECT_TRUE(globMatch("*W*", "CacheRW"));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("", ""));
    EXPECT_TRUE(globMatch("**", "x"));
}

// ---------------------------------------------------------------------
// CacheSnapshot
// ---------------------------------------------------------------------

TEST(Snapshot, BuildsFirstWinsIndexInCanonicalOrder)
{
    RunMetrics a = fakeMetrics("FwBN", "CacheR", 10);
    RunMetrics b = fakeMetrics("FwBN", "Uncached", 20);
    RunMetrics c = fakeMetrics("BwBN", "CacheR", 30);
    RunMetrics dup = fakeMetrics("FwBN", "CacheR", 999);

    CacheSnapshot::Builder builder;
    EXPECT_TRUE(builder.add("sigB", &a));
    EXPECT_TRUE(builder.add("sigB", &b));
    EXPECT_TRUE(builder.add("sigA", &c));
    EXPECT_FALSE(builder.add("sigB", &dup)) << "first add must win";
    auto snap = builder.build();

    EXPECT_EQ(snap->rows(), 3u);
    ASSERT_NE(snap->find("sigB", "FwBN", "CacheR"), nullptr);
    EXPECT_EQ(snap->find("sigB", "FwBN", "CacheR")->execTicks, 10u);
    EXPECT_EQ(snap->find("sigB", "FwBN", "Missing"), nullptr);
    EXPECT_EQ(snap->find("nosig", "FwBN", "CacheR"), nullptr);

    // matchCsv order: signature, then workload, then policy.
    const std::string canonical =
        c.toCsv() + "\n" + a.toCsv() + "\n" + b.toCsv() + "\n";
    std::string all;
    EXPECT_EQ(snap->matchCsv("*", "*", "*", all), 3u);
    EXPECT_EQ(all, canonical);

    std::string cache_r;
    EXPECT_EQ(snap->matchCsv("sigB", "*", "Cache?", cache_r), 1u);
    EXPECT_EQ(cache_r, a.toCsv() + "\n");
    std::string both;
    EXPECT_EQ(snap->matchCsv("sig?", "?w*", "*", both), 3u);
    EXPECT_EQ(both, canonical);
}

TEST(Snapshot, RefusesNullRows)
{
    CacheSnapshot::Builder builder;
    EXPECT_FALSE(builder.add("sig", nullptr));
    EXPECT_EQ(builder.build()->rows(), 0u);
    EXPECT_EQ(CacheSnapshot::empty()->rows(), 0u);
}

TEST(Snapshot, RunCachePublishesImmutableViews)
{
    RunCache cache{std::string()}; // memory-only
    cache.insert("sig", fakeMetrics("FwBN", "CacheR", 10));

    auto first = cache.snapshot();
    EXPECT_EQ(first->rows(), 1u);
    EXPECT_EQ(cache.snapshot().get(), first.get())
        << "no appends since publish: snapshot() must be free";

    cache.insert("sig", fakeMetrics("FwBN", "Uncached", 20));
    auto second = cache.snapshot();
    EXPECT_EQ(first->rows(), 1u)
        << "published snapshots must never change";
    EXPECT_EQ(second->rows(), 2u);
    EXPECT_EQ(first->find("sig", "FwBN", "Uncached"), nullptr);
    ASSERT_NE(second->find("sig", "FwBN", "Uncached"), nullptr);
}

TEST(Snapshot, PublishSharesUntouchedSectionsAndCopiesTouchedOnes)
{
    const std::vector<std::pair<std::string, RunMetrics>> rows = {
        {"sigA", fakeMetrics("FwBN", "CacheR", 1)},
        {"sigA", fakeMetrics("FwBN", "Uncached", 2)},
        {"sigB", fakeMetrics("BwBN", "CacheR", 3)},
        {"sigC", fakeMetrics("FwAct", "CacheRW", 4)},
        {"sigB", fakeMetrics("FwSoft", "CacheR", 5)}, // the fresh row
    };
    RunCache cache{std::string()};
    for (std::size_t i = 0; i + 1 < rows.size(); ++i)
        cache.insert(rows[i].first, rows[i].second);
    const auto before = cache.snapshot();
    std::string before_csv;
    before->matchCsv("*", "*", "*", before_csv);

    cache.insert(rows.back().first, rows.back().second);
    const auto after = cache.snapshot();

    const auto &old_sections = before->sections();
    const auto &new_sections = after->sections();
    EXPECT_EQ(new_sections.at("sigA").get(), old_sections.at("sigA").get())
        << "a section no fresh row lands in must be shared";
    EXPECT_EQ(new_sections.at("sigC").get(), old_sections.at("sigC").get());
    EXPECT_NE(new_sections.at("sigB").get(), old_sections.at("sigB").get())
        << "the touched section must be a copy";
    EXPECT_EQ(old_sections.at("sigB")->size(), 1u);
    EXPECT_EQ(new_sections.at("sigB")->size(), 2u);

    // The old snapshot answers exactly as it did before the publish.
    EXPECT_EQ(before->rows(), 4u);
    EXPECT_EQ(before->find("sigB", "FwSoft", "CacheR"), nullptr);
    std::string before_again;
    before->matchCsv("*", "*", "*", before_again);
    EXPECT_EQ(before_again, before_csv);
    ASSERT_NE(after->find("sigB", "FwSoft", "CacheR"), nullptr);
    EXPECT_EQ(after->rows(), 5u);

    // Same bytes as an index built from scratch over the same rows.
    CacheSnapshot::Builder scratch;
    for (const auto &[sig, m] : rows)
        scratch.add(sig, &m);
    const auto whole = scratch.build();
    for (const char *sig : {"*", "sigA", "sigB", "sigC"}) {
        std::string got, want;
        EXPECT_EQ(after->matchCsv(sig, "*", "*", got),
                  whole->matchCsv(sig, "*", "*", want));
        EXPECT_EQ(got, want) << sig;
    }
    // The v3 export (writeCsvCache) matches a cache that indexed
    // every row in one publish.
    RunCache unpublished{std::string()};
    for (const auto &[sig, m] : rows)
        unpublished.insert(sig, m);
    const std::string shared_path = tempPath("publish_shared.csv");
    const std::string whole_path = tempPath("publish_whole.csv");
    ASSERT_TRUE(cache.exportFile(shared_path, CacheFormat::csv));
    ASSERT_TRUE(unpublished.exportFile(whole_path, CacheFormat::csv));
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string exported = slurp(shared_path);
    EXPECT_NE(exported.find("FwSoft,CacheR,5,"), std::string::npos);
    EXPECT_EQ(exported, slurp(whole_path));
    std::remove(shared_path.c_str());
    std::remove(whole_path.c_str());

    // First write wins against a shared section too, and a refused
    // row leaves the section shared.
    const RunMetrics dup = fakeMetrics("FwBN", "CacheR", 999);
    CacheSnapshot::Builder next(*after);
    EXPECT_FALSE(next.add("sigA", &dup));
    EXPECT_FALSE(next.addSorted("sigA", &dup));
    const auto refused = next.build();
    EXPECT_EQ(refused->rows(), after->rows());
    EXPECT_EQ(refused->sections().at("sigA").get(),
              new_sections.at("sigA").get());
    EXPECT_EQ(refused->find("sigA", "FwBN", "CacheR")->execTicks, 1u);
}

TEST(Snapshot, RowsOutliveTheOwningCache)
{
    std::shared_ptr<const CacheSnapshot> snap;
    {
        RunCache cache{std::string()};
        cache.insert("sig", fakeMetrics("FwBN", "CacheR", 42));
        snap = cache.snapshot();
    }
    const RunMetrics *row = snap->find("sig", "FwBN", "CacheR");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->execTicks, 42u);
    EXPECT_EQ(row->toCsv(),
              fakeMetrics("FwBN", "CacheR", 42).toCsv());
}

TEST(Snapshot, FindPrefersUnpublishedAppendsOverNothing)
{
    RunCache cache{std::string()};
    cache.snapshot(); // publish the empty base
    cache.insert("sig", fakeMetrics("FwBN", "CacheR", 7));
    // find() must see the append-log row before it is published...
    ASSERT_NE(cache.find("sig", "FwBN", "CacheR"), nullptr);
    EXPECT_EQ(cache.estimateEvents("FwBN", "CacheR"), 0.0);
    EXPECT_EQ(cache.size(), 1u);
    // ...and insert() must dedupe against it (first write wins).
    const RunMetrics &kept =
        cache.insert("sig", fakeMetrics("FwBN", "CacheR", 9));
    EXPECT_EQ(kept.execTicks, 7u);
    EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// Cache input validation (satellite fixes)
// ---------------------------------------------------------------------

TEST(CacheValidationDeath, MetacharacterNamesAreFatalPerCharacter)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RunCache cache{std::string()};
    // One death per v3 metacharacter: field separator, line break,
    // leading comment marker, and the header-prefix collision.
    EXPECT_EXIT(
        cache.insert("sig", fakeMetrics("Fw,BN", "CacheR", 1)),
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    EXPECT_EXIT(
        cache.insert("sig", fakeMetrics("FwBN", "Cache\nR", 1)),
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    EXPECT_EXIT(
        cache.insert("sig", fakeMetrics("#FwBN", "CacheR", 1)),
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    EXPECT_EXIT(
        cache.insert("sig", fakeMetrics("workload", "CacheR", 1)),
        ::testing::ExitedWithCode(1), "header prefix");
}

TEST(CacheValidationDeath, RegistriesRejectUnsafeNames)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            WorkloadRegistry::Entry e;
            e.name = "Bad,Workload";
            WorkloadRegistry::instance().add(std::move(e));
        },
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    EXPECT_EXIT(
        {
            PolicyRegistry::Entry e;
            e.name = "#BadPolicy";
            PolicyRegistry::instance().add(std::move(e));
        },
        ::testing::ExitedWithCode(1), "cannot key the run cache");
    // The paper's parameterized specs take "@0.5"-style params; a
    // comma-decimal locale habit would have produced a name the
    // cache silently loses. It must die loudly instead.
    CachePolicy out;
    EXPECT_EXIT(
        PolicyRegistry::instance().tryMake("CacheRW-DynAB@0,5", out),
        ::testing::ExitedWithCode(1), "cannot key the run cache");
}

TEST(SweepJobsEnv, ValidValuesParse)
{
    {
        ScopedEnv env("MIGC_JOBS", "8");
        EXPECT_EQ(sweepJobs(), 8u);
    }
    {
        ScopedEnv env("MIGC_JOBS", "1");
        EXPECT_EQ(sweepJobs(), 1u);
    }
    {
        // Empty and unset both mean "hardware default", never fatal.
        ScopedEnv env("MIGC_JOBS", "");
        EXPECT_GE(sweepJobs(), 1u);
    }
    {
        ScopedEnv env("MIGC_JOBS", nullptr);
        EXPECT_GE(sweepJobs(), 1u);
    }
}

TEST(SweepJobsEnvDeath, MalformedValuesAreFatalNotSilent)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    {
        ScopedEnv env("MIGC_JOBS", "abc");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
    {
        ScopedEnv env("MIGC_JOBS", "8x");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
    {
        ScopedEnv env("MIGC_JOBS", "0");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
    {
        ScopedEnv env("MIGC_JOBS", "-2");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
    {
        ScopedEnv env("MIGC_JOBS", "5000");
        EXPECT_EXIT(sweepJobs(), ::testing::ExitedWithCode(1),
                    "MIGC_JOBS");
    }
}

// ---------------------------------------------------------------------
// Serve protocol parsing
// ---------------------------------------------------------------------

TEST(ServeProtocol, ParsesCommandsCommentsAndErrors)
{
    EXPECT_EQ(parseServeRequest("").kind, ServeRequest::Kind::none);
    EXPECT_EQ(parseServeRequest("# note").kind,
              ServeRequest::Kind::none);
    EXPECT_EQ(parseServeRequest("   \t ").kind,
              ServeRequest::Kind::none);

    ServeRequest get = parseServeRequest("get test FwBN CacheR");
    EXPECT_EQ(get.kind, ServeRequest::Kind::get);
    EXPECT_EQ(get.config, "test");
    EXPECT_EQ(get.workload, "FwBN");
    EXPECT_EQ(get.policy, "CacheR");

    ServeRequest match = parseServeRequest("match * Fw* Cache?");
    EXPECT_EQ(match.kind, ServeRequest::Kind::match);
    EXPECT_EQ(match.workload, "Fw*");

    EXPECT_EQ(parseServeRequest("stats").kind,
              ServeRequest::Kind::stats);
    EXPECT_EQ(parseServeRequest("wait").kind,
              ServeRequest::Kind::wait);
    EXPECT_EQ(parseServeRequest("help").kind,
              ServeRequest::Kind::help);

    EXPECT_EQ(parseServeRequest("get test FwBN").kind,
              ServeRequest::Kind::error);
    EXPECT_EQ(parseServeRequest("stats now").kind,
              ServeRequest::Kind::error);
    EXPECT_EQ(parseServeRequest("frobnicate").kind,
              ServeRequest::Kind::error);
}

// ---------------------------------------------------------------------
// ServeService
// ---------------------------------------------------------------------

TEST(ServeService, WarmHitsAreByteIdenticalToWarmReplay)
{
    const auto &expected = expectedRows();
    std::string path = tempPath("warm_hits.csv");
    std::remove(path.c_str());
    {
        SweepEngine warmup(path);
        warmup.run(smallGrid());
    }

    SweepEngine engine(path);
    ServeService service(engine);
    for (const auto &[key, csv] : expected) {
        std::string reply = service.handleLine(
            "get test " + key.first + " " + key.second);
        EXPECT_EQ(reply, csv + "\n");
    }
    EXPECT_EQ(engine.simulationsPerformed(), 0u)
        << "a fully warm cache must serve without simulating";
    EXPECT_EQ(service.missEnqueues(), 0u);
    EXPECT_EQ(service.served(), expected.size());

    // match over the full grid: rows in canonical order + trailer.
    std::string matched = service.handleLine("match test * *");
    std::string want;
    for (const auto &[key, csv] : expected)
        want += csv + "\n"; // map order == (workload, policy) order
    want += "# matched 6 rows\n";
    EXPECT_EQ(matched, want);

    // The exact signature works as a config token too.
    std::string sig = SimConfig::testConfig().signature();
    std::string reply =
        service.handleLine("get " + sig + " FwBN CacheR");
    EXPECT_EQ(reply, expected.at({"FwBN", "CacheR"}) + "\n");
    std::remove(path.c_str());
}

TEST(ServeService, ErrorsAndEdgeCases)
{
    std::string path = tempPath("errors.csv");
    std::remove(path.c_str());
    SweepEngine engine(path);
    ServeService service(engine);

    EXPECT_EQ(service.handleLine(""), "");
    EXPECT_EQ(service.handleLine("# comment"), "");
    EXPECT_EQ(service.handleLine("nope"),
              "# error: unknown command 'nope' (try: help)\n");
    EXPECT_TRUE(service.handleLine("get test NoSuchWl CacheR")
                    .find("# error: unknown workload") == 0);
    EXPECT_TRUE(service.handleLine("get test FwBN NoSuchPolicy")
                    .find("# error: unknown policy") == 0);
    EXPECT_TRUE(service.handleLine("get nosig FwBN CacheR")
                    .find("# error:") == 0)
        << "unknown config that is not cached cannot simulate";
    EXPECT_EQ(service.handleLine("match nosig * *"),
              "# matched 0 rows\n");
    EXPECT_TRUE(service.handleLine("help").find("# get") == 0);
    EXPECT_TRUE(service.handleLine("stats").find("# stats rows=0")
                == 0);
    std::remove(path.c_str());
}

TEST(ServeService, NoSimulateModeAnswersMissWithoutEnqueueing)
{
    std::string path = tempPath("no_simulate.csv");
    std::remove(path.c_str());
    SweepEngine engine(path);
    ServeService::Options opts;
    opts.simulate = false;
    ServeService service(engine, opts);

    EXPECT_EQ(service.handleLine("get test FwBN CacheR"),
              "# miss test/FwBN/CacheR\n");
    service.drain(); // must not block with nothing pending
    EXPECT_EQ(service.missEnqueues(), 0u);
    EXPECT_EQ(engine.simulationsPerformed(), 0u);
    std::remove(path.c_str());
}

TEST(ServeService, ColdPointSimulatesOnMissExactlyOnce)
{
    const auto &expected = expectedRows();
    std::string path = tempPath("cold_miss.csv");
    std::remove(path.c_str());
    SweepEngine engine(path);
    ServeService service(engine);

    std::string first = service.handleLine("get test FwBN Uncached");
    EXPECT_TRUE(first.find("# miss test/FwBN/Uncached") == 0);
    std::string again = service.handleLine("get test FwBN Uncached");
    if (again.find('#') == 0) {
        EXPECT_TRUE(again.find("# miss") == 0);
    } else {
        // The miss worker can legitimately finish between the two
        // lines; then the re-get is already a warm hit.
        EXPECT_EQ(again, expected.at({"FwBN", "Uncached"}) + "\n");
    }
    EXPECT_EQ(service.handleLine("wait"), "# drained\n");
    EXPECT_EQ(service.handleLine("get test FwBN Uncached"),
              expected.at({"FwBN", "Uncached"}) + "\n");
    EXPECT_EQ(service.missEnqueues(), 1u)
        << "repeat gets of one cold point must join the pending job";
    EXPECT_EQ(engine.simulationsPerformed(), 1u);
    std::remove(path.c_str());
}

TEST(ServeService, TortureConcurrentReadersDuringMissInserts)
{
    const auto &expected = expectedRows();
    const std::vector<RunRequest> grid = smallGrid();

    // Pre-warm half the grid; the other half stays cold and is
    // simulated on miss while readers hammer the snapshot.
    std::string path = tempPath("torture.csv");
    std::remove(path.c_str());
    {
        SweepEngine warmup(path);
        std::vector<RunRequest> half(grid.begin(),
                                     grid.begin() + grid.size() / 2);
        warmup.run(half);
    }

    {
        SweepEngine engine(path);
        ServeService service(engine);

        constexpr int kReaders = 4;
        constexpr int kIters = 200;
        std::vector<std::thread> readers;
        std::vector<std::string> failures(kReaders);
        for (int r = 0; r < kReaders; ++r) {
            readers.emplace_back([&, r] {
                for (int i = 0; i < kIters; ++i) {
                    const RunRequest &req =
                        grid[static_cast<std::size_t>(r + i) %
                             grid.size()];
                    std::string reply = service.handleLine(
                        "get test " + req.workload + " " + req.policy);
                    const std::string &want =
                        expected.at({req.workload, req.policy});
                    if (reply.find('#') == 0) {
                        if (reply.find("# miss") != 0) {
                            failures[r] = "unexpected status: " + reply;
                            return;
                        }
                    } else if (reply != want + "\n") {
                        failures[r] = "served row diverged:\n  got  " +
                                      reply + "  want " + want + "\n";
                        return;
                    }
                    if (i % 16 == 0) {
                        // Pattern queries race the publishes too; every
                        // data row they return must be a real result.
                        std::string matched =
                            service.handleLine("match test * *");
                        std::size_t start = 0;
                        while (start < matched.size()) {
                            std::size_t nl = matched.find('\n', start);
                            std::string row =
                                matched.substr(start, nl - start);
                            start = nl + 1;
                            if (row.empty() || row[0] == '#')
                                continue;
                            bool known = false;
                            for (const auto &[key, csv] : expected)
                                known = known || csv == row;
                            if (!known) {
                                failures[r] =
                                    "match returned a row that is not a "
                                    "warm-replay result: " + row;
                                return;
                            }
                        }
                    }
                }
            });
        }
        for (auto &t : readers)
            t.join();
        for (const auto &f : failures)
            EXPECT_EQ(f, "");

        service.drain();
        for (const RunRequest &req : grid) {
            EXPECT_EQ(service.handleLine("get test " + req.workload +
                                         " " + req.policy),
                      expected.at({req.workload, req.policy}) + "\n");
        }
        EXPECT_EQ(service.missEnqueues(), grid.size() - grid.size() / 2)
            << "each cold point must enqueue exactly one simulation";
        EXPECT_EQ(engine.simulationsPerformed(),
                  grid.size() - grid.size() / 2);
    } // the engine writes its miss-inserted rows back on the way out
    std::remove(path.c_str());
    EXPECT_FALSE(std::ifstream(path).good())
        << path << " outlived the test";
}
