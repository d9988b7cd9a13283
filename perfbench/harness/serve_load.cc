#include "serve_load.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/cache_v4.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "serve/serve_service.hh"
#include "sim/logging.hh"

namespace perfbench
{

namespace
{

using namespace migc;

// 10 signatures x 100 workloads x 100 policies = 100k rows, about
// 19 MB of v4: larger than the host's per-core caches. Signature 0 is
// the `default` preset's, so the documented whole-preset glob
// (`match default * *`) has a 10k-row section to answer from.
constexpr unsigned kSigs = 10;
constexpr unsigned kWorkloads = 100;
constexpr unsigned kPolicies = 100;

/** Share of requests that are exact gets (the rest are globs). */
constexpr unsigned kGetPercent = 90;

/** Cold test-preset points per run, spread evenly over the run. */
constexpr unsigned kColdPoints = 24;

/** The preset signature 0 is served under. */
constexpr const char *kPreset = "default";

/** Connection 1 sends the whole-preset glob this often. One answer
 *  formats 10k rows (about 0.2 s on the development host), so at this
 *  rate it takes about 4% of the connection's time. */
constexpr std::int64_t kPresetEveryNs = 5'000'000'000;

/** Latency and throughput are taken per window of this length and
 *  reported as the median over the run's windows, so a burst from a
 *  neighbour moves a few windows rather than the result. In a traced
 *  run, traced and untraced windows alternate. */
constexpr std::int64_t kWindowNs = 1'000'000'000;

/** The seed's synthetic rows; index = (s * kWorkloads + w) *
 *  kPolicies + p. */
struct Synth
{
    std::vector<std::string> sigs, workloads, policies;
    std::vector<std::string> csv;
    std::vector<RunMetrics> rows;
    /** What `match default * *` owes: signature 0's rows in canonical
     *  order, then the trailer. */
    std::string presetReply;

    static std::size_t
    index(unsigned s, unsigned w, unsigned p)
    {
        return (static_cast<std::size_t>(s) * kWorkloads + w) *
                   kPolicies + p;
    }
};

double
uniformCount(std::mt19937_64 &rng, std::uint64_t bound)
{
    return static_cast<double>(rng() % bound);
}

Synth
makeSynth(std::uint64_t seed, bool keep_rows)
{
    std::mt19937_64 rng(seed ^ 0x5e7e5e7eULL);
    Synth s;
    for (unsigned i = 0; i < kSigs; ++i) {
        s.sigs.push_back(csprintf(
            "synth%u-%08llx", i,
            static_cast<unsigned long long>(rng() & 0xffffffffULL)));
    }
    s.sigs[0] = SimConfig::defaultConfig().signature();
    for (unsigned i = 0; i < kWorkloads; ++i)
        s.workloads.push_back(csprintf("w%03u", i));
    for (unsigned i = 0; i < kPolicies; ++i)
        s.policies.push_back(csprintf("p%03u", i));

    s.csv.reserve(kSigs * kWorkloads * kPolicies);
    for (unsigned si = 0; si < kSigs; ++si) {
        for (unsigned w = 0; w < kWorkloads; ++w) {
            for (unsigned p = 0; p < kPolicies; ++p) {
                RunMetrics m;
                m.workload = s.workloads[w];
                m.policy = s.policies[p];
                m.execTicks = 1'000'000 + rng() % 4'000'000'000ULL;
                m.execSeconds = static_cast<double>(m.execTicks) / 1e12;
                m.gpuMemRequests = uniformCount(rng, 100'000'000);
                m.dramReads = uniformCount(rng, 50'000'000);
                m.dramWrites = uniformCount(rng, 50'000'000);
                m.dramAccesses = m.dramReads + m.dramWrites;
                m.dramRowHitRate = uniformCount(rng, 1'000'000) / 1e6;
                m.cacheStallCycles = uniformCount(rng, 1'000'000'000);
                m.stallsPerRequest =
                    m.cacheStallCycles /
                    std::max(1.0, m.gpuMemRequests);
                m.vops = uniformCount(rng, 10'000'000'000ULL);
                m.gvops = uniformCount(rng, 1'000'000) / 1e3;
                m.gmrps = uniformCount(rng, 1'000'000) / 1e6;
                m.l1Hits = uniformCount(rng, 100'000'000);
                m.l1Misses = uniformCount(rng, 100'000'000);
                m.l2Hits = uniformCount(rng, 100'000'000);
                m.l2Misses = uniformCount(rng, 100'000'000);
                m.l2Writebacks = uniformCount(rng, 10'000'000);
                m.rinseWritebacks = uniformCount(rng, 1'000'000);
                m.allocBypassed = uniformCount(rng, 1'000'000);
                m.predictorBypasses = uniformCount(rng, 1'000'000);
                m.kernels = 1 + uniformCount(rng, 64);
                m.simEvents = uniformCount(rng, 100'000'000);
                s.csv.push_back(m.toCsv());
                if (keep_rows)
                    s.rows.push_back(std::move(m));
            }
        }
    }
    for (std::size_t i = 0; i < kWorkloads * kPolicies; ++i)
        s.presetReply += s.csv[i] + "\n";
    s.presetReply += csprintf("# matched %u rows\n", kWorkloads * kPolicies);
    return s;
}

/** One request of the seeded stream: an exact get, or a glob over
 *  ten workloads of one (signature, policy). */
struct Query
{
    bool get = true;
    unsigned s = 0, w = 0, p = 0; ///< for a glob, w is the decade
};

class QueryStream
{
  public:
    QueryStream(std::uint64_t seed, unsigned stream)
        : rng_(seed * 1'000'003ULL + 17 + stream)
    {}

    Query
    next()
    {
        Query q;
        q.get = rng_() % 100 < kGetPercent;
        q.s = static_cast<unsigned>(rng_() % kSigs);
        q.w = static_cast<unsigned>(rng_() % (q.get ? kWorkloads : 10));
        q.p = static_cast<unsigned>(rng_() % kPolicies);
        return q;
    }

  private:
    std::mt19937_64 rng_;
};

/** The protocol line for @p q (no newline). Signature 0 is asked
 *  for by its preset name, as the documented queries do. */
std::string
requestLine(const Synth &syn, const Query &q)
{
    const std::string config = q.s == 0 ? kPreset : syn.sigs[q.s];
    if (q.get) {
        return "get " + config + " " + syn.workloads[q.w] + " " +
               syn.policies[q.p];
    }
    return "match " + config + " w0" + std::to_string(q.w) + "? " +
           syn.policies[q.p];
}

/** The exact reply migc_serve owes @p q. */
std::string
expectedReply(const Synth &syn, const Query &q)
{
    if (q.get)
        return syn.csv[Synth::index(q.s, q.w, q.p)] + "\n";
    std::string out;
    for (unsigned j = 0; j < 10; ++j)
        out += syn.csv[Synth::index(q.s, q.w * 10 + j, q.p)] + "\n";
    return out + "# matched 10 rows\n";
}

/** A test-preset grid point and the row it must simulate to. */
struct ColdPoint
{
    std::string workload, policy, row;
};

/** The kColdPoints cheapest test-preset points of @p path (a v3
 *  export), by sim_events, in an order shuffled by @p seed. The set
 *  is the same for every seed, so the time a cold point takes to
 *  become servable does not depend on which points a seed drew. */
std::vector<ColdPoint>
pickColdPoints(const std::string &path, std::uint64_t seed)
{
    std::vector<std::pair<double, ColdPoint>> all;
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#' ||
            line.rfind("workload,", 0) == 0)
            continue;
        std::vector<std::string> fields;
        std::stringstream ss(line);
        std::string item;
        while (std::getline(ss, item, ','))
            fields.push_back(item);
        if (fields.size() < 3)
            continue;
        all.push_back({std::stod(fields.back()),
                       ColdPoint{fields[0], fields[1], line}});
    }
    std::sort(all.begin(), all.end(), [](const auto &a, const auto &b) {
        if (a.first != b.first)
            return a.first < b.first;
        return a.second.row < b.second.row;
    });
    all.resize(std::min<std::size_t>(all.size(), kColdPoints));
    std::mt19937_64 rng(seed ^ 0xc01dULL);
    for (std::size_t i = all.size(); i > 1; --i)
        std::swap(all[i - 1], all[rng() % i]);
    std::vector<ColdPoint> out;
    for (auto &[cost, point] : all)
        out.push_back(std::move(point));
    return out;
}

/** A blocking AF_UNIX client connection with a line reader. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
            close();
            return;
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            close();
    }

    ~Conn() { close(); }

    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    send(const std::string &line)
    {
        const char *p = line.data();
        std::size_t left = line.size();
        while (left > 0) {
            ssize_t n = ::write(fd_, p, left);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read one reply: a single line, or for a glob every line up to
     *  and including the '# matched' (or '# error') trailer. */
    bool
    readReply(bool multi_line, std::string &reply)
    {
        reply.clear();
        for (;;) {
            std::size_t start = reply.size();
            if (!readLine(reply))
                return false;
            if (!multi_line || reply.compare(start, 1, "#") == 0)
                return true;
        }
    }

  private:
    bool
    readLine(std::string &out)
    {
        for (;;) {
            const char *nl = static_cast<const char *>(
                std::memchr(buf_ + pos_, '\n', len_ - pos_));
            if (nl != nullptr) {
                const std::size_t n =
                    static_cast<std::size_t>(nl - (buf_ + pos_)) + 1;
                out.append(buf_ + pos_, n);
                pos_ += n;
                return true;
            }
            out.append(buf_ + pos_, len_ - pos_);
            pos_ = len_ = 0;
            ssize_t n = ::read(fd_, buf_, sizeof(buf_));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            len_ = static_cast<std::size_t>(n);
        }
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    int fd_ = -1;
    char buf_[65536];
    std::size_t pos_ = 0, len_ = 0;
};

/** What one client connection measured. */
struct ConnLog
{
    /** Every request but `wait`: its window and round trip, us. */
    std::vector<std::pair<std::int64_t, float>> rtt;
    std::vector<float> rttGet, rttMatch, rttMiss, rttPreset;
    std::vector<std::int64_t> doneNs; ///< completion of every reply
    /** Per cold point: miss get sent -> re-get's row received. */
    std::vector<double> coldSeconds;
    /** Requests sent and replies that failed their check. */
    Result checks;
    SpanRecorder rec;
};

/** Runs one closed-loop connection until @p deadline. Connection 0
 *  also issues the cold gets at evenly spaced times; connection 1 the
 *  whole-preset glob every kPresetEveryNs, starting halfway into the
 *  first such interval. */
class Client
{
  public:
    Client(const Synth &syn, Conn &conn, unsigned index,
           const ServeOptions &opt, std::int64_t start,
           const std::vector<ColdPoint> &cold, bool preset_globs,
           ConnLog &log)
        : syn_(syn), conn_(conn), index_(index), opt_(opt),
          start_(start), cold_(cold), presetGlobs_(preset_globs),
          log_(log),
          deadline_(start + static_cast<std::int64_t>(opt.seconds * 1e9))
    {}

    void
    run()
    {
        QueryStream stream(opt_.seed, index_);
        std::size_t next_cold = 0;
        std::int64_t next_preset = start_ + kPresetEveryNs / 2;
        std::string line, expect, reply;
        while (nowNs() < deadline_) {
            if (next_cold < cold_.size() && nowNs() >= coldTime(next_cold))
                coldPoint(cold_[next_cold++]);
            if (presetGlobs_ && nowNs() >= next_preset) {
                presetGlob();
                next_preset += kPresetEveryNs;
            }
            const Query q = stream.next();
            line = requestLine(syn_, q);
            line += '\n';
            expect = expectedReply(syn_, q);
            if (!request(line, !q.get, q.get ? "serve.get" : "serve.match",
                         reply))
                return;
            if (reply != expect)
                log_.checks.fail("reply differs from the generated rows: " +
                          line.substr(0, line.size() - 1));
        }
        // Cold points still due (a short or slow run) finish after the
        // deadline, so every run asks for all of them.
        while (next_cold < cold_.size())
            coldPoint(cold_[next_cold++]);
        closeWindow();
    }

  private:
    std::int64_t
    coldTime(std::size_t k) const
    {
        const double share = (static_cast<double>(k) + 0.5) /
                             static_cast<double>(cold_.size());
        return start_ + static_cast<std::int64_t>(share * opt_.seconds * 1e9);
    }

    /** get (a miss that enqueues a simulation), wait, re-get. */
    void
    coldPoint(const ColdPoint &pt)
    {
        const std::string get =
            "get test " + pt.workload + " " + pt.policy + "\n";
        std::string reply;
        const std::int64_t t0 = nowNs();
        if (!request(get, false, "serve.miss", reply))
            return;
        const std::string miss = "# miss test/" + pt.workload + "/" +
                                 pt.policy +
                                 ": simulation enqueued (wait, then "
                                 "re-get)\n";
        if (reply != miss)
            log_.checks.fail("cold get did not enqueue: " + reply);
        if (!request("wait\n", false, "serve.wait", reply))
            return;
        if (reply != "# drained\n")
            log_.checks.fail("wait did not drain: " + reply);
        if (!request(get, false, "serve.get", reply))
            return;
        log_.coldSeconds.push_back((nowNs() - t0) * 1e-9);
        if (reply != pt.row + "\n")
            log_.checks.fail("cold point " + pt.workload + "/" + pt.policy +
                      " did not hit with its row after wait: " + reply);
    }

    /** The documented whole-preset glob: 10k rows in one reply. */
    void
    presetGlob()
    {
        std::string reply;
        const std::string line = std::string("match ") + kPreset + " * *\n";
        if (!request(line, true, "serve.preset", reply))
            return;
        if (reply != syn_.presetReply)
            log_.checks.fail("whole-preset glob differs from the generated "
                             "rows");
    }

    bool
    request(const std::string &line, bool multi_line, const char *span,
            std::string &reply)
    {
        ++log_.checks.attempted;
        const std::int64_t t0 = nowNs();
        if (!conn_.send(line) || !conn_.readReply(multi_line, reply)) {
            log_.checks.fail("connection lost");
            return false;
        }
        const std::int64_t t1 = nowNs();
        const float us = static_cast<float>(t1 - t0) * 1e-3f;
        log_.doneNs.push_back(t1);
        const std::int64_t window = (t0 - start_) / kWindowNs;
        const bool traced = opt_.trace && window % 2 == 0;
        if (std::strcmp(span, "serve.wait") != 0) {
            log_.rtt.emplace_back(window, us);
            if (std::strcmp(span, "serve.get") == 0)
                log_.rttGet.push_back(us);
            else if (std::strcmp(span, "serve.match") == 0)
                log_.rttMatch.push_back(us);
            else if (std::strcmp(span, "serve.preset") == 0)
                log_.rttPreset.push_back(us);
            else
                log_.rttMiss.push_back(us);
        }
        if (traced) {
            if (window != window_) {
                closeWindow();
                window_ = window;
                root_ = log_.rec.add("harness.window", t0, t1, -1, 0);
            }
            log_.rec.add(span, t0, t1, root_,
                         (static_cast<std::uint64_t>(index_) << 40) |
                             log_.checks.attempted);
            lastEnd_ = t1;
        } else {
            closeWindow();
        }
        return true;
    }

    /** End the open traced window at its last reply. */
    void
    closeWindow()
    {
        if (root_ >= 0)
            log_.rec.close(root_, lastEnd_);
        root_ = -1;
        window_ = -1;
    }

    const Synth &syn_;
    Conn &conn_;
    unsigned index_;
    const ServeOptions &opt_;
    std::int64_t start_;
    const std::vector<ColdPoint> &cold_;
    bool presetGlobs_;
    ConnLog &log_;
    std::int64_t deadline_;
    std::int64_t window_ = -1;
    std::int64_t root_ = -1;
    std::int64_t lastEnd_ = 0;
};

/** Value of `key=` in a `# stats` reply, or -1. */
double
statsField(const std::string &stats, const std::string &key)
{
    const std::size_t at = stats.find(" " + key + "=");
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(stats.c_str() + at + key.size() + 2, nullptr);
}

/** Time CacheSnapshot::findCsv/matchCsv on @p snap over @p queries
 *  requests of the seed's stream, checking every answer. */
void
timeSnapshotQueries(const CacheSnapshot &snap, const Synth &syn,
                    std::uint64_t seed, std::size_t queries,
                    std::vector<double> &find_us,
                    std::vector<double> &match_us, SpanRecorder &rec,
                    Result &r)
{
    const bool mapped = snap.mapped();
    const char *find_span = mapped ? "core.cache_snapshot.mapped_find"
                                   : "core.cache_snapshot.find";
    const char *match_span = mapped ? "core.cache_snapshot.mapped_match"
                                    : "core.cache_snapshot.match";
    QueryStream stream(seed, 0);
    std::string out, expect;
    const std::int64_t root = rec.open("harness.snapshot_queries", -1, 0);
    for (std::size_t i = 0; i < queries; ++i) {
        const Query q = stream.next();
        out.clear();
        const std::int64_t t0 = nowNs();
        if (q.get) {
            snap.findCsv(syn.sigs[q.s], syn.workloads[q.w],
                         syn.policies[q.p], out);
        } else {
            snap.matchCsv(syn.sigs[q.s], "w0" + std::to_string(q.w) + "?",
                          syn.policies[q.p], out);
        }
        const std::int64_t t1 = nowNs();
        rec.add(q.get ? find_span : match_span, t0, t1, root, i);
        (q.get ? find_us : match_us).push_back((t1 - t0) * 1e-3);
        ++r.attempted;
        expect = expectedReply(syn, q);
        out += q.get ? "\n" : "# matched 10 rows\n";
        if (out != expect) {
            r.fail(std::string(mapped ? "mapped" : "materialized") +
                   " snapshot answer differs from the generated rows");
        }
    }
    rec.close(root);
}

} // namespace

bool
generateServeCache(std::uint64_t seed, const std::string &path,
                   std::string &why)
{
    std::remove(path.c_str());
    Synth syn = makeSynth(seed, true);
    {
        RunCache cache(path, SIZE_MAX, CacheFormat::v4);
        for (std::size_t i = 0; i < syn.rows.size(); ++i) {
            const std::size_t s = i / (kWorkloads * kPolicies);
            cache.insert(syn.sigs[s], std::move(syn.rows[i]));
        }
        if (!cache.saveNow()) {
            why = "could not write " + path;
            return false;
        }
    }
    auto mapped = MappedCacheV4::map(path, &why);
    if (mapped == nullptr)
        return false;
    if (mapped->rows() != syn.csv.size()) {
        why = "generated cache holds " + std::to_string(mapped->rows()) +
              " rows, expected " + std::to_string(syn.csv.size());
        return false;
    }
    return true;
}

Result
runServeLoad(const ServeOptions &opt, SpanRecorder &rec)
{
    Result r;
    const Synth syn = makeSynth(opt.seed, false);
    const std::vector<ColdPoint> cold = pickColdPoints(opt.coldRows, opt.seed);
    if (cold.size() != kColdPoints) {
        r.fail("cold-point reference rows missing: " + opt.coldRows);
        return r;
    }

    Conn c0(opt.socket), c1(opt.socket);
    if (!c0.ok() || !c1.ok()) {
        r.fail("cannot connect to " + opt.socket);
        return r;
    }
    const std::vector<ColdPoint> none;
    ConnLog log0, log1;
    const std::int64_t start = nowNs();
    Client client0(syn, c0, 0, opt, start, cold, false, log0);
    Client client1(syn, c1, 1, opt, start, none, true, log1);
    {
        std::jthread t1([&client1] { client1.run(); });
        client0.run();
    }

    std::string stats;
    c0.send("stats\n");
    c0.readReply(false, stats);

    ConnLog *logs[] = {&log0, &log1};
    // Only whole windows inside the run count.
    const auto windows = static_cast<std::size_t>(
        static_cast<std::int64_t>(opt.seconds * 1e9) / kWindowNs);
    std::vector<std::vector<double>> window_rtt(windows);
    std::vector<double> window_replies(windows, 0.0);
    std::vector<double> get, match, miss, preset;
    std::size_t requests = 0, replies = 0;
    for (ConnLog *l : logs) {
        r.attempted += l->checks.attempted;
        r.failed += l->checks.failed;
        for (std::string &f : l->checks.failures)
            r.failures.push_back(std::move(f));
        auto append = [](std::vector<double> &to,
                         const std::vector<float> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(get, l->rttGet);
        append(match, l->rttMatch);
        append(miss, l->rttMiss);
        append(preset, l->rttPreset);
        for (const auto &[window, us] : l->rtt) {
            if (static_cast<std::size_t>(window) < windows) {
                window_rtt[static_cast<std::size_t>(window)].push_back(us);
                ++requests;
            }
        }
        for (std::int64_t t : l->doneNs) {
            const auto window =
                static_cast<std::size_t>((t - start) / kWindowNs);
            if (window < windows)
                window_replies[window] += 1.0;
        }
        replies += l->doneNs.size();
        rec.absorb(l->rec);
    }
    const double enqueues = statsField(stats, "miss-enqueues");
    if (enqueues != kColdPoints) {
        r.fail("stats reports " + std::to_string(enqueues) +
               " miss enqueues, expected " + std::to_string(kColdPoints) +
               ": " + stats);
    }
    if (windows == 0)
        return r;

    std::vector<double> p50, p99, p50_traced, p50_untraced;
    for (std::size_t w = 0; w < windows; ++w) {
        p50.push_back(quantile(window_rtt[w], 0.50));
        p99.push_back(quantile(window_rtt[w], 0.99));
        (w % 2 == 0 ? p50_traced : p50_untraced).push_back(p50.back());
    }

    r.set("p50_ms", median(p50) * 1e-3, "ms", requests);
    r.set("serve.rtt_us.p99", median(p99), "us", requests);
    r.set("qps", median(window_replies) * 1e9 / kWindowNs, "1/s", replies);
    // serve_mixed's wall time is what a client waits for a cold point:
    // the missing get's send to the re-get's row (see README.md).
    r.set("wall_s", median(log0.coldSeconds), "s",
          log0.coldSeconds.size());
    r.set("serve.rtt_us.get.p50", quantile(get, 0.50), "us", get.size());
    r.set("serve.rtt_us.get.p99", quantile(get, 0.99), "us", get.size());
    r.set("serve.rtt_us.match.p50", quantile(match, 0.50), "us",
          match.size());
    r.set("serve.rtt_us.match.p99", quantile(match, 0.99), "us",
          match.size());
    r.set("serve.rtt_us.miss.p50", quantile(miss, 0.50), "us", miss.size());
    r.set("serve.rtt_us.preset.p50", quantile(preset, 0.50), "us",
          preset.size());
    r.set("serve.publishes", statsField(stats, "publishes"), "count", 1);
    r.set("serve.publish_ms", statsField(stats, "publish_ms"), "ms", 1);
    r.set("serve.miss_enqueues", enqueues, "count", 1);
    if (opt.trace) {
        r.set("trace.overhead",
              (median(p50_traced) - median(p50_untraced)) * 1e-3, "ms",
              requests);
    }
    return r;
}

Result
runServeInProcess(const ServeOptions &opt, SpanRecorder &rec)
{
    Result r;
    const Synth syn = makeSynth(opt.seed, false);
    constexpr int kMaps = 9;
    constexpr std::size_t kQueries = 40'000;

    std::vector<double> map_ms;
    std::shared_ptr<const MappedCacheV4> file;
    for (int i = 0; i < kMaps; ++i) {
        std::string why;
        file.reset();
        const std::int64_t t0 = nowNs();
        file = MappedCacheV4::map(opt.cache, &why);
        const std::int64_t t1 = nowNs();
        if (file == nullptr) {
            r.fail("cannot map " + opt.cache + ": " + why);
            return r;
        }
        rec.add("core.cache_v4.map", t0, t1, -1, 0);
        map_ms.push_back((t1 - t0) * 1e-6);
    }

    // migc_serve starts on the mapped snapshot and reads from it only
    // until the first cold point publishes, 0.6 s into a 30 s run;
    // every publish swaps in a materialized snapshot, which serves the
    // rest of the load. Both representations are timed, and the
    // service runs on the materialized one, as the load mostly does.
    std::vector<double> mapped_find_us, mapped_match_us;
    timeSnapshotQueries(*CacheSnapshot::fromMappedFile(file), syn,
                        opt.seed, kQueries, mapped_find_us,
                        mapped_match_us, rec, r);
    SweepEngine engine(opt.cache);
    const std::shared_ptr<const CacheSnapshot> materialized =
        engine.snapshot();
    if (materialized->mapped())
        r.fail("the engine's snapshot is mapped, not materialized");
    std::vector<double> find_us, match_us;
    timeSnapshotQueries(*materialized, syn, opt.seed, kQueries, find_us,
                        match_us, rec, r);

    // The whole service, minus the transport. Without a cache path it
    // serves engine.snapshot(), the materialized snapshot above.
    std::vector<double> handle_get_us, handle_match_us;
    {
        ServeService::Options so;
        so.simulate = false;
        ServeService service(engine, so);
        QueryStream stream(opt.seed, 0);
        std::string reply;
        const std::int64_t root = rec.open("harness.service_queries", -1, 0);
        for (std::size_t i = 0; i < kQueries; ++i) {
            const Query q = stream.next();
            const std::string line = requestLine(syn, q);
            const std::int64_t t0 = nowNs();
            reply = service.handleLine(line);
            const std::int64_t t1 = nowNs();
            rec.add("serve.handle", t0, t1, root, i);
            (q.get ? handle_get_us : handle_match_us)
                .push_back((t1 - t0) * 1e-3);
            ++r.attempted;
            if (reply != expectedReply(syn, q))
                r.fail("in-process reply differs from the generated rows");
        }
        rec.close(root);
        ++r.attempted;
        if (service.handleLine(std::string("match ") + kPreset + " * *") !=
            syn.presetReply)
            r.fail("in-process whole-preset glob differs from the "
                   "generated rows");
    }

    r.set("core.cache_v4.map_ms", median(map_ms), "ms", map_ms.size());
    r.set("core.cache_snapshot.find_us.p50", median(find_us), "us",
          find_us.size());
    r.set("core.cache_snapshot.match_us.p50", median(match_us), "us",
          match_us.size());
    r.set("core.cache_snapshot.mapped_find_us.p50", median(mapped_find_us),
          "us", mapped_find_us.size());
    r.set("core.cache_snapshot.mapped_match_us.p50",
          median(mapped_match_us), "us", mapped_match_us.size());
    r.set("serve.handle_us.get.p50", median(handle_get_us), "us",
          handle_get_us.size());
    r.set("serve.handle_us.match.p50", median(handle_match_us), "us",
          handle_match_us.size());
    return r;
}

} // namespace perfbench
