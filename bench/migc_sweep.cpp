/**
 * @file
 * migc_sweep: the elastic multi-process sweep driver.
 *
 * One binary, several roles around one deterministic grid:
 *
 *  - single-process: run the grid through the SweepEngine, exactly
 *    like a figure binary (`migc_sweep --grid dynamic`).
 *  - fleet coordinator: `--shards N` opens the canonical cache,
 *    plans the pending run-key list from it (longest-estimated-job-
 *    first, costs from prior rows), serves it as leases over an
 *    AF_UNIX socket (core/fleet.hh), and fork/execs N local workers
 *    that lease, simulate, push, and report until the queue drains.
 *    Every push is appended to the canonical cache before it is
 *    acknowledged, and the join at drain compacts that file -
 *    byte-identical to the single-process file for any worker count,
 *    steal schedule, or crash history. A rerun of the same command
 *    after a crash plans from that file, so only never-pushed keys
 *    are re-enqueued; with nothing left pending, it is just the
 *    join.
 *  - fleet worker: `--fleet SOCK --shard-index i` leases ranges from
 *    the coordinator at SOCK and pushes each finished row to it; it
 *    keeps its rows in memory, reads or writes no cache file, and
 *    refuses `--cache`.
 *  - listening coordinator: `--listen SOCK --shards N` is the
 *    coordinator without the forking - workers are started by hand
 *    or a launcher (what `--manifest` prints); it joins at drain.
 *
 * The grid is workloads x policies on one configuration; results
 * land in the same RunCache namespaces the figure binaries read, so
 * a fleet sweep of `--grid paper` or `--grid dynamic` makes every
 * figure binary's run free. See docs/SWEEPS.md for the workflows
 * and the fleet protocol.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hh"
#include "core/fleet.hh"
#include "core/sim_config.hh"
#include "core/sweep_engine.hh"
#include "sim/env.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace
{

using namespace migc;

struct Options
{
    std::string grid = "paper";     // paper | dynamic
    std::string config = "default"; // default | paper | test
    std::string cache;              // resolved in resolveCachePath()
    std::vector<std::string> workloads; // override (empty = grid's)
    std::vector<std::string> policies;  // override (empty = grid's)
    unsigned shards = 0;   // 0 = single process
    int shardIndex = -1;   // fleet worker index (with --fleet)
    unsigned jobs = 0;     // threads per process (0 = MIGC_JOBS)
    bool manifest = false;
    std::string cacheFormat; // --export's format ("" = v4)
    std::string exportPath;  // write a copy there in --cache-format

    // Fleet (elastic lease queue) options. Sockets are endpoint
    // specs: unix:<path>, tcp:<host>:<port>, or a bare AF_UNIX path.
    std::string fleetSocket;  // worker: coordinator socket to join
    std::string listenSocket; // coordinator: serve leases, don't fork
    unsigned leaseSize = 2;   // keys per lease
    unsigned renewMs = 10000; // lease renew deadline
    int slowWorkerIndex = -1; // straggler injection (coordinator)
    unsigned slowWorkerMs = 0;
    unsigned slowMs = 0;      // straggler injection (this process)
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --grid paper|dynamic   17x6 paper grid (default) or the\n"
        "                         18x9 dynamic-policy grid (fig14)\n"
        "  --config default|paper|test\n"
        "                         system preset (default: default)\n"
        "  --workloads a,b,...    override the grid's workload list\n"
        "  --policies x,y,...     override the grid's policy list\n"
        "  --cache PATH           canonical cache file (default:\n"
        "                         MIGC_SWEEP_CACHE or mi_sweep_cache.csv)\n"
        "  --shards N             run an N-worker elastic fleet (fork\n"
        "                         local workers, lease run-key ranges,\n"
        "                         steal from stragglers, store every\n"
        "                         pushed row in <cache>)\n"
        "  --shard-index I        this fleet worker's index (with\n"
        "                         --fleet); a worker keeps its rows in\n"
        "                         memory, pushes them to the\n"
        "                         coordinator, and refuses --cache\n"
        "  --fleet SPEC           lease work from the coordinator at\n"
        "                         SPEC: unix:<path>, tcp:<host>:<port>,\n"
        "                         or a bare AF_UNIX path\n"
        "  --listen SPEC          coordinate on SPEC without forking\n"
        "                         workers (start them by hand; see\n"
        "                         --manifest); joins when drained.\n"
        "                         tcp:<host>:0 binds an ephemeral port\n"
        "                         and prints the real one\n"
        "  --push                 accepted and ignored: every fleet\n"
        "                         worker pushes each row to the\n"
        "                         coordinator before its done\n"
        "  --lease-size K         run keys per lease (default 2)\n"
        "  --renew-ms MS          lease renew deadline (default 10000);\n"
        "                         a worker silent this long forfeits\n"
        "                         its lease\n"
        "  --manifest             print the fleet coordinator + worker\n"
        "                         commands, then exit\n"
        "  --export PATH          write a copy of <cache> to PATH and\n"
        "                         exit (the original is untouched;\n"
        "                         PATH must not be <cache> itself, and\n"
        "                         <cache> must be a v4 cache)\n"
        "  --cache-format v4|csv  --export's format: v4 binary\n"
        "                         columnar (default) or the v3 csv\n"
        "                         text; caches are always written v4\n"
        "  --jobs J               worker threads per process\n"
        "  --slow-worker I:MS     testing: fork worker I with an MS ms\n"
        "                         sleep after every run (straggler)\n"
        "  --slow-ms MS           testing: this process sleeps MS ms\n"
        "                         after every run\n"
        "  --help                 this text\n"
        "\nsee docs/SWEEPS.md for copy-paste sweep workflows\n",
        argv0);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

unsigned
parseCount(const char *flag, const std::string &value, unsigned min,
           unsigned max)
{
    return parseBoundedUnsigned(flag, value.c_str(), min, max);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int i) -> std::string {
        fatal_if(i + 1 >= argc, "%s needs a value (--help for usage)",
                 argv[i]);
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else if (arg == "--grid") {
            opt.grid = need(i++);
            fatal_if(opt.grid != "paper" && opt.grid != "dynamic",
                     "--grid %s: expected paper or dynamic",
                     opt.grid.c_str());
        } else if (arg == "--config") {
            opt.config = need(i++);
            fatal_if(opt.config != "default" && opt.config != "paper" &&
                         opt.config != "test",
                     "--config %s: expected default, paper, or test",
                     opt.config.c_str());
        } else if (arg == "--workloads") {
            opt.workloads = splitList(need(i++));
        } else if (arg == "--policies") {
            opt.policies = splitList(need(i++));
        } else if (arg == "--cache") {
            opt.cache = need(i++);
        } else if (arg == "--shards") {
            opt.shards = parseCount("--shards", need(i++), 1, 4096);
        } else if (arg == "--shard-index") {
            opt.shardIndex = static_cast<int>(
                parseCount("--shard-index", need(i++), 0, 4095));
        } else if (arg == "--jobs") {
            opt.jobs = parseCount("--jobs", need(i++), 1, 4096);
        } else if (arg == "--fleet") {
            opt.fleetSocket = need(i++);
        } else if (arg == "--listen") {
            opt.listenSocket = need(i++);
        } else if (arg == "--push") {
            // Accepted and ignored so existing scripts still parse:
            // every fleet worker pushes.
        } else if (arg == "--lease-size") {
            opt.leaseSize =
                parseCount("--lease-size", need(i++), 1, 4096);
        } else if (arg == "--renew-ms") {
            opt.renewMs =
                parseCount("--renew-ms", need(i++), 10, 3600000);
        } else if (arg == "--slow-worker") {
            const std::string v = need(i++);
            std::size_t colon = v.find(':');
            fatal_if(colon == std::string::npos,
                     "--slow-worker wants INDEX:MS (got %s)",
                     v.c_str());
            opt.slowWorkerIndex = static_cast<int>(parseCount(
                "--slow-worker index", v.substr(0, colon), 0, 4095));
            opt.slowWorkerMs = parseCount(
                "--slow-worker ms", v.substr(colon + 1), 1, 600000);
        } else if (arg == "--slow-ms") {
            opt.slowMs = parseCount("--slow-ms", need(i++), 1, 600000);
        } else if (arg == "--manifest") {
            opt.manifest = true;
        } else if (arg == "--cache-format") {
            opt.cacheFormat = need(i++);
            fatal_if(opt.cacheFormat != "v4" &&
                         opt.cacheFormat != "csv",
                     "--cache-format %s: expected v4 or csv",
                     opt.cacheFormat.c_str());
        } else if (arg == "--export") {
            opt.exportPath = need(i++);
        } else {
            usage(argv[0]);
            fatal("unknown option %s", arg.c_str());
        }
    }
    fatal_if(opt.shardIndex >= 0 && opt.fleetSocket.empty(),
             "--shard-index needs --fleet (it names a fleet worker)");
    fatal_if(opt.shardIndex >= 0 && opt.shards > 0 &&
                 static_cast<unsigned>(opt.shardIndex) >= opt.shards,
             "--shard-index %d out of range for --shards %u",
             opt.shardIndex, opt.shards);
    fatal_if(!opt.fleetSocket.empty() && opt.shardIndex < 0,
             "--fleet needs --shard-index (it names the worker in the "
             "coordinator's accounting)");
    fatal_if(!opt.fleetSocket.empty() && !opt.listenSocket.empty(),
             "--fleet (worker) and --listen (coordinator) are "
             "mutually exclusive");
    fatal_if(!opt.fleetSocket.empty() && !opt.cache.empty(),
             "--cache cannot be combined with --fleet: a fleet worker "
             "keeps its rows in memory and pushes them to the "
             "coordinator, whose --cache stores them");
    // --manifest --listen SPEC prints commands for that endpoint (the
    // multi-host workflow); --manifest --fleet is still meaningless
    // (a manifest describes a whole fleet, not one worker).
    fatal_if(opt.manifest && !opt.fleetSocket.empty(),
             "--manifest cannot be combined with --fleet");
    fatal_if(opt.slowWorkerIndex >= 0 && !opt.listenSocket.empty(),
             "--slow-worker injects at fork; with --listen, start "
             "the straggler yourself with --slow-ms");
    fatal_if(!opt.exportPath.empty() &&
                 (opt.manifest || opt.shards > 0 ||
                  !opt.fleetSocket.empty() ||
                  !opt.listenSocket.empty()),
             "--export only copies the cache; it cannot be combined "
             "with sweep or fleet roles");
    fatal_if(!opt.cacheFormat.empty() && opt.exportPath.empty(),
             "--cache-format only picks --export's format: caches are "
             "always written as v4. For a v3 text copy, run "
             "`migc_sweep --export PATH --cache-format csv`");
    return opt;
}

/** The canonical cache path: flag, else the figure binaries' env. */
std::string
resolveCachePath(const Options &opt)
{
    return opt.cache.empty() ? sweepCachePathFromEnv() : opt.cache;
}

SimConfig
makeConfig(const Options &opt)
{
    if (opt.config == "paper")
        return SimConfig::paperConfig();
    if (opt.config == "test")
        return SimConfig::testConfig();
    return SimConfig::defaultConfig();
}

std::vector<RunRequest>
buildGrid(const Options &opt, const SimConfig &cfg)
{
    std::vector<std::string> workloads = opt.workloads;
    if (workloads.empty()) {
        workloads = opt.grid == "dynamic" ? extendedWorkloadOrder()
                                          : workloadOrder();
    }
    std::vector<std::string> policies = opt.policies;
    if (policies.empty()) {
        policies = opt.grid == "dynamic"
                       ? ExperimentSweep::dynamicPolicyNames()
                       : ExperimentSweep::allPolicyNames();
    }
    std::vector<RunRequest> requests;
    requests.reserve(workloads.size() * policies.size());
    for (const auto &w : workloads) {
        for (const auto &p : policies)
            requests.push_back(RunRequest{cfg, w, p});
    }
    return requests;
}

/** The fleet-worker command line for worker @p index (no --cache:
 *  a worker keeps its rows in memory). */
std::vector<std::string>
workerArgs(const std::string &argv0, const Options &opt, unsigned index,
           const std::string &sock)
{
    std::vector<std::string> args{argv0,
                                  "--grid",
                                  opt.grid,
                                  "--config",
                                  opt.config,
                                  "--fleet",
                                  sock,
                                  "--shard-index",
                                  std::to_string(index)};
    if (!opt.workloads.empty()) {
        args.push_back("--workloads");
        args.push_back(joinStrings(opt.workloads, ","));
    }
    if (!opt.policies.empty()) {
        args.push_back("--policies");
        args.push_back(joinStrings(opt.policies, ","));
    }
    if (opt.jobs > 0) {
        args.push_back("--jobs");
        args.push_back(std::to_string(opt.jobs));
    }
    if (opt.slowWorkerIndex >= 0 &&
        static_cast<unsigned>(opt.slowWorkerIndex) == index) {
        args.push_back("--slow-ms");
        args.push_back(std::to_string(opt.slowWorkerMs));
    }
    return args;
}

/** Quote one argument for copy-paste into a POSIX shell. */
std::string
shellQuote(const std::string &s)
{
    static const char *safe =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "0123456789._-+=/:,@%";
    if (!s.empty() && s.find_first_not_of(safe) == std::string::npos)
        return s;
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

std::string
shellJoin(const std::vector<std::string> &args)
{
    std::vector<std::string> quoted;
    quoted.reserve(args.size());
    for (const std::string &a : args)
        quoted.push_back(shellQuote(a));
    return joinStrings(quoted, " ");
}

/**
 * The join: compact @p canonical to its one canonical segment - the
 * bytes a single-process sweep writes - and print the summary.
 */
void
joinFleet(RunCache &canonical, const std::string &cache,
          const FleetServer::PushTotals &pushed)
{
    // saveNow, not flush: a rerun that loaded a multi-segment file
    // and had nothing to lease must still leave the canonical bytes.
    fatal_if(!canonical.saveNow(),
             "could not compact %s; every acknowledged push is already "
             "in it, so rerunning the same command finishes the join",
             cache.c_str());
    std::printf("merged %llu push%s into %s: +%llu rows, %llu "
                "duplicates deduped, %zu parse errors\n",
                static_cast<unsigned long long>(pushed.pushes),
                pushed.pushes == 1 ? "" : "es", cache.c_str(),
                static_cast<unsigned long long>(pushed.rows),
                static_cast<unsigned long long>(pushed.duplicates),
                canonical.parseErrors());
}

/** This binary's path for re-exec; /proc/self/exe survives PATH
 *  lookups and working-directory changes, argv[0] is the fallback. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/**
 * The coordinator's socket address: `<cache>.fleet.sock`, one name
 * per cache, so a rerun after a crash binds over the dead
 * coordinator's socket file (Listener::bind unlinks it) instead of
 * leaving it behind. sun_path caps AF_UNIX paths at ~107 bytes, so
 * deep build trees fall back to a /tmp name hashed from the cache
 * path.
 */
std::string
fleetSocketPath(const std::string &cache)
{
    const std::string sock = cache + ".fleet.sock";
    if (sock.size() < 100)
        return sock;
    return csprintf("/tmp/migc_fleet_%016llx.sock",
                    static_cast<unsigned long long>(fnv1a(cache)));
}

int
runSweep(const Options &opt, const std::string &cache)
{
    SimConfig cfg = makeConfig(opt);
    std::vector<RunRequest> requests = buildGrid(opt, cfg);
    SweepEngine engine(cache);
    if (opt.slowMs > 0)
        engine.setInjectedRunDelayMs(opt.slowMs);
    engine.run(requests, opt.jobs);
    engine.flush();
    std::printf("sweep done: %llu simulated, %llu from cache "
                "(grid: %zu points, %zu cache parse errors)\n",
                static_cast<unsigned long long>(
                    engine.simulationsPerformed()),
                static_cast<unsigned long long>(engine.cacheHits()),
                requests.size(), engine.cacheParseErrors());
    return 0;
}

/** Fleet worker: lease run-key ranges until the grid drains. It
 *  keeps its rows in memory and pushes each one to the coordinator,
 *  so it reads and writes no cache file. */
int
runFleetWorker(const Options &opt)
{
    SimConfig cfg = makeConfig(opt);
    std::vector<RunRequest> requests = buildGrid(opt, cfg);
    const unsigned index = static_cast<unsigned>(opt.shardIndex);

    FleetClientOptions copts;
    copts.gridSize = requests.size();
    FleetClient client(opt.fleetSocket, index,
                       gridFingerprint(requests), copts);
    SweepEngine engine{std::string()};
    if (opt.slowMs > 0)
        engine.setInjectedRunDelayMs(opt.slowMs);
    SweepEngine::FleetRunStats st =
        engine.runFleet(requests, client, opt.jobs);
    std::printf("worker %u drained: %llu simulated, %llu from cache, "
                "%llu leases, %llu stale dones\n",
                index, static_cast<unsigned long long>(st.runs),
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.leases),
                static_cast<unsigned long long>(st.stale));
    return 0;
}

/** The per-worker accounting block of the join summary. */
void
printFleetSummary(const FleetServer &server)
{
    for (const auto &[worker, st] : server.workerStats()) {
        std::printf("fleet worker %u: %llu runs, %llu leases "
                    "(%llu stolen, %llu expired, %llu stale), "
                    "%.1fs wall\n",
                    worker,
                    static_cast<unsigned long long>(st.runs),
                    static_cast<unsigned long long>(st.leases),
                    static_cast<unsigned long long>(st.steals),
                    static_cast<unsigned long long>(st.expired),
                    static_cast<unsigned long long>(st.staleDones),
                    st.wallSeconds());
    }
}

/**
 * Fleet coordinator: plan the pending keys from the canonical cache,
 * serve leases, store every push in that cache, run the workers
 * (forked locally unless @p listen_only), and join at drain.
 */
int
coordinateFleet(const Options &opt, const std::string &cache,
                const char *argv0, bool listen_only)
{
    const std::string self = selfExePath(argv0);
    SimConfig cfg = makeConfig(opt);
    std::vector<RunRequest> requests = buildGrid(opt, cfg);
    // The fleet's one store: the plan reads it, the server appends
    // every push to its file, and the join compacts it.
    RunCache canonical(cache);
    SweepPlan plan = planSweep(requests, canonical);
    inform("fleet plan: %zu of %zu grid points pending (%zu cached)",
           plan.pending.size(), requests.size(), plan.cached);

    const std::string sock = opt.listenSocket.empty()
                                 ? fleetSocketPath(cache)
                                 : opt.listenSocket;
    if (plan.pending.empty()) {
        // Nothing to lease. A rerun after a fleet that stored every
        // row but died before its join lands here: this is the join
        // on its own, and it removes the dead coordinator's socket
        // file, which no bind will replace.
        const Endpoint ep = parseEndpoint(sock);
        if (ep.kind == Endpoint::Kind::unix_)
            ::unlink(ep.path.c_str());
        joinFleet(canonical, cache, FleetServer::PushTotals());
        return 0;
    }

    FleetConfig fcfg;
    fcfg.leaseSize = opt.leaseSize;
    fcfg.renewMs = opt.renewMs;
    FleetServer server(sock,
                       FleetQueue(plan.costs, plan.pending, fcfg),
                       gridFingerprint(requests), canonical);
    server.start();

    if (listen_only) {
        // boundEndpoint resolves tcp:<host>:0 to the real port - the
        // one thing the user cannot know before start().
        const std::string bound = server.boundEndpoint().spec();
        inform("fleet coordinator on %s: %zu keys to lease; start "
               "workers with --fleet %s --shard-index I (I < %u), "
               "joining when drained",
               bound.c_str(), plan.pending.size(), bound.c_str(),
               opt.shards);
        while (!server.drained()) {
            server.exitOnConflict();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
        // Linger until the workers have collected their `# drained`
        // replies (each closes its connection on exit): stopping the
        // instant the last key retires would turn every worker's
        // final lease request into a connection error. Bounded so a
        // wedged worker cannot stall the join.
        for (int i = 0; i < 50 && server.liveConnections() > 0; ++i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    } else {
        // The workers all run on this machine: divide the thread
        // budget between them instead of letting each one claim
        // every core. sweepJobs() is the budget so MIGC_JOBS still
        // caps the whole fleet; an explicit --jobs passes through.
        Options worker_opt = opt;
        if (worker_opt.jobs == 0)
            worker_opt.jobs = std::max(1u, sweepJobs() / opt.shards);

        std::vector<pid_t> children;
        children.reserve(opt.shards);
        for (unsigned i = 0; i < opt.shards; ++i) {
            std::vector<std::string> args =
                workerArgs(self, worker_opt, i, sock);
            pid_t pid = ::fork();
            fatal_if(pid < 0, "fork failed for worker %u: %s", i,
                     std::strerror(errno));
            if (pid == 0) {
                std::vector<char *> argvec;
                argvec.reserve(args.size() + 1);
                for (std::string &a : args)
                    argvec.push_back(a.data());
                argvec.push_back(nullptr);
                ::execv(self.c_str(), argvec.data());
                std::fprintf(stderr, "exec %s failed: %s\n",
                             self.c_str(), std::strerror(errno));
                std::_Exit(127);
            }
            children.push_back(pid);
        }

        // A dead worker is no longer fatal by itself: its lease
        // expires and the surviving workers absorb the keys. Only an
        // undrained queue after every worker exited means real loss.
        // Workers are reaped in exit order, so one refused for a
        // conflicting push (it exits at once) fails the sweep now.
        unsigned failed = 0;
        for (std::size_t left = children.size(); left > 0; --left) {
            int status = 0;
            const pid_t pid = ::waitpid(-1, &status, 0);
            if (pid < 0)
                break;
            server.exitOnConflict();
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                const auto idx =
                    std::find(children.begin(), children.end(), pid) -
                    children.begin();
                warn("fleet worker %d (pid %d) died (status %d); "
                     "its unfinished leases return to the queue",
                     static_cast<int>(idx), static_cast<int>(pid),
                     status);
                ++failed;
            }
        }
        if (failed > 0 && !server.drained()) {
            server.stop();
            fatal("%u fleet worker%s died with %zu key%s still "
                  "unfinished; every row pushed so far is in %s - "
                  "rerun the same command to finish the rest",
                  failed, failed == 1 ? "" : "s",
                  server.pendingCount(),
                  server.pendingCount() == 1 ? "" : "s",
                  cache.c_str());
        }
    }

    server.exitOnConflict();
    fatal_if(!server.drained(),
             "fleet queue not drained; rerun the same command");
    server.stop();
    printFleetSummary(server);
    if (server.expiredLeases() > 0) {
        inform("fleet: %llu lease%s expired and requeued",
               static_cast<unsigned long long>(
                   server.expiredLeases()),
               server.expiredLeases() == 1 ? "" : "s");
    }
    joinFleet(canonical, cache, server.pushTotals());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    rejectRemovedEnv();

    fatal_if(opt.manifest && opt.shards == 0,
             "--manifest needs --shards");
    fatal_if(!opt.listenSocket.empty() && opt.shards == 0,
             "--listen needs --shards (workers must use indices "
             "below N)");

    // Fleet workers keep their rows in memory (parseArgs refuses
    // their --cache): the cache path only matters to the other
    // roles.
    if (!opt.fleetSocket.empty())
        return runFleetWorker(opt);

    const std::string cache = resolveCachePath(opt);
    fatal_if(cache.empty() && opt.shards > 0,
             "a fleet needs a cache file to store its results in "
             "(unset MIGC_NO_CACHE or pass --cache)");

    if (!opt.exportPath.empty()) {
        fatal_if(cache.empty(),
                 "--export needs a cache file (unset MIGC_NO_CACHE or "
                 "pass --cache)");
        RunCache rc(cache);
        // A cache that loaded as foreign holds no row; exporting it
        // would report an empty copy as a success.
        fatal_if(std::strcmp(rc.loadedFormatName(), "foreign") == 0,
                 "could not export %s: it is not a v4 cache (text caches "
                 "of older builds are no longer read)",
                 cache.c_str());
        const CacheFormat fmt = opt.cacheFormat == "csv"
                                    ? CacheFormat::csv
                                    : CacheFormat::v4;
        // exportFile() refuses the cache itself, by name or as the
        // same file.
        fatal_if(!rc.exportFile(opt.exportPath, fmt),
                 "could not export to %s", opt.exportPath.c_str());
        std::printf("wrote %s as %s (%zu rows; source format %s)\n",
                    opt.exportPath.c_str(), cacheFormatName(fmt),
                    rc.size(), rc.loadedFormatName());
        return 0;
    }

    if (opt.manifest) {
        const std::string self = selfExePath(argv[0]);
        // The socket a plain coordinator run would bind - unless
        // --listen named an endpoint, which passes through verbatim
        // (tcp: for multi-host fleets).
        const std::string sock = opt.listenSocket.empty()
                                     ? fleetSocketPath(cache)
                                     : opt.listenSocket;
        const bool tcp =
            parseEndpoint(sock).kind == Endpoint::Kind::tcp;
        std::printf(
            "# elastic fleet: start the coordinator first (it owns "
            "the lease queue\n"
            "# and the cache), then one worker per index%s\n"
            "# (workers push their rows over the socket and need no "
            "cache file):\n",
            tcp ? " on any host that can reach it" : " on the same host");
        std::vector<std::string> coord{
            self,           "--grid",  opt.grid,
            "--config",     opt.config, "--cache",
            cache,          "--shards", std::to_string(opt.shards),
            "--listen",     sock};
        if (!opt.workloads.empty()) {
            coord.push_back("--workloads");
            coord.push_back(joinStrings(opt.workloads, ","));
        }
        if (!opt.policies.empty()) {
            coord.push_back("--policies");
            coord.push_back(joinStrings(opt.policies, ","));
        }
        std::printf("%s\n", shellJoin(coord).c_str());
        for (unsigned i = 0; i < opt.shards; ++i)
            std::printf(
                "%s\n",
                shellJoin(workerArgs(self, opt, i, sock)).c_str());
        std::printf(
            "# after a crash, rerun the coordinator line: every "
            "acknowledged push is\n"
            "# in the cache, so only the keys it lacks are "
            "re-enqueued\n");
        return 0;
    }

    if (!opt.listenSocket.empty())
        return coordinateFleet(opt, cache, argv[0],
                               /*listen_only=*/true);

    if (opt.shards > 0)
        return coordinateFleet(opt, cache, argv[0],
                               /*listen_only=*/false);

    return runSweep(opt, cache);
}
