/**
 * @file
 * perfbench_harness: the in-process half of the end-to-end benchmark
 * (perfbench/run.py drives it and the service binaries).
 *
 *   perfbench_harness sim_grid --seed N --seconds S --trace 0|1
 *       --workdir DIR --reference ROWS --out RESULT [--spans CSV]
 *       [--dump-rows ROWS]
 *   perfbench_harness serve_gen --seed N --cache FILE --out RESULT
 *   perfbench_harness serve_load --seed N --seconds S --trace 0|1
 *       --socket PATH --cold-rows CSV --out RESULT [--spans CSV]
 *   perfbench_harness serve_inproc --seed N --cache FILE
 *       --out RESULT [--spans CSV]
 *
 * RESULT is one JSON object: attempted, failed, failures, and
 * metrics (value, unit, samples). Exit status is 0 whenever the
 * workload ran; failed output checks are reported in RESULT.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "serve_load.hh"
#include "sim/logging.hh"
#include "sim_grid.hh"
#include "trace.hh"

namespace
{

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr, "perfbench_harness: %s (see main.cc)\n", why);
    return 2;
}

/** Finish a workload run: spans, then the result file. */
int
finish(const std::map<std::string, std::string> &args, const Result &r,
       const SpanRecorder &rec)
{
    auto spans = args.find("--spans");
    if (spans != args.end() && !writeSpans(spans->second, rec.spans())) {
        std::fprintf(stderr, "cannot write %s\n", spans->second.c_str());
        return 1;
    }
    if (!writeFile(args.at("--out"), r.toJson())) {
        std::fprintf(stderr, "cannot write %s\n",
                     args.at("--out").c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage("missing subcommand");
    const std::string cmd = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    auto need = [&args](const char *key) { return args.count(key) != 0; };
    if (!need("--seed"))
        return usage("--seed is required");
    const std::uint64_t seed = std::strtoull(args["--seed"].c_str(),
                                             nullptr, 10);
    const double seconds =
        need("--seconds") ? std::strtod(args["--seconds"].c_str(), nullptr)
                          : 10.0;
    const bool trace = need("--trace") && args["--trace"] == "1";

    // Keep the simulator's progress lines out of the result streams.
    migc::setLogLevel(migc::LogLevel::quiet);
    migc::setInformStream(stderr);

    SpanRecorder rec;
    if (cmd == "sim_grid") {
        if (!need("--workdir") || !need("--reference") || !need("--out"))
            return usage("sim_grid needs --workdir --reference --out");
        SimGridOptions opt;
        opt.seed = seed;
        opt.seconds = seconds;
        opt.trace = trace;
        opt.workdir = args["--workdir"];
        opt.referenceRows = args["--reference"];
        if (need("--dump-rows"))
            opt.dumpRows = args["--dump-rows"];
        return finish(args, runSimGrid(opt, rec), rec);
    }

    ServeOptions opt;
    opt.seed = seed;
    opt.seconds = seconds;
    opt.trace = trace;
    opt.cache = args["--cache"];
    opt.socket = args["--socket"];
    opt.coldRows = args["--cold-rows"];
    if (cmd == "serve_gen") {
        if (!need("--cache") || !need("--out"))
            return usage("serve_gen needs --cache --out");
        Result r;
        std::string why;
        if (!generateServeCache(seed, opt.cache, why))
            r.fail("serve_gen: " + why);
        return finish(args, r, rec);
    }
    if (cmd == "serve_load") {
        if (!need("--socket") || !need("--cold-rows") || !need("--out"))
            return usage("serve_load needs --socket --cold-rows --out");
        return finish(args, runServeLoad(opt, rec), rec);
    }
    if (cmd == "serve_inproc") {
        if (!need("--cache") || !need("--out"))
            return usage("serve_inproc needs --cache --out");
        return finish(args, runServeInProcess(opt, rec), rec);
    }
    return usage("unknown subcommand");
}
