#include "serve/serve_service.hh"

#include <chrono>
#include <exception>

#include "core/cache_v4.hh"
#include "policy/policy_registry.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace migc
{

namespace
{

double
msSince(std::chrono::steady_clock::time_point t0)
{
    using namespace std::chrono;
    return duration_cast<duration<double, std::milli>>(
               steady_clock::now() - t0)
        .count();
}

} // namespace

ServeService::ServeService(SweepEngine &engine)
    : ServeService(engine, Options())
{}

ServeService::ServeService(SweepEngine &engine, Options opts)
    : engine_(engine), opts_(opts)
{
    // Zero-copy start when possible: map the cache file and serve
    // straight from its interned columns, deferring the engine's
    // parsing loader to the first cold miss. Any non-mappable file
    // (appended-but-not-compacted v4, torn tail, missing, or not v4
    // at all, which loads as foreign and serves nothing) takes the
    // classic parse-into-snapshot path.
    const auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<const CacheSnapshot> snap;
    if (!opts_.cachePath.empty()) {
        std::string why;
        if (auto file = MappedCacheV4::map(opts_.cachePath, &why)) {
            snap = CacheSnapshot::fromMappedFile(std::move(file));
            format_ = "v4-mmap";
        } else {
            inform("serve: cache %s is not mmap-servable (%s); "
                   "parsing it instead",
                   opts_.cachePath.c_str(), why.c_str());
        }
    }
    if (snap == nullptr) {
        snap = engine_.snapshot();
        format_ = engine_.cacheFileFormat();
    }
    loadMs_ = msSince(t0);
    snapshot_.store(std::move(snap));

    // A signature is seven formatted fields and a hash: compute each
    // preset's once here, not on every request that names it.
    for (const SimConfig &cfg : SimConfig::presets()) {
        const std::string sig = cfg.signature();
        presets_.emplace(cfg.name, Preset{cfg, sig});
        sigToPreset_.emplace(sig, cfg.name);
    }
    if (opts_.simulate)
        worker_ = std::thread([this] { missWorker(); });
}

ServeService::~ServeService()
{
    {
        std::lock_guard<std::mutex> lk(missMu_);
        stop_ = true;
    }
    missCv_.notify_all();
    drainCv_.notify_all();
    if (worker_.joinable())
        worker_.join();
}

const SimConfig *
ServeService::configFor(const std::string &token,
                        std::string &sig_out) const
{
    auto pit = presets_.find(token);
    if (pit != presets_.end()) {
        sig_out = pit->second.sig;
        return &pit->second.cfg;
    }
    // Not a preset: treat the token as a signature. It is still
    // simulatable if it happens to be a preset's signature.
    sig_out = token;
    auto sit = sigToPreset_.find(token);
    if (sit != sigToPreset_.end())
        return &presets_.at(sit->second).cfg;
    return nullptr;
}

std::string
ServeService::handleGet(const ServeRequest &req)
{
    std::string sig;
    const SimConfig *cfg = configFor(req.config, sig);
    std::shared_ptr<const CacheSnapshot> snap = snapshot_.load();
    // findCsv works on both snapshot representations: a mapped
    // snapshot answers by interned-id binary search with no
    // materialized rows to point at, so the serialization-level
    // query is the one serving interface.
    std::string out;
    if (snap->findCsv(sig, req.workload, req.policy, out)) {
        served_.fetch_add(1, std::memory_order_relaxed);
        out += '\n';
        return out;
    }

    const std::string point = csprintf(
        "%s/%s/%s", req.config.c_str(), req.workload.c_str(),
        req.policy.c_str());
    if (!opts_.simulate)
        return csprintf("# miss %s\n", point.c_str());
    if (cfg == nullptr) {
        return csprintf(
            "# error: %s not cached, and config '%s' is not a preset "
            "(default, paper, test) - cannot simulate it\n",
            point.c_str(), req.config.c_str());
    }
    if (!WorkloadRegistry::instance().known(req.workload)) {
        return csprintf("# error: unknown workload '%s'\n",
                        req.workload.c_str());
    }
    if (!PolicyRegistry::instance().known(req.policy)) {
        return csprintf("# error: unknown policy '%s'\n",
                        req.policy.c_str());
    }

    PointKey key{sig, req.workload, req.policy};
    std::lock_guard<std::mutex> lk(missMu_);
    // Re-check the freshest snapshot under the miss lock: the worker
    // publishes a new snapshot *before* erasing a job from pending_,
    // so a point absent from this load and absent from pending_ has
    // genuinely never been enqueued - each cold grid point enqueues
    // exactly one simulation no matter how many clients ask.
    snap = snapshot_.load();
    if (snap->findCsv(sig, req.workload, req.policy, out)) {
        served_.fetch_add(1, std::memory_order_relaxed);
        out += '\n';
        return out;
    }
    if (pending_.count(key)) {
        return csprintf(
            "# miss %s: simulation already enqueued (wait, then "
            "re-get)\n",
            point.c_str());
    }
    pending_.insert(key);
    queue_.push_back(
        MissJob{*cfg, req.workload, req.policy, std::move(key)});
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    missCv_.notify_one();
    return csprintf(
        "# miss %s: simulation enqueued (wait, then re-get)\n",
        point.c_str());
}

std::string
ServeService::handleMatch(const ServeRequest &req)
{
    // A preset name resolves to that preset's exact signature;
    // anything else globs over section signatures directly (a
    // glob-free signature matches itself literally).
    auto pit = presets_.find(req.config);
    const std::string &sig_pattern =
        pit != presets_.end() ? pit->second.sig : req.config;

    std::shared_ptr<const CacheSnapshot> snap = snapshot_.load();
    std::string out;
    const std::size_t n =
        snap->matchCsv(sig_pattern, req.workload, req.policy, out);
    served_.fetch_add(n, std::memory_order_relaxed);
    out += csprintf("# matched %zu row%s\n", n, n == 1 ? "" : "s");
    return out;
}

std::string
ServeService::handleStats()
{
    std::shared_ptr<const CacheSnapshot> snap = snapshot_.load();
    std::size_t pending;
    std::uint64_t publishes;
    double publish_ms;
    {
        std::lock_guard<std::mutex> lk(missMu_);
        pending = pending_.size();
        publishes = publishes_;
        publish_ms = lastPublishMs_;
    }
    return csprintf(
        "# stats rows=%zu sections=%zu served=%llu "
        "miss-enqueues=%llu pending=%zu simulated=%llu "
        "format=%s load_ms=%.1f publishes=%llu publish_ms=%.1f\n",
        snap->rows(), snap->sectionCount(),
        static_cast<unsigned long long>(served_.load()),
        static_cast<unsigned long long>(enqueued_.load()), pending,
        static_cast<unsigned long long>(
            engine_.simulationsPerformed()),
        format_.c_str(), loadMs_,
        static_cast<unsigned long long>(publishes), publish_ms);
}

std::string
ServeService::handleLine(const std::string &line)
{
    ServeRequest req = parseServeRequest(line);
    switch (req.kind) {
      case ServeRequest::Kind::none:
        return "";
      case ServeRequest::Kind::get:
        return handleGet(req);
      case ServeRequest::Kind::match:
        return handleMatch(req);
      case ServeRequest::Kind::stats:
        return handleStats();
      case ServeRequest::Kind::wait:
        drain();
        return "# drained\n";
      case ServeRequest::Kind::help:
        return serveHelpText();
      case ServeRequest::Kind::error:
        return csprintf("# error: %s\n", req.error.c_str());
      case ServeRequest::Kind::lease:
      case ServeRequest::Kind::done:
      case ServeRequest::Kind::renew:
      case ServeRequest::Kind::push:
        // Fleet verbs share the wire format (serve_protocol.hh) but
        // only a migc_sweep coordinator can answer them: this
        // service has a cache, not a work queue (and must never
        // accept a push payload it would have to discard unframed).
        return "# error: lease/done/renew/push are "
               "fleet-coordinator verbs (migc_sweep); this is a "
               "serve cache\n";
    }
    return csprintf("# error: unhandled request\n");
}

void
ServeService::drain()
{
    std::unique_lock<std::mutex> lk(missMu_);
    drainCv_.wait(lk, [this] {
        return pending_.empty() || stop_;
    });
}

void
ServeService::missWorker()
{
    for (;;) {
        MissJob job;
        {
            std::unique_lock<std::mutex> lk(missMu_);
            missCv_.wait(lk, [this] {
                return stop_ || !queue_.empty();
            });
            if (stop_)
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            engine_.get(job.cfg, job.workload, job.policy);
        } catch (const std::exception &e) {
            warn("simulate-on-miss for %s/%s failed: %s",
                 job.workload.c_str(), job.policy.c_str(), e.what());
        }
        // Publish before erasing from pending_ (see handleGet). On a
        // service that started mmap'd, the first publish is also the
        // switch to a materialized snapshot: engine_.snapshot() made
        // the engine parse the cache file (same rows, plus the fresh
        // one), so nothing the mapped snapshot served is lost.
        const auto t0 = std::chrono::steady_clock::now();
        snapshot_.store(engine_.snapshot());
        const double publish_ms = msSince(t0);
        {
            std::lock_guard<std::mutex> lk(missMu_);
            pending_.erase(job.key);
            ++publishes_;
            lastPublishMs_ = publish_ms;
        }
        drainCv_.notify_all();
    }
}

} // namespace migc
