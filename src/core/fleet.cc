#include "core/fleet.hh"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "core/cache_v4.hh"
#include "core/sweep_engine.hh"
#include "serve/serve_protocol.hh"
#include "sim/logging.hh"

namespace migc
{

// ---------------------------------------------------------------------
// FleetQueue
// ---------------------------------------------------------------------

FleetQueue::FleetQueue(std::vector<double> costs,
                       std::vector<std::uint32_t> pending,
                       FleetConfig cfg)
    : cfg_(cfg), costs_(std::move(costs)), pending_(std::move(pending)),
      completed_(costs_.size(), false), totalKeys_(pending_.size())
{
    if (cfg_.leaseSize == 0)
        cfg_.leaseSize = 1;
    for (std::uint32_t key : pending_) {
        panic_if(key >= costs_.size(),
                 "fleet pending key %u outside the %zu-point grid",
                 key, costs_.size());
    }
    std::sort(pending_.begin(), pending_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return keyBefore(a, b);
              });
    // A duplicate pending key would be granted (and simulated) twice
    // and then double-counted at completion; the plan step dedupes,
    // so seeing one here is a caller bug.
    for (std::size_t i = 1; i < pending_.size(); ++i) {
        panic_if(pending_[i] == pending_[i - 1],
                 "fleet pending list holds key %u twice", pending_[i]);
    }
}

bool
FleetQueue::keyBefore(std::uint32_t a, std::uint32_t b) const
{
    if (costs_[a] != costs_[b])
        return costs_[a] > costs_[b];
    return a < b;
}

void
FleetQueue::requeue(std::uint32_t key)
{
    auto it = std::lower_bound(pending_.begin(), pending_.end(), key,
                               [this](std::uint32_t lhs,
                                      std::uint32_t rhs) {
                                   return keyBefore(lhs, rhs);
                               });
    pending_.insert(it, key);
}

FleetWorkerStats &
FleetQueue::touch(unsigned worker, std::uint64_t now)
{
    FleetWorkerStats &st = stats_[worker];
    if (st.firstMs == 0 && st.lastMs == 0)
        st.firstMs = now;
    st.lastMs = std::max(st.lastMs, now);
    return st;
}

void
FleetQueue::markCompleted(std::uint32_t key, unsigned worker,
                          std::uint64_t lease_id)
{
    completed_[key] = true;
    ++completedCount_;
    completions_.push_back(Completion{key, worker, lease_id});
}

void
FleetQueue::expire(std::uint64_t now)
{
    for (auto it = leases_.begin(); it != leases_.end();) {
        if (it->second.deadline >= now) {
            ++it;
            continue;
        }
        // The worker missed its renew deadline: presume it dead and
        // put its remaining keys back up for grabs. If it is merely
        // wedged and later reports a completion, done() still
        // accepts the row (re-execution is byte-identical), so
        // expiry can only cost duplicated work, never correctness.
        for (std::uint32_t key : it->second.keys)
            requeue(key);
        stats_[it->second.worker].expired += 1;
        ++expired_;
        it = leases_.erase(it);
    }
}

FleetGrant
FleetQueue::lease(unsigned worker, std::uint64_t now)
{
    expire(now);
    FleetWorkerStats &st = touch(worker, now);

    FleetGrant grant;
    if (drained()) {
        grant.kind = FleetGrant::Kind::drained;
        return grant;
    }

    if (!pending_.empty()) {
        std::size_t n = std::min(cfg_.leaseSize, pending_.size());
        grant.kind = FleetGrant::Kind::work;
        grant.id = nextLease_++;
        grant.renewMs = cfg_.renewMs;
        grant.keys.assign(pending_.begin(), pending_.begin() + n);
        pending_.erase(pending_.begin(), pending_.begin() + n);
        leases_.emplace(grant.id, Lease{worker, now + cfg_.renewMs,
                                        grant.keys});
        st.leases += 1;
        return grant;
    }

    // Pending is empty but keys are still outstanding: steal from
    // the slowest peer - the live lease with the most remaining
    // estimated cost - by shrinking it. The victim works its keys
    // front to back (cost-desc grant order), so taking the tail
    // takes the keys it is least likely to have started; a key it
    // does finish anyway just comes back as a stale done. Stealing
    // from one's own lease is allowed: it only happens when a
    // restarted worker finds its pre-crash lease still ticking, and
    // reclaiming the tail beats waiting out the deadline.
    std::uint64_t victim_id = 0;
    double victim_cost = -1.0;
    for (const auto &[id, l] : leases_) {
        if (l.keys.size() < 2)
            continue; // a single key can't be split
        double remaining = 0.0;
        for (std::uint32_t key : l.keys)
            remaining += costs_[key];
        if (remaining > victim_cost ||
            (remaining == victim_cost && id < victim_id)) {
            victim_cost = remaining;
            victim_id = id;
        }
    }
    if (victim_id == 0) {
        // Every outstanding lease is down to its last key: nothing
        // to split, the worker should ask again shortly (an expiry
        // or the final completions will resolve the wait).
        grant.kind = FleetGrant::Kind::wait;
        grant.waitMs = std::min<std::uint64_t>(
            std::max<std::uint64_t>(cfg_.renewMs / 4, 1), 100);
        return grant;
    }

    Lease &victim = leases_.at(victim_id);
    std::size_t keep = victim.keys.size() - victim.keys.size() / 2;
    grant.kind = FleetGrant::Kind::work;
    grant.id = nextLease_++;
    grant.renewMs = cfg_.renewMs;
    grant.stolen = true;
    grant.keys.assign(victim.keys.begin() + keep, victim.keys.end());
    victim.keys.resize(keep);
    leases_.emplace(grant.id,
                    Lease{worker, now + cfg_.renewMs, grant.keys});
    st.leases += 1;
    st.steals += 1;
    return grant;
}

bool
FleetQueue::done(unsigned worker, std::uint64_t id, std::uint32_t key,
                 std::uint64_t now)
{
    expire(now);
    FleetWorkerStats &st = touch(worker, now);

    if (key >= costs_.size() || completed_[key]) {
        st.staleDones += 1;
        return false;
    }

    auto it = leases_.find(id);
    if (it != leases_.end() && it->second.worker == worker) {
        Lease &l = it->second;
        auto kit = std::find(l.keys.begin(), l.keys.end(), key);
        if (kit != l.keys.end()) {
            l.keys.erase(kit);
            if (l.keys.empty()) {
                leases_.erase(it);
            } else {
                // A completion is the strongest liveness evidence
                // there is; extend the deadline like a renew.
                l.deadline = now + cfg_.renewMs;
            }
            markCompleted(key, worker, id);
            st.runs += 1;
            return true;
        }
    }

    // The lease is gone (expired) or the key was stolen out of it,
    // but the worker really did finish the run and pushed its row
    // before this done. The result is as good as any
    // other - re-execution is byte-identical - so retire the key
    // wherever it currently lives: still pending, or inside another
    // lease (whose holder will learn at its next renew, and at worst
    // report a stale done of its own).
    auto pit = std::find(pending_.begin(), pending_.end(), key);
    if (pit != pending_.end()) {
        pending_.erase(pit);
        markCompleted(key, worker, id);
        st.runs += 1;
        return true;
    }
    for (auto lit = leases_.begin(); lit != leases_.end(); ++lit) {
        Lease &l = lit->second;
        auto kit = std::find(l.keys.begin(), l.keys.end(), key);
        if (kit == l.keys.end())
            continue;
        l.keys.erase(kit);
        if (l.keys.empty())
            leases_.erase(lit);
        markCompleted(key, worker, id);
        st.runs += 1;
        return true;
    }

    // Already retired between our check and now - impossible under
    // the single caller lock, so this is the completed_[] branch's
    // domain; count it stale for symmetry.
    st.staleDones += 1;
    return false;
}

FleetQueue::Renewal
FleetQueue::renew(unsigned worker, std::uint64_t id, std::uint64_t now)
{
    expire(now);
    touch(worker, now);

    Renewal r;
    auto it = leases_.find(id);
    if (it == leases_.end() || it->second.worker != worker)
        return r; // expired or never theirs: ok=false
    it->second.deadline = now + cfg_.renewMs;
    r.ok = true;
    r.keys = it->second.keys;
    return r;
}

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

std::uint64_t
fleetNowMs()
{
    using namespace std::chrono;
    // +1 so the epoch itself is never returned: FleetQueue treats
    // firstMs == 0 as "never seen".
    static const steady_clock::time_point t0 = steady_clock::now();
    return static_cast<std::uint64_t>(
               duration_cast<milliseconds>(steady_clock::now() - t0)
                   .count()) +
           1;
}

// ---------------------------------------------------------------------
// FleetServer
// ---------------------------------------------------------------------

namespace
{

/** " k1 k2 ..." with a leading space per key (empty for no keys). */
std::string
formatKeys(const std::vector<std::uint32_t> &keys)
{
    std::string out;
    for (std::uint32_t key : keys) {
        out += ' ';
        out += std::to_string(key);
    }
    return out;
}

} // namespace

FleetServer::FleetServer(std::string endpoint_spec, FleetQueue queue,
                         std::uint64_t grid_hash, RunCache &store)
    : path_(std::move(endpoint_spec)), queue_(std::move(queue)),
      gridHash_(grid_hash), store_(store)
{}

FleetServer::~FleetServer()
{
    stop();
}

void
FleetServer::start()
{
    listener_.bind(parseEndpoint(path_));
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
FleetServer::stop()
{
    if (stopping_.exchange(true))
        return;
    listener_.stop(); // unblocks the accept loop
    {
        std::lock_guard<std::mutex> lk(connMu_);
        for (const auto &s : connStreams_)
            s->shutdown();
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        threads.swap(connThreads_);
    }
    for (std::thread &t : threads)
        t.join();
}

void
FleetServer::acceptLoop()
{
    for (;;) {
        std::unique_ptr<Stream> conn = listener_.accept();
        if (conn == nullptr)
            return; // stopped (or a non-transient accept error)
        std::shared_ptr<Stream> stream(std::move(conn));
        std::lock_guard<std::mutex> lk(connMu_);
        connStreams_.push_back(stream);
        liveConns_.fetch_add(1, std::memory_order_relaxed);
        connThreads_.emplace_back([this, stream] {
            serveConnection(stream);
            liveConns_.fetch_sub(1, std::memory_order_relaxed);
        });
    }
}

void
FleetServer::serveConnection(std::shared_ptr<Stream> stream)
{
    std::string buf;
    char chunk[4096];
    for (;;) {
        ssize_t n = stream->read(chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            const std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            // push carries a raw payload on the connection, so it
            // dispatches here where the stream is in hand; every
            // pure-line verb goes through handleLine.
            ServeRequest req = parseServeRequest(line);
            std::string reply;
            if (req.kind == ServeRequest::Kind::push) {
                if (!handlePush(req, buf, *stream, reply))
                    return;
            } else {
                reply = handleLine(line);
            }
            if (!reply.empty() && !stream->writeAll(reply))
                return;
        }
    }
}

bool
FleetServer::handlePush(const ServeRequest &req, std::string &buf,
                        Stream &stream, std::string &reply)
{
    // Consume the announced payload unconditionally - even a push
    // this coordinator will refuse must drain its bytes, or the
    // line framing of everything after it is garbage.
    std::string payload;
    const std::size_t from_buf =
        std::min<std::size_t>(buf.size(), req.bytes);
    payload.assign(buf, 0, from_buf);
    buf.erase(0, from_buf);
    char chunk[65536];
    while (payload.size() < req.bytes) {
        const std::size_t want = std::min<std::size_t>(
            sizeof(chunk), req.bytes - payload.size());
        ssize_t n = stream.read(chunk, want);
        if (n <= 0)
            return false; // connection died mid-payload
        payload.append(chunk, static_cast<std::size_t>(n));
    }

    const std::uint64_t cksum =
        v4Checksum(payload.data(), payload.size());
    if (cksum != req.checksum) {
        // A damaged upload must never reach the store: the client
        // resyncs and retransmits on a mismatch reply.
        reply = csprintf(
            "# error: push payload checksum mismatch (announced "
            "%llu, computed %llu); %llu bytes dropped\n",
            static_cast<unsigned long long>(req.checksum),
            static_cast<unsigned long long>(cksum),
            static_cast<unsigned long long>(req.bytes));
        return true;
    }

    // Only one v4 segment may reach the store: another format,
    // several segments or trailing bytes are refused whole.
    // parseV4Segment reads typed columns, so it parses an 8-byte
    // aligned copy.
    std::vector<std::uint64_t> words((payload.size() + 7) / 8);
    if (!payload.empty())
        std::memcpy(words.data(), payload.data(), payload.size());
    V4SegmentView seg;
    std::string why;
    if (!parseV4Segment(reinterpret_cast<const char *>(words.data()),
                        payload.size(), seg, &why) ||
        seg.bytes != payload.size()) {
        if (why.empty()) {
            why = csprintf("%zu bytes follow the segment",
                           payload.size() - seg.bytes);
        }
        reply = csprintf("# error: push payload is not one v4 "
                         "segment (%s); %llu bytes dropped\n",
                         why.c_str(),
                         static_cast<unsigned long long>(req.bytes));
        return true;
    }

    std::lock_guard<std::mutex> lk(storeMu_);
    const RunCache::MergeStats merged = store_.mergeSegment(seg);
    if (merged.conflicts > 0) {
        // Rows are a pure function of their key, so a second,
        // different row for one key means mismatched builds or a
        // nondeterministic simulator: nothing of this push is kept,
        // and the coordinator fails (exitOnConflict).
        const std::string what = csprintf(
            "push from worker %u: the row for %s differs from the "
            "stored row for the same (config, workload, policy) - "
            "the workers did not run the same deterministic sweep; "
            "refused the whole push",
            req.worker, merged.firstConflict.c_str());
        if (conflict_.empty())
            conflict_ = what;
        reply = "# error: push conflict: " + what + "\n";
        return true;
    }
    // `# pushed` promises the rows are in the file: append them (the
    // first write, or one after a torn tail, compacts instead).
    if (!store_.checkpoint()) {
        reply = "# error: push store failed: the canonical cache "
                "could not be written\n";
        return true;
    }
    pushTotals_.pushes += 1;
    pushTotals_.rows += merged.rows;
    pushTotals_.duplicates += merged.duplicates;
    reply = csprintf("# pushed %llu\n",
                     static_cast<unsigned long long>(req.bytes));
    return true;
}

FleetServer::PushTotals
FleetServer::pushTotals() const
{
    std::lock_guard<std::mutex> lk(storeMu_);
    return pushTotals_;
}

void
FleetServer::exitOnConflict() const
{
    std::string what;
    {
        std::lock_guard<std::mutex> lk(storeMu_);
        what = conflict_;
    }
    fatal_if(!what.empty(), "%s", what.c_str());
}

std::string
FleetServer::handleLine(const std::string &line)
{
    ServeRequest req = parseServeRequest(line);
    const std::uint64_t now = fleetNowMs();
    std::lock_guard<std::mutex> lk(mu_);
    switch (req.kind) {
      case ServeRequest::Kind::none:
        return "";
      case ServeRequest::Kind::lease: {
        if (req.gridHash != gridHash_) {
            // A worker that built a different grid would interpret
            // every leased index as some other run; refuse loudly.
            return csprintf("# error: grid fingerprint mismatch "
                            "(coordinator %llu, worker %llu) - "
                            "worker flags must rebuild the "
                            "coordinator's grid exactly\n",
                            static_cast<unsigned long long>(gridHash_),
                            static_cast<unsigned long long>(
                                req.gridHash));
        }
        FleetGrant g = queue_.lease(req.worker, now);
        switch (g.kind) {
          case FleetGrant::Kind::drained:
            return "# drained\n";
          case FleetGrant::Kind::wait:
            return csprintf("# wait %llu\n",
                            static_cast<unsigned long long>(g.waitMs));
          case FleetGrant::Kind::work:
            return csprintf(
                "# lease %llu %llu %s%s\n",
                static_cast<unsigned long long>(g.id),
                static_cast<unsigned long long>(g.renewMs),
                g.stolen ? "stolen" : "fresh",
                formatKeys(g.keys).c_str());
        }
        return "# error: unreachable\n";
      }
      case ServeRequest::Kind::done:
        return queue_.done(req.worker, req.leaseId, req.key, now)
                   ? "# ok\n"
                   : "# stale\n";
      case ServeRequest::Kind::renew: {
        FleetQueue::Renewal r =
            queue_.renew(req.worker, req.leaseId, now);
        if (!r.ok)
            return "# stale\n";
        return csprintf("# renew %llu%s\n",
                        static_cast<unsigned long long>(req.leaseId),
                        formatKeys(r.keys).c_str());
      }
      case ServeRequest::Kind::stats:
        return csprintf(
            "# fleet total=%zu completed=%zu pending=%zu leased=%zu "
            "workers=%zu expired=%llu\n",
            queue_.totalKeys(), queue_.completedCount(),
            queue_.pendingCount(), queue_.activeLeases(),
            queue_.workerStats().size(),
            static_cast<unsigned long long>(queue_.expiredLeases()));
      case ServeRequest::Kind::error:
        return csprintf("# error: %s\n", req.error.c_str());
      case ServeRequest::Kind::push:
        // Its payload framing needs the connection stream;
        // serveConnection dispatches it before reaching here.
        return "# error: push needs a socket connection (its payload "
               "follows the request line)\n";
      default:
        // get/match/wait/help are serve-layer verbs; a fleet
        // coordinator has no cache to answer them from.
        return csprintf("# error: '%s' is a serve verb; the fleet "
                        "coordinator answers lease/done/renew/stats\n",
                        serveTokens(line).front().c_str());
    }
}

bool
FleetServer::drained() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.drained();
}

std::map<unsigned, FleetWorkerStats>
FleetServer::workerStats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.workerStats();
}

std::vector<FleetQueue::Completion>
FleetServer::completions() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.completions();
}

std::size_t
FleetServer::pendingCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.pendingCount();
}

std::uint64_t
FleetServer::expiredLeases() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.expiredLeases();
}

// ---------------------------------------------------------------------
// FleetClient
// ---------------------------------------------------------------------

FleetClient::FleetClient(std::string endpoint_spec, unsigned worker,
                         std::uint64_t grid_hash,
                         FleetClientOptions opts)
    : ep_(parseEndpoint(endpoint_spec)), worker_(worker),
      gridHash_(grid_hash), opts_(opts)
{
    if (opts_.connectAttempts == 0)
        opts_.connectAttempts = 1;
    // Workers may be exec'd before the coordinator binds (the
    // manifest workflow starts them from a shell script): retry for
    // a few seconds before declaring the coordinator missing.
    std::string error = "no connect attempt made";
    for (unsigned attempt = 0; attempt < opts_.connectAttempts;
         ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts_.connectDelayMs));
        }
        std::lock_guard<std::mutex> lk(txnMu_);
        if (reconnectLocked(&error))
            break;
    }
    fatal_if(stream_ == nullptr,
             "could not reach the fleet coordinator at %s after %u "
             "attempts: %s",
             ep_.spec().c_str(), opts_.connectAttempts,
             error.c_str());
    renewer_ = std::thread([this] { renewLoop(); });
}

FleetClient::~FleetClient()
{
    {
        std::lock_guard<std::mutex> lk(leaseMu_);
        stopRenewer_ = true;
    }
    leaseCv_.notify_all();
    if (renewer_.joinable())
        renewer_.join();
    std::lock_guard<std::mutex> lk(txnMu_);
    stream_.reset();
}

bool
FleetClient::reconnectLocked(std::string *error)
{
    // A fresh connection always starts with an empty receive buffer:
    // whatever framing state the old connection had is dead with it.
    rxBuf_.clear();
    std::unique_ptr<Stream> s = connectTo(ep_, error);
    if (s == nullptr) {
        stream_.reset();
        return false;
    }
    if (opts_.wrap)
        s = opts_.wrap(std::move(s));
    stream_ = std::move(s);
    return true;
}

void
FleetClient::dropConnectionLocked()
{
    stream_.reset();
    rxBuf_.clear();
}

bool
FleetClient::readLineLocked(std::string &line)
{
    std::size_t nl;
    while ((nl = rxBuf_.find('\n')) == std::string::npos) {
        char chunk[4096];
        ssize_t n = stream_->read(chunk, sizeof(chunk));
        if (n <= 0)
            return false;
        rxBuf_.append(chunk, static_cast<std::size_t>(n));
    }
    line = rxBuf_.substr(0, nl);
    rxBuf_.erase(0, nl + 1);
    return true;
}

std::string
FleetClient::transactLocked(const std::string &line)
{
    // The connection is disposable: any transport failure drops it,
    // reconnects, and retransmits. Every fleet verb is idempotent
    // under retry (file comment in fleet.hh), so at-least-once
    // delivery is safe.
    std::string error = "not connected";
    for (unsigned attempt = 0; attempt <= opts_.maxRetries;
         ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (stream_ == nullptr && !reconnectLocked(&error))
            continue;
        if (!stream_->writeAll(line)) {
            error = "connection lost mid-request";
            dropConnectionLocked();
            continue;
        }
        std::string reply;
        if (!readLineLocked(reply)) {
            error = "connection lost before the reply";
            dropConnectionLocked();
            continue;
        }
        return reply;
    }
    fatal("fleet coordinator at %s unreachable after %u retries "
          "of '%s': %s",
          ep_.spec().c_str(), opts_.maxRetries,
          line.substr(0, line.find('\n')).c_str(), error.c_str());
    return "";
}

std::string
FleetClient::transact(const std::string &line)
{
    std::lock_guard<std::mutex> lk(txnMu_);
    return transactLocked(line);
}

std::string
FleetClient::transactValidated(
    const std::string &line,
    const std::function<bool(const std::string &)> &valid)
{
    std::lock_guard<std::mutex> lk(txnMu_);
    std::string reply;
    for (unsigned attempt = 0; attempt <= opts_.maxRetries;
         ++attempt) {
        reply = transactLocked(line);
        if (valid(reply))
            return reply;
        // A reply this request can't have produced means the
        // request/reply pairing on this connection is no longer
        // trustworthy (a torn, duplicated, or corrupted frame):
        // resync by retransmitting on a fresh connection.
        dropConnectionLocked();
    }
    fatal("fleet reply to '%s' still malformed after %u resyncs "
          "(last reply: %s)",
          line.substr(0, line.find('\n')).c_str(), opts_.maxRetries,
          reply.c_str());
    return reply;
}

FleetGrant
FleetClient::lease()
{
    const std::string request = csprintf(
        "lease %u %llu\n", worker_,
        static_cast<unsigned long long>(gridHash_));
    const std::size_t grid_size = opts_.gridSize;
    auto valid = [grid_size](const std::string &reply) {
        std::vector<std::string> tok = serveTokens(reply);
        if (tok.size() < 2 || tok[0] != "#")
            return false;
        if (tok[1] == "drained")
            return tok.size() == 2;
        if (tok[1] == "wait") {
            std::uint64_t ms;
            return tok.size() == 3 && parseU64(tok[2], ms);
        }
        if (tok[1] == "error:") {
            // Only the coordinator's genuine refusals surface; an
            // error a corrupted *request* provoked (unknown
            // command, bad operand) retransmits instead.
            return reply.rfind("# error: grid fingerprint", 0) == 0;
        }
        if (tok[1] != "lease" || tok.size() < 6)
            return false;
        std::uint64_t id, renew_ms;
        if (!parseU64(tok[2], id) || id == 0 ||
            !parseU64(tok[3], renew_ms))
            return false;
        if (tok[4] != "fresh" && tok[4] != "stolen")
            return false;
        for (std::size_t i = 5; i < tok.size(); ++i) {
            std::uint64_t key;
            if (!parseU64(tok[i], key))
                return false;
            // A key outside the grid is a torn frame, not a grant:
            // handing it to the engine would panic the worker.
            if (grid_size > 0 && key >= grid_size)
                return false;
            if (key > UINT32_MAX)
                return false;
        }
        return true;
    };
    for (;;) {
        std::string reply = transactValidated(request, valid);
        std::vector<std::string> tok = serveTokens(reply);
        fatal_if(tok[1] == "error:", "fleet lease refused: %s",
                 reply.c_str());
        if (tok[1] == "drained") {
            FleetGrant g;
            g.kind = FleetGrant::Kind::drained;
            return g;
        }
        if (tok[1] == "wait") {
            std::uint64_t ms =
                std::strtoull(tok[2].c_str(), nullptr, 10);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(std::max<std::uint64_t>(
                    1, std::min<std::uint64_t>(ms, 1000))));
            continue;
        }
        FleetGrant g;
        g.kind = FleetGrant::Kind::work;
        g.id = std::strtoull(tok[2].c_str(), nullptr, 10);
        g.renewMs = std::strtoull(tok[3].c_str(), nullptr, 10);
        g.stolen = tok[4] == "stolen";
        for (std::size_t i = 5; i < tok.size(); ++i) {
            g.keys.push_back(static_cast<std::uint32_t>(
                std::strtoul(tok[i].c_str(), nullptr, 10)));
        }
        {
            std::lock_guard<std::mutex> lk(leaseMu_);
            activeLease_ = g.id;
            renewMs_ = std::max<std::uint64_t>(g.renewMs, 3);
            owned_.clear();
            owned_.insert(g.keys.begin(), g.keys.end());
            leaseStale_ = false;
        }
        leaseCv_.notify_all();
        return g;
    }
}

bool
FleetClient::done(std::uint64_t id, std::uint32_t key)
{
    std::string reply = transactValidated(
        csprintf("done %u %llu %u\n", worker_,
                 static_cast<unsigned long long>(id), key),
        [](const std::string &r) {
            // "# error" replies retransmit too: they mean the
            // coordinator never processed this done (a corrupted
            // request line), and losing the report would requeue a
            // finished key.
            return r == "# ok" || r == "# stale";
        });
    {
        std::lock_guard<std::mutex> lk(leaseMu_);
        if (id == activeLease_)
            owned_.erase(key);
    }
    return reply == "# ok";
}

void
FleetClient::pushSegment(std::uint64_t id, const std::string &bytes)
{
    fatal_if(bytes.size() > kServeMaxPushBytes,
             "push segment is %zu bytes; the push protocol caps "
             "uploads at %llu",
             bytes.size(),
             static_cast<unsigned long long>(kServeMaxPushBytes));
    const std::string header = csprintf(
        "push %u %llu %zu %llu\n", worker_,
        static_cast<unsigned long long>(id), bytes.size(),
        static_cast<unsigned long long>(
            v4Checksum(bytes.data(), bytes.size())));
    const std::string want =
        csprintf("# pushed %zu", bytes.size());

    std::lock_guard<std::mutex> lk(txnMu_);
    std::string error = "not connected";
    for (unsigned attempt = 0; attempt <= opts_.maxRetries;
         ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (stream_ == nullptr && !reconnectLocked(&error))
            continue;
        if (!stream_->writeAll(header) || !stream_->writeAll(bytes)) {
            error = "connection lost mid-upload";
            dropConnectionLocked();
            continue;
        }
        std::string reply;
        if (!readLineLocked(reply)) {
            error = "connection lost before the push reply";
            dropConnectionLocked();
            continue;
        }
        if (reply == want)
            return;
        // A conflict is a verdict on the rows, not on the frame: a
        // retransmit would be refused the same way.
        fatal_if(reply.rfind("# error: push conflict", 0) == 0,
                 "fleet push refused: %s", reply.c_str());
        // Checksum mismatch, a failed store, or a desynced reply: the
        // frame did not land as sent; retransmit whole.
        error = reply;
        dropConnectionLocked();
    }
    fatal("push (%zu bytes) to %s failed after %u attempts: %s",
          bytes.size(), ep_.spec().c_str(), opts_.maxRetries + 1,
          error.c_str());
}

bool
FleetClient::ownedNow(std::uint64_t id, std::uint32_t key) const
{
    std::lock_guard<std::mutex> lk(leaseMu_);
    return !leaseStale_ && id == activeLease_ &&
           owned_.count(key) != 0;
}

void
FleetClient::finishLease()
{
    std::lock_guard<std::mutex> lk(leaseMu_);
    activeLease_ = 0;
    owned_.clear();
}

void
FleetClient::renewLoop()
{
    std::unique_lock<std::mutex> lk(leaseMu_);
    for (;;) {
        if (stopRenewer_)
            return;
        if (activeLease_ == 0 || leaseStale_) {
            leaseCv_.wait(lk);
            continue;
        }
        const std::uint64_t id = activeLease_;
        const auto interval =
            std::chrono::milliseconds(std::max<std::uint64_t>(
                1, renewMs_ / 3));
        leaseCv_.wait_for(lk, interval);
        if (stopRenewer_)
            return;
        if (activeLease_ != id || leaseStale_)
            continue;
        // Transact without the lease lock (done() also takes it).
        lk.unlock();
        std::string reply = transactValidated(
            csprintf("renew %u %llu\n", worker_,
                     static_cast<unsigned long long>(id)),
            [id](const std::string &r) {
                if (r == "# stale")
                    return true;
                std::vector<std::string> tok = serveTokens(r);
                if (tok.size() < 3 || tok[0] != "#" ||
                    tok[1] != "renew")
                    return false;
                std::uint64_t got;
                if (!parseU64(tok[2], got) || got != id)
                    return false;
                for (std::size_t i = 3; i < tok.size(); ++i) {
                    std::uint64_t key;
                    if (!parseU64(tok[i], key))
                        return false;
                }
                return true;
            });
        std::vector<std::string> tok = serveTokens(reply);
        lk.lock();
        if (activeLease_ != id)
            continue; // lease changed under us; reply is moot
        if (tok.size() >= 2 && tok[1] == "renew") {
            // The reply's key list is authoritative: drop anything
            // the coordinator stole since the last exchange.
            std::set<std::uint32_t> still;
            for (std::size_t i = 3; i < tok.size(); ++i) {
                still.insert(static_cast<std::uint32_t>(
                    std::strtoul(tok[i].c_str(), nullptr, 10)));
            }
            std::set<std::uint32_t> kept;
            for (std::uint32_t key : owned_) {
                if (still.count(key))
                    kept.insert(key);
            }
            owned_.swap(kept);
        } else {
            // "# stale" (or noise): the lease expired server-side;
            // stop running its keys and let the main loop fetch a
            // fresh lease.
            leaseStale_ = true;
        }
    }
}

} // namespace migc
