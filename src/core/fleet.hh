/**
 * @file
 * The elastic fleet: a lease-based work queue for coordinated
 * multi-process sweeps.
 *
 * A static split of the grid by key hash would let one slow or
 * crashed worker own its slice forever, so the sweep makespan would
 * be the straggler's wall clock. Instead a coordinator owns the
 * ordered run-key list (longest-estimated-job-first) and workers
 * lease small ranges of it over a socket (AF_UNIX or TCP, see
 * serve/transport.hh), so assignment follows measured progress
 * instead of a fork-time guess.
 *
 * Three mechanisms bound the makespan:
 *
 *  - Leases, not ownership. A lease is a short list of grid indices
 *    with a renew deadline. Workers report each completion (`done`),
 *    renew in the background, and come back for more when the lease
 *    drains - a fast worker simply takes more leases.
 *
 *  - Work stealing. When the pending queue is empty but leases are
 *    outstanding, an idle worker's `lease` request shrinks the lease
 *    of the slowest peer (the one with the most remaining estimated
 *    cost) and grants the stolen tail, so no worker idles while
 *    another still holds more than one key.
 *
 *  - Crash-safe expiry. A worker that misses its renew deadline
 *    (SIGKILL, hang, dropped socket) has its remaining keys silently
 *    requeued. Its finished rows are already in the coordinator's
 *    file (see push below), and re-execution of an unreported key is
 *    byte-identical (the run-identity contract), so the coordinator
 *    dedupes any overlap - a killed worker costs only its unleased
 *    tail.
 *
 * FleetQueue is the deterministic core: no clock, no socket, no
 * thread - every call takes `now` in milliseconds, so unit tests
 * replay lease/steal/expiry schedules exactly. FleetServer wraps it
 * in a socket front end (serve_protocol verbs `lease`/`done`/
 * `renew`/`stats`/`push`); FleetClient is the worker side used by
 * SweepEngine::runFleet.
 *
 * Result rows travel one way, the same for a local fleet and a
 * multi-host one (a `tcp:<host>:<port>` endpoint instead of a socket
 * path - both sides parse the spec through serve/transport.hh). A
 * worker keeps its rows in memory and writes no file; for each key
 * it finishes, it `push`es one v4 segment holding that key's row
 * (cache_v4-checksummed) *before* its `done`. The coordinator checks
 * the checksum and that the payload is exactly one v4 segment,
 * merges it into the one RunCache it opened on the canonical cache,
 * and appends it to that file before replying `# pushed` - so a
 * reported key is always in the canonical file, a coordinator crash
 * loses nothing it acknowledged (a rerun plans from that file), and
 * the join at drain is the cache's ordinary compaction. A pushed row
 * that differs from the stored row for its key is refused whole,
 * named in the reply, and fails the coordinator: the workers did
 * not run the same deterministic sweep.
 *
 * FleetClient treats the connection as disposable: any transport
 * error, torn frame, or reply that fails validation drops the
 * socket, reconnects, and retransmits (bounded; then fatal with the
 * last error). Every verb is idempotent under retry - a duplicated
 * `done` is counted stale, a re-pushed segment merges as duplicates,
 * an orphaned lease expires - which is what the fault-injection
 * suite (tests/test_fleet_faults.cc) leans on.
 *
 * Before the first lease, the coordinator plans the grid from the
 * canonical cache with planSweep (sweep_engine.hh), the plan step a
 * single-process sweep runs too: it decides which grid points the
 * queue still has to serve and what each is expected to cost. A
 * rerun after a crash is exactly that step: every row pushed before
 * the crash is in the canonical file, so only the keys no worker
 * ever pushed come back pending.
 */

#ifndef MIGC_CORE_FLEET_HH
#define MIGC_CORE_FLEET_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/transport.hh"

namespace migc
{

struct ServeRequest; // serve/serve_protocol.hh
class RunCache;      // core/sweep_engine.hh

/** Tuning for a fleet sweep; the coordinator's flags land here. */
struct FleetConfig
{
    /** Keys granted per lease. Small leases keep the steal
     *  granularity fine; the per-lease round trip is microseconds
     *  against multi-millisecond runs. */
    std::size_t leaseSize = 2;

    /** Renew deadline in ms. A lease not renewed (or advanced by a
     *  `done`) within this window is presumed dead and requeued.
     *  Workers renew every renewMs/3 from a background thread, so
     *  the deadline only fires for crashed or wedged workers. */
    std::uint64_t renewMs = 10000;
};

/** What one `lease` request came back with. */
struct FleetGrant
{
    enum class Kind
    {
        work,    ///< keys granted (possibly stolen from a peer)
        wait,    ///< nothing grantable now; retry after waitMs
        drained, ///< every key is complete; the worker may exit
    };

    Kind kind = Kind::wait;
    std::uint64_t id = 0;      ///< lease id (work only)
    std::uint64_t renewMs = 0; ///< renew deadline for this lease
    std::uint64_t waitMs = 0;  ///< retry hint (wait only)
    bool stolen = false;       ///< carved from a peer's lease
    std::vector<std::uint32_t> keys; ///< grid indices, cost-desc
};

/** Per-worker accounting surfaced in the join summary. */
struct FleetWorkerStats
{
    std::uint64_t runs = 0;      ///< keys this worker completed
    std::uint64_t leases = 0;    ///< leases granted to it
    std::uint64_t steals = 0;    ///< ...of which were stolen tails
    std::uint64_t expired = 0;   ///< leases it lost to the deadline
    std::uint64_t staleDones = 0; ///< completions another worker beat
    std::uint64_t firstMs = 0;   ///< first contact (coordinator clock)
    std::uint64_t lastMs = 0;    ///< last contact

    double wallSeconds() const
    {
        return lastMs > firstMs ? (lastMs - firstMs) / 1000.0 : 0.0;
    }
};

/**
 * The deterministic lease queue. Not internally synchronized and
 * clockless: callers pass `now` (milliseconds on any monotonic
 * clock) into every operation, so FleetServer can wrap it in one
 * mutex and tests can replay any schedule bit-exactly.
 */
class FleetQueue
{
  public:
    /**
     * @p costs holds the scheduler estimate for every grid index
     * (size = grid size); @p pending lists the indices that still
     * need simulating (the plan step already dropped cached keys).
     * Pending keys are served longest-estimate-first, ties by index.
     */
    FleetQueue(std::vector<double> costs,
               std::vector<std::uint32_t> pending, FleetConfig cfg);

    /**
     * Grant work to @p worker: pending keys if any remain, else a
     * tail stolen from the outstanding lease with the most remaining
     * estimated cost (when it still holds >1 key), else `wait`;
     * `drained` once every key is complete.
     */
    FleetGrant lease(unsigned worker, std::uint64_t now);

    /**
     * Worker @p worker finished grid index @p key under lease @p id.
     * A completion is accepted even when the lease has expired or
     * the key was stolen and re-leased elsewhere - the row was
     * pushed before the `done` and re-execution is byte-identical,
     * so the first completion wins and later ones are counted
     * stale. @return true when this call retired the key.
     */
    bool done(unsigned worker, std::uint64_t id, std::uint32_t key,
              std::uint64_t now);

    struct Renewal
    {
        /** False when the lease no longer exists (expired or fully
         *  consumed); the worker should discard its remaining keys
         *  and request a fresh lease. */
        bool ok = false;

        /** The authoritative remaining key set: anything the worker
         *  holds that is absent here was stolen. */
        std::vector<std::uint32_t> keys;
    };

    /** Extend lease @p id's deadline to now + renewMs. */
    Renewal renew(unsigned worker, std::uint64_t id, std::uint64_t now);

    /** Requeue every lease whose deadline passed. Called internally
     *  by lease/done/renew; public so a coordinator can tick it. */
    void expire(std::uint64_t now);

    /** True once every key has been completed. */
    bool drained() const { return completedCount_ == totalKeys_; }

    std::size_t totalKeys() const { return totalKeys_; }
    std::size_t completedCount() const { return completedCount_; }
    std::size_t pendingCount() const { return pending_.size(); }
    std::size_t activeLeases() const { return leases_.size(); }
    std::uint64_t expiredLeases() const { return expired_; }

    const std::map<unsigned, FleetWorkerStats> &workerStats() const
    {
        return stats_;
    }

    /** Who first completed each key, in completion order - the
     *  deterministic record the accounting and tests read. */
    struct Completion
    {
        std::uint32_t key;
        unsigned worker;
        std::uint64_t lease;
    };

    const std::vector<Completion> &completions() const
    {
        return completions_;
    }

  private:
    struct Lease
    {
        unsigned worker;
        std::uint64_t deadline;
        std::vector<std::uint32_t> keys; ///< grant order (cost desc)
    };

    /** Insert @p key into pending_, keeping cost-desc order. */
    void requeue(std::uint32_t key);

    /** Keys-before ordering: higher estimate first, index breaks
     *  ties so the schedule is reproducible. */
    bool keyBefore(std::uint32_t a, std::uint32_t b) const;

    void markCompleted(std::uint32_t key, unsigned worker,
                       std::uint64_t lease_id);

    FleetWorkerStats &touch(unsigned worker, std::uint64_t now);

    FleetConfig cfg_;
    std::vector<double> costs_;
    std::vector<std::uint32_t> pending_;
    std::vector<bool> completed_;
    std::size_t totalKeys_ = 0;
    std::size_t completedCount_ = 0;
    std::map<std::uint64_t, Lease> leases_;
    std::uint64_t nextLease_ = 1;
    std::uint64_t expired_ = 0;
    std::map<unsigned, FleetWorkerStats> stats_;
    std::vector<Completion> completions_;
};

/** Milliseconds on the process-wide monotonic clock (the `now` the
 *  socket layer feeds FleetQueue). */
std::uint64_t fleetNowMs();

/**
 * Socket front end over one FleetQueue: binds a stream socket
 * (unix:<path>, tcp:<host>:<port>, or a bare AF_UNIX path - see
 * serve/transport.hh), accepts any number of workers, and answers
 * the `lease`/`done`/`renew`/`stats` verbs of the serve protocol
 * (serve_protocol.hh), one request line per response, plus `push`
 * (merge a checksummed one-segment upload into the store and append
 * it to the store's file). All queue access is serialized on one
 * mutex and all store access on another; `handleLine` is also
 * public so tests can drive the line protocol without a socket.
 */
class FleetServer
{
  public:
    /** @p grid_hash fingerprints the coordinator's request grid
     *  (gridFingerprint in sweep_engine.hh); a worker whose `lease`
     *  carries a different hash built a different grid and is
     *  refused rather than handed meaningless indices. Pushes merge
     *  into @p store - the cache the coordinator opened on the
     *  canonical file and planned from - and are appended to its
     *  file before they are acknowledged. The caller must not touch
     *  @p store until stop() returns. */
    FleetServer(std::string endpoint_spec, FleetQueue queue,
                std::uint64_t grid_hash, RunCache &store);

    ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /** Bind, listen, and start the accept thread. Fatal on socket
     *  errors (an unreachable coordinator is never worth a silent
     *  single-process fallback). */
    void start();

    /** Close the listener and every connection; join all threads.
     *  Idempotent; the destructor calls it. */
    void stop();

    /** Answer one protocol line (thread-safe). push is refused
     *  here - its framing needs the connection stream. */
    std::string handleLine(const std::string &line);

    bool drained() const;
    std::map<unsigned, FleetWorkerStats> workerStats() const;
    std::vector<FleetQueue::Completion> completions() const;
    std::size_t pendingCount() const;
    std::uint64_t expiredLeases() const;

    /** The endpoint actually bound (tcp port 0 resolved); valid
     *  after start(). */
    const Endpoint &boundEndpoint() const { return listener_.bound(); }

    /** What `push` stored (accounting for the join summary). */
    struct PushTotals
    {
        std::uint64_t pushes = 0;     ///< pushes acknowledged
        std::uint64_t rows = 0;       ///< rows they added
        std::uint64_t duplicates = 0; ///< rows already stored
    };

    PushTotals pushTotals() const;

    /** Exit non-zero, naming the key, once a push was refused for
     *  conflicting with a stored row; otherwise return. The
     *  coordinator calls it while it waits, so a conflict fails the
     *  sweep at its first conflicting push. */
    void exitOnConflict() const;

    /** Connections currently being served. A drained coordinator
     *  lingers until this hits zero (bounded) so every worker's
     *  final lease request gets its `# drained` answer instead of a
     *  torn connection. */
    std::size_t liveConnections() const
    {
        return liveConns_.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop();
    void serveConnection(std::shared_ptr<Stream> stream);

    /** Consume the push payload from @p buf + @p stream, verify,
     *  store. False when the connection died mid-payload. */
    bool handlePush(const ServeRequest &req, std::string &buf,
                    Stream &stream, std::string &reply);

    std::string path_;
    mutable std::mutex mu_;
    FleetQueue queue_;
    std::uint64_t gridHash_;

    mutable std::mutex storeMu_; ///< guards store_ and what follows
    RunCache &store_;
    PushTotals pushTotals_;
    std::string conflict_; ///< first refused conflict (exitOnConflict)

    Listener listener_;
    std::atomic<std::size_t> liveConns_{0};
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::mutex connMu_;
    std::vector<std::shared_ptr<Stream>> connStreams_;
    std::vector<std::thread> connThreads_;
};

/** Knobs for a FleetClient beyond the identity triple. */
struct FleetClientOptions
{
    /** Grid size for reply validation: a lease reply granting a key
     *  at or past this bound is treated as a torn frame and resynced
     *  rather than handed to the engine (0 = no bound known). */
    std::size_t gridSize = 0;

    /** Wraps every connected stream; the fault-injection tests
     *  interpose their shim here. Identity when empty. */
    StreamWrapper wrap;

    /** Connect retry budget: attempts x delay is how long a worker
     *  waits for the coordinator to bind before giving up. */
    unsigned connectAttempts = 100;
    unsigned connectDelayMs = 100;

    /** Transactions retried across reconnects before fatal. */
    unsigned maxRetries = 8;
};

/**
 * Worker-side protocol client used by SweepEngine::runFleet. One
 * active lease at a time; a background thread renews it every
 * renewMs/3 and refreshes the owned-key set from the reply, so a
 * steal observed at renew time stops the worker before it simulates
 * a stolen key (a missed steal is only wasted work, never a wrong
 * result). All socket transactions are serialized internally.
 *
 * The connection is disposable: any read/write error or reply that
 * fails validation drops it, reconnects, and retransmits the request
 * (every verb is idempotent under retry; see the file comment).
 */
class FleetClient
{
  public:
    /** Connects to @p endpoint_spec (unix:<path>, tcp:<host>:<port>,
     *  or a bare path), retrying for a few seconds so workers may
     *  start before the coordinator binds. Fatal when the
     *  coordinator never appears, naming the last OS error. */
    FleetClient(std::string endpoint_spec, unsigned worker,
                std::uint64_t grid_hash,
                FleetClientOptions opts = FleetClientOptions());

    ~FleetClient();

    FleetClient(const FleetClient &) = delete;
    FleetClient &operator=(const FleetClient &) = delete;

    /** Request work, sleeping through `wait` replies; returns a
     *  `work` or `drained` grant and starts renewing a work grant. */
    FleetGrant lease();

    /** Report a completion. @return false when the coordinator
     *  already counted the key (stale). */
    bool done(std::uint64_t id, std::uint32_t key);

    /** Upload @p segment (one v4 segment holding the rows of keys
     *  just finished) under lease @p id; once it returns, the rows
     *  are in the coordinator's file. Retries like every other verb;
     *  fatal at once when the coordinator refuses the segment as a
     *  conflict, and when it keeps refusing the frame. */
    void pushSegment(std::uint64_t id, const std::string &segment);

    /** Is @p key still this worker's to run under lease @p id? False
     *  once the key was completed, stolen, or the lease went stale. */
    bool ownedNow(std::uint64_t id, std::uint32_t key) const;

    /** Stop renewing the current lease (it is fully processed). */
    void finishLease();

  private:
    /** One request line out, one response line back; txnMu_ held. */
    std::string transact(const std::string &line);

    /** transact, then re-transact (reconnect first) until @p valid
     *  accepts the reply or retries run out (fatal). Guards against
     *  torn/duplicated frames desynchronizing request/reply pairing:
     *  an invalid reply means this connection's framing can no
     *  longer be trusted, so resync = new connection. */
    std::string transactValidated(
        const std::string &line,
        const std::function<bool(const std::string &)> &valid);

    /** transact body under txnMu_ with bounded reconnect. */
    std::string transactLocked(const std::string &line);

    /** Read one '\n'-terminated line from stream_ into rxBuf_;
     *  empty on connection loss. txnMu_ held. */
    bool readLineLocked(std::string &line);

    void dropConnectionLocked();
    bool reconnectLocked(std::string *error);

    void renewLoop();

    Endpoint ep_;
    unsigned worker_;
    std::uint64_t gridHash_;
    FleetClientOptions opts_;

    mutable std::mutex txnMu_; ///< serializes socket transactions
    std::unique_ptr<Stream> stream_;
    std::string rxBuf_;

    mutable std::mutex leaseMu_; ///< guards the active-lease state
    std::condition_variable leaseCv_;
    std::uint64_t activeLease_ = 0;
    std::uint64_t renewMs_ = 0;
    std::set<std::uint32_t> owned_;
    bool leaseStale_ = false;
    bool stopRenewer_ = false;
    std::thread renewer_;
};

} // namespace migc

#endif // MIGC_CORE_FLEET_HH
