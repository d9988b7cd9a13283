#include "support/fault_stream.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace migc::test
{

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

std::string
FaultPlan::trace() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return trace_;
}

void
FaultPlan::note(const std::string &line)
{
    std::lock_guard<std::mutex> lk(mu_);
    trace_ += line;
    trace_ += '\n';
}

unsigned
FaultPlan::nextConn()
{
    std::lock_guard<std::mutex> lk(mu_);
    return conns_++;
}

// ---------------------------------------------------------------------
// FaultyStream
// ---------------------------------------------------------------------

namespace
{

/**
 * One direction of a faulted connection. Feed source bytes in, take
 * deliverable bytes out of `out`; `closed` means the active fault
 * tore the stream. Faults apply strictly in list order, one at a
 * time, and offsets always index the unfaulted source stream, so
 * the outcome is independent of how the kernel chunks the bytes.
 */
struct FaultChannel
{
    const char *name = "?";
    unsigned conn = 0;
    FaultPlan *plan = nullptr;
    std::vector<StreamFault> faults;
    std::size_t ai = 0;       ///< active fault index
    std::uint64_t off = 0;    ///< logical source bytes consumed
    bool closed = false;
    bool finished = false;    ///< eof trace line emitted
    std::string out;          ///< deliverable bytes
    std::uint64_t outHash = 0xcbf29ce484222325ull;

    // Active-fault state.
    bool resolved = false;    ///< trigger offset known
    std::uint64_t trigger = 0;
    bool inRange = false;     ///< consumed the trigger byte already
    std::string hold;         ///< delay: the captured range
    bool delayPending = false; ///< range captured; counting passed
    std::uint64_t passed = 0;
    std::string dup;          ///< duplicate: the captured range

    // Match scanning.
    std::size_t seen = 0;     ///< pattern occurrences so far
    std::string carry;        ///< cross-chunk match window tail
    std::uint64_t carryOff = 0;

    Rng rng{1};

    void emit(const char *p, std::size_t n)
    {
        out.append(p, n);
        for (std::size_t i = 0; i < n; ++i) {
            outHash = splitmix64(
                outHash ^ static_cast<unsigned char>(p[i]));
        }
    }

    void
    fire(const char *what)
    {
        plan->note(csprintf("conn%u %s %s @%llu", conn, name, what,
                            static_cast<unsigned long long>(trigger)));
    }

    void
    nextFault()
    {
        ++ai;
        resolved = false;
        inRange = false;
        seen = 0;
        carry.clear();
        carryOff = off;
    }

    void
    releaseHold()
    {
        if (!hold.empty()) {
            std::string h;
            h.swap(hold);
            emit(h.data(), h.size());
        }
        if (delayPending || inRange) {
            fire("delay-release");
            delayPending = false;
            nextFault();
        }
    }

    /** Resolve the active fault's trigger against the bytes about to
     *  be consumed. Returns true when the trigger is known. */
    bool
    resolveTrigger(const char *p, std::size_t i, std::size_t n)
    {
        const StreamFault &f = faults[ai];
        if (f.match.empty()) {
            trigger = f.offset;
            resolved = true;
            return true;
        }
        // Incremental search over carry + the unconsumed chunk for
        // the Nth occurrence; carryOff is the logical offset of
        // carry[0].
        std::string window = carry;
        window.append(p + i, n - i);
        std::size_t pos = 0;
        while ((pos = window.find(f.match, pos)) !=
               std::string::npos) {
            ++seen;
            if (seen >= f.matchNth) {
                trigger = carryOff + pos + f.offset;
                resolved = true;
                return true;
            }
            ++pos;
        }
        const std::size_t keep =
            f.match.empty() ? 0 : f.match.size() - 1;
        if (window.size() > keep) {
            carryOff += window.size() - keep;
            window.erase(0, window.size() - keep);
        }
        carry = std::move(window);
        return false;
    }

    void
    feed(const char *p, std::size_t n)
    {
        std::size_t i = 0;
        while (i < n && !closed) {
            if (delayPending) {
                // Let holdBytes later bytes pass, then flush the
                // held range behind them.
                const StreamFault &f = faults[ai];
                std::size_t take = static_cast<std::size_t>(
                    std::min<std::uint64_t>(n - i,
                                            f.holdBytes - passed));
                emit(p + i, take);
                i += take;
                off += take;
                passed += take;
                if (passed >= f.holdBytes)
                    releaseHold();
                continue;
            }
            if (ai >= faults.size()) {
                emit(p + i, n - i);
                off += n - i;
                return;
            }
            if (!resolved && !resolveTrigger(p, i, n)) {
                emit(p + i, n - i);
                off += n - i;
                return;
            }
            if (off < trigger) {
                // Clean bytes before the trigger.
                std::size_t take = static_cast<std::size_t>(
                    std::min<std::uint64_t>(n - i, trigger - off));
                emit(p + i, take);
                i += take;
                off += take;
                continue;
            }
            // A match may resolve to a trigger that already passed
            // (offset pointing into delivered bytes): apply from
            // here, deterministically. Never once the range started
            // consuming, though - re-clamping at a mid-range chunk
            // boundary would stretch the range by the chunking, and
            // outcomes must not depend on how the kernel splits
            // reads.
            if (trigger < off && !inRange)
                trigger = off;

            const StreamFault &f = faults[ai];
            const std::uint64_t range_end = trigger + f.len;
            std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(n - i, range_end - off));
            switch (f.op) {
              case StreamFault::Op::truncate:
                fire("truncate");
                closed = true;
                return;
              case StreamFault::Op::drop:
                inRange = true;
                i += take; // swallowed
                off += take;
                if (off >= range_end) {
                    fire("drop");
                    closed = true;
                }
                continue;
              case StreamFault::Op::corrupt: {
                inRange = true;
                std::string buf(p + i, take);
                for (char &c : buf) {
                    // 1 + below(255) is never zero: every byte in
                    // the range really changes.
                    c = static_cast<char>(
                        static_cast<unsigned char>(c) ^
                        static_cast<unsigned char>(
                            1 + rng.below(255)));
                }
                emit(buf.data(), buf.size());
                i += take;
                off += take;
                if (off >= range_end) {
                    fire("corrupt");
                    nextFault();
                }
                continue;
              }
              case StreamFault::Op::duplicate:
                inRange = true;
                emit(p + i, take);
                dup.append(p + i, take);
                i += take;
                off += take;
                if (off >= range_end) {
                    fire("duplicate");
                    emit(dup.data(), dup.size());
                    dup.clear();
                    nextFault();
                }
                continue;
              case StreamFault::Op::delay:
                inRange = true;
                hold.append(p + i, take);
                i += take;
                off += take;
                if (off >= range_end) {
                    delayPending = true;
                    passed = 0;
                    if (f.holdBytes == 0)
                        releaseHold();
                }
                continue;
            }
        }
    }

    /** The direction stalled (reader waiting, writer turned around,
     *  or EOF): flush held bytes, finalize a mid-range drop. */
    void
    stall()
    {
        if (closed)
            return;
        if (ai < faults.size() && (inRange || delayPending)) {
            switch (faults[ai].op) {
              case StreamFault::Op::delay:
                releaseHold();
                break;
              case StreamFault::Op::drop:
                // The rest of the range is never coming (the writer
                // is waiting for a reply that depends on the
                // swallowed bytes): tear the connection now, like
                // the dead link this fault models.
                fire("drop");
                closed = true;
                break;
              case StreamFault::Op::duplicate:
                // Duplicate whatever part of the range arrived.
                fire("duplicate");
                emit(dup.data(), dup.size());
                dup.clear();
                nextFault();
                break;
              default:
                break;
            }
        }
    }

    void
    finish()
    {
        // Idempotent: the read path finalizes on inner EOF and the
        // destructor finalizes whatever is left; the eof trace line
        // must appear exactly once per direction.
        if (finished)
            return;
        finished = true;
        stall();
        plan->note(csprintf(
            "conn%u %s eof bytes=%llu hash=%llu", conn, name,
            static_cast<unsigned long long>(off),
            static_cast<unsigned long long>(outHash)));
    }
};

class FaultyStream : public Stream
{
  public:
    FaultyStream(std::unique_ptr<Stream> inner,
                 std::shared_ptr<FaultPlan> plan)
        : inner_(std::move(inner)), plan_(std::move(plan))
    {
        const unsigned conn = plan_->nextConn();
        tx_.name = "tx";
        rx_.name = "rx";
        for (FaultChannel *ch : {&tx_, &rx_}) {
            ch->conn = conn;
            ch->plan = plan_.get();
            ch->carryOff = 0;
            ch->rng = Rng(deriveSeed(
                plan_->seed, csprintf("fault-%s-%u", ch->name,
                                      conn)));
        }
        for (const StreamFault &f : plan_->faults) {
            if (f.conn != conn)
                continue;
            (f.dir == StreamFault::Dir::tx ? tx_ : rx_)
                .faults.push_back(f);
        }
        plan_->note(csprintf("conn%u open", conn));
    }

    ~FaultyStream() override
    {
        if (!finished_) {
            finished_ = true;
            tx_.finish();
            rx_.finish();
        }
    }

    bool
    writeAll(const void *buf, std::size_t n) override
    {
        if (broken_)
            return false;
        tx_.feed(static_cast<const char *>(buf), n);
        bool ok = true;
        if (!tx_.out.empty()) {
            ok = inner_->writeAll(tx_.out);
            tx_.out.clear();
        }
        if (tx_.closed) {
            breakStream();
            return false;
        }
        return ok;
    }

    ssize_t
    read(void *buf, std::size_t n) override
    {
        for (;;) {
            if (!rx_.out.empty()) {
                std::size_t take = std::min(n, rx_.out.size());
                std::memcpy(buf, rx_.out.data(), take);
                rx_.out.erase(0, take);
                return static_cast<ssize_t>(take);
            }
            if (broken_ || rx_.closed) {
                breakStream();
                return 0;
            }
            // The writer is stalled waiting on the reply to what it
            // just wrote: any held tx bytes must go out now or
            // nobody ever answers.
            tx_.stall();
            if (!tx_.out.empty()) {
                inner_->writeAll(tx_.out);
                tx_.out.clear();
            }
            if (tx_.closed) {
                breakStream();
                return 0;
            }
            char chunk[4096];
            ssize_t r = inner_->read(chunk, sizeof(chunk));
            if (r <= 0) {
                rx_.finish();
                if (rx_.out.empty())
                    return r;
                continue;
            }
            rx_.feed(chunk, static_cast<std::size_t>(r));
            if (rx_.out.empty())
                rx_.stall(); // release holds / finalize drops
        }
    }

    void
    shutdown() override
    {
        inner_->shutdown();
    }

  private:
    void
    breakStream()
    {
        if (!broken_) {
            broken_ = true;
            inner_->shutdown();
        }
        if (!finished_) {
            finished_ = true;
            tx_.finish();
            rx_.finish();
        }
    }

    std::unique_ptr<Stream> inner_;
    std::shared_ptr<FaultPlan> plan_;
    FaultChannel tx_, rx_;
    bool broken_ = false;
    bool finished_ = false;
};

} // namespace

std::unique_ptr<Stream>
wrapFaulty(std::unique_ptr<Stream> inner,
           std::shared_ptr<FaultPlan> plan)
{
    return std::make_unique<FaultyStream>(std::move(inner),
                                          std::move(plan));
}

} // namespace migc::test
