/**
 * @file
 * The deterministic socket fault-injection shim the chaos tests
 * (tests/test_fleet_faults.cc) drive through the fleet client's
 * stream hook (FleetClientOptions::wrap).
 *
 * wrapFaulty() wraps any Stream in a FaultyStream that drops,
 * truncates, duplicates, delays, or bit-flips bytes at scripted
 * offsets of the logical (unfaulted) byte stream. No real clocks
 * anywhere: "delay" is byte *reordering* (hold a range until N later
 * bytes pass, or the direction stalls), "drop" and "truncate" tear
 * the connection the way a dead link would, and "corrupt" XORs with
 * masks derived from a sim/rng.hh stream, so the same seed +
 * schedule always produces the same byte trace (FaultPlan::trace(),
 * pinned by a replay test).
 */

#ifndef MIGC_TESTS_SUPPORT_FAULT_STREAM_HH
#define MIGC_TESTS_SUPPORT_FAULT_STREAM_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/transport.hh"

namespace migc::test
{

/**
 * One scripted fault. Offsets index the *logical* byte stream of one
 * direction of one connection - the bytes as the faulted side wrote
 * (tx) or the peer sent (rx) them, before any fault applied - so a
 * schedule is reproducible no matter how the kernel chunks reads.
 * When @p match is set, the trigger is `offset` bytes past the start
 * of the @p matchNth occurrence of the pattern in that stream (so a
 * test can say "the 2nd `done` line" without counting bytes).
 *
 * Faults on one channel fire in list order, one at a time.
 */
struct StreamFault
{
    enum class Op
    {
        drop,      ///< swallow the range, then tear the connection
        truncate,  ///< deliver up to the trigger, then tear it
        duplicate, ///< deliver the range twice
        delay,     ///< reorder: hold the range behind holdBytes
                   ///< later bytes (released at EOF / stall)
        corrupt,   ///< XOR the range with seeded nonzero masks
    };

    enum class Dir
    {
        tx, ///< bytes the wrapped side writes
        rx, ///< bytes the wrapped side reads
    };

    Op op = Op::drop;
    Dir dir = Dir::tx;
    unsigned conn = 0;          ///< which connection (0 = first)
    std::uint64_t offset = 0;   ///< absolute, or relative to match
    std::uint64_t len = 1;      ///< bytes in the range
    std::string match;          ///< optional pattern trigger
    std::size_t matchNth = 1;   ///< 1-based occurrence of match
    std::uint64_t holdBytes = 0; ///< delay: later bytes to let pass
};

/**
 * A fault schedule shared across a client's reconnects: each
 * StreamFault names the connection it applies to, wrapFaulty()
 * counts connections, and the trace records every fault firing plus
 * a per-connection digest of the bytes each direction delivered.
 * Same seed + same schedule + same scripted input = same trace
 * (asserted by the replay test).
 */
struct FaultPlan
{
    std::vector<StreamFault> faults;
    std::uint64_t seed = 1; ///< corrupt-mask RNG stream

    /** The deterministic event log ("\n"-joined). */
    std::string trace() const;

    /** Append one trace line (internal; locked). */
    void note(const std::string &line);

    /** Next connection index (internal; locked). */
    unsigned nextConn();

  private:
    mutable std::mutex mu_;
    std::string trace_;
    unsigned conns_ = 0;
};

/** Wrap @p inner in the fault shim for the plan's next connection. */
std::unique_ptr<Stream> wrapFaulty(std::unique_ptr<Stream> inner,
                                   std::shared_ptr<FaultPlan> plan);

} // namespace migc::test

#endif // MIGC_TESTS_SUPPORT_FAULT_STREAM_HH
