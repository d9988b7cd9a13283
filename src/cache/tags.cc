#include "cache/tags.hh"

#include <algorithm>

#include "mem/addr_utils.hh"

namespace migc
{

Tags::Tags(std::uint64_t size_bytes, unsigned assoc, unsigned line_size,
           ReplKind repl, std::uint64_t seed, unsigned interleave_bits)
    : assoc_(assoc), lineSize_(line_size),
      lineMask_(line_size - 1), replKind_(repl),
      repl_(ReplPolicy::create(repl, seed))
{
    fatal_if(!isPowerOf2(line_size), "line size must be 2^n");
    // line size >= 2 keeps the kNoAddr lane sentinel un-matchable
    // (it is never line-aligned).
    fatal_if(line_size < 2, "line size must be >= 2");
    fatal_if(assoc == 0, "associativity must be >= 1");
    fatal_if(assoc > 64, "associativity must fit a 64-bit set bitmap");
    fatal_if(size_bytes % (static_cast<std::uint64_t>(assoc) * line_size)
             != 0, "cache size must divide evenly into sets");

    numSets_ = static_cast<unsigned>(size_bytes / assoc / line_size);
    fatal_if(!isPowerOf2(numSets_), "set count must be 2^n");

    setShift_ = floorLog2(line_size) + interleave_bits;
    wayMask_ = assoc_ == 64 ? ~0ULL : (1ULL << assoc_) - 1;

    const std::size_t n = static_cast<std::size_t>(numSets_) * assoc_;
    blocks_.resize(n);
    addrs_.assign(n, kNoAddr);
    states_.assign(n, static_cast<std::uint8_t>(BlkState::invalid));
    validBits_.assign(numSets_, 0);
    busyBits_.assign(numSets_, 0);
    replStamps_.assign(n, 0);
    duelSamples_.assign(numSets_, 0);
    scratch_ = std::make_unique<CacheBlk *[]>(assoc_);
}

CacheBlk *
Tags::findVictim(Addr addr)
{
    const unsigned set = setIndex(addr);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const std::uint64_t present = validBits_[set] | busyBits_[set];

    // An invalid way wins outright; the lowest one matches the
    // scalar walk's first-invalid pick.
    if (present != wayMask_) {
        return &blocks_[base + static_cast<unsigned>(std::countr_zero(
                                   ~present & wayMask_))];
    }

    const std::uint64_t cands = validBits_[set]; // present, not busy
    if (cands == 0)
        return nullptr; // every way busy: allocation would block

    if (cands == wayMask_ && replKind_ != ReplKind::random) {
        // Full set, nothing busy, stamp-ordered policy: the policy
        // pick is just the minimum replacement stamp, so min-scan
        // the contiguous stamp lane instead of gathering candidate
        // pointers. Stamps are unique (monotonic ++stamp_), so this
        // selects exactly the block ReplPolicy::victim would.
        const std::uint64_t *stamps = &replStamps_[base];
        unsigned best = 0;
        for (unsigned w = 1; w < assoc_; ++w) {
            if (stamps[w] < stamps[best])
                best = w;
        }
        return &blocks_[base + best];
    }

    // General path: gather candidates in ascending way order (the
    // order the scalar walk produced — the random policy's single
    // RNG draw indexes it) and defer to the policy.
    CacheBlk **cand = scratch_.get();
    for (std::uint64_t m = cands; m;) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        *cand++ = &blocks_[base + w];
    }
    const auto count = static_cast<std::size_t>(cand - scratch_.get());
    return scratch_[repl_->victim(scratch_.get(), count)];
}

std::uint64_t
Tags::invalidateClean()
{
    std::uint64_t count = 0;
    forEachInState(BlkState::valid, [&](std::size_t i) {
        blocks_[i].invalidate();
        addrs_[i] = kNoAddr;
        states_[i] = static_cast<std::uint8_t>(BlkState::invalid);
        setWayBits(i, BlkState::invalid);
        ++count;
    });
    return count;
}

std::uint64_t
Tags::countState(BlkState state) const
{
    const std::uint8_t key = static_cast<std::uint8_t>(state);
    std::uint64_t count = 0;
    for (std::uint8_t s : states_)
        count += s == key;
    return count;
}

void
Tags::reset(std::uint64_t seed)
{
    for (auto &blk : blocks_)
        blk = CacheBlk{};
    std::fill(addrs_.begin(), addrs_.end(), kNoAddr);
    std::fill(states_.begin(), states_.end(),
              static_cast<std::uint8_t>(BlkState::invalid));
    std::fill(validBits_.begin(), validBits_.end(), 0);
    std::fill(busyBits_.begin(), busyBits_.end(), 0);
    std::fill(replStamps_.begin(), replStamps_.end(), 0);
    std::fill(duelSamples_.begin(), duelSamples_.end(), 0);
    stamp_ = 0;
    repl_->reset(seed);
}

bool
Tags::shadowCoherent() const
{
    const std::size_t n = blocks_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const CacheBlk &blk = blocks_[i];
        const bool resident = blk.state != BlkState::invalid;
        if (addrs_[i] != (resident ? blk.addr : kNoAddr))
            return false;
        if (states_[i] != static_cast<std::uint8_t>(blk.state))
            return false;
        const unsigned set = static_cast<unsigned>(i / assoc_);
        const std::uint64_t bit = 1ULL << (i % assoc_);
        if (((validBits_[set] & bit) != 0) != blk.isValid())
            return false;
        if (((busyBits_[set] & bit) != 0) != blk.isBusy())
            return false;
        if (resident) {
            const std::uint64_t want = replKind_ == ReplKind::fifo
                                           ? blk.insertStamp
                                           : blk.lastTouch;
            if (replStamps_[i] != want)
                return false;
        }
    }
    return true;
}

} // namespace migc
