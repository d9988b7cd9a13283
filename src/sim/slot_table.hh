/**
 * @file
 * A bounded table keyed by address whose storage is reserved once and
 * then recycled: the MSHR file and a cache's pending-bypass table.
 *
 * Values live in slots that are never destroyed. erase() returns a
 * slot to a free list (threaded through the free slots' key fields),
 * and insert() hands it out again value-initialized, so nothing of
 * one key's entry carries over to the next. Keys reach their slots
 * through an open-addressing index: linear probing from a
 * multiplicative (Fibonacci) hash, and backward-shift deletion, so no
 * tombstones accumulate. An index bucket is 8 bytes, the slot
 * number and the top half of the key's hash, which holds its home
 * bucket and filters probes; the key itself is compared in the slot.
 * The index doubles whenever the slots would fill more than three
 * quarters of it. Slots are added only when every existing one is in
 * use, and never beyond @c capacity, so the storage grows to the
 * most keys a run holds at once and a warm table never allocates.
 *
 * The table has no iteration: nothing that uses it may depend on an
 * order among keys. insert() may move the slots, so a pointer from
 * find() is only good until the next insert().
 */

#ifndef MIGC_SIM_SLOT_TABLE_HH
#define MIGC_SIM_SLOT_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace migc
{

template <typename V>
class SlotTable
{
  public:
    /** @p capacity bounds the keys held at once. */
    explicit SlotTable(std::size_t capacity) : capacity_(capacity)
    {
        fatal_if(capacity >= noSlot, "slot table capacity %zu too large",
                 capacity);
    }

    std::size_t size() const { return size_; }

    std::size_t capacity() const { return capacity_; }

    bool empty() const { return size_ == 0; }

    bool full() const { return size_ >= capacity_; }

    /** Slots ever created: the table's high-water mark. */
    std::size_t slotsReserved() const { return slots_.size(); }

    V *
    find(Addr key)
    {
        std::size_t b = bucketOf(key);
        return b == npos ? nullptr : &slots_[index_[b].slot].value;
    }

    const V *
    find(Addr key) const
    {
        std::size_t b = bucketOf(key);
        return b == npos ? nullptr : &slots_[index_[b].slot].value;
    }

    /**
     * Bind @p key, which must be absent, to a free slot and return
     * its value, value-initialized. The table must not be full.
     */
    V &
    insert(Addr key)
    {
        panic_if(full(), "inserting into a full slot table");
        if (freeHead_ == noSlot)
            addSlot();
        std::uint32_t tag = hashTag(key);
        std::size_t mask = index_.size() - 1;
        std::size_t b = home(tag);
        for (; index_[b].slot != noSlot; b = (b + 1) & mask) {
            panic_if(index_[b].tag == tag &&
                         slots_[index_[b].slot].key == key,
                     "duplicate slot table key %#llx",
                     static_cast<unsigned long long>(key));
        }
        std::uint32_t slot = freeHead_;
        freeHead_ = static_cast<std::uint32_t>(slots_[slot].key);
        index_[b] = Bucket{tag, slot};
        slots_[slot].key = key;
        slots_[slot].value = V{};
        ++size_;
        return slots_[slot].value;
    }

    /**
     * Unbind @p key and free its slot.
     * @return false when @p key was absent.
     */
    bool
    erase(Addr key)
    {
        std::size_t b = bucketOf(key);
        if (b == npos)
            return false;
        slots_[index_[b].slot].key = freeHead_;
        freeHead_ = index_[b].slot;
        --size_;
        // Backward-shift deletion: pull each later member of the
        // probe run into the hole when the hole lies on its probe
        // path, so every key stays reachable from its home bucket.
        std::size_t mask = index_.size() - 1;
        std::size_t hole = b;
        for (std::size_t j = (b + 1) & mask; index_[j].slot != noSlot;
             j = (j + 1) & mask) {
            std::size_t from_home = (j - home(index_[j].tag)) & mask;
            if (from_home >= ((j - hole) & mask)) {
                index_[hole] = index_[j];
                hole = j;
            }
        }
        index_[hole].slot = noSlot;
        return true;
    }

    /**
     * Unbind every key; slots and index stay reserved. An empty table
     * is already clean - erase() left every bucket free and every
     * slot on the free list - so clearing one costs nothing.
     */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (Bucket &bucket : index_)
            bucket.slot = noSlot;
        freeHead_ = noSlot;
        for (std::size_t s = slots_.size(); s > 0; --s) {
            slots_[s - 1].key = freeHead_;
            freeHead_ = static_cast<std::uint32_t>(s - 1);
        }
        size_ = 0;
    }

  private:
    static constexpr std::uint32_t noSlot = UINT32_MAX;
    static constexpr std::size_t npos = SIZE_MAX;
    static constexpr std::size_t minBuckets = 16;

    struct Bucket
    {
        std::uint32_t tag; ///< top 32 bits of the key's hash
        std::uint32_t slot;
    };

    struct Slot
    {
        Addr key = 0; ///< when free: the next free slot, or noSlot
        V value{};
    };

    static std::uint32_t
    hashTag(Addr key)
    {
        return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                          32);
    }

    /** Home bucket: the top bits of the hash. */
    std::size_t home(std::uint32_t tag) const { return tag >> shift_; }

    std::size_t
    bucketOf(Addr key) const
    {
        if (size_ == 0)
            return npos;
        std::uint32_t tag = hashTag(key);
        std::size_t mask = index_.size() - 1;
        for (std::size_t b = home(tag); index_[b].slot != noSlot;
             b = (b + 1) & mask) {
            if (index_[b].tag == tag && slots_[index_[b].slot].key == key)
                return b;
        }
        return npos;
    }

    /**
     * Create one more slot. Slot storage grows by a quarter at a time
     * (a table's high-water mark is its footprint, so doubling would
     * waste up to half of it); the index doubles to keep its load at
     * most three quarters.
     */
    void
    addSlot()
    {
        if (slots_.size() == slots_.capacity()) {
            slots_.reserve(std::min(
                capacity_, slots_.size() + slots_.size() / 4 + 4));
        }
        slots_.emplace_back();
        slots_.back().key = noSlot;
        freeHead_ = static_cast<std::uint32_t>(slots_.size() - 1);
        if (4 * slots_.size() > 3 * index_.size())
            rehash(index_.empty() ? minBuckets : 2 * index_.size());
    }

    void
    rehash(std::size_t buckets)
    {
        std::vector<Bucket> old(buckets, Bucket{0, noSlot});
        old.swap(index_);
        shift_ = 32;
        for (std::size_t n = buckets; n > 1; n >>= 1)
            --shift_;
        std::size_t mask = buckets - 1;
        for (const Bucket &bucket : old) {
            if (bucket.slot == noSlot)
                continue;
            std::size_t b = home(bucket.tag);
            while (index_[b].slot != noSlot)
                b = (b + 1) & mask;
            index_[b] = bucket;
        }
    }

    std::size_t capacity_;
    std::size_t size_ = 0;
    unsigned shift_ = 32;
    std::uint32_t freeHead_ = noSlot;
    std::vector<Bucket> index_; ///< zero or a power of two buckets
    std::vector<Slot> slots_;
};

} // namespace migc

#endif // MIGC_SIM_SLOT_TABLE_HH
