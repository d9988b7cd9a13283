/**
 * @file
 * A growable ring buffer for the simulator's FIFO queues.
 *
 * It keeps std::deque's order semantics for the operations the queues
 * use - push at the back, pop at the front, indexed access, and
 * insert or erase at any position - but its storage is one array that
 * only ever grows, by half at a time and never past the queue's
 * bound. A queue therefore reserves what its run occupies once, and a
 * warm queue never allocates, where a deque allocates and frees a
 * chunk every few hundred bytes of traffic. Positional insert and
 * erase shift whichever side of the position is shorter, so sorted
 * inserts near the back and FR-FCFS erases near the front both stay
 * cheap.
 */

#ifndef MIGC_SIM_RING_HH
#define MIGC_SIM_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace migc
{

template <typename T>
class Ring
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "Ring moves its elements as plain values");

  public:
    /** @p limit bounds the elements held at once, and so the storage. */
    explicit Ring(std::size_t limit = SIZE_MAX) : limit_(limit) {}

    bool empty() const { return size_ == 0; }

    std::size_t size() const { return size_; }

    /** Elements the current storage holds before it must grow. */
    std::size_t capacity() const { return buf_.size(); }

    T &operator[](std::size_t i) { return at(i); }
    const T &operator[](std::size_t i) const { return at(i); }

    T &front() { return at(0); }
    const T &front() const { return at(0); }

    void
    push_back(const T &value)
    {
        if (size_ == buf_.size())
            grow();
        at(size_++) = value;
    }

    void
    pop_front()
    {
        panic_if(size_ == 0, "pop_front on an empty ring");
        if (++head_ == buf_.size())
            head_ = 0;
        --size_;
    }

    /** Insert @p value before position @p pos (0..size()). */
    void
    insert(std::size_t pos, const T &value)
    {
        panic_if(pos > size_, "ring insert past the end");
        if (size_ == buf_.size())
            grow();
        if (pos < size_ / 2) {
            // Shift the front part one step toward the front.
            head_ = (head_ == 0 ? buf_.size() : head_) - 1;
            for (std::size_t k = 0; k < pos; ++k)
                at(k) = at(k + 1);
        } else {
            for (std::size_t k = size_; k > pos; --k)
                at(k) = at(k - 1);
        }
        at(pos) = value;
        ++size_;
    }

    /** Remove the element at position @p pos (0..size()-1). */
    void
    erase(std::size_t pos)
    {
        panic_if(pos >= size_, "ring erase past the end");
        if (pos < size_ / 2) {
            for (std::size_t k = pos; k > 0; --k)
                at(k) = at(k - 1);
            if (++head_ == buf_.size())
                head_ = 0;
        } else {
            for (std::size_t k = pos; k + 1 < size_; ++k)
                at(k) = at(k + 1);
        }
        --size_;
    }

    /** Drop every element; the storage stays reserved. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    static constexpr std::size_t minCapacity = 8;

    T &
    at(std::size_t i)
    {
        std::size_t j = head_ + i;
        return buf_[j >= buf_.size() ? j - buf_.size() : j];
    }

    const T &
    at(std::size_t i) const
    {
        std::size_t j = head_ + i;
        return buf_[j >= buf_.size() ? j - buf_.size() : j];
    }

    /** Grow the storage by half (within the limit), unwrapping it. */
    void
    grow()
    {
        panic_if(size_ >= limit_, "ring over its limit of %zu", limit_);
        std::size_t cap = buf_.size() + buf_.size() / 2;
        std::vector<T> bigger(std::min(std::max(cap, minCapacity), limit_));
        for (std::size_t k = 0; k < size_; ++k)
            bigger[k] = at(k);
        buf_.swap(bigger);
        head_ = 0;
    }

    std::size_t limit_;
    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace migc

#endif // MIGC_SIM_RING_HH
