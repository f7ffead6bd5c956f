// Fixed-capacity ring that keeps the most recent `capacity` elements. The
// proxy's audit trail, the console's audit log and its span store all use it
// to hold an unbounded stream under a bounded RSS ceiling.
//
// Slots are retained: once the ring is full, Push assigns into the oldest
// slot instead of destroying it and constructing a new one, so a copy-assign
// of a string reuses the slot's capacity. Not thread-safe; callers hold their
// own lock and keep their own (atomic) drop counters from Push's result.
#ifndef SRC_SUPPORT_RING_H_
#define SRC_SUPPORT_RING_H_

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

namespace dvm {

template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity) : capacity_(capacity) {}

  // Stores `value` as the newest element. Returns true when an element was
  // shed to make room: the oldest one, or `value` itself at capacity 0.
  template <typename U>
  bool Push(U&& value) {
    if (capacity_ == 0) {
      return true;
    }
    if (slots_.size() < capacity_) {
      slots_.push_back(std::forward<U>(value));
      return false;
    }
    slots_[head_] = std::forward<U>(value);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    return true;
  }

  // Oldest first.
  std::vector<T> Snapshot() const {
    auto oldest = slots_.begin() + static_cast<std::ptrdiff_t>(head_);
    std::vector<T> out(oldest, slots_.end());
    out.insert(out.end(), slots_.begin(), oldest);
    return out;
  }

  size_t size() const { return slots_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  // A deque, not a vector: it fills in small blocks, so a ring sized for a
  // 10^6-client console costs only what it holds, and it is never copied
  // on its way to full.
  std::deque<T> slots_;
  size_t head_ = 0;  // oldest slot once full; 0 until then
};

}  // namespace dvm

#endif  // SRC_SUPPORT_RING_H_
