// FIFO queue that costs nothing until it is used.
//
// Simulated ranks and torus ports each own a few wait queues, and most of
// them stay empty for the whole run. An empty std::deque already owns a
// 64-byte map and a 512-byte node, which at 32K ranks is tens of MB of
// queues nobody touches. `Fifo` is a std::vector plus a head index: empty
// means no allocation, push_back and pop_front are O(1), and iteration and
// erase run in arrival order for match-anywhere queues (mpisim mailboxes).
// Popped slots are reclaimed when the queue drains, or compacted away once
// they outnumber the queued items, so a long-lived queue that never fully
// drains stays within twice its peak length.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace bgckpt::sim {

template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  T& front() { return items_[head_]; }
  void push_back(T item) { items_.push_back(std::move(item)); }

  void pop_front() {
    items_[head_] = T{};  // drop what the slot holds now, not at compaction
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= kCompactMin && head_ >= size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  iterator begin() {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  iterator end() { return items_.end(); }

  /// Remove the item at `it`; returns the iterator to the item after it.
  iterator erase(iterator it) {
    if (it == begin()) {
      pop_front();
      return begin();
    }
    return items_.erase(it);
  }

 private:
  // Compacting a handful of dead slots would cost more than it frees.
  static constexpr std::size_t kCompactMin = 32;

  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace bgckpt::sim
