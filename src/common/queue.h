#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

/// \file queue.h
/// \brief Unbounded blocking MPMC queue with close semantics, used as actor
/// mailboxes and channel backends. Backpressure is not the queue's job: the
/// fabric's flow control (`NetworkFabric::SetFlowControlLimit`) blocks
/// senders.

namespace deco {

/// \brief Unbounded blocking queue. `Close()` wakes all waiters; `Pop` on a
/// closed, drained queue returns `std::nullopt`.
template <typename T>
class BlockingQueue {
 public:
  /// \brief Enqueues one item. Returns false iff the queue is closed.
  bool Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// \brief Blocks until an item is available or the queue is closed and
  /// drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// \brief Like `Pop` but gives up after `timeout`; `std::nullopt` then
  /// means either timeout or closed-and-drained (check `closed()`).
  std::optional<T> PopWithTimeout(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, timeout,
                      [&] { return !items_.empty() || closed_; })) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// \brief Non-blocking pop.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// \brief Moves every currently queued item into `out`; returns the count.
  size_t DrainInto(std::vector<T>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = items_.size();
    for (auto& item : items_) out->push_back(std::move(item));
    items_.clear();
    return n;
  }

  /// \brief Discards every currently queued item; returns the count. Used
  /// when a crashed node's mailbox is purged on restart (a rebooted host
  /// has lost its pre-crash receive buffers).
  size_t Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = items_.size();
    items_.clear();
    return n;
  }

  /// \brief Closes the queue: future pushes fail, waiters wake. Items
  /// already queued can still be popped.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace deco
