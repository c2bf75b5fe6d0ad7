// Sorted-vector map for the per-thread dependency tables of the
// speculation layer (rollback points, CDG adjacency).
//
// Those tables are copied wholesale at every fork and checkpoint and lose
// their smallest key at every commit (guesses resolve roughly in creation
// order).  A sorted vector copies with one allocation instead of one per
// node, and erasing the first element only advances a start offset, so
// both patterns cost what they touch.  Iteration is in ascending key
// order, like the std::map it replaces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ocsp::util {

template <typename K, typename V, typename Compare = std::less<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  FlatMap(const FlatMap& other)
      : items_(other.begin(), other.end()) {}
  FlatMap& operator=(const FlatMap& other) {
    if (this != &other) {
      items_.assign(other.begin(), other.end());
      head_ = 0;
    }
    return *this;
  }
  // A moved-from map is empty (its start offset must not outlive its
  // storage).
  FlatMap(FlatMap&& other) noexcept
      : items_(std::move(other.items_)),
        head_(std::exchange(other.head_, 0)) {
    other.items_.clear();
  }
  FlatMap& operator=(FlatMap&& other) noexcept {
    items_ = std::move(other.items_);
    head_ = std::exchange(other.head_, 0);
    other.items_.clear();
    return *this;
  }

  iterator begin() { return items_.begin() + off(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin() + off(); }
  const_iterator end() const { return items_.end(); }

  std::size_t size() const { return items_.size() - head_; }
  bool empty() const { return size() == 0; }

  iterator lower_bound(const K& key) {
    return std::lower_bound(begin(), end(), key, KeyLess{});
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(begin(), end(), key, KeyLess{});
  }

  iterator find(const K& key) {
    auto it = lower_bound(key);
    return it != end() && !cmp_(key, it->first) ? it : end();
  }
  const_iterator find(const K& key) const {
    auto it = lower_bound(key);
    return it != end() && !cmp_(key, it->first) ? it : end();
  }
  std::size_t count(const K& key) const { return find(key) != end() ? 1 : 0; }

  V& at(const K& key) {
    auto it = find(key);
    OCSP_CHECK_MSG(it != end(), "FlatMap::at: missing key");
    return it->second;
  }
  const V& at(const K& key) const {
    auto it = find(key);
    OCSP_CHECK_MSG(it != end(), "FlatMap::at: missing key");
    return it->second;
  }

  /// Insert (key, value) unless the key is present; like std::map.
  std::pair<iterator, bool> try_emplace(const K& key, V value = V{}) {
    auto it = lower_bound(key);
    if (it != end() && !cmp_(key, it->first)) return {it, false};
    const auto pos = it - items_.begin();
    items_.insert(it, value_type(key, std::move(value)));
    return {items_.begin() + pos, true};
  }

  V& operator[](const K& key) { return try_emplace(key).first->second; }

  iterator erase(iterator it) {
    if (it == begin()) {
      // Commits retire the oldest guesses first: advance instead of
      // shifting, and compact once the dead prefix dominates.
      it->second = V{};
      ++head_;
      if (head_ * 2 >= items_.size()) compact();
      return begin();
    }
    return items_.erase(it);
  }
  std::size_t erase(const K& key) {
    auto it = find(key);
    if (it == end()) return 0;
    erase(it);
    return 1;
  }

 private:
  struct KeyLess {
    bool operator()(const value_type& item, const K& key) const {
      return Compare{}(item.first, key);
    }
  };
  std::ptrdiff_t off() const { return static_cast<std::ptrdiff_t>(head_); }
  void compact() {
    items_.erase(items_.begin(), items_.begin() + off());
    head_ = 0;
  }

  std::vector<value_type> items_;
  std::size_t head_ = 0;  ///< items_[0, head_) are erased
  Compare cmp_{};
};

}  // namespace ocsp::util
