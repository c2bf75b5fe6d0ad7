// Copy-on-write sorted vector with the interface of PersistentTable, for
// the CDG's edge tables.
//
// Edges come only from PRECEDENCE and a thread holds few of them, but a
// precedence adds one to every live thread that holds either endpoint and
// each addition runs a cycle search over the edges.  A flat vector makes
// both cheap: a copy shares the vector, the first write after a copy
// clones it (O(edges), what an eager copy would have paid), and later
// writes and every read work on contiguous storage.  Walks visit every
// entry: there are no hidden-subtree marks to keep.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ocsp::spec {

template <typename K, typename V>
class CowTable {
 public:
  std::size_t size() const { return items_ ? items_->size() : 0; }

  const V* find(const K& key) const {
    if (!items_) return nullptr;
    auto it = lower(*items_, key);
    return it != items_->end() && !(key < it->first) ? &it->second : nullptr;
  }

  void assign(const K& key, V value) {
    auto& items = own();
    auto it = lower(items, key);
    if (it != items.end() && !(key < it->first)) {
      it->second = std::move(value);
    } else {
      items.insert(it, {key, std::move(value)});
    }
  }

  bool erase(const K& key) {
    if (find(key) == nullptr) return false;
    auto& items = own();
    items.erase(lower(items, key));
    return true;
  }

  /// In-order walk of the entries with key >= `from`; `f(key, value)`
  /// returns false to stop.
  template <typename F>
  void for_each_from(const K& from, F&& f) const {
    if (!items_) return;
    for (auto it = lower(*items_, from); it != items_->end(); ++it) {
      if (!f(it->first, it->second)) return;
    }
  }

  /// In-order walk of the entries `hidden(key, value)` rejects (see
  /// PersistentTable::for_each_visible; `mark` has nothing to mark).
  template <typename Hidden, typename F>
  bool for_each_visible(const Hidden& hidden, F&& f, std::uint64_t& visited,
                        bool /*mark*/ = true) const {
    if (!items_) return true;
    for (const auto& [key, value] : *items_) {
      ++visited;
      if (!hidden(key, value) && !f(key, value)) return false;
    }
    return true;
  }

  /// See PersistentTable::for_each_stored_once: a shared vector is walked
  /// once.
  template <typename F>
  std::size_t for_each_stored_once(std::unordered_set<const void*>& seen,
                                   F&& f) const {
    if (!items_ || !seen.insert(items_.get()).second) return 0;
    for (const auto& [key, value] : *items_) f(key, value);
    return items_->size();
  }

  static CowTable from_sorted(std::vector<std::pair<K, V>> items) {
    CowTable t;
    if (!items.empty()) {
      t.items_ = std::make_shared<std::vector<std::pair<K, V>>>(
          std::move(items));
    }
    return t;
  }

 private:
  using Items = std::vector<std::pair<K, V>>;

  template <typename Vec>
  static auto lower(Vec& items, const K& key) {
    return std::lower_bound(
        items.begin(), items.end(), key,
        [](const std::pair<K, V>& item, const K& k) { return item.first < k; });
  }

  /// The vector, cloned first if another copy shares it.
  Items& own() {
    if (!items_) {
      items_ = std::make_shared<Items>();
    } else if (items_.use_count() > 1) {
      items_ = std::make_shared<Items>(*items_);
    }
    return *items_;
  }

  std::shared_ptr<Items> items_;
};

}  // namespace ocsp::spec
