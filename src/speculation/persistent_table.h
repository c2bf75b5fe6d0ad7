// Persistent (path-copying) ordered map for the per-thread dependency
// tables: rollback points and the CDG.
//
// A speculative fork copies its parent's tables and a checkpoint copies a
// thread's; with shared immutable nodes both copies are one counted
// pointer copy, and a write rebuilds only the root-to-leaf path it touches
// (O(log n)).  Same AVL construction as csp/persistent_map.h, generic in
// key and value.
//
// The tables are scrubbed lazily (scrub_log.h): an entry stays in the tree
// after its guess resolves and readers skip it.  Whether an entry is hidden
// never changes back once it holds, so a walk that finds a whole subtree
// hidden marks it, and every later walk of any table sharing that subtree
// skips it in O(1).  That keeps "does this table still hold anything?" and
// "visit what it holds" proportional to the live entries plus the nodes no
// walk has seen yet, not to the entries the thread ever held.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ocsp::spec {

template <typename K, typename V>
class PersistentTable {
 public:
  PersistentTable() = default;

  std::size_t size() const { return size_; }

  /// Pointer to the stored value, or nullptr.  Valid until this instance
  /// is next written.
  const V* find(const K& key) const {
    const Node* n = root_.get();
    while (n != nullptr) {
      if (key < n->key) {
        n = n->left.get();
      } else if (n->key < key) {
        n = n->right.get();
      } else {
        return &n->value;
      }
    }
    return nullptr;
  }

  /// Insert or overwrite.
  void assign(const K& key, V value) {
    bool added = false;
    root_ = insert(root_, key, std::move(value), &added);
    if (added) ++size_;
  }

  bool erase(const K& key) {
    bool erased = false;
    root_ = remove(root_, key, &erased);
    if (erased) --size_;
    return erased;
  }

  /// In-order walk of the entries with key >= `from`; `f(key, value)`
  /// returns false to stop.
  template <typename F>
  void for_each_from(const K& from, F&& f) const {
    walk_from(root_.get(), from, f);
  }

  /// In-order walk of the entries `hidden(key, value)` rejects, skipping
  /// subtrees already known hidden and, when `mark`, marking those this
  /// walk proves hidden.  `f(key, value)` returns false to stop.
  /// `visited` counts the nodes looked at.  Returns false when `f` stopped
  /// the walk.
  template <typename Hidden, typename F>
  bool for_each_visible(const Hidden& hidden, F&& f, std::uint64_t& visited,
                        bool mark = true) const {
    bool any = false;
    return !walk_visible(root_.get(), hidden, f, visited, any, mark);
  }

  /// Every stored entry, hidden or not, outside the subtrees already in
  /// `seen`, whose nodes it adds: a walk over tables that share subtrees
  /// visits each node once.  `f(key, value)`.  Returns the nodes visited.
  template <typename F>
  std::size_t for_each_stored_once(std::unordered_set<const void*>& seen,
                                   F&& f) const {
    return walk_once(root_.get(), seen, f);
  }

  /// What a debug check established about a node's subtree: its least
  /// and greatest keys, and whether `hidden` accepts every entry in it.
  struct Facts {
    const K* min;
    const K* max;
    std::size_t count;
    bool all_hidden;
  };
  /// Nodes already checked, by address (one check pass over tables that
  /// may share nodes).
  using Checked = std::unordered_map<const void*, Facts>;

  /// Debug cross-check of what reads rely on, node by node against a
  /// brute-force filter: keys in search order, counts and heights right,
  /// and every node marked hidden holding only entries `hidden(key, value)`
  /// accepts.  Lookups and walks then answer what filtering every stored
  /// entry one by one answers.  A node in `checked` (seen earlier in this
  /// pass, in this table or one sharing it) is not checked again.  Returns
  /// the nodes checked.
  template <typename Hidden>
  std::size_t verify(const Hidden& hidden, Checked& checked) const {
    std::size_t count = 0;
    const Facts* root = verify_node(root_.get(), hidden, checked, count);
    OCSP_CHECK_MSG((root == nullptr ? 0 : root->count) == size_,
                   "persistent table size wrong");
    return count;
  }

  /// A table holding exactly `items`, which must be sorted by key and
  /// distinct.  O(n).
  static PersistentTable from_sorted(const std::vector<std::pair<K, V>>& items) {
    PersistentTable t;
    t.root_ = build(items, 0, items.size());
    t.size_ = items.size();
    return t;
  }

 private:
  struct Node;

  /// Counted reference to an immutable node.  The count is intrusive and
  /// not atomic: a process's tables are used by one thread at a time.
  class NodePtr {
   public:
    NodePtr() = default;
    NodePtr(std::nullptr_t) {}  // NOLINT: implicit, like shared_ptr
    /// Adopts a new node (count 1).
    explicit NodePtr(Node* n) : n_(n) {}
    NodePtr(const NodePtr& o) : n_(o.n_) {
      if (n_ != nullptr) ++n_->refs;
    }
    NodePtr(NodePtr&& o) noexcept : n_(std::exchange(o.n_, nullptr)) {}
    NodePtr& operator=(NodePtr o) noexcept {
      std::swap(n_, o.n_);
      return *this;
    }
    ~NodePtr() {
      if (n_ != nullptr && --n_->refs == 0) delete n_;
    }
    const Node* get() const { return n_; }
    const Node* operator->() const { return n_; }
    const Node& operator*() const { return *n_; }
    explicit operator bool() const { return n_ != nullptr; }

   private:
    Node* n_ = nullptr;
  };

  struct Node {
    NodePtr left;
    NodePtr right;
    K key;
    V value;
    mutable std::uint32_t refs = 1;
    std::uint8_t height = 1;
    /// Every entry of this subtree is hidden (set by walks, never
    /// cleared: hiddenness is permanent).
    mutable bool hidden = false;
  };

  static std::uint8_t height_of(const NodePtr& n) {
    return n ? n->height : 0;
  }

  static NodePtr make(NodePtr left, NodePtr right, K key, V value) {
    auto* n = new Node{std::move(left), std::move(right), std::move(key),
                       std::move(value)};
    n->height = static_cast<std::uint8_t>(
        1 + std::max(height_of(n->left), height_of(n->right)));
    return NodePtr(n);
  }

  static NodePtr balance(NodePtr left, NodePtr right, const K& key,
                         const V& value) {
    const std::uint8_t hl = height_of(left), hr = height_of(right);
    if (hl > hr + 1) {
      const Node& l = *left;
      if (height_of(l.left) >= height_of(l.right)) {
        return make(l.left, make(l.right, std::move(right), key, value),
                    l.key, l.value);
      }
      const Node& lr = *l.right;
      return make(make(l.left, lr.left, l.key, l.value),
                  make(lr.right, std::move(right), key, value), lr.key,
                  lr.value);
    }
    if (hr > hl + 1) {
      const Node& r = *right;
      if (height_of(r.right) >= height_of(r.left)) {
        return make(make(std::move(left), r.left, key, value), r.right,
                    r.key, r.value);
      }
      const Node& rl = *r.left;
      return make(make(std::move(left), rl.left, key, value),
                  make(rl.right, r.right, r.key, r.value), rl.key, rl.value);
    }
    return make(std::move(left), std::move(right), key, value);
  }

  static NodePtr insert(const NodePtr& n, const K& key, V value,
                        bool* added) {
    if (!n) {
      *added = true;
      return make(nullptr, nullptr, key, std::move(value));
    }
    if (key < n->key) {
      return balance(insert(n->left, key, std::move(value), added),
                     n->right, n->key, n->value);
    }
    if (n->key < key) {
      return balance(n->left, insert(n->right, key, std::move(value), added),
                     n->key, n->value);
    }
    return make(n->left, n->right, n->key, std::move(value));
  }

  static NodePtr remove_min(const NodePtr& n) {
    if (!n->left) return n->right;
    return balance(remove_min(n->left), n->right, n->key, n->value);
  }

  static NodePtr remove(const NodePtr& n, const K& key, bool* erased) {
    if (!n) return nullptr;
    if (key < n->key) {
      NodePtr left = remove(n->left, key, erased);
      if (!*erased) return n;
      return balance(std::move(left), n->right, n->key, n->value);
    }
    if (n->key < key) {
      NodePtr right = remove(n->right, key, erased);
      if (!*erased) return n;
      return balance(n->left, std::move(right), n->key, n->value);
    }
    *erased = true;
    if (!n->left) return n->right;
    if (!n->right) return n->left;
    const Node* successor = n->right.get();
    while (successor->left) successor = successor->left.get();
    return balance(n->left, remove_min(n->right), successor->key,
                   successor->value);
  }

  static NodePtr build(const std::vector<std::pair<K, V>>& items,
                       std::size_t lo, std::size_t hi) {
    if (lo >= hi) return nullptr;
    const std::size_t mid = lo + (hi - lo) / 2;
    return make(build(items, lo, mid), build(items, mid + 1, hi),
                items[mid].first, items[mid].second);
  }

  template <typename F>
  static bool walk_from(const Node* n, const K& from, F& f) {
    if (n == nullptr) return true;
    if (!(n->key < from)) {
      if (!walk_from(n->left.get(), from, f)) return false;
      if (!f(n->key, n->value)) return false;
    }
    return walk_from(n->right.get(), from, f);
  }

  template <typename F>
  static std::size_t walk_once(const Node* n,
                               std::unordered_set<const void*>& seen, F& f) {
    if (n == nullptr || !seen.insert(n).second) return 0;
    const std::size_t left = walk_once(n->left.get(), seen, f);
    f(n->key, n->value);
    return left + 1 + walk_once(n->right.get(), seen, f);
  }

  template <typename Hidden>
  static const Facts* verify_node(const Node* n, const Hidden& hidden,
                                  Checked& checked, std::size_t& count) {
    if (n == nullptr) return nullptr;
    if (auto it = checked.find(n); it != checked.end()) return &it->second;
    const Facts* l = verify_node(n->left.get(), hidden, checked, count);
    const Facts* r = verify_node(n->right.get(), hidden, checked, count);
    OCSP_CHECK_MSG((l == nullptr || *l->max < n->key) &&
                       (r == nullptr || n->key < *r->min),
                   "persistent table out of order");
    OCSP_CHECK_MSG(n->height == 1 + std::max(height_of(n->left),
                                             height_of(n->right)) &&
                       n->refs > 0,
                   "persistent table node height or count wrong");
    const bool all_hidden = hidden(n->key, n->value) &&
                            (l == nullptr || l->all_hidden) &&
                            (r == nullptr || r->all_hidden);
    OCSP_CHECK_MSG(!n->hidden || all_hidden,
                   "persistent table marks a visible entry hidden");
    ++count;
    // Element pointers survive rehashing.
    return &checked
                .emplace(n, Facts{l == nullptr ? &n->key : l->min,
                                  r == nullptr ? &n->key : r->max,
                                  1 + (l == nullptr ? 0 : l->count) +
                                      (r == nullptr ? 0 : r->count),
                                  all_hidden})
                .first->second;
  }

  /// Returns true when `f` stopped the walk; sets `any` when this subtree
  /// holds a visible entry.
  template <typename Hidden, typename F>
  static bool walk_visible(const Node* n, const Hidden& hidden, F& f,
                           std::uint64_t& visited, bool& any, bool mark) {
    if (n == nullptr || n->hidden) return false;
    ++visited;
    bool here = false;
    if (walk_visible(n->left.get(), hidden, f, visited, here, mark)) {
      return true;
    }
    if (!hidden(n->key, n->value)) {
      here = true;
      if (!f(n->key, n->value)) return true;
    }
    if (walk_visible(n->right.get(), hidden, f, visited, here, mark)) {
      return true;
    }
    if (here) {
      any = true;
    } else if (mark) {
      n->hidden = true;
    }
    return false;
  }

  NodePtr root_;
  std::size_t size_ = 0;
};

}  // namespace ocsp::spec
