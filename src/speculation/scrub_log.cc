#include "speculation/scrub_log.h"

#include <iterator>

namespace ocsp::spec {

const ScrubLog& ScrubLog::none() {
  static const ScrubLog log;
  return log;
}

void ScrubLog::scrub(const GuessId& g, bool rollback) {
  auto it = latest_.find(g);
  if (it == latest_.end()) return;  // no table ever held g
  Latest& l = it->second;
  events_.push_back(Event{g, rollback, l.any});
  l.any = now();
  if (rollback) l.rollback = now();
}

const ScrubLog::Latest* ScrubLog::latest(const GuessId& g) const {
  auto it = latest_.find(g);
  return it == latest_.end() ? nullptr : &it->second;
}

bool ScrubLog::cdg_hidden(const GuessId& g, std::uint64_t stamp) const {
  if (stamp >= now()) return false;  // nothing scrubbed since it was written
  const Latest* l = latest(g);
  return l != nullptr && l->any > stamp;
}

bool ScrubLog::rollback_hidden(const GuessId& g, std::uint64_t stamp) const {
  if (stamp >= now()) return false;
  const Latest* l = latest(g);
  return l != nullptr && l->rollback > stamp;
}

bool ScrubLog::scrubbed_in(const GuessId& g, bool rollback,
                           std::uint64_t stamp, std::uint64_t at) const {
  const Latest* l = latest(g);
  if (l == nullptr) return false;
  // Newest first: the first qualifying scrub at or before `at` is the
  // latest one there.
  for (std::uint64_t t = l->any; t > stamp && t > floor_;
       t = event(t).earlier) {
    if (t <= at && (!rollback || event(t).rollback)) return true;
  }
  // The forgotten scrubs all lie at or before every checkpoint's clock.
  return (rollback ? l->forgotten_rollback : l->forgotten_any) > stamp;
}

void ScrubLog::prune(const std::unordered_set<GuessId, GuessIdHash>& held,
                     std::uint64_t floor, std::size_t swept) {
  count(latest_.size());
  for (auto it = latest_.begin(); it != latest_.end();) {
    it = held.count(it->first) == 0 ? latest_.erase(it) : std::next(it);
  }
  for (; floor_ < floor && !events_.empty(); events_.pop_front()) {
    ++floor_;
    count(1);
    const Event& e = events_.front();
    auto it = latest_.find(e.guess);
    if (it == latest_.end()) continue;
    it->second.forgotten_any = floor_;
    if (e.rollback) it->second.forgotten_rollback = floor_;
  }
  kept_ = size();
  swept_ = swept;
}

bool ScrubLog::cdg_hidden_at(const GuessId& g, std::uint64_t stamp,
                             std::uint64_t at) const {
  return scrubbed_in(g, /*rollback=*/false, stamp, at);
}

bool ScrubLog::rollback_hidden_at(const GuessId& g, std::uint64_t stamp,
                                  std::uint64_t at) const {
  return scrubbed_in(g, /*rollback=*/true, stamp, at);
}

}  // namespace ocsp::spec
