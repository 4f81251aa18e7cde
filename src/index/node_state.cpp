#include "index/node_state.hpp"

#include <algorithm>
#include <string>

namespace dhtidx::index {

std::vector<IndexNodeState::SourceEntry>::iterator IndexNodeState::lower_bound(
    std::string_view canonical) {
  return std::lower_bound(entries_.begin(), entries_.end(), canonical,
                          [](const SourceEntry& entry, std::string_view c) {
                            return entry.source->canonical() < c;
                          });
}

const IndexNodeState::SourceEntry* IndexNodeState::entry_of(
    const query::Query& source) const {
  // Probe-only: resolve through the interner without growing it. A source the
  // interner has never seen cannot have been added here.
  const query::Query* interned = interner_->find_existing(source);
  if (interned == nullptr) return nullptr;
  const auto it = std::lower_bound(entries_.begin(), entries_.end(),
                                   interned->canonical(),
                                   [](const SourceEntry& entry, std::string_view c) {
                                     return entry.source->canonical() < c;
                                   });
  if (it == entries_.end() || it->source != interned) return nullptr;
  return &*it;
}

bool IndexNodeState::add(const query::Query& source, const query::Query& target,
                         std::uint64_t now) {
  return add_interned(interner_->intern(source), interner_->intern(target), now);
}

bool IndexNodeState::add_interned(const query::Query* s, const query::Query* t,
                                  std::uint64_t now) {
  auto it = lower_bound(s->canonical());
  const bool inserted = it == entries_.end() || it->source != s;
  if (inserted) {
    it = entries_.insert(it, SourceEntry{s, {}});
  } else {
    auto& refs = it->targets.refs_;
    const auto pos = std::find_if(refs.begin(), refs.end(),
                                  [t](const TargetRef& r) { return r.target == t; });
    if (pos != refs.end()) {
      pos->stamp = now;  // republish refreshes
      return false;
    }
  }
  if (inserted) bytes_ += s->byte_size();
  bytes_ += t->byte_size();
  it->targets.bytes_ += t->byte_size();
  it->targets.refs_.push_back(TargetRef{t, now, query::required_bits(*t)});
  ++mapping_count_;
  return true;
}

std::size_t IndexNodeState::expire_older_than(std::uint64_t cutoff) {
  // Collect stale (source, target) pairs first; removal mutates entries_.
  std::vector<std::pair<const query::Query*, const query::Query*>> stale;
  for (const SourceEntry& entry : entries_) {
    for (const TargetRef& ref : entry.targets) {
      if (ref.stamp < cutoff) stale.emplace_back(entry.source, ref.target);
    }
  }
  for (const auto& [source, target] : stale) {
    bool unused = false;
    remove_interned(source, target, unused);
  }
  return stale.size();
}

std::optional<std::uint64_t> IndexNodeState::refresh_stamp(
    const query::Query& source, const query::Query& target) const {
  const SourceEntry* entry = entry_of(source);
  if (entry == nullptr) return std::nullopt;
  const query::Query* t = interner_->find_existing(target);
  if (t == nullptr) return std::nullopt;
  const auto pos = std::find_if(entry->targets.begin(), entry->targets.end(),
                                [t](const TargetRef& r) { return r.target == t; });
  if (pos == entry->targets.end()) return std::nullopt;
  return pos->stamp;
}

bool IndexNodeState::remove(const query::Query& source, const query::Query& target,
                            bool& source_now_empty) {
  source_now_empty = false;
  const query::Query* s = interner_->find_existing(source);
  if (s == nullptr) return false;
  const query::Query* t = interner_->find_existing(target);
  if (t == nullptr) return false;
  return remove_interned(s, t, source_now_empty);
}

bool IndexNodeState::remove_interned(const query::Query* source,
                                     const query::Query* target,
                                     bool& source_now_empty) {
  source_now_empty = false;
  const auto it = lower_bound(source->canonical());
  if (it == entries_.end() || it->source != source) return false;
  auto& refs = it->targets.refs_;
  const auto pos = std::find_if(refs.begin(), refs.end(), [target](const TargetRef& r) {
    return r.target == target;
  });
  if (pos == refs.end()) return false;
  bytes_ -= target->byte_size();
  it->targets.bytes_ -= target->byte_size();
  refs.erase(pos);
  --mapping_count_;
  if (refs.empty()) {
    bytes_ -= source->byte_size();
    entries_.erase(it);
    source_now_empty = true;
  }
  return true;
}

}  // namespace dhtidx::index
