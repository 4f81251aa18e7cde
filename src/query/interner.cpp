#include "query/interner.hpp"

#include <algorithm>

namespace dhtidx::query {

void CanonicalIndex::insert(std::uint32_t hash, std::uint32_t index) {
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, old.size() * 2), Slot{});
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.index != kAbsent) insert(slot.hash, slot.index);
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t at = hash & mask;
  while (slots_[at].index != kAbsent) at = (at + 1) & mask;
  slots_[at] = Slot{hash, index};
  ++size_;
}

void CanonicalIndex::clear() {
  if (size_ == 0) return;
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

const Query* QueryInterner::insert(Query&& q, std::uint32_t hash) {
  // Writers run in the serial intern phase (or a single-threaded cell): the
  // capability is structural, asserted rather than locked.
  intern_phase_.assert_exclusive();
  const Query& interned = arena_.emplace_back(std::move(q));
  interned.key();  // pre-warm: interned queries never race on the key memo
  index_.insert(hash, static_cast<std::uint32_t>(arena_.size() - 1));
  return &interned;
}

}  // namespace dhtidx::query
