#include "query/interner.hpp"

namespace dhtidx::query {

const Query* QueryInterner::intern_impl(Query&& q) {
  // Writers run in the serial intern phase (or a single-threaded cell): the
  // capability is structural, asserted rather than locked.
  intern_phase_.assert_exclusive();
  const auto it = pool_.find(std::string_view{q.canonical()});
  if (it != pool_.end()) return it->second;
  const Query& interned = arena_.emplace_back(std::move(q));
  interned.key();  // pre-warm: interned queries never race on lazy caches
  pool_.emplace(std::string_view{interned.canonical()}, &interned);
  return &interned;
}

}  // namespace dhtidx::query
