// Per-node index state: the regular query-to-query index plus the shortcut
// cache. Section IV: "Each node should maintain an index, which essentially
// consists of query-to-query mappings."
//
// Storage is a flat vector of source entries kept sorted by canonical form --
// the same iteration order the previous std::map<std::string, ...> layout
// produced, so sweep results stay bit-identical -- with each mapping's
// refresh stamp stored inline next to its target instead of in a separate
// string-concatenation-keyed map. Queries are interned `const Query*` refs
// shared with the whole index service.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "index/cache.hpp"
#include "query/interner.hpp"
#include "query/query.hpp"

namespace dhtidx::index {

/// The index partition held by one DHT node.
class IndexNodeState {
 public:
  /// One registered target plus the soft-state refresh stamp of its mapping
  /// and the target's query::required_bits (the next-hop filter's inline
  /// summary, computed once when the mapping is added).
  struct TargetRef {
    const query::Query* target;
    std::uint64_t stamp;
    std::uint64_t required;
  };

  /// One key's targets in insertion order, with the running sum of their
  /// byte_size(): the body of a lookup response, so charging it is O(1).
  /// Only IndexNodeState mutates it, which keeps the sum exact.
  class TargetList {
   public:
    std::vector<TargetRef>::const_iterator begin() const { return refs_.begin(); }
    std::vector<TargetRef>::const_iterator end() const { return refs_.end(); }
    std::size_t size() const { return refs_.size(); }
    bool empty() const { return refs_.empty(); }
    const TargetRef& front() const { return refs_.front(); }
    /// Sum of byte_size() over the targets.
    std::uint64_t byte_size() const { return bytes_; }

   private:
    friend class IndexNodeState;
    std::vector<TargetRef> refs_;
    std::uint64_t bytes_ = 0;
  };

  /// One index key (source query) and its targets.
  struct SourceEntry {
    const query::Query* source;
    TargetList targets;
  };

  /// `interner` is the query pool shared across the service (must outlive
  /// this state); when null the state owns a private interner so standalone
  /// construction in tests and benchmarks keeps working.
  explicit IndexNodeState(std::size_t cache_capacity = 0,
                          query::QueryInterner* interner = nullptr)
      : own_interner_(interner == nullptr ? std::make_unique<query::QueryInterner>()
                                          : nullptr),
        interner_(interner != nullptr ? interner : own_interner_.get()),
        cache_(cache_capacity, interner_) {}

  /// Adds the mapping (source ; target). Returns true when it was new; an
  /// existing mapping has its refresh stamp updated to `now` (soft-state
  /// republish, Section IV-C's read/write maintenance).
  bool add(const query::Query& source, const query::Query& target, std::uint64_t now = 0);

  /// add() for callers that already hold interned refs from this state's
  /// interner (the service's insert/rebalance paths): skips re-interning.
  bool add_interned(const query::Query* source, const query::Query* target,
                    std::uint64_t now = 0);

  /// The entry of index key `source`, or null when no mapping is registered
  /// under it. Valid until the next mutation of this state.
  const SourceEntry* entry_of(const query::Query& source) const;

  /// True when any mapping is registered under `source`.
  bool has_source(const query::Query& source) const { return entry_of(source) != nullptr; }

  /// Removes the mapping. Returns true when it existed; sets
  /// `source_now_empty` when it was the last mapping for that source.
  bool remove(const query::Query& source, const query::Query& target,
              bool& source_now_empty);

  /// remove() for callers that already hold interned refs from this state's
  /// interner: skips the probe-only resolution.
  bool remove_interned(const query::Query* source, const query::Query* target,
                       bool& source_now_empty);

  /// Drops every mapping whose refresh stamp is older than `cutoff`
  /// (exclusive). Returns the number removed. Publishers that keep
  /// republishing their mappings retain them; entries for vanished
  /// publishers age out -- standard DHT soft-state expiry.
  std::size_t expire_older_than(std::uint64_t cutoff);

  /// Refresh stamp of a mapping, or nullopt when absent.
  std::optional<std::uint64_t> refresh_stamp(const query::Query& source,
                                             const query::Query& target) const;

  /// Distinct index keys (sources) on this node.
  std::size_t key_count() const { return entries_.size(); }

  /// Total query-to-query mappings on this node.
  std::size_t mapping_count() const { return mapping_count_; }

  /// Bytes of regular index state.
  std::uint64_t byte_size() const { return bytes_; }

  ShortcutCache& cache() { return cache_; }
  const ShortcutCache& cache() const { return cache_; }

  /// All sources with their targets, ascending by canonical form (for
  /// iteration/diagnostics).
  const std::vector<SourceEntry>& entries() const { return entries_; }

  /// The query pool this state interns through.
  query::QueryInterner& interner() { return *interner_; }

 private:
  /// Sorted position of `canonical` in entries_ (insertion point when absent).
  std::vector<SourceEntry>::iterator lower_bound(std::string_view canonical);

  std::unique_ptr<query::QueryInterner> own_interner_;  // set when standalone
  query::QueryInterner* interner_;
  std::vector<SourceEntry> entries_;  // sorted by source->canonical()
  ShortcutCache cache_;
  std::size_t mapping_count_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace dhtidx::index
