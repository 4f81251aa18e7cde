// Building and maintaining indexes (Section IV-C).
//
// The IndexBuilder inserts a file into the DHT storage and registers all the
// index entries its scheme prescribes. Removal regenerates the same mappings
// and deletes them bottom-up: when the last mapping under a key disappears,
// the references to that key are recursively deleted too, exactly as the
// paper describes for read/write systems.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/scheme.hpp"
#include "index/service.hpp"
#include "storage/dht_store.hpp"

namespace dhtidx::index {

class FieldDictionary;

/// Statistics from an indexing run.
struct BuildStats {
  std::size_t files = 0;
  std::size_t mappings_inserted = 0;
  std::size_t file_bytes_stored = 0;
};

/// Creates and removes files together with their index entries.
class IndexBuilder {
 public:
  /// `service` and `store` must outlive the builder. The scheme is copied.
  IndexBuilder(IndexService& service, storage::DhtStore& store, IndexingScheme scheme)
      : service_(service), store_(store), scheme_(std::move(scheme)) {}

  const IndexingScheme& scheme() const { return scheme_; }

  /// Stores a file record under h(MSD) and inserts every scheme mapping.
  /// `file_name` and `file_bytes` describe the stored blob; the descriptor is
  /// kept as the record payload. `now` stamps the index entries for
  /// soft-state expiry.
  void index_file(const xml::Element& descriptor, const std::string& file_name,
                  std::uint64_t file_bytes, BuildStats* stats = nullptr,
                  std::uint64_t now = 0);

  /// Re-announces a file's index entries, refreshing their soft-state
  /// stamps to `now` without touching the stored record. Publishers call
  /// this periodically so their entries survive IndexService::expire().
  /// When `file_name` is given the stored record is re-announced too:
  /// replicas that lost their copy in a crash get it back (CFS/PAST-style
  /// publisher refresh). Returns the number of mappings refreshed.
  std::size_t republish(const xml::Element& descriptor, std::uint64_t now,
                        const std::string* file_name = nullptr,
                        std::uint64_t file_bytes = 0);

  /// Deletes the file and cascades index-entry removal (Section IV-C).
  /// Returns the number of mappings removed.
  std::size_t remove_file(const xml::Element& descriptor);

  /// Adds an extra "short-circuit" entry for popular content: a direct
  /// mapping from `source` to the file's MSD, bypassing the hierarchy
  /// (Section IV-C's (q6 ; d1) example). The covering requirement still
  /// applies.
  void add_shortcircuit(const query::Query& source, const query::Query& msd) {
    service_.insert(source, msd);
  }

  /// When set, every indexed field value is registered in the dictionary so
  /// misspelled queries can be validated and corrected (Section VI; see
  /// index/fuzzy.hpp). The dictionary must outlive the builder.
  void set_dictionary(FieldDictionary* dictionary) { dictionary_ = dictionary; }

 private:
  /// One scheme mapping resolved to pooled instances from the service's
  /// interner.
  using InternedMapping = std::pair<const query::Query*, const query::Query*>;

  /// The scheme's mappings for `msd`, interned once per distinct descriptor.
  /// Safe to memoize: the scheme is copied at construction and immutable, so
  /// mappings_for(msd) is deterministic; index/republish/remove all replay
  /// the same plan instead of regenerating and re-canonicalizing the queries.
  const std::vector<InternedMapping>& plan_for(const query::Query& msd);

  IndexService& service_;
  storage::DhtStore& store_;
  IndexingScheme scheme_;
  FieldDictionary* dictionary_ = nullptr;
  /// Transparent string hash: plans_ is probed with canonical views.
  struct CanonicalHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  // dhtidx-lint: allow(hot-path-map) "build-time plan staging probed by exact canonical key and never iterated, so the unordered layout is unobservable"
  std::unordered_map<std::string, std::vector<InternedMapping>, CanonicalHash, std::equal_to<>>
      plans_;
};

}  // namespace dhtidx::index
