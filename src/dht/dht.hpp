// The key-to-node abstraction the indexing layer builds on.
//
// Section III-A: "Any node can use the DHT substrate to determine the current
// live node that is responsible for a given key." Two implementations are
// provided: Ring (an instant consistent-hashing view, used by the large
// simulations, where routing cost is irrelevant to the indexing metrics) and
// ChordNetwork (a full Chord protocol with finger tables, stabilization and
// failure handling).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/id.hpp"
#include "common/rng.hpp"

namespace dhtidx::dht {

/// Result of resolving a key to its responsible node.
struct LookupResult {
  Id node;        ///< the live node responsible for the key
  int hops = 0;   ///< overlay routing hops used to find it
};

/// Key-to-node resolution service.
class Dht {
 public:
  virtual ~Dht() = default;

  /// Resolves `key` to the live node responsible for it.
  /// Throws NotFoundError when the network is empty.
  virtual LookupResult lookup(const Id& key) = 0;

  /// The nodes a record under `key` should be replicated on: the responsible
  /// node followed by up to `count - 1` distinct fallback nodes (typically
  /// its clockwise successors). The default implementation provides no
  /// redundancy beyond the responsible node.
  virtual std::vector<Id> replica_set(const Id& key, std::size_t count) {
    (void)count;
    return {lookup(key).node};
  }

  /// The random state lookup() draws from: the protocol substrates start
  /// each lookup at a random live node. A caller that routes lookups of its
  /// own outside a measured run (the auditor) saves it and restores it
  /// afterwards, so the run's lookups start where they would have without
  /// it. The default, for substrates that draw nothing, is no state.
  virtual std::optional<Rng> lookup_rng() const { return std::nullopt; }
  virtual void restore_lookup_rng(const Rng& rng) { (void)rng; }

  /// Ids of all live nodes (unspecified order).
  virtual std::vector<Id> node_ids() const = 0;

  /// Number of live nodes.
  virtual std::size_t size() const = 0;
};

}  // namespace dhtidx::dht
