// The epoch engine: the one build and the one feed loop every world runs.
// DESIGN.md sections 12 and 15 have the full rules.
//
// A materialized world (biblio::Corpus, sequential QueryGenerator, any
// substrate, churn, chaos, a message bus) runs on one shard; a streamed world
// (counter-addressable ArticleStream and StreamingWorkload, ring substrate,
// no bus) on S. Both share one IndexService, DhtStore and substrate; a shard
// owns the node ids at positions ≡ shard (mod S) of the sorted member list,
// and only the owner mutates a node's partition, store or shortcut cache.
//
// Build and feed both run bulk-synchronous epochs of three sub-phases:
// workers record (vt, seq)-tagged items into per-owner-shard queues (the
// build's record and mapping copies, placed by DhtStore::placement and
// IndexService::placement; the feed's shortcut-cache deltas, recorded by
// sessions reading frozen caches); the driver interns the epoch's new
// queries; each owner merges its queues by (vt, seq) and applies them
// (DhtStore::place, IndexService::place, CacheDeltaLog::apply). The merged
// order equals a sequential pass, so results are bit-identical for every S,
// and the build equals IndexBuilder::index_file per article, frames included.
// The feed epoch length is a property of the world, never of S: 1 for a
// materialized world (the paper's sequential feed; churn, republish and chaos
// fire at every boundary), kFeedEpoch for a streamed caching world, the whole
// feed for a streamed cacheless one (its sessions record no deltas).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "biblio/corpus.hpp"
#include "biblio/stream.hpp"
#include "index/lookup.hpp"
#include "index/service.hpp"
#include "net/stats.hpp"
#include "sim/metrics.hpp"
#include "sim/simulation.hpp"
#include "storage/dht_store.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {

/// Builds the full index and record store of a world from `source` (a
/// biblio::Corpus or a biblio::ArticleStream) with config.shards
/// producers/appliers. `service` and `store` must be empty and share `dht`;
/// frames are posted on their bus when one is attached (one shard only).
template <typename ArticleSource>
void build_world(const SimulationConfig& config, dht::Dht& dht,
                 index::IndexService& service, storage::DhtStore& store,
                 const ArticleSource& source);
extern template void build_world(const SimulationConfig&, dht::Dht&, index::IndexService&,
                                 storage::DhtStore&, const biblio::Corpus&);
extern template void build_world(const SimulationConfig&, dht::Dht&, index::IndexService&,
                                 storage::DhtStore&, const biblio::ArticleStream&);

/// build_world over a streamed source. Exposed so tests and the benchmark
/// can build (and audit) a streamed world directly.
inline void build_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                                  index::IndexService& service, storage::DhtStore& store,
                                  const biblio::ArticleStream& stream) {
  build_world(config, dht, service, store, stream);
}

/// Aggregated feed-phase measurements. Every feed worker folds its
/// sessions into its own FeedTotals and the driver merges them after the
/// final barrier: integer sums, commutative and exact, so the totals match a
/// one-worker feed bit for bit.
struct FeedTotals {
  std::uint64_t interactions = 0;
  std::uint64_t generalizations = 0;
  std::uint64_t hits = 0;
  std::uint64_t first_node_hits = 0;
  std::uint64_t rpc_failures = 0;
  std::size_t failed_lookups = 0;
  std::size_t non_indexed = 0;
  std::size_t degraded = 0;
  std::size_t gave_up = 0;
  std::size_t unreachable = 0;
  std::size_t stale_shortcuts = 0;
  /// Unique-node touch counts per session, summed; iterated in sorted Id
  /// order when node_load_fractions are derived.
  // dhtidx-lint: allow(hot-path-map) "touched once per visited node per session, merged once per feed; sorted iteration drives deterministic load fractions"
  std::map<Id, std::uint64_t> node_touches;
  /// The feed's analytic traffic: each worker charges its own FeedTotals
  /// through a net::ScopedLedgerOverride.
  net::TrafficLedger ledger;

  void fold(const index::LookupOutcome& outcome);
  void merge(const FeedTotals& other);
};

/// What a world plugs into the feed loop.
struct FeedPlan {
  /// Request `i` of the feed. Called once per i; with one shard, in
  /// increasing i (a sequential generator may ignore i).
  std::function<workload::StreamingRequest(std::size_t)> request_at;
  /// Runs serially before the epoch that starts at query `i`: where churn,
  /// republish and chaos fire. Optional.
  std::function<void(std::size_t)> at_boundary;
  /// Sees every session's outcome on the worker that ran it; one-shard
  /// worlds only. Optional.
  std::function<void(const index::LookupOutcome&)> observe;
};

/// Runs config.queries sessions over an already-built world with
/// config.shards workers, in lookup/intern/apply epochs of the world's
/// epoch length (config.streaming and config.policy decide it).
FeedTotals feed_world(const SimulationConfig& config, dht::Dht& dht,
                      index::IndexService& service, storage::DhtStore& store,
                      const FeedPlan& plan);

/// feed_world over a streamed workload. Exposed so tests and the benchmark
/// can feed (and audit) a streamed world directly.
FeedTotals feed_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                                index::IndexService& service,
                                storage::DhtStore& store,
                                const workload::StreamingWorkload& workload);

}  // namespace dhtidx::sim
