// Shard-concurrent streaming simulation core (ROADMAP item 1: the paper's
// world at 100x scale on one machine).
//
// A streaming cell never materializes its workload: articles come from
// biblio::ArticleStream and queries from workload::StreamingWorkload, both
// counter-addressable (item i is a pure function of (config, i)), so peak RSS
// scales with live index state, not workload size. That counter addressing is
// also what makes sharding sound: any partition of the item space across S
// workers generates the same items.
//
// Execution model (DESIGN.md sections 12 and 15 have the full rules):
//
//  - One shared world. The IndexService (with its query interner), the
//    DhtStore and the Ring are process-global — per-shard slices would break
//    `const Query*` identity, the invariant the whole PR 5 hot path rests on.
//    A shard owns a partition of the *node ids* (position in the sorted
//    member list modulo S); only the owner ever mutates a node's index
//    partition, record store or shortcut cache.
//  - Build = bulk-synchronous epochs. Each epoch of articles runs three
//    sub-phases: (produce) S workers synthesize their articles, compute
//    records, scheme mappings and replica placements, and emit operations
//    into per-(producer, owner-shard) queues tagged with (virtual time = the
//    global article index, seq = emission order within the article);
//    (intern) the driver serially interns the epoch's new queries — the only
//    writes the shared interner ever sees; (apply) S workers each merge the
//    queues addressed to their shard by (vt, seq) and apply the operations to
//    the nodes they own. vt values are disjoint across producers, so the
//    merged order is a total order identical to the sequential build's — the
//    results are bit-identical for every S.
//  - Cacheless feed = embarrassingly parallel sessions. CachePolicy::kNone
//    sessions are read-only on all shared state; each worker runs the
//    sessions with index ≡ worker (mod S), accounts traffic into a private
//    ledger through net::ScopedLedgerOverride, and the driver folds the
//    integer accumulators — order-independent, so again bit-identical across
//    S.
//  - Caching feed = bulk-synchronous query epochs, the build pattern one
//    level up (DESIGN.md section 15). Each epoch of queries runs (lookup) S
//    workers serving their session slice read-only against the frozen
//    shortcut caches, each recording its sessions' cache mutations into an
//    index::CacheDeltaLog — (vt = query index, seq)-tagged deltas in
//    per-owner-shard queues; (intern) the driver serially interns queries
//    the deltas reference that the pool has not seen; (apply) S workers each
//    merge the queues addressed to their shard by (vt, seq) and hand every
//    delta to CacheDeltaLog::apply on the caches they own. The sequential
//    feed runs the same record → intern → apply path with one session per
//    epoch (LookupEngine::resolve without a log). MRU order, LRU evictions,
//    hit ratios and install traffic follow the same total order for every
//    S — bit-identical across shard counts, including S = 1 (which runs the
//    identical epoch code inline).
//
// Restrictions (InvariantError otherwise): Ring substrate, in-process
// transport, no churn; shards > 1 additionally requires a streaming world.
#pragma once

#include <cstdint>
#include <map>

#include "biblio/stream.hpp"
#include "index/lookup.hpp"
#include "index/service.hpp"
#include "net/stats.hpp"
#include "sim/metrics.hpp"
#include "sim/simulation.hpp"
#include "storage/dht_store.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {

/// Builds the full index and record store for a streaming world using
/// config.shards producers/appliers. Exposed so tests can audit a sharded
/// build directly. `service` and `store` must be empty and share `dht`.
void build_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                           index::IndexService& service, storage::DhtStore& store,
                           const biblio::ArticleStream& stream);

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
  /// Feed traffic charged through a worker's ledger override (sharded
  /// feeds); a sequential feed charges the service ledger directly.
  net::TrafficLedger ledger;

  void fold(const index::LookupOutcome& outcome);
  void merge(const FeedTotals& other);
};

/// Fills the SimulationResults fields both engines share: the configuration
/// echo, the feed's session counters and per-query averages, hit ratio,
/// cache occupancy, index and store totals, and node-load fractions.
/// `ledger` is the whole query-phase analytic ledger. Call after the feed,
/// before any repair changes membership.
void collect_results(const SimulationConfig& config, const FeedTotals& feed,
                     const net::TrafficLedger& ledger, const dht::Dht& dht,
                     const index::IndexService& service,
                     const storage::DhtStore& store, SimulationResults& r);

/// Runs the query feed over an already-built streaming world with
/// config.shards workers: one read-only parallel pass for cacheless
/// policies, bulk-synchronous lookup/intern/apply query epochs for caching
/// policies. Exposed so tests can audit the cache state of a sharded cached
/// world directly (run_streaming_simulation composes build + feed).
FeedTotals feed_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                                index::IndexService& service,
                                storage::DhtStore& store,
                                const workload::StreamingWorkload& workload);

/// Runs one streaming (optionally shard-concurrent) cell end to end.
/// run_simulation dispatches here when config.streaming or config.shards > 1;
/// call through run_simulation unless you need the streaming path explicitly.
SimulationResults run_streaming_simulation(const SimulationConfig& config);

}  // namespace dhtidx::sim
