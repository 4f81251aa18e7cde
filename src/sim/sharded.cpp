#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rss.hpp"
#include "common/thread_annotations.hpp"
#ifdef DHTIDX_AUDIT
#include "audit/audit.hpp"
#endif
#include "dht/ring.hpp"
#include "index/lookup.hpp"
#include "index/scheme.hpp"
#include "workload/streaming.hpp"
#include "xml/writer.hpp"

namespace dhtidx::sim {

namespace {

using index::CachePolicy;
using query::Query;

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Articles per bulk-synchronous build epoch. Fixed (never derived from the
/// shard count or machine), so the epoch boundaries — and therefore the
/// interner's growth schedule — are identical for every S.
constexpr std::size_t kBuildEpoch = 8192;

/// Queries per bulk-synchronous feed epoch (caching policies only). The
/// epoch length is observable semantics, not a tuning knob: a session can
/// only hit shortcuts installed in *earlier* epochs (the lookup sub-phase
/// reads a frozen snapshot), so changing this constant changes hit ratios.
/// Like kBuildEpoch it must never depend on S or the machine — that is what
/// keeps the sweep JSON bit-identical across --shards. Smaller epochs track
/// the paper's fully sequential warm-up more closely; 1024 keeps the
/// deviation below a percent at paper scale while leaving each worker
/// hundreds of sessions of parallel work per barrier.
constexpr std::size_t kFeedEpoch = 1024;

constexpr std::uint32_t kNoPending = query::InternRequests::kNoPending;

/// One build-phase operation, totally ordered by (vt, seq): vt is the global
/// article index (disjoint across producers), seq the emission order within
/// the article. Draining a node's operations in this order reproduces the
/// sequential build exactly.
struct Op {
  std::uint64_t vt = 0;
  std::uint32_t seq = 0;
  bool is_store = false;  ///< store a record replica vs publish a mapping
  Id node;                ///< the owning node this op applies to
  // Store ops: the record's DHT key and its index in the producer's epoch
  // record buffer.
  Id key;
  std::uint32_t record = 0;
  // Publish ops: interned refs when the query was already pooled when the
  // producer saw it, else indices into the producer's epoch intern requests
  // (resolved by the serial intern sub-phase).
  const Query* source = nullptr;
  const Query* target = nullptr;
  std::uint32_t source_pending = kNoPending;
  std::uint32_t target_pending = kNoPending;
};

/// Node id -> owning shard: position in the sorted member list modulo S.
/// Membership is fixed for the whole run (streaming mode forbids churn).
class ShardMap {
 public:
  ShardMap(std::vector<Id> members, std::size_t shards)
      : members_(std::move(members)), shards_(shards) {
    std::sort(members_.begin(), members_.end());
  }

  std::size_t shard_of(const Id& node) const {
    const auto it = std::lower_bound(members_.begin(), members_.end(), node);
    return static_cast<std::size_t>(it - members_.begin()) % shards_;
  }

  const std::vector<Id>& members() const { return members_; }

 private:
  std::vector<Id> members_;
  std::size_t shards_;
};

/// Per-producer epoch state: the record buffer, the queue per owner shard,
/// and the intern requests this producer will hand to the serial intern
/// sub-phase.
struct Producer {
  /// Phase capability over the epoch buffers below. Exclusive during the
  /// produce sub-phase (the owning worker is the sole writer) and the serial
  /// intern sub-phase (the driver is alone); shared during the apply
  /// sub-phase, where every worker reads any producer's queues, records and
  /// resolved refs concurrently — and must therefore never mutate them (the
  /// "no move-on-last-replica fast path" rule below).
  PhaseCapability phase_;
  std::vector<storage::Record> records DHTIDX_GUARDED_BY(phase_);
  query::InternRequests interns;
  /// One queue per owner shard, (vt,seq)-sorted by construction.
  std::vector<std::vector<Op>> queues DHTIDX_GUARDED_BY(phase_);

  void reset(std::size_t shards) DHTIDX_REQUIRES(phase_) {
    records.clear();
    interns.phase_.assert_exclusive();  // same phase structure as the owner
    interns.reset();
    queues.assign(shards, {});
  }
};

/// Runs `body(0..count-1)` on `count` workers; inline when count == 1 (the
/// single-shard path uses the exact same code, just without threads). The
/// join is the phase barrier; the first worker exception is rethrown.
void run_workers(std::size_t count, const std::function<void(std::size_t)>& body) {
  if (count <= 1) {
    body(0);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> pool;
  pool.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    pool.emplace_back([&errors, &body, w] {
      try {
        body(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// S-way merge: drains `queues` (each already (vt, seq)-sorted, with vt
/// values disjoint across queues) in ascending global (vt, seq) order,
/// calling apply(queue_index, element) for each element. This is the one
/// total order both the build's operations and the feed's cache deltas
/// replay in — the order the sequential pass would have used.
template <typename T, typename Fn>
void merge_by_virtual_time(const std::vector<const std::vector<T>*>& queues, Fn&& apply) {
  std::vector<std::size_t> cursor(queues.size(), 0);
  while (true) {
    std::size_t best = queues.size();
    std::uint64_t best_vt = 0;
    std::uint32_t best_seq = 0;
    for (std::size_t p = 0; p < queues.size(); ++p) {
      const std::vector<T>& queue = *queues[p];
      if (cursor[p] >= queue.size()) continue;
      const T& item = queue[cursor[p]];
      if (best == queues.size() || item.vt < best_vt ||
          (item.vt == best_vt && item.seq < best_seq)) {
        best = p;
        best_vt = item.vt;
        best_seq = item.seq;
      }
    }
    if (best == queues.size()) break;
    apply(best, (*queues[best])[cursor[best]++]);
  }
}

}  // namespace

void FeedTotals::fold(const index::LookupOutcome& outcome) {
  interactions += static_cast<std::uint64_t>(outcome.interactions);
  generalizations += static_cast<std::uint64_t>(outcome.generalization_steps);
  if (!outcome.found) ++failed_lookups;
  if (outcome.non_indexed) ++non_indexed;
  if (outcome.cache_hit) {
    ++hits;
    if (outcome.cache_hit_position == 1) ++first_node_hits;
  }
  rpc_failures += static_cast<std::uint64_t>(outcome.rpc_failures);
  if (outcome.degraded) ++degraded;
  if (outcome.gave_up) ++gave_up;
  if (outcome.unreachable) ++unreachable;
  stale_shortcuts += static_cast<std::size_t>(outcome.stale_shortcuts);
  const std::set<Id> unique_nodes(outcome.visited_nodes.begin(), outcome.visited_nodes.end());
  for (const Id& node : unique_nodes) ++node_touches[node];
}

void FeedTotals::merge(const FeedTotals& other) {
  interactions += other.interactions;
  generalizations += other.generalizations;
  hits += other.hits;
  first_node_hits += other.first_node_hits;
  rpc_failures += other.rpc_failures;
  failed_lookups += other.failed_lookups;
  non_indexed += other.non_indexed;
  degraded += other.degraded;
  gave_up += other.gave_up;
  unreachable += other.unreachable;
  stale_shortcuts += other.stale_shortcuts;
  for (const auto& [node, touches] : other.node_touches) node_touches[node] += touches;
  ledger.merge(other.ledger);
}

void collect_results(const SimulationConfig& config, const FeedTotals& feed,
                     const net::TrafficLedger& ledger, const dht::Dht& dht,
                     const index::IndexService& service,
                     const storage::DhtStore& store, SimulationResults& r) {
  r.scheme = config.scheme;
  r.policy = config.policy;
  r.cache_capacity = config.cache_capacity;
  r.nodes = config.nodes;
  r.queries = config.queries;
  r.replication = config.replication;
  r.transport = config.transport;
  r.peak_rss_bytes = dhtidx::peak_rss_bytes();

  r.rpc_failures = feed.rpc_failures;
  r.failed_lookups = feed.failed_lookups;
  r.non_indexed_queries = feed.non_indexed;
  r.degraded_sessions = feed.degraded;
  r.gave_up_sessions = feed.gave_up;
  r.unreachable_sessions = feed.unreachable;
  r.stale_shortcut_invalidations = feed.stale_shortcuts;

  const double n_queries = static_cast<double>(config.queries);
  r.avg_interactions = static_cast<double>(feed.interactions) / n_queries;
  r.avg_generalization_steps = static_cast<double>(feed.generalizations) / n_queries;
  r.normal_traffic_per_query = static_cast<double>(ledger.normal_bytes()) / n_queries;
  r.cache_traffic_per_query = static_cast<double>(ledger.cache.bytes()) / n_queries;
  r.hit_ratio = static_cast<double>(feed.hits) / n_queries;
  r.first_node_hit_share =
      feed.hits == 0 ? 0.0
                     : static_cast<double>(feed.first_node_hits) /
                           static_cast<double>(feed.hits);
  r.ledger = ledger;

  // Cache occupancy across *all* nodes, including ones that never stored a
  // shortcut (the paper reports 4.4% completely empty caches).
  std::uint64_t cached_total = 0;
  std::size_t full = 0;
  std::size_t empty = 0;
  std::size_t max_cached = 0;
  const std::vector<Id> nodes = dht.node_ids();
  for (const Id& node : nodes) {
    std::size_t size = 0;
    if (const index::IndexNodeState* state = service.find_state(node); state != nullptr) {
      size = state->cache().size();
    }
    cached_total += size;
    max_cached = std::max(max_cached, size);
    if (size == 0) ++empty;
    if (config.cache_capacity != 0 && size >= config.cache_capacity) ++full;
  }
  const double n_nodes = static_cast<double>(nodes.size());
  r.avg_cached_keys_per_node = static_cast<double>(cached_total) / n_nodes;
  r.max_cached_keys = max_cached;
  r.full_cache_fraction = static_cast<double>(full) / n_nodes;
  r.empty_cache_fraction = static_cast<double>(empty) / n_nodes;

  // Regular keys: index keys plus stored data keys, averaged over all nodes.
  const index::IndexService::Totals totals = service.totals();
  std::size_t stored_keys = 0;
  for (const auto& [node, node_store] : store.node_stores()) {
    stored_keys += node_store.key_count();
  }
  r.avg_regular_keys_per_node = static_cast<double>(totals.keys + stored_keys) / n_nodes;
  r.index_keys = totals.keys;
  r.index_mappings = totals.mappings;
  r.index_bytes = totals.bytes;
  r.data_bytes = store.total_bytes();

  // Figure 15: per-node share of queries, busiest first.
  r.node_load_fractions.reserve(nodes.size());
  for (const Id& node : nodes) {
    const auto it = feed.node_touches.find(node);
    const double touches =
        it == feed.node_touches.end() ? 0.0 : static_cast<double>(it->second);
    r.node_load_fractions.push_back(touches / n_queries);
  }
  std::sort(r.node_load_fractions.begin(), r.node_load_fractions.end(), std::greater<>());
}

void build_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                           index::IndexService& service, storage::DhtStore& store,
                           const biblio::ArticleStream& stream) {
  const std::size_t shards = std::max<std::size_t>(config.shards, 1);
  const index::IndexingScheme scheme = index::IndexingScheme::make(config.scheme);
  query::QueryInterner& interner = service.interner();
  const std::size_t replication = service.replication();

  // Pre-create every node's index partition and record store. The outer
  // FlatMaps are structurally frozen before any worker runs: parallel phases
  // only mutate values they own, never the maps themselves (a FlatMap insert
  // would invalidate every other worker's references).
  const ShardMap shard_map{dht.node_ids(), shards};
  for (const Id& node : shard_map.members()) {
    service.state_at(node);
    store.node_store(node);
  }

  std::vector<Producer> producers(shards);
  const std::size_t total = stream.size();

  for (std::size_t epoch_start = 0; epoch_start < total; epoch_start += kBuildEpoch) {
    const std::size_t epoch_end = std::min(total, epoch_start + kBuildEpoch);
    for (Producer& producer : producers) {
      producer.phase_.assert_exclusive();  // between epochs: no workers running
      producer.reset(shards);
    }

    // (produce) -- synthesize articles, compute placements, emit operations.
    // Producer p owns articles i with i % S == p, walked in increasing i, so
    // each queue is (vt, seq)-sorted by construction.
    run_workers(shards, [&](std::size_t p) {
      Producer& producer = producers[p];
      producer.phase_.assert_exclusive();  // worker p is producer p's sole owner
      producer.interns.phase_.assert_exclusive();
      for (std::size_t i = epoch_start; i < epoch_end; ++i) {
        if (i % shards != p) continue;
        const biblio::Article article = stream.article(i);
        const xml::Element descriptor = article.descriptor();
        const Query msd = Query::most_specific(descriptor);
        std::uint32_t seq = 0;

        // The stored file record, one op per replica placement (mirrors
        // DhtStore::put under a healthy network: the replica set of the
        // MSD's key, primary first).
        storage::Record record;
        record.kind = "file:" + article.file_name();
        record.payload = xml::write(descriptor, {.pretty = false});
        record.virtual_payload_bytes = article.file_bytes;
        const Id file_key = msd.key();
        const std::uint32_t record_slot = static_cast<std::uint32_t>(producer.records.size());
        producer.records.push_back(std::move(record));
        const std::vector<Id> file_replicas = dht.replica_set(file_key, replication);
        for (std::size_t c = 0; c < file_replicas.size(); ++c) {
          Op op;
          op.vt = i;
          op.seq = seq++;
          op.is_store = true;
          op.node = file_replicas[c];
          op.key = file_key;
          op.record = record_slot;
          producer.queues[shard_map.shard_of(op.node)].push_back(op);
        }

        // The scheme's mappings, one op per replica placement of the source
        // key (mirrors IndexService::insert_interned). The key comes from
        // the source's interned ref or pending slot, so each distinct source
        // is hashed once, not once per article that maps to it.
        std::vector<index::Mapping> mappings = scheme.mappings_for(msd);
        for (index::Mapping& m : mappings) {
          Op op;
          op.vt = i;
          producer.interns.resolve(interner, std::move(m.source), op.source,
                                   op.source_pending);
          producer.interns.resolve(interner, std::move(m.target), op.target,
                                   op.target_pending);
          const Id source_key = op.source != nullptr
                                    ? op.source->key()
                                    : producer.interns.pending[op.source_pending].key();
          for (const Id& replica : dht.replica_set(source_key, replication)) {
            Op placed = op;
            placed.seq = seq++;
            placed.node = replica;
            producer.queues[shard_map.shard_of(replica)].push_back(placed);
          }
        }
      }
    });

    // (intern) -- the only writes the shared pool ever sees, serialized in
    // the driver.
    for (Producer& producer : producers) {
      producer.phase_.assert_exclusive();  // serial sub-phase: driver is alone
      producer.interns.phase_.assert_exclusive();
      producer.interns.intern_all(interner);
    }

    // (apply) -- worker t drains the S queues addressed to its shard with an
    // S-way merge by (vt, seq), applying each operation to the owned node.
    run_workers(shards, [&](std::size_t t) {
      std::vector<const std::vector<Op>*> queues;
      queues.reserve(shards);
      for (std::size_t p = 0; p < shards; ++p) {
        producers[p].phase_.assert_shared();  // apply sub-phase: buffers frozen
        queues.push_back(&producers[p].queues[t]);
      }
      merge_by_virtual_time<Op>(queues, [&](std::size_t p, const Op& op) {
        // Appliers only ever *read* producer state: a record replicated
        // across nodes owned by different shards is copied concurrently, so
        // there must be no mutating fast path (a "move on last replica"
        // would race with another shard's copy of the same record).
        const Producer& producer = producers[p];
        producer.phase_.assert_shared();  // read-only rights, shared with peers
        producer.interns.phase_.assert_shared();
        if (op.is_store) {
          storage::NodeStore* node_store = store.find_node_store(op.node);
          node_store->put(op.key, producer.records[op.record]);
        } else {
          const Query* source = producer.interns.ref_of(op.source, op.source_pending);
          const Query* target = producer.interns.ref_of(op.target, op.target_pending);
          // No covering check here: the scheme guarantees source ⊒ target by
          // construction and the DHTIDX_AUDIT pass re-verifies it.
          service.find_state(op.node)->add_interned(source, target, 0);
        }
      });
    });
  }
}

FeedTotals feed_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                                index::IndexService& service,
                                storage::DhtStore& store,
                                const workload::StreamingWorkload& workload) {
  const std::size_t shards = std::max<std::size_t>(config.shards, 1);
  std::vector<FeedTotals> accumulators(shards);

  if (!caching_enabled(config.policy)) {
    // Cacheless feed: sessions are read-only on all shared state, so one
    // parallel pass over the whole feed suffices — no epochs, no barriers.
    run_workers(shards, [&](std::size_t w) {
      FeedTotals& acc = accumulators[w];
      const net::ScopedLedgerOverride scope{&acc.ledger};
      index::LookupEngine engine{service, store, {config.policy}};
      for (std::size_t i = 0; i < config.queries; ++i) {
        if (i % shards != w) continue;
        const workload::StreamingRequest request = workload.request_at(i);
        acc.fold(engine.resolve(request.query, request.target_msd));
      }
    });
  } else {
    // Caching feed: bulk-synchronous query epochs (DESIGN.md section 15).
    // Sessions read the shortcut caches as a frozen snapshot and record
    // their mutations into per-worker epoch logs; the apply sub-phase
    // replays the deltas in (vt, seq) order, so every cache evolves in the
    // exact order a sequential pass over the epochs would have produced —
    // for every S, including S = 1.
    const ShardMap shard_map{dht.node_ids(), shards};
    query::QueryInterner& interner = service.interner();
    std::vector<index::CacheDeltaLog> logs;
    logs.reserve(shards);
    for (std::size_t w = 0; w < shards; ++w) {
      logs.emplace_back(interner, shards,
                        [&shard_map](const Id& node) { return shard_map.shard_of(node); });
    }

    for (std::size_t epoch_start = 0; epoch_start < config.queries;
         epoch_start += kFeedEpoch) {
      const std::size_t epoch_end =
          std::min(config.queries, epoch_start + kFeedEpoch);
      for (index::CacheDeltaLog& log : logs) {
        log.phase_.assert_exclusive();  // between epochs: no workers running
        log.reset();
      }

      // (lookup) -- worker w serves the sessions with index ≡ w (mod S)
      // read-only, recording cache deltas. Walked in increasing i, so each
      // queue is (vt, seq)-sorted by construction.
      run_workers(shards, [&](std::size_t w) {
        FeedTotals& acc = accumulators[w];
        const net::ScopedLedgerOverride scope{&acc.ledger};
        index::CacheDeltaLog& log = logs[w];
        log.phase_.assert_exclusive();  // worker w is log w's sole owner
        index::LookupEngine engine{service, store, {config.policy}};
        for (std::size_t i = epoch_start; i < epoch_end; ++i) {
          if (i % shards != w) continue;
          log.begin_session(i);
          const workload::StreamingRequest request = workload.request_at(i);
          acc.fold(engine.resolve(request.query, request.target_msd, log));
        }
      });

      // (intern) -- resolve the epoch's new queries against the shared pool,
      // serialized in the driver.
      for (index::CacheDeltaLog& log : logs) {
        log.phase_.assert_exclusive();  // serial sub-phase: driver is alone
        log.interns.phase_.assert_exclusive();
        log.interns.intern_all(interner);
      }

      // (apply) -- worker t merges the delta queues addressed to its shard
      // by (vt, seq) and applies them to the caches it owns, charging
      // install traffic into its own accumulator's ledger (the lookup
      // workers are past the barrier).
      run_workers(shards, [&](std::size_t t) {
        const net::ScopedLedgerOverride scope{&accumulators[t].ledger};
        net::TrafficLedger& ledger = net::active(service.ledger());
        std::vector<const std::vector<index::CacheDeltaLog::Delta>*> queues;
        queues.reserve(shards);
        for (const index::CacheDeltaLog& log : logs) {
          log.phase_.assert_shared();  // apply sub-phase: buffers frozen
          queues.push_back(&log.queue(t));
        }
        merge_by_virtual_time(queues, [&](std::size_t p,
                                          const index::CacheDeltaLog::Delta& delta) {
          const index::CacheDeltaLog& log = logs[p];
          log.phase_.assert_shared();  // read-only rights, shared with peers
          index::IndexNodeState* state = service.find_state(delta.node);
          if (state == nullptr) {
            throw InvariantError(
                "sharded feed: cache delta addressed to a node with no index "
                "partition (build pre-creates every partition)");
          }
          log.apply(delta, state->cache(), ledger, service.bus());
        });
      });
    }
  }

  FeedTotals totals;
  for (const FeedTotals& acc : accumulators) totals.merge(acc);
  return totals;
}

SimulationResults run_streaming_simulation(const SimulationConfig& config) {
  const std::size_t shards = std::max<std::size_t>(config.shards, 1);
  if (config.substrate != Substrate::kRing) {
    throw InvariantError("streaming simulation requires the ring substrate");
  }
  if (config.churn.enabled()) {
    throw InvariantError("streaming simulation does not support churn");
  }
  if (config.transport != TransportKind::kInProcess) {
    throw InvariantError("streaming simulation requires the in-process transport");
  }
  if (shards > 1 && !config.streaming) {
    throw InvariantError("shards > 1 requires a streaming world (config.streaming)");
  }

  dht::Ring ring = dht::Ring::with_nodes(config.nodes);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger, config.replication};
  index::IndexService service{ring, ledger, config.cache_capacity, config.replication};
  const biblio::ArticleStream stream{config.corpus};

  const auto build_start = std::chrono::steady_clock::now();
  build_streaming_world(config, ring, service, store, stream);
  const double build_wall_s = wall_seconds_since(build_start);

#ifdef DHTIDX_AUDIT
  const index::IndexingScheme audit_scheme = index::IndexingScheme::make(config.scheme);
  audit::Options audit_options;
  audit_options.scheme = &audit_scheme;
  audit::audit_or_throw("post-build", ring, service, store, audit_options);
#endif
  // Index construction traffic is not part of the per-query measurements
  // (same rule as the sequential driver; the sharded build charges nothing,
  // but the audit hooks above may have).
  ledger.reset();

  // --- run the query feed ----------------------------------------------------
  workload::PopularityModel popularity{stream.size(), config.popularity_c,
                                       config.popularity_alpha};
  workload::StructureModel structure =
      config.structure_weights.empty() ? workload::StructureModel{}
                                       : workload::StructureModel{config.structure_weights};
  const workload::StreamingWorkload workload{stream, std::move(popularity),
                                             std::move(structure), config.seed};

  const auto feed_start = std::chrono::steady_clock::now();
  const FeedTotals feed = feed_streaming_world(config, ring, service, store, workload);
  const double feed_wall_s = wall_seconds_since(feed_start);

  // --- collect metrics -------------------------------------------------------
  SimulationResults r;
  r.articles = stream.size();
  r.build_wall_s = build_wall_s;
  r.feed_wall_s = feed_wall_s;
  ledger.merge(feed.ledger);
  collect_results(config, feed, ledger, ring, service, store, r);

#ifdef DHTIDX_AUDIT
  audit::audit_or_throw("post-run", ring, service, store, audit_options);
#endif

  return r;
}

}  // namespace dhtidx::sim
