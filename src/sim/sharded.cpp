#include "sim/sharded.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "index/lookup.hpp"
#include "index/scheme.hpp"
#include "workload/streaming.hpp"
#include "xml/writer.hpp"

namespace dhtidx::sim {

namespace {

using query::Query;

/// Articles per bulk-synchronous build epoch. Fixed (never derived from the
/// shard count or machine), so the epoch boundaries — and therefore the
/// interner's growth schedule — are identical for every S.
constexpr std::size_t kBuildEpoch = 8192;

/// Queries per feed epoch of a streamed caching world. The epoch length is
/// observable semantics, not a tuning knob: a session can only hit shortcuts
/// installed in *earlier* epochs (the lookup sub-phase reads a frozen
/// snapshot), so changing this constant changes hit ratios.
/// Like kBuildEpoch it must never depend on S or the machine — that is what
/// keeps the sweep JSON bit-identical across --shards. Smaller epochs track
/// the paper's fully sequential warm-up more closely; 1024 keeps the
/// deviation below a percent at paper scale while leaving each worker
/// hundreds of sessions of parallel work per barrier.
constexpr std::size_t kFeedEpoch = 1024;

constexpr std::uint32_t kNoPending = query::InternRequests::kNoPending;

/// One build-phase operation, totally ordered by (vt, seq): vt is the global
/// article index (disjoint across producers), seq the emission order within
/// the article. Draining a node's operations in this order reproduces
/// put()/insert_interned() per article exactly.
struct Op {
  std::uint64_t vt = 0;
  std::uint32_t seq = 0;
  bool is_store = false;  ///< store a record replica vs publish a mapping
  std::uint8_t copy = 0;  ///< publish ops: which copy (0 = the primary)
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
/// Membership is fixed for a run with S > 1 (only one-shard worlds churn).
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
/// sub-phase. Same epoch-buffer shape as index::CacheDeltaLog (run_epoch).
struct Producer {
  explicit Producer(std::size_t shards) : queues(shards) {}

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

  void reset() DHTIDX_REQUIRES(phase_) {
    records.clear();
    interns.phase_.assert_exclusive();  // same phase structure as the owner
    interns.reset();
    for (std::vector<Op>& queue : queues) queue.clear();
  }

  const std::vector<Op>& queue(std::size_t shard) const DHTIDX_REQUIRES_SHARED(phase_) {
    return queues[shard];
  }
};

/// Runs `body(0..count-1)` on `count` workers; inline when count == 1 (the
/// single-shard path uses the exact same code, just without threads). The
/// join is the phase barrier; the first worker exception is rethrown.
template <typename Body>
void run_workers(std::size_t count, const Body& body) {
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

/// One bulk-synchronous epoch over per-worker buffers (the build's
/// Producers, the feed's CacheDeltaLogs), one buffer per shard:
/// (fill) worker w records into buffers[w]; (intern) the driver interns every
/// buffer's new queries — the only writes the shared pool ever sees;
/// (apply) worker t merges the queues addressed to shard t by (vt, seq) and
/// calls apply(t, buffer, item) on each item, read-only on the buffers.
template <typename Buffer, typename Fill, typename Apply>
void run_epoch(std::vector<Buffer>& buffers, query::QueryInterner& interner,
               const Fill& fill, const Apply& apply) {
  for (Buffer& buffer : buffers) {
    buffer.phase_.assert_exclusive();  // between epochs: no workers running
    buffer.reset();
  }
  run_workers(buffers.size(), [&](std::size_t w) {
    buffers[w].phase_.assert_exclusive();  // worker w is buffer w's sole owner
    buffers[w].interns.phase_.assert_exclusive();
    fill(w, buffers[w]);
  });
  for (Buffer& buffer : buffers) {
    buffer.phase_.assert_exclusive();  // serial sub-phase: driver is alone
    buffer.interns.phase_.assert_exclusive();
    buffer.interns.intern_all(interner);
  }
  run_workers(buffers.size(), [&](std::size_t t) {
    std::vector<const std::remove_cvref_t<decltype(buffers[0].queue(0))>*> queues;
    queues.reserve(buffers.size());
    for (const Buffer& buffer : buffers) {
      buffer.phase_.assert_shared();  // apply sub-phase: buffers frozen
      queues.push_back(&buffer.queue(t));
    }
    merge_by_virtual_time(queues, [&](std::size_t p, const auto& item) {
      const Buffer& buffer = buffers[p];
      buffer.phase_.assert_shared();  // read-only rights, shared with peers
      buffer.interns.phase_.assert_shared();
      apply(t, buffer, item);
    });
  });
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

template <typename ArticleSource>
void build_world(const SimulationConfig& config, dht::Dht& dht,
                 index::IndexService& service, storage::DhtStore& store,
                 const ArticleSource& source) {
  const std::size_t shards = std::max<std::size_t>(config.shards, 1);
  const index::IndexingScheme scheme = index::IndexingScheme::make(config.scheme);
  query::QueryInterner& interner = service.interner();

  // Pre-create every node's index partition and record store. The outer
  // FlatMaps are structurally frozen before any worker runs: parallel phases
  // only mutate values they own, never the maps themselves (a FlatMap insert
  // would invalidate every other worker's references).
  const ShardMap shard_map{dht.node_ids(), shards};
  for (const Id& node : shard_map.members()) {
    service.state_at(node);
    store.node_store(node);
  }

  std::vector<Producer> producers;
  producers.reserve(shards);
  for (std::size_t p = 0; p < shards; ++p) producers.emplace_back(shards);
  const std::size_t total = source.size();

  for (std::size_t epoch_start = 0; epoch_start < total; epoch_start += kBuildEpoch) {
    const std::size_t epoch_end = std::min(total, epoch_start + kBuildEpoch);
    run_epoch(
        producers, interner,
        // (produce) -- synthesize articles, compute placements, emit
        // operations. Producer p owns articles i with i % S == p, walked in
        // increasing i, so each queue is (vt, seq)-sorted by construction.
        // The placements make the substrate calls put() and
        // insert_interned() make, in their order.
        [&](std::size_t p, Producer& producer) {
          producer.phase_.assert_exclusive();  // worker p is producer p's sole owner
          producer.interns.phase_.assert_exclusive();
          for (std::size_t i = epoch_start; i < epoch_end; ++i) {
            if (i % shards != p) continue;
            const biblio::Article& article = source.article(i);
            const xml::Element descriptor = article.descriptor();
            const Query msd = Query::most_specific(descriptor);
            std::uint32_t seq = 0;

            // The stored file record, one op per copy.
            storage::Record record;
            record.kind = "file:" + article.file_name();
            record.payload = xml::write(descriptor, {.pretty = false});
            record.virtual_payload_bytes = article.file_bytes;
            const Id file_key = msd.key();
            const auto record_slot = static_cast<std::uint32_t>(producer.records.size());
            producer.records.push_back(std::move(record));
            for (const Id& replica : store.placement(file_key).replicas) {
              Op op;
              op.vt = i;
              op.seq = seq++;
              op.is_store = true;
              op.node = replica;
              op.key = file_key;
              op.record = record_slot;
              producer.queues[shard_map.shard_of(op.node)].push_back(op);
            }

            // The scheme's mappings, one op per copy. The key comes from the
            // source's interned ref or pending slot, so each distinct source
            // is hashed once, not once per article that maps to it.
            for (index::Mapping& m : scheme.mappings_for(msd)) {
              Op op;
              op.vt = i;
              producer.interns.resolve(interner, std::move(m.source), op.source,
                                       op.source_pending);
              producer.interns.resolve(interner, std::move(m.target), op.target,
                                       op.target_pending);
              const Id source_key = op.source != nullptr
                                        ? op.source->key()
                                        : producer.interns.pending[op.source_pending].key();
              const std::vector<Id> replicas = service.placement(source_key);
              for (std::size_t c = 0; c < replicas.size(); ++c) {
                op.seq = seq++;
                op.copy = static_cast<std::uint8_t>(c);
                op.node = replicas[c];
                producer.queues[shard_map.shard_of(op.node)].push_back(op);
              }
            }
          }
        },
        // (apply) -- write each copy to the node this shard owns. Appliers
        // only ever *read* producer state: a record replicated across nodes
        // owned by different shards is copied concurrently, so there must be
        // no mutating fast path (a "move on last replica" would race with
        // another shard's copy of the same record).
        [&](std::size_t, const Producer& producer, const Op& op) {
          producer.phase_.assert_shared();  // read-only rights, shared with peers
          producer.interns.phase_.assert_shared();
          if (op.is_store) {
            store.place(*store.find_node_store(op.node), op.node, op.key,
                        producer.records[op.record]);
          } else {
            // No covering check here: the scheme guarantees source ⊒ target
            // by construction and the DHTIDX_AUDIT pass re-verifies it.
            service.place(*service.find_state(op.node), op.node, op.copy,
                          producer.interns.ref_of(op.source, op.source_pending),
                          producer.interns.ref_of(op.target, op.target_pending), 0);
          }
        });
  }
}

template void build_world(const SimulationConfig&, dht::Dht&, index::IndexService&,
                          storage::DhtStore&, const biblio::Corpus&);
template void build_world(const SimulationConfig&, dht::Dht&, index::IndexService&,
                          storage::DhtStore&, const biblio::ArticleStream&);

FeedTotals feed_world(const SimulationConfig& config, dht::Dht& dht,
                      index::IndexService& service, storage::DhtStore& store,
                      const FeedPlan& plan) {
  const std::size_t shards = std::max<std::size_t>(config.shards, 1);
  // The epoch length is a property of the world (see sim/sharded.hpp).
  const std::size_t epoch = !config.streaming ? 1
                            : index::caching_enabled(config.policy) ? kFeedEpoch
                                                                    : config.queries;
  std::vector<FeedTotals> accumulators(shards);

  // Sessions read the shortcut caches as a frozen snapshot and record their
  // mutations into per-worker epoch logs; the apply sub-phase replays the
  // deltas in (vt, seq) order, so every cache evolves in the exact order a
  // sequential pass over the epochs would have produced — for every S.
  const ShardMap shard_map{dht.node_ids(), shards};
  std::vector<index::CacheDeltaLog> logs;
  std::vector<index::LookupEngine> engines;
  logs.reserve(shards);
  engines.reserve(shards);
  for (std::size_t w = 0; w < shards; ++w) {
    logs.emplace_back(service.interner(), shards,
                      [&shard_map](const Id& node) { return shard_map.shard_of(node); });
    engines.emplace_back(service, store, index::LookupConfig{config.policy});
  }

  for (std::size_t epoch_start = 0; epoch_start < config.queries; epoch_start += epoch) {
    const std::size_t epoch_end = std::min(config.queries, epoch_start + epoch);
    if (plan.at_boundary) plan.at_boundary(epoch_start);
    run_epoch(
        logs, service.interner(),
        // (lookup) -- worker w serves the sessions with index ≡ w (mod S)
        // against the frozen caches, recording cache deltas. Walked in
        // increasing i, so each queue is (vt, seq)-sorted by construction.
        [&](std::size_t w, index::CacheDeltaLog& log) {
          log.phase_.assert_exclusive();  // worker w is log w's sole owner
          FeedTotals& acc = accumulators[w];
          const net::ScopedLedgerOverride scope{&acc.ledger};
          for (std::size_t i = epoch_start; i < epoch_end; ++i) {
            if (i % shards != w) continue;
            log.begin_session(i);
            const workload::StreamingRequest request = plan.request_at(i);
            const index::LookupOutcome outcome =
                engines[w].resolve(request.query, request.target_msd, log);
            acc.fold(outcome);
            if (plan.observe) plan.observe(outcome);
          }
        },
        // (apply) -- hand each delta to the cache this shard owns, charging
        // install traffic to this worker's accumulator (the lookup workers
        // are past the barrier).
        [&](std::size_t t, const index::CacheDeltaLog& log,
            const index::CacheDeltaLog::Delta& delta) {
          index::IndexNodeState* state = service.find_state(delta.node);
          if (state == nullptr) {
            throw InvariantError(
                "feed: cache delta addressed to a node with no index partition "
                "(the build and every join create one per member)");
          }
          log.apply(delta, state->cache(), accumulators[t].ledger, service.bus());
        });
  }

  FeedTotals totals;
  for (const FeedTotals& acc : accumulators) totals.merge(acc);
  return totals;
}

FeedTotals feed_streaming_world(const SimulationConfig& config, dht::Dht& dht,
                                index::IndexService& service,
                                storage::DhtStore& store,
                                const workload::StreamingWorkload& workload) {
  FeedPlan plan;
  plan.request_at = [&workload](std::size_t i) { return workload.request_at(i); };
  return feed_world(config, dht, service, store, plan);
}

}  // namespace dhtidx::sim
