#include "sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#ifdef DHTIDX_AUDIT
#include "audit/audit.hpp"
#endif
#include "biblio/stream.hpp"
#include "common/rss.hpp"
#include "dht/can.hpp"
#include "dht/chord.hpp"
#include "dht/pastry.hpp"
#include "dht/ring.hpp"
#include "net/bus.hpp"
#include "net/chaos.hpp"
#include "net/transport.hpp"
#include "sim/sharded.hpp"
#include "workload/generator.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The restriction table: every configuration the engine rejects, checked
/// before any world is built. The first violated row names the axis.
void check_supported(const SimulationConfig& c, const biblio::Corpus* shared_corpus) {
  const bool ring = c.substrate == Substrate::kRing;
  const struct {
    bool violated;
    ConfigAxis axis;
    const char* why;
  } table[] = {
      {c.queries == 0, ConfigAxis::kQueries,
       "a feed needs at least one query (every per-query average divides by the count)"},
      {c.shards > 1 && !c.streaming, ConfigAxis::kShards,
       "shards > 1 requires a streamed world (config.streaming)"},
      {c.streaming && !ring, ConfigAxis::kSubstrate, "a streamed world requires the ring substrate"},
      {c.streaming && c.transport != TransportKind::kInProcess, ConfigAxis::kTransport,
       "a streamed world has no message bus, so it requires the in-process transport"},
      {c.streaming && c.churn.enabled(), ConfigAxis::kChurn,
       "a streamed world does not support churn"},
      {c.streaming && shared_corpus != nullptr, ConfigAxis::kCorpus,
       "a streamed world synthesizes its own corpus (shared_corpus must be null)"},
      {c.churn.enabled() && !ring, ConfigAxis::kChurn,
       "churn requires the ring substrate (chord/can/pastry have protocol-level failure "
       "handling of their own)"},
      {c.chaos.enabled() && c.transport != TransportKind::kEventQueue, ConfigAxis::kChaos,
       "chaos requires the event-queue transport (frame faults act on queued frames)"},
      {c.chaos.enabled() && !ring, ConfigAxis::kChaos,
       "chaos requires the ring substrate (like churn, the protocol substrates have failure "
       "handling of their own)"},
      {c.replication > 1 && (c.substrate == Substrate::kCan || c.substrate == Substrate::kPastry),
       ConfigAxis::kReplication,
       "replication > 1 requires a substrate with a replica set (ring or chord); CAN and "
       "Pastry would silently keep one copy"},
  };
  for (const auto& row : table) {
    if (row.violated) throw UnsupportedConfig(row.axis, row.why);
  }
}

/// A deterministic sample of `fraction` of the sorted member list.
std::vector<Id> sample_members(const dht::Dht& dht, double fraction, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Id> members = dht.node_ids();
  std::sort(members.begin(), members.end());
  const auto count = static_cast<std::size_t>(fraction * static_cast<double>(members.size()));
  std::vector<Id> sample;
  sample.reserve(count);
  for (std::size_t k = 0; k < count && !members.empty(); ++k) {
    const std::size_t pick = rng.next_index(members.size());
    sample.push_back(members[pick]);
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return sample;
}

/// Fills the SimulationResults fields every world shares: the configuration
/// echo, the feed's session counters and per-query averages, hit ratio,
/// cache occupancy, index and store totals, and node-load fractions.
/// `ledger` is the whole query-phase analytic ledger. Call after the feed,
/// before any repair changes membership.
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

}  // namespace

const char* to_string(ConfigAxis axis) {
  constexpr const char* kNames[] = {"queries", "shards", "substrate", "transport",
                                    "churn",   "chaos",  "corpus",    "replication"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(ConfigAxis::kReplication) + 1);
  return kNames[static_cast<std::size_t>(axis)];
}

SimulationResults run_simulation(const SimulationConfig& config,
                                 const biblio::Corpus* shared_corpus) {
  check_supported(config, shared_corpus);

  // --- the world -------------------------------------------------------------
  // A materialized world holds its corpus; a streamed world synthesizes
  // articles and queries on demand.
  const bool materialized = !config.streaming;
  std::optional<biblio::Corpus> local_corpus;
  std::optional<biblio::ArticleStream> stream;
  const biblio::Corpus* corpus = shared_corpus;
  if (!materialized) {
    stream.emplace(config.corpus);
  } else if (corpus == nullptr) {
    corpus = &local_corpus.emplace(biblio::Corpus::generate(config.corpus));
  }

  std::optional<dht::Ring> ring_substrate;
  std::optional<dht::ChordNetwork> chord_substrate;
  std::optional<dht::CanNetwork> can_substrate;
  std::optional<dht::PastryNetwork> pastry_substrate;
  dht::Dht* substrate = nullptr;
  net::TrafficStats* routing = nullptr;  // substrate routing charges, when it routes
  switch (config.substrate) {
    case Substrate::kRing:
      ring_substrate.emplace(dht::Ring::with_nodes(config.nodes));
      substrate = &*ring_substrate;
      break;
    case Substrate::kChord:
      chord_substrate.emplace(config.seed ^ 0xC402D);
      for (std::size_t i = 0; i < config.nodes; ++i) {
        chord_substrate->add_node("node-" + std::to_string(i));
        chord_substrate->stabilize_round(4);
        chord_substrate->stabilize_round(4);
      }
      if (chord_substrate->stabilize_until_converged() < 0) {
        throw InvariantError("chord substrate failed to converge");
      }
      substrate = &*chord_substrate;
      routing = &chord_substrate->routing_stats();
      break;
    case Substrate::kCan:
      can_substrate.emplace(config.seed ^ 0xCA9);
      for (std::size_t i = 0; i < config.nodes; ++i) {
        can_substrate->add_node("node-" + std::to_string(i));
      }
      substrate = &*can_substrate;
      routing = &can_substrate->routing_stats();
      break;
    case Substrate::kPastry:
      pastry_substrate.emplace(config.seed ^ 0x9A57);
      for (std::size_t i = 0; i < config.nodes; ++i) {
        pastry_substrate->add_node("node-" + std::to_string(i));
      }
      for (int r = 0; r < 3; ++r) pastry_substrate->repair_round();
      if (!pastry_substrate->leaf_sets_correct()) {
        throw InvariantError("pastry substrate failed to converge");
      }
      substrate = &*pastry_substrate;
      routing = &pastry_substrate->routing_stats();
      break;
  }
  dht::Dht& ring = *substrate;
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger, config.replication};
  index::IndexService service{ring, ledger, config.cache_capacity, config.replication};

  // Message layer (materialized worlds only, which keeps streamed results
  // identical across --shards): every RPC additionally travels as a typed
  // net::Message so the bus's measured ledger counts serialized frame bytes
  // next to the analytic estimates in `ledger`. The in-process transport
  // delivers synchronously (zero-copy, behaviour identical to direct calls);
  // the event-queue transport encodes, queues and decodes every frame.
  std::optional<net::InProcessTransport> in_process;
  std::optional<net::EventQueueTransport> event_queue;
  std::optional<net::MessageBus> bus;
  if (materialized) {
    net::Transport* transport = nullptr;
    if (config.transport == TransportKind::kEventQueue) {
      transport = &event_queue.emplace();
    } else {
      transport = &in_process.emplace();
    }
    bus.emplace(*transport);
    service.set_bus(&*bus);
    store.set_bus(&*bus);
  }

  // One ChaosInjector serves both fault planes: churn uses the inherited
  // crash/drop delivery plane (its coin stream is seeded exactly like the old
  // FailureInjector, so churn-only goldens replay unchanged), chaos adds the
  // frame plane on the event-queue transport.
  const bool churn_enabled = config.churn.enabled();
  const bool chaos_enabled = config.chaos.enabled();
  std::optional<net::ChaosInjector> injector;
  if (churn_enabled || chaos_enabled) {
    injector.emplace(config.seed ^ 0xFA11C0DEull);
    service.set_failures(&*injector);
    store.set_failures(&*injector);
    service.set_retry_policy(config.retry);
    store.set_retry_policy(config.retry);
  }
  if (chaos_enabled) {
    bus->set_retry_policy(config.retry);
    event_queue->set_chaos(&*injector);
  }

  // --- build -----------------------------------------------------------------
  const auto build_start = std::chrono::steady_clock::now();
  if (materialized) {
    build_world(config, ring, service, store, *corpus);
    bus->sync();  // flush publish/store frames queued during the build
  } else {
    build_streaming_world(config, ring, service, store, *stream);
  }
  const double build_wall_s = wall_seconds_since(build_start);
#ifdef DHTIDX_AUDIT
  // Phase boundary: the index is fully built, no query has run. Any audit
  // traffic lands before the resets below, so measurements are unaffected.
  const index::IndexingScheme audit_scheme = index::IndexingScheme::make(config.scheme);
  audit::Options audit_options;
  audit_options.scheme = &audit_scheme;
  audit::audit_or_throw("post-build", ring, service, store, audit_options);
#endif
  // Index construction traffic is not part of the per-query measurements --
  // neither the analytic estimates nor the measured wire bytes.
  ledger.reset();
  if (bus) bus->measured().reset();
  if (routing != nullptr) routing->reset();

  // --- feed --------------------------------------------------------------------
  SimulationResults r;
  r.articles = materialized ? corpus->size() : stream->size();
  workload::PopularityModel popularity{r.articles, config.popularity_c,
                                       config.popularity_alpha};
  workload::StructureModel structure =
      config.structure_weights.empty() ? workload::StructureModel{}
                                       : workload::StructureModel{config.structure_weights};

  // The schedule, by feed fraction: the crash point (then periodic publisher
  // refreshes), and the adversary's start and heal points.
  const auto at_fraction = [&](bool enabled, double fraction) {
    return enabled ? static_cast<std::size_t>(static_cast<double>(config.queries) * fraction)
                   : config.queries;
  };
  const std::size_t crash_at = at_fraction(churn_enabled, config.churn.crash_point);
  bool churned = false;
  std::vector<Id> crashed_ids;
  std::uint64_t post_churn_interactions = 0;
  const std::size_t chaos_start_at = at_fraction(chaos_enabled, config.chaos.start_point);
  const std::size_t chaos_heal_at =
      chaos_enabled ? std::max(chaos_start_at + 1, at_fraction(true, config.chaos.heal_point))
                    : config.queries;
  bool chaos_started = false;
  bool chaos_healed = false;
  double heal_clock_ms = 0.0;

  std::optional<index::IndexBuilder> builder;
  if (materialized) {
    builder.emplace(service, store, index::IndexingScheme::make(config.scheme));
  }
  const auto republish_all = [&](std::uint64_t now) {
    for (const biblio::Article& article : corpus->articles()) {
      const std::string name = article.file_name();
      builder->republish(article.descriptor(), now, &name, article.file_bytes);
    }
  };
  const auto heal = [&] {
    injector->clear_profile();
    injector->heal();
    chaos_healed = true;
    heal_clock_ms = event_queue->clock_ms();
  };

  // Fires before query i of a materialized world (epoch length 1, so every
  // query is a boundary).
  const auto at_boundary = [&](std::size_t i) {
    if (churn_enabled && !churned && i >= crash_at) {
      // Crash a deterministic sample of nodes: their disks (index partition
      // and record store) are gone and RPCs to them fail. Ring membership is
      // left untouched -- the failures are undetected by the substrate, which
      // is exactly what replica failover has to survive.
      crashed_ids = sample_members(ring, config.churn.crash_fraction, config.seed ^ 0x0c11a05ull);
      for (const Id& victim : crashed_ids) {
        injector->crash(victim);
        r.mappings_lost += service.drop_node(victim);
        r.records_lost += store.drop_node(victim);
      }
      r.crashed_nodes = crashed_ids.size();
      for (std::size_t j = 0; j < config.churn.joins; ++j) {
        const Id joined = Id::hash("joined-" + std::to_string(j));
        ring_substrate->add(joined);
        service.state_at(joined);  // like every member's, created before it serves
      }
      r.joined_nodes = config.churn.joins;
      injector->set_drop_probability(config.churn.drop_probability);
      churned = true;
    }
    if (churned && config.churn.republish_interval != 0 && i > crash_at &&
        (i - crash_at) % config.churn.republish_interval == 0) {
      // Publisher soft-state refresh: re-announce records and mappings so
      // copies lost in the crash are re-created on the surviving replicas.
      republish_all(i);
      ++r.republish_rounds;
    }
    if (chaos_enabled && !chaos_started && i >= chaos_start_at) {
      // The adversary wakes up: frames start suffering seeded faults and a
      // deterministic node sample is cut off behind an asymmetric partition.
      // Unlike a crash, partitioned nodes keep their disks — the interesting
      // failure mode is the stale state they host until the heal.
      net::ChaosProfile profile;
      profile.drop_probability = config.chaos.drop_probability;
      profile.corrupt_probability = config.chaos.corrupt_probability;
      profile.duplicate_probability = config.chaos.duplicate_probability;
      profile.delay_probability = config.chaos.delay_probability;
      profile.delay_ms = config.chaos.delay_ms;
      profile.reorder_probability = config.chaos.reorder_probability;
      profile.reorder_window_ms = config.chaos.reorder_window_ms;
      injector->set_profile(profile);
      if (config.chaos.partition_fraction > 0.0) {
        const std::vector<Id> victims =
            sample_members(ring, config.chaos.partition_fraction, config.seed ^ 0x9a2717ull);
        injector->install_partition(victims);
        r.partitioned_nodes = victims.size();
      }
      chaos_started = true;
    }
    if (chaos_started && !chaos_healed && i >= chaos_heal_at) heal();
  };

  const auto feed_start = std::chrono::steady_clock::now();
  FeedTotals feed;
  if (materialized) {
    workload::QueryGenerator generator{*corpus, std::move(popularity), std::move(structure),
                                       config.seed};
    FeedPlan plan;
    plan.request_at = [&](std::size_t) {
      workload::Request drawn = generator.next();
      const std::size_t article = drawn.article_index;
      return workload::StreamingRequest{article, drawn.structure, std::move(drawn.query),
                                        corpus->article(article).msd()};
    };
    if (churn_enabled || chaos_enabled) plan.at_boundary = at_boundary;
    if (churn_enabled) {
      plan.observe = [&](const index::LookupOutcome& outcome) {
        if (!churned) return;
        ++r.sessions_after_churn;
        post_churn_interactions += static_cast<std::uint64_t>(outcome.interactions);
        if (!outcome.found) ++r.failed_after_churn;
        if (!outcome.non_indexed) {
          ++r.indexed_sessions_after_churn;
          if (!outcome.found) ++r.indexed_failed_after_churn;
        }
      };
    }
    feed = feed_world(config, ring, service, store, plan);
  } else {
    const workload::StreamingWorkload workload{*stream, std::move(popularity),
                                               std::move(structure), config.seed};
    feed = feed_streaming_world(config, ring, service, store, workload);
  }

  // Short feeds (or heal_point >= 1.0) can end before the scheduled heal;
  // force it so metrics and the post-run audit always see a healed network.
  if (chaos_started && !chaos_healed) heal();

  // --- collect metrics -------------------------------------------------------
  r.build_wall_s = build_wall_s;
  r.feed_wall_s = wall_seconds_since(feed_start);
  ledger.merge(feed.ledger);
  collect_results(config, feed, ledger, ring, service, store, r);
  const double n_queries = static_cast<double>(config.queries);

  if (bus) {
    // Measured wire traffic: flush any frames still queued from the last
    // session, then snapshot the bus ledger before repair-phase maintenance
    // traffic is generated.
    bus->sync();
    r.wire_ledger = bus->measured();
    r.wire_normal_traffic_per_query =
        static_cast<double>(r.wire_ledger.normal_bytes()) / n_queries;
    r.wire_cache_traffic_per_query =
        static_cast<double>(r.wire_ledger.cache.bytes()) / n_queries;
    r.wire_messages = r.wire_ledger.total_messages();
  }
  if (event_queue) r.event_clock_ms = event_queue->clock_ms();

  // Availability under churn.
  r.retry_backoff_ms = service.retry_backoff_ms();
  if (r.sessions_after_churn > 0) {
    const double sessions = static_cast<double>(r.sessions_after_churn);
    r.post_churn_success = 1.0 - static_cast<double>(r.failed_after_churn) / sessions;
    r.avg_interactions_after_churn = static_cast<double>(post_churn_interactions) / sessions;
  }
  if (r.indexed_sessions_after_churn > 0) {
    r.post_churn_indexed_success =
        1.0 - static_cast<double>(r.indexed_failed_after_churn) /
                  static_cast<double>(r.indexed_sessions_after_churn);
  }

  if (routing != nullptr) {
    r.routing_bytes = routing->bytes();
    r.avg_routing_hops_per_lookup =
        feed.interactions == 0
            ? 0.0
            : static_cast<double>(routing->messages()) / static_cast<double>(feed.interactions);
  }

  // --- repair ----------------------------------------------------------------
  // After the measured feed: the substrate finally detects the crashes,
  // membership is cleaned up, placement is rebalanced and publishers
  // re-announce, so the post-run audit checks a repaired, replica-consistent
  // world. (All maintenance traffic, not part of the measurements above.)
  if ((churned || chaos_started) && config.churn.repair_at_end) {
    injector->set_drop_probability(0.0);
    for (const Id& dead : crashed_ids) {
      ring_substrate->remove(dead);
      injector->recover(dead);
    }
    r.repair_moves += store.rebalance();
    r.repair_moves += service.rebalance();
    republish_all(config.queries);
    index::LookupEngine{service, store, {config.policy}}.purge_stale_shortcuts();
    bus->sync();  // flush republish frames before the world is torn down
  }

  if (chaos_started) {
    r.chaos_frames_dropped = injector->dropped_frames();
    r.chaos_frames_duplicated = injector->duplicated_frames();
    r.chaos_frames_reordered = injector->reordered_frames();
    r.chaos_frames_delayed = injector->delayed_frames();
    r.chaos_frames_corrupted = injector->corrupted_frames();
    r.bus_timeouts = bus->timeouts();
    r.bus_duplicates = bus->duplicates_detected();
    r.bus_rejected = bus->rejected_frames();
    // Virtual time from the heal to the end of repair: how long the network
    // took to re-converge once the adversary stopped.
    r.convergence_ms = event_queue->clock_ms() - heal_clock_ms;
  }

#ifdef DHTIDX_AUDIT
  // Phase boundary: the query feed is done and every metric collected. For a
  // SweepRunner sweep this is the end-of-cell audit -- the whole world is
  // cell-local and about to be destroyed. After a repaired outage the world
  // must actually be quiescent, so invariant 9 is enforced rather than
  // skipped.
  audit_options.chaos = injector ? &*injector : nullptr;
  audit_options.require_quiescent =
      (churned || chaos_started) && config.churn.repair_at_end;
  audit::audit_or_throw("post-run", ring, service, store, audit_options);
#endif

  return r;
}

std::string config_label(const SimulationConfig& config) {
  std::string label = index::to_string(config.scheme) + "/" + index::to_string(config.policy);
  if (index::bounded_cache(config.policy)) {
    label += " " + std::to_string(config.cache_capacity);
  }
  if (config.replication > 1) {
    label += " r" + std::to_string(config.replication);
  }
  if (config.churn.enabled()) {
    label += " churn";
  }
  if (config.chaos.enabled()) {
    label += " chaos";
  }
  if (config.transport != TransportKind::kInProcess) {
    label += " ";
    label += to_string(config.transport);
  }
  return label;
}

}  // namespace dhtidx::sim
