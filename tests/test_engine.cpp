// The one simulation engine (sim/sharded.hpp, sim/simulation.hpp).
//
// BuildEquivalence pins the epoch build to the per-article build it replaces:
// IndexBuilder::index_file over a Corpus, article by article, and
// build_world over the same Corpus must leave byte-identical worlds — the
// same snapshot, the same per-node bytes, the same measured frames and
// virtual clock on the bus, and the same substrate state (the random lookup
// origins of Chord, CAN and Pastry advance once per routing call, so the hop
// counts of later lookups expose any extra or missing call).
//
// RestrictionTable runs one configuration per row of run_simulation's
// restriction table and expects the typed error naming the row's axis.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "biblio/corpus.hpp"
#include "dht/can.hpp"
#include "dht/chord.hpp"
#include "dht/pastry.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "net/bus.hpp"
#include "net/transport.hpp"
#include "persist/snapshot.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

namespace dhtidx::sim {
namespace {

enum class Stack { kRingR1, kRingR2, kChordR1, kChordR2, kCanR1, kPastryR1 };

std::string stack_name(Stack stack) {
  switch (stack) {
    case Stack::kRingR1:
      return "ring_r1";
    case Stack::kRingR2:
      return "ring_r2";
    case Stack::kChordR1:
      return "chord_r1";
    case Stack::kChordR2:
      return "chord_r2";
    case Stack::kCanR1:
      return "can_r1";
    case Stack::kPastryR1:
      return "pastry_r1";
  }
  return "?";
}

std::size_t replication_of(Stack stack) {
  return stack == Stack::kRingR2 || stack == Stack::kChordR2 ? 2 : 1;
}

const biblio::Corpus& corpus() {
  static const biblio::Corpus c = [] {
    biblio::CorpusConfig config;
    config.articles = 150;
    config.authors = 50;
    config.conferences = 8;
    return biblio::Corpus::generate(config);
  }();
  return c;
}

/// One world: a substrate built from fixed seeds, store, service and bus.
/// Two Worlds of the same stack start in identical states.
struct World {
  World(Stack stack, TransportKind transport) {
    constexpr std::size_t kNodes = 24;
    switch (stack) {
      case Stack::kRingR1:
      case Stack::kRingR2:
        ring.emplace(dht::Ring::with_nodes(kNodes));
        dht = &*ring;
        break;
      case Stack::kChordR1:
      case Stack::kChordR2:
        chord.emplace(0xC402D);
        for (std::size_t i = 0; i < kNodes; ++i) {
          chord->add_node("node-" + std::to_string(i));
          chord->stabilize_round(4);
          chord->stabilize_round(4);
        }
        chord->stabilize_until_converged();
        dht = &*chord;
        break;
      case Stack::kCanR1:
        can.emplace(0xCA9);
        for (std::size_t i = 0; i < kNodes; ++i) can->add_node("node-" + std::to_string(i));
        dht = &*can;
        break;
      case Stack::kPastryR1:
        pastry.emplace(0x9A57);
        for (std::size_t i = 0; i < kNodes; ++i) pastry->add_node("node-" + std::to_string(i));
        for (int r = 0; r < 3; ++r) pastry->repair_round();
        dht = &*pastry;
        break;
    }
    store.emplace(*dht, ledger, replication_of(stack));
    service.emplace(*dht, ledger, 0, replication_of(stack));
    net::Transport* chosen = nullptr;
    if (transport == TransportKind::kEventQueue) {
      chosen = &event_queue.emplace();
    } else {
      chosen = &in_process.emplace();
    }
    bus.emplace(*chosen);
    store->set_bus(&*bus);
    service->set_bus(&*bus);
  }

  net::TrafficStats* routing_stats() {
    if (chord) return &chord->routing_stats();
    if (can) return &can->routing_stats();
    if (pastry) return &pastry->routing_stats();
    return nullptr;
  }

  std::optional<dht::Ring> ring;
  std::optional<dht::ChordNetwork> chord;
  std::optional<dht::CanNetwork> can;
  std::optional<dht::PastryNetwork> pastry;
  dht::Dht* dht = nullptr;
  net::TrafficLedger ledger;
  std::optional<storage::DhtStore> store;
  std::optional<index::IndexService> service;
  std::optional<net::InProcessTransport> in_process;
  std::optional<net::EventQueueTransport> event_queue;
  std::optional<net::MessageBus> bus;
};

using EquivalenceParam = std::tuple<index::SchemeKind, Stack, TransportKind>;

class BuildEquivalence : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(BuildEquivalence, EpochBuildMatchesPerArticleBuild) {
  const auto [scheme, stack, transport] = GetParam();

  World per_article{stack, transport};
  index::IndexBuilder builder{*per_article.service, *per_article.store,
                              index::IndexingScheme::make(scheme)};
  for (const biblio::Article& article : corpus().articles()) {
    builder.index_file(article.descriptor(), article.file_name(), article.file_bytes);
  }
  per_article.bus->sync();

  World epoch{stack, transport};
  SimulationConfig config;
  config.scheme = scheme;
  config.replication = replication_of(stack);
  build_world(config, *epoch.dht, *epoch.service, *epoch.store, corpus());
  epoch.bus->sync();

  EXPECT_EQ(persist::save_snapshot(*per_article.service, *per_article.store),
            persist::save_snapshot(*epoch.service, *epoch.store));
  EXPECT_GT(per_article.service->totals().mappings, 0u);

  // Per-node bytes, over every member (a node that holds nothing counts 0).
  for (const Id& node : per_article.dht->node_ids()) {
    const auto index_bytes = [&node](const World& world) -> std::uint64_t {
      const index::IndexNodeState* state = world.service->find_state(node);
      return state == nullptr ? 0 : state->byte_size();
    };
    const auto store_bytes = [&node](const World& world) -> std::uint64_t {
      const storage::NodeStore* node_store = world.store->find_node_store(node);
      return node_store == nullptr ? 0 : node_store->byte_size();
    };
    EXPECT_EQ(index_bytes(per_article), index_bytes(epoch)) << node.brief();
    EXPECT_EQ(store_bytes(per_article), store_bytes(epoch)) << node.brief();
  }

  // The frames the build posted, category by category, and the clock.
  const auto expected = per_article.bus->measured().categories();
  const auto actual = epoch.bus->measured().categories();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].stats->messages(), actual[i].stats->messages()) << expected[i].name;
    EXPECT_EQ(expected[i].stats->bytes(), actual[i].stats->bytes()) << expected[i].name;
  }
  EXPECT_GT(epoch.bus->measured().total_messages(), 0u);
  if (transport == TransportKind::kEventQueue) {
    EXPECT_EQ(per_article.event_queue->clock_ms(), epoch.event_queue->clock_ms());
  }

  // Substrate state: routing charged so far, then the next 64 lookups.
  if (net::TrafficStats* routing = per_article.routing_stats(); routing != nullptr) {
    EXPECT_EQ(routing->messages(), epoch.routing_stats()->messages());
    EXPECT_EQ(routing->bytes(), epoch.routing_stats()->bytes());
  }
  for (int k = 0; k < 64; ++k) {
    const Id key = Id::hash("probe-" + std::to_string(k));
    const dht::LookupResult a = per_article.dht->lookup(key);
    const dht::LookupResult b = epoch.dht->lookup(key);
    EXPECT_EQ(a.node, b.node) << k;
    EXPECT_EQ(a.hops, b.hops) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesStacksTransports, BuildEquivalence,
    ::testing::Combine(::testing::Values(index::SchemeKind::kSimple, index::SchemeKind::kFlat,
                                         index::SchemeKind::kComplex),
                       ::testing::Values(Stack::kRingR1, Stack::kRingR2, Stack::kChordR1,
                                         Stack::kChordR2, Stack::kCanR1, Stack::kPastryR1),
                       ::testing::Values(TransportKind::kInProcess,
                                         TransportKind::kEventQueue)),
    [](const ::testing::TestParamInfo<EquivalenceParam>& param_info) {
      return index::to_string(std::get<0>(param_info.param)) + "_" +
             stack_name(std::get<1>(param_info.param)) + "_" +
             (std::get<2>(param_info.param) == TransportKind::kEventQueue ? "eventq" : "inproc");
    });

TEST(RestrictionTable, EveryRowThrowsTheTypedErrorNamingItsAxis) {
  SimulationConfig valid;
  valid.nodes = 16;
  valid.queries = 50;
  valid.corpus.articles = 40;
  valid.corpus.authors = 12;
  valid.corpus.conferences = 4;
  const biblio::Corpus shared = biblio::Corpus::generate(valid.corpus);

  struct Row {
    const char* name;
    ConfigAxis axis;
    SimulationConfig config;
    const biblio::Corpus* shared_corpus = nullptr;
  };
  std::vector<Row> rows;
  const auto row = [&](const char* name, ConfigAxis axis, auto&& mutate,
                       const biblio::Corpus* shared_corpus = nullptr) {
    SimulationConfig config = valid;
    mutate(config);
    rows.push_back(Row{name, axis, config, shared_corpus});
  };
  row("zero queries", ConfigAxis::kQueries, [](SimulationConfig& c) { c.queries = 0; });
  row("sharded materialized", ConfigAxis::kShards, [](SimulationConfig& c) { c.shards = 2; });
  row("streamed chord", ConfigAxis::kSubstrate, [](SimulationConfig& c) {
    c.streaming = true;
    c.substrate = Substrate::kChord;
  });
  row("streamed event queue", ConfigAxis::kTransport, [](SimulationConfig& c) {
    c.streaming = true;
    c.transport = TransportKind::kEventQueue;
  });
  row("streamed churn", ConfigAxis::kChurn, [](SimulationConfig& c) {
    c.streaming = true;
    c.churn.crash_fraction = 0.1;
  });
  row("streamed shared corpus", ConfigAxis::kCorpus,
      [](SimulationConfig& c) { c.streaming = true; }, &shared);
  row("churn on chord", ConfigAxis::kChurn, [](SimulationConfig& c) {
    c.substrate = Substrate::kChord;
    c.churn.crash_fraction = 0.1;
  });
  row("chaos in process", ConfigAxis::kChaos,
      [](SimulationConfig& c) { c.chaos.drop_probability = 0.1; });
  row("chaos on pastry", ConfigAxis::kChaos, [](SimulationConfig& c) {
    c.substrate = Substrate::kPastry;
    c.transport = TransportKind::kEventQueue;
    c.chaos.drop_probability = 0.1;
  });
  row("can r2", ConfigAxis::kReplication, [](SimulationConfig& c) {
    c.substrate = Substrate::kCan;
    c.replication = 2;
  });
  row("pastry r3", ConfigAxis::kReplication, [](SimulationConfig& c) {
    c.substrate = Substrate::kPastry;
    c.replication = 3;
  });

  for (const Row& r : rows) {
    try {
      run_simulation(r.config, r.shared_corpus);
      ADD_FAILURE() << r.name << ": accepted";
    } catch (const UnsupportedConfig& error) {
      EXPECT_EQ(error.axis(), r.axis) << r.name << ": " << error.what();
      EXPECT_NE(std::string(error.what()).find(to_string(r.axis)), std::string::npos)
          << r.name << ": " << error.what();
    }
  }
  // The typed error is still an InvariantError, and the valid base runs.
  EXPECT_THROW(run_simulation(rows.front().config), InvariantError);
  EXPECT_NO_THROW(run_simulation(valid));
  SimulationConfig chord_r2 = valid;
  chord_r2.substrate = Substrate::kChord;
  chord_r2.replication = 2;
  EXPECT_NO_THROW(run_simulation(chord_r2));
}

}  // namespace
}  // namespace dhtidx::sim
