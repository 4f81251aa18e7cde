// Integration: scaled-down versions of the paper's experiments, asserting
// the qualitative relationships the evaluation reports.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace dhtidx::sim {
namespace {

using index::CachePolicy;
using index::SchemeKind;

SimulationConfig small_config(SchemeKind scheme, CachePolicy policy,
                              std::size_t capacity = 0) {
  SimulationConfig config;
  config.nodes = 100;
  config.queries = 12000;
  config.scheme = scheme;
  config.policy = policy;
  config.cache_capacity = capacity;
  config.corpus.articles = 2500;
  config.corpus.authors = 800;
  config.corpus.conferences = 24;
  return config;
}

class SimulationFixture : public ::testing::Test {
 protected:
  static const biblio::Corpus& corpus() {
    static const biblio::Corpus c = [] {
      SimulationConfig config = small_config(SchemeKind::kSimple, CachePolicy::kNone);
      return biblio::Corpus::generate(config.corpus);
    }();
    return c;
  }

  static SimulationResults run(SchemeKind scheme, CachePolicy policy,
                               std::size_t capacity = 0) {
    return run_simulation(small_config(scheme, policy, capacity), &corpus());
  }
};

TEST_F(SimulationFixture, AllLookupsSucceed) {
  for (const SchemeKind scheme :
       {SchemeKind::kSimple, SchemeKind::kFlat, SchemeKind::kComplex}) {
    const SimulationResults r = run(scheme, CachePolicy::kNone);
    EXPECT_EQ(r.failed_lookups, 0u) << index::to_string(scheme);
  }
}

TEST_F(SimulationFixture, Figure11InteractionOrdering) {
  // Flat needs the fewest interactions, complex the most.
  const auto simple = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto flat = run(SchemeKind::kFlat, CachePolicy::kNone);
  const auto complex = run(SchemeKind::kComplex, CachePolicy::kNone);
  EXPECT_LT(flat.avg_interactions, simple.avg_interactions);
  EXPECT_LT(simple.avg_interactions, complex.avg_interactions);
  // Rough absolute bands.
  EXPECT_NEAR(flat.avg_interactions, 2.0, 0.4);
  EXPECT_NEAR(simple.avg_interactions, 3.0, 0.4);
  EXPECT_NEAR(complex.avg_interactions, 3.6, 0.5);
}

TEST_F(SimulationFixture, Figure11CachingReducesInteractions) {
  const auto none = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto lru10 = run(SchemeKind::kSimple, CachePolicy::kLru, 10);
  const auto lru30 = run(SchemeKind::kSimple, CachePolicy::kLru, 30);
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  EXPECT_LT(single.avg_interactions, none.avg_interactions);
  EXPECT_LE(lru30.avg_interactions, lru10.avg_interactions + 0.02);
  EXPECT_LE(single.avg_interactions, lru30.avg_interactions + 0.02);
}

TEST_F(SimulationFixture, Figure12FlatGeneratesMostTraffic) {
  const auto simple = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto flat = run(SchemeKind::kFlat, CachePolicy::kNone);
  const auto complex = run(SchemeKind::kComplex, CachePolicy::kNone);
  EXPECT_GT(flat.normal_traffic_per_query, 1.5 * simple.normal_traffic_per_query);
  EXPECT_GT(flat.normal_traffic_per_query, 1.5 * complex.normal_traffic_per_query);
}

TEST_F(SimulationFixture, Figure12CachingSavesNormalTraffic) {
  const auto none = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  EXPECT_LT(single.normal_traffic_per_query, none.normal_traffic_per_query);
  EXPECT_GT(single.cache_traffic_per_query, 0.0);
  EXPECT_EQ(none.cache_traffic_per_query, 0.0);
}

TEST_F(SimulationFixture, Figure13HitRatios) {
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  const auto multi = run(SchemeKind::kSimple, CachePolicy::kMulti);
  const auto lru10 = run(SchemeKind::kSimple, CachePolicy::kLru, 10);
  // Substantial hit ratios under the skewed workload.
  EXPECT_GT(single.hit_ratio, 0.3);
  EXPECT_LT(single.hit_ratio, 0.95);
  // Multi-cache is only marginally better than single-cache.
  EXPECT_GE(multi.hit_ratio + 1e-9, single.hit_ratio);
  EXPECT_LT(multi.hit_ratio - single.hit_ratio, 0.15);
  // Bounded caches lose some but retain a good share (paper: more than half
  // of the unbounded efficiency already at 10 entries).
  EXPECT_GT(lru10.hit_ratio, 0.3 * single.hit_ratio);
  EXPECT_LT(lru10.hit_ratio, single.hit_ratio + 1e-9);
  // Most hits occur on the first node of the chain.
  EXPECT_GT(single.first_node_hit_share, 0.7);
}

TEST_F(SimulationFixture, Figure14CacheStorage) {
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  const auto multi = run(SchemeKind::kSimple, CachePolicy::kMulti);
  const auto lru10 = run(SchemeKind::kSimple, CachePolicy::kLru, 10);
  // Multi-cache stores roughly twice as much as single-cache.
  EXPECT_GT(multi.avg_cached_keys_per_node, 1.4 * single.avg_cached_keys_per_node);
  // LRU capacity bounds occupancy.
  EXPECT_LE(static_cast<double>(lru10.max_cached_keys), 10.0);
  EXPECT_LE(lru10.avg_cached_keys_per_node, 10.0);
  // Some caches fill, some stay empty (skewed usage).
  EXPECT_GT(lru10.full_cache_fraction, 0.0);
}

TEST_F(SimulationFixture, Figure14FlatUnaffectedByPlacement) {
  // Flat chains have a single index node, so multi == single placement.
  const auto single = run(SchemeKind::kFlat, CachePolicy::kSingle);
  const auto multi = run(SchemeKind::kFlat, CachePolicy::kMulti);
  // Not bit-identical: non-indexed (author+year) lookups traverse two index
  // nodes even in flat, and multi placement caches on both. That is ~5% of
  // queries, so the occupancy difference stays marginal.
  EXPECT_NEAR(multi.avg_cached_keys_per_node, single.avg_cached_keys_per_node,
              0.05 * single.avg_cached_keys_per_node);
}

TEST_F(SimulationFixture, Figure15HotSpots) {
  const auto r = run(SchemeKind::kSimple, CachePolicy::kNone);
  ASSERT_EQ(r.node_load_fractions.size(), 100u);
  // Sorted descending; the busiest node handles a disproportionate share.
  EXPECT_GE(r.node_load_fractions.front(), r.node_load_fractions.back());
  EXPECT_GT(r.node_load_fractions.front(), 0.03);
  // Summed load exceeds 1 because each query touches several nodes.
  double total = 0.0;
  for (const double f : r.node_load_fractions) total += f;
  EXPECT_GT(total, 1.0);
}

TEST_F(SimulationFixture, TableOneNonIndexedQueries) {
  const auto none = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto single = run(SchemeKind::kSimple, CachePolicy::kSingle);
  const auto lru30 = run(SchemeKind::kSimple, CachePolicy::kLru, 30);
  // ~5% of queries are author+year, which no scheme indexes.
  EXPECT_NEAR(static_cast<double>(none.non_indexed_queries), 0.05 * 12000, 100);
  // Caching reduces the error count (dramatically so at the paper's
  // 50k-queries/10k-articles scale, where repeats dominate; at this reduced
  // scale the distinct-pair count is closer to the draw count). Bounded
  // caches land between unbounded and none.
  EXPECT_LT(single.non_indexed_queries,
            static_cast<std::size_t>(0.8 * static_cast<double>(none.non_indexed_queries)));
  EXPECT_LE(single.non_indexed_queries, lru30.non_indexed_queries);
  EXPECT_LE(lru30.non_indexed_queries, none.non_indexed_queries);
}

TEST_F(SimulationFixture, StorageCostOrdering) {
  // Section V-B: simple is the most space-efficient, flat the least.
  const auto simple = run(SchemeKind::kSimple, CachePolicy::kNone);
  const auto flat = run(SchemeKind::kFlat, CachePolicy::kNone);
  const auto complex = run(SchemeKind::kComplex, CachePolicy::kNone);
  EXPECT_LT(simple.index_bytes, complex.index_bytes);
  EXPECT_LT(simple.index_bytes, flat.index_bytes);
  // Index storage is a tiny fraction of the stored data.
  EXPECT_LT(static_cast<double>(simple.index_bytes),
            0.05 * static_cast<double>(simple.data_bytes));
}

TEST_F(SimulationFixture, GeneralizationCostIsSmall) {
  const auto r = run(SchemeKind::kSimple, CachePolicy::kNone);
  // One extra interaction per non-indexed query, i.e. ~0.05 on average.
  EXPECT_NEAR(r.avg_generalization_steps, 0.05, 0.02);
}

TEST(Simulation, DeterministicForSeed) {
  SimulationConfig config = small_config(SchemeKind::kSimple, CachePolicy::kSingle);
  config.queries = 1000;
  config.corpus.articles = 200;
  const SimulationResults a = run_simulation(config);
  const SimulationResults b = run_simulation(config);
  EXPECT_DOUBLE_EQ(a.avg_interactions, b.avg_interactions);
  EXPECT_DOUBLE_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.non_indexed_queries, b.non_indexed_queries);
  EXPECT_EQ(a.ledger.total_bytes(), b.ledger.total_bytes());
}

TEST(Simulation, ConfigLabel) {
  SimulationConfig config;
  config.scheme = SchemeKind::kFlat;
  config.policy = CachePolicy::kLru;
  config.cache_capacity = 20;
  EXPECT_EQ(config_label(config), "flat/lru 20");
}

/// Every measured scalar of a run at 17 significant digits, the session
/// counters, and each analytic and wire ledger category: two runs with equal
/// digests are indistinguishable to every bench that prints them.
std::string result_digest(const SimulationResults& r) {
  std::string out;
  const auto real = [&out](const char* name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", name, value);
    out += buf;
  };
  const auto count = [&out](const std::string& name, std::uint64_t value) {
    out += name + "=" + std::to_string(value) + "\n";
  };
  real("avg_interactions", r.avg_interactions);
  real("normal_traffic_per_query", r.normal_traffic_per_query);
  real("cache_traffic_per_query", r.cache_traffic_per_query);
  real("hit_ratio", r.hit_ratio);
  real("first_node_hit_share", r.first_node_hit_share);
  real("avg_cached_keys_per_node", r.avg_cached_keys_per_node);
  real("full_cache_fraction", r.full_cache_fraction);
  real("empty_cache_fraction", r.empty_cache_fraction);
  real("avg_regular_keys_per_node", r.avg_regular_keys_per_node);
  real("avg_generalization_steps", r.avg_generalization_steps);
  real("post_churn_success", r.post_churn_success);
  real("post_churn_indexed_success", r.post_churn_indexed_success);
  real("avg_interactions_after_churn", r.avg_interactions_after_churn);
  real("retry_backoff_ms", r.retry_backoff_ms);
  real("wire_normal_traffic_per_query", r.wire_normal_traffic_per_query);
  real("wire_cache_traffic_per_query", r.wire_cache_traffic_per_query);
  real("event_clock_ms", r.event_clock_ms);
  double load_sum = 0.0;
  for (const double f : r.node_load_fractions) load_sum += f;
  real("node_load_sum", load_sum);
  real("node_load_max", r.node_load_fractions.empty() ? 0.0 : r.node_load_fractions.front());
  count("max_cached_keys", r.max_cached_keys);
  count("non_indexed_queries", r.non_indexed_queries);
  count("failed_lookups", r.failed_lookups);
  count("rpc_failures", r.rpc_failures);
  count("degraded_sessions", r.degraded_sessions);
  count("gave_up_sessions", r.gave_up_sessions);
  count("unreachable_sessions", r.unreachable_sessions);
  count("stale_shortcut_invalidations", r.stale_shortcut_invalidations);
  count("sessions_after_churn", r.sessions_after_churn);
  count("failed_after_churn", r.failed_after_churn);
  count("repair_moves", r.repair_moves);
  count("wire_messages", r.wire_messages);
  for (const auto& [name, stats] : r.ledger.categories()) {
    count(std::string("ledger.") + name + ".messages", stats->messages());
    count(std::string("ledger.") + name + ".bytes", stats->bytes());
  }
  for (const auto& [name, stats] : r.wire_ledger.categories()) {
    count(std::string("wire.") + name + ".messages", stats->messages());
    count(std::string("wire.") + name + ".bytes", stats->bytes());
  }
  return out;
}

// Captured before the shortcut-cache mutation paths were unified; every
// later change must reproduce them exactly.
const char* const kSingleDigest =
    "avg_interactions=2.2496666666666667\n"
    "normal_traffic_per_query=576.8843333333333\n"
    "cache_traffic_per_query=180.21566666666666\n"
    "hit_ratio=0.77700000000000002\n"
    "first_node_hit_share=0.94680394680394675\n"
    "avg_cached_keys_per_node=19.824999999999999\n"
    "full_cache_fraction=0\n"
    "empty_cache_fraction=0.10000000000000001\n"
    "avg_regular_keys_per_node=29.5\n"
    "avg_generalization_steps=0.034333333333333334\n"
    "post_churn_success=1\n"
    "post_churn_indexed_success=1\n"
    "avg_interactions_after_churn=0\n"
    "retry_backoff_ms=0\n"
    "wire_normal_traffic_per_query=1889.4383333333333\n"
    "wire_cache_traffic_per_query=60.601333333333336\n"
    "event_clock_ms=0\n"
    "node_load_sum=2.1956666666666669\n"
    "node_load_max=0.25600000000000001\n"
    "max_cached_keys=98\n"
    "non_indexed_queries=93\n"
    "failed_lookups=0\n"
    "rpc_failures=0\n"
    "degraded_sessions=0\n"
    "gave_up_sessions=0\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=0\n"
    "sessions_after_churn=0\n"
    "failed_after_churn=0\n"
    "repair_moves=0\n"
    "wire_messages=15084\n"
    "ledger.queries.messages=6749\n"
    "ledger.queries.bytes=520395\n"
    "ledger.responses.messages=4418\n"
    "ledger.responses.bytes=1210258\n"
    "ledger.cache.messages=3124\n"
    "ledger.cache.bytes=540647\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=0\n"
    "ledger.retries.bytes=0\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=6749\n"
    "wire.queries.bytes=655375\n"
    "wire.responses.messages=6749\n"
    "wire.responses.bytes=5012940\n"
    "wire.cache.messages=793\n"
    "wire.cache.bytes=181804\n"
    "wire.routing.messages=793\n"
    "wire.routing.bytes=44408\n"
    "wire.retries.messages=0\n"
    "wire.retries.bytes=0\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=0\n"
    "wire.timeouts.bytes=0\n"
    "wire.duplicates.messages=0\n"
    "wire.duplicates.bytes=0\n"
    "wire.rejected.messages=0\n"
    "wire.rejected.bytes=0\n";

const char* const kMultiDigest =
    "avg_interactions=2.2403333333333335\n"
    "normal_traffic_per_query=553.36466666666672\n"
    "cache_traffic_per_query=219.47733333333332\n"
    "hit_ratio=0.85399999999999998\n"
    "first_node_hit_share=0.8946135831381733\n"
    "avg_cached_keys_per_node=28.975000000000001\n"
    "full_cache_fraction=0\n"
    "empty_cache_fraction=0.050000000000000003\n"
    "avg_regular_keys_per_node=29.5\n"
    "avg_generalization_steps=0.034333333333333334\n"
    "post_churn_success=1\n"
    "post_churn_indexed_success=1\n"
    "avg_interactions_after_churn=0\n"
    "retry_backoff_ms=0\n"
    "wire_normal_traffic_per_query=1926.9466666666667\n"
    "wire_cache_traffic_per_query=90.537000000000006\n"
    "event_clock_ms=0\n"
    "node_load_sum=2.1873333333333336\n"
    "node_load_max=0.25466666666666665\n"
    "max_cached_keys=161\n"
    "non_indexed_queries=93\n"
    "failed_lookups=0\n"
    "rpc_failures=0\n"
    "degraded_sessions=0\n"
    "gave_up_sessions=0\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=0\n"
    "sessions_after_churn=0\n"
    "failed_after_churn=0\n"
    "repair_moves=0\n"
    "wire_messages=15760\n"
    "ledger.queries.messages=6721\n"
    "ledger.queries.bytes=516945\n"
    "ledger.responses.messages=4159\n"
    "ledger.responses.bytes=1143149\n"
    "ledger.cache.messages=3721\n"
    "ledger.cache.bytes=658432\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=0\n"
    "ledger.retries.bytes=0\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=6721\n"
    "wire.queries.bytes=651365\n"
    "wire.responses.messages=6721\n"
    "wire.responses.bytes=5129475\n"
    "wire.cache.messages=1159\n"
    "wire.cache.bytes=271611\n"
    "wire.routing.messages=1159\n"
    "wire.routing.bytes=64904\n"
    "wire.retries.messages=0\n"
    "wire.retries.bytes=0\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=0\n"
    "wire.timeouts.bytes=0\n"
    "wire.duplicates.messages=0\n"
    "wire.duplicates.bytes=0\n"
    "wire.rejected.messages=0\n"
    "wire.rejected.bytes=0\n";

const char* const kLruDigest =
    "avg_interactions=2.5853333333333333\n"
    "normal_traffic_per_query=983.90933333333328\n"
    "cache_traffic_per_query=197.75700000000001\n"
    "hit_ratio=0.46833333333333332\n"
    "first_node_hit_share=0.8775800711743772\n"
    "avg_cached_keys_per_node=4.2249999999999996\n"
    "full_cache_fraction=0.75\n"
    "empty_cache_fraction=0.10000000000000001\n"
    "avg_regular_keys_per_node=29.5\n"
    "avg_generalization_steps=0.043999999999999997\n"
    "post_churn_success=1\n"
    "post_churn_indexed_success=1\n"
    "avg_interactions_after_churn=0\n"
    "retry_backoff_ms=0\n"
    "wire_normal_traffic_per_query=1503.2326666666668\n"
    "wire_cache_traffic_per_query=135.34266666666667\n"
    "event_clock_ms=0\n"
    "node_load_sum=2.5126666666666657\n"
    "node_load_max=0.28566666666666668\n"
    "max_cached_keys=5\n"
    "non_indexed_queries=129\n"
    "failed_lookups=0\n"
    "rpc_failures=0\n"
    "degraded_sessions=0\n"
    "gave_up_sessions=0\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=0\n"
    "sessions_after_churn=0\n"
    "failed_after_churn=0\n"
    "repair_moves=0\n"
    "wire_messages=19046\n"
    "ledger.queries.messages=7756\n"
    "ledger.queries.bytes=640047\n"
    "ledger.responses.messages=6351\n"
    "ledger.responses.bytes=2311681\n"
    "ledger.cache.messages=3172\n"
    "ledger.cache.bytes=593271\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=0\n"
    "ledger.retries.bytes=0\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=7756\n"
    "wire.queries.bytes=795167\n"
    "wire.responses.messages=7756\n"
    "wire.responses.bytes=3714531\n"
    "wire.cache.messages=1767\n"
    "wire.cache.bytes=406028\n"
    "wire.routing.messages=1767\n"
    "wire.routing.bytes=98952\n"
    "wire.retries.messages=0\n"
    "wire.retries.bytes=0\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=0\n"
    "wire.timeouts.bytes=0\n"
    "wire.duplicates.messages=0\n"
    "wire.duplicates.bytes=0\n"
    "wire.rejected.messages=0\n"
    "wire.rejected.bytes=0\n";

const char* const kChurnDigest =
    "avg_interactions=2.7546666666666666\n"
    "normal_traffic_per_query=1145.6379999999999\n"
    "cache_traffic_per_query=159.607\n"
    "hit_ratio=0.6273333333333333\n"
    "first_node_hit_share=0.92879914984059508\n"
    "avg_cached_keys_per_node=15.949999999999999\n"
    "full_cache_fraction=0\n"
    "empty_cache_fraction=0.32500000000000001\n"
    "avg_regular_keys_per_node=46.725000000000001\n"
    "avg_generalization_steps=0.25766666666666665\n"
    "post_churn_success=0.71599999999999997\n"
    "post_churn_indexed_success=0.78250950570342204\n"
    "avg_interactions_after_churn=3.1466666666666665\n"
    "retry_backoff_ms=560400\n"
    "wire_normal_traffic_per_query=2595.5206666666668\n"
    "wire_cache_traffic_per_query=64.984333333333339\n"
    "event_clock_ms=18872\n"
    "node_load_sum=2.2759999999999998\n"
    "node_load_max=0.25433333333333336\n"
    "max_cached_keys=94\n"
    "non_indexed_queries=240\n"
    "failed_lookups=426\n"
    "rpc_failures=7039\n"
    "degraded_sessions=964\n"
    "gave_up_sessions=40\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=20\n"
    "sessions_after_churn=1500\n"
    "failed_after_churn=426\n"
    "repair_moves=521\n"
    "wire_messages=27601\n"
    "ledger.queries.messages=9435\n"
    "ledger.queries.bytes=795884\n"
    "ledger.responses.messages=6362\n"
    "ledger.responses.bytes=2641030\n"
    "ledger.cache.messages=2748\n"
    "ledger.cache.bytes=478821\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=7039\n"
    "ledger.retries.bytes=650994\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=9435\n"
    "wire.queries.bytes=984584\n"
    "wire.responses.messages=9435\n"
    "wire.responses.bytes=6801978\n"
    "wire.cache.messages=846\n"
    "wire.cache.bytes=194953\n"
    "wire.routing.messages=846\n"
    "wire.routing.bytes=47376\n"
    "wire.retries.messages=7039\n"
    "wire.retries.bytes=791774\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=0\n"
    "wire.timeouts.bytes=0\n"
    "wire.duplicates.messages=0\n"
    "wire.duplicates.bytes=0\n"
    "wire.rejected.messages=0\n"
    "wire.rejected.bytes=0\n";

TEST(Simulation, CachedFeedsMatchPinnedDigests) {
  // Exact results of small materialized cached runs, pinned so that any
  // change to the shortcut-cache path (install, touch, stale invalidation,
  // LRU eviction) that moves a single byte of any bench output fails here.
  SimulationConfig base = small_config(SchemeKind::kSimple, CachePolicy::kSingle);
  base.nodes = 40;
  base.queries = 3000;
  base.corpus.articles = 300;
  base.corpus.authors = 100;
  base.corpus.conferences = 12;

  SimulationConfig multi = base;
  multi.policy = CachePolicy::kMulti;
  SimulationConfig lru = base;
  lru.policy = CachePolicy::kLru;
  lru.cache_capacity = 5;  // small enough that most installs evict
  SimulationConfig churn = base;
  churn.replication = 2;
  churn.churn.crash_fraction = 0.25;
  churn.churn.drop_probability = 0.05;
  churn.transport = TransportKind::kEventQueue;

  const SimulationResults single_r = run_simulation(base);
  const SimulationResults multi_r = run_simulation(multi);
  const SimulationResults lru_r = run_simulation(lru);
  const SimulationResults churn_r = run_simulation(churn);
  // The cells exercise what they are meant to.
  EXPECT_GT(lru_r.full_cache_fraction, 0.0);
  EXPECT_GT(churn_r.stale_shortcut_invalidations, 0u);
  EXPECT_GT(churn_r.rpc_failures, 0u);

  EXPECT_EQ(result_digest(single_r), kSingleDigest);
  EXPECT_EQ(result_digest(multi_r), kMultiDigest);
  EXPECT_EQ(result_digest(lru_r), kLruDigest);
  EXPECT_EQ(result_digest(churn_r), kChurnDigest);
}

/// result_digest plus what only the engine cells below exercise: index and
/// store totals, churn losses and the chaos counters. Substrate routing
/// counters are left out: under DHTIDX_AUDIT the post-build audit's own
/// routed lookups advance the Chord/CAN/Pastry random lookup origins, so the
/// feed's hop counts differ between audit and normal builds.
std::string engine_digest(const SimulationResults& r) {
  std::string out = result_digest(r);
  char buf[64];
  std::snprintf(buf, sizeof buf, "convergence_ms=%.17g\n", r.convergence_ms);
  out += buf;
  const auto count = [&out](const char* name, std::uint64_t value) {
    out += std::string(name) + "=" + std::to_string(value) + "\n";
  };
  count("articles", r.articles);
  count("index_bytes", r.index_bytes);
  count("data_bytes", r.data_bytes);
  count("index_mappings", r.index_mappings);
  count("index_keys", r.index_keys);
  count("mappings_lost", r.mappings_lost);
  count("records_lost", r.records_lost);
  count("indexed_sessions_after_churn", r.indexed_sessions_after_churn);
  count("indexed_failed_after_churn", r.indexed_failed_after_churn);
  count("partitioned_nodes", r.partitioned_nodes);
  count("chaos_frames_dropped", r.chaos_frames_dropped);
  count("chaos_frames_duplicated", r.chaos_frames_duplicated);
  count("chaos_frames_reordered", r.chaos_frames_reordered);
  count("chaos_frames_delayed", r.chaos_frames_delayed);
  count("chaos_frames_corrupted", r.chaos_frames_corrupted);
  count("bus_timeouts", r.bus_timeouts);
  count("bus_duplicates", r.bus_duplicates);
  count("bus_rejected", r.bus_rejected);
  return out;
}

// One cell per kind of world the engine serves, beyond the cached ring cells
// above: a routed substrate at replication 2 on the event queue, a cacheless
// Pastry world, a chaos schedule, and streamed worlds at one shard (cacheless
// flat, and LRU-multi). Captured before the materialized and streamed drivers
// became one engine; every later change must reproduce them exactly.
const char* const kChordR2Digest =
    "avg_interactions=2.2496666666666667\n"
    "normal_traffic_per_query=579.93633333333332\n"
    "cache_traffic_per_query=180.21566666666666\n"
    "hit_ratio=0.77700000000000002\n"
    "first_node_hit_share=0.94680394680394675\n"
    "avg_cached_keys_per_node=19.824999999999999\n"
    "full_cache_fraction=0\n"
    "empty_cache_fraction=0.10000000000000001\n"
    "avg_regular_keys_per_node=59\n"
    "avg_generalization_steps=0.034333333333333334\n"
    "post_churn_success=1\n"
    "post_churn_indexed_success=1\n"
    "avg_interactions_after_churn=0\n"
    "retry_backoff_ms=0\n"
    "wire_normal_traffic_per_query=1894.8463333333334\n"
    "wire_cache_traffic_per_query=60.601333333333336\n"
    "event_clock_ms=13686\n"
    "node_load_sum=2.1956666666666669\n"
    "node_load_max=0.25600000000000001\n"
    "max_cached_keys=98\n"
    "non_indexed_queries=93\n"
    "failed_lookups=0\n"
    "rpc_failures=0\n"
    "degraded_sessions=0\n"
    "gave_up_sessions=0\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=0\n"
    "sessions_after_churn=0\n"
    "failed_after_churn=0\n"
    "repair_moves=0\n"
    "wire_messages=15270\n"
    "ledger.queries.messages=6842\n"
    "ledger.queries.bytes=529551\n"
    "ledger.responses.messages=4418\n"
    "ledger.responses.bytes=1210258\n"
    "ledger.cache.messages=3124\n"
    "ledger.cache.bytes=540647\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=0\n"
    "ledger.retries.bytes=0\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=6842\n"
    "wire.queries.bytes=666391\n"
    "wire.responses.messages=6842\n"
    "wire.responses.bytes=5018148\n"
    "wire.cache.messages=793\n"
    "wire.cache.bytes=181804\n"
    "wire.routing.messages=793\n"
    "wire.routing.bytes=44408\n"
    "wire.retries.messages=0\n"
    "wire.retries.bytes=0\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=0\n"
    "wire.timeouts.bytes=0\n"
    "wire.duplicates.messages=0\n"
    "wire.duplicates.bytes=0\n"
    "wire.rejected.messages=0\n"
    "wire.rejected.bytes=0\n"
    "convergence_ms=0\n"
    "articles=300\n"
    "index_bytes=357096\n"
    "data_bytes=147825626\n"
    "index_mappings=3036\n"
    "index_keys=1760\n"
    "mappings_lost=0\n"
    "records_lost=0\n"
    "indexed_sessions_after_churn=0\n"
    "indexed_failed_after_churn=0\n"
    "partitioned_nodes=0\n"
    "chaos_frames_dropped=0\n"
    "chaos_frames_duplicated=0\n"
    "chaos_frames_reordered=0\n"
    "chaos_frames_delayed=0\n"
    "chaos_frames_corrupted=0\n"
    "bus_timeouts=0\n"
    "bus_duplicates=0\n"
    "bus_rejected=0\n";
const char* const kPastryDigest =
    "avg_interactions=3.0093333333333332\n"
    "normal_traffic_per_query=1337.4186666666667\n"
    "cache_traffic_per_query=0\n"
    "hit_ratio=0\n"
    "first_node_hit_share=0\n"
    "avg_cached_keys_per_node=0\n"
    "full_cache_fraction=0\n"
    "empty_cache_fraction=1\n"
    "avg_regular_keys_per_node=29.5\n"
    "avg_generalization_steps=0.054666666666666669\n"
    "post_churn_success=1\n"
    "post_churn_indexed_success=1\n"
    "avg_interactions_after_churn=0\n"
    "retry_backoff_ms=0\n"
    "wire_normal_traffic_per_query=1491.0413333333333\n"
    "wire_cache_traffic_per_query=0\n"
    "event_clock_ms=0\n"
    "node_load_sum=2.9073333333333338\n"
    "node_load_max=0.31833333333333336\n"
    "max_cached_keys=0\n"
    "non_indexed_queries=164\n"
    "failed_lookups=0\n"
    "rpc_failures=0\n"
    "degraded_sessions=0\n"
    "gave_up_sessions=0\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=0\n"
    "sessions_after_churn=0\n"
    "failed_after_churn=0\n"
    "repair_moves=0\n"
    "wire_messages=18056\n"
    "ledger.queries.messages=9028\n"
    "ledger.queries.bytes=796157\n"
    "ledger.responses.messages=9028\n"
    "ledger.responses.bytes=3216099\n"
    "ledger.cache.messages=0\n"
    "ledger.cache.bytes=0\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=0\n"
    "ledger.retries.bytes=0\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=9028\n"
    "wire.queries.bytes=976717\n"
    "wire.responses.messages=9028\n"
    "wire.responses.bytes=3496407\n"
    "wire.cache.messages=0\n"
    "wire.cache.bytes=0\n"
    "wire.routing.messages=0\n"
    "wire.routing.bytes=0\n"
    "wire.retries.messages=0\n"
    "wire.retries.bytes=0\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=0\n"
    "wire.timeouts.bytes=0\n"
    "wire.duplicates.messages=0\n"
    "wire.duplicates.bytes=0\n"
    "wire.rejected.messages=0\n"
    "wire.rejected.bytes=0\n"
    "convergence_ms=0\n"
    "articles=300\n"
    "index_bytes=178548\n"
    "data_bytes=73912813\n"
    "index_mappings=1518\n"
    "index_keys=880\n"
    "mappings_lost=0\n"
    "records_lost=0\n"
    "indexed_sessions_after_churn=0\n"
    "indexed_failed_after_churn=0\n"
    "partitioned_nodes=0\n"
    "chaos_frames_dropped=0\n"
    "chaos_frames_duplicated=0\n"
    "chaos_frames_reordered=0\n"
    "chaos_frames_delayed=0\n"
    "chaos_frames_corrupted=0\n"
    "bus_timeouts=0\n"
    "bus_duplicates=0\n"
    "bus_rejected=0\n";
const char* const kChaosDigest =
    "avg_interactions=2.2663333333333333\n"
    "normal_traffic_per_query=593.26599999999996\n"
    "cache_traffic_per_query=181.24366666666666\n"
    "hit_ratio=0.76333333333333331\n"
    "first_node_hit_share=0.94323144104803491\n"
    "avg_cached_keys_per_node=21\n"
    "full_cache_fraction=0\n"
    "empty_cache_fraction=0.10000000000000001\n"
    "avg_regular_keys_per_node=59\n"
    "avg_generalization_steps=0.034333333333333334\n"
    "post_churn_success=1\n"
    "post_churn_indexed_success=1\n"
    "avg_interactions_after_churn=0\n"
    "retry_backoff_ms=51800\n"
    "wire_normal_traffic_per_query=1877.8433333333332\n"
    "wire_cache_traffic_per_query=64.198999999999998\n"
    "event_clock_ms=76125.024417551685\n"
    "node_load_sum=2.2063333333333333\n"
    "node_load_max=0.24166666666666667\n"
    "max_cached_keys=84\n"
    "non_indexed_queries=93\n"
    "failed_lookups=0\n"
    "rpc_failures=998\n"
    "degraded_sessions=445\n"
    "gave_up_sessions=0\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=0\n"
    "sessions_after_churn=0\n"
    "failed_after_churn=0\n"
    "repair_moves=0\n"
    "wire_messages=17596\n"
    "ledger.queries.messages=6879\n"
    "ledger.queries.bytes=534281\n"
    "ledger.responses.messages=4509\n"
    "ledger.responses.bytes=1245517\n"
    "ledger.cache.messages=3130\n"
    "ledger.cache.bytes=543731\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=998\n"
    "ledger.retries.bytes=76322\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=6879\n"
    "wire.queries.bytes=671861\n"
    "wire.responses.messages=6879\n"
    "wire.responses.bytes=4961669\n"
    "wire.cache.messages=840\n"
    "wire.cache.bytes=192597\n"
    "wire.routing.messages=840\n"
    "wire.routing.bytes=47040\n"
    "wire.retries.messages=998\n"
    "wire.retries.bytes=96282\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=540\n"
    "wire.timeouts.bytes=206335\n"
    "wire.duplicates.messages=468\n"
    "wire.duplicates.bytes=157968\n"
    "wire.rejected.messages=152\n"
    "wire.rejected.bytes=41143\n"
    "convergence_ms=3402\n"
    "articles=300\n"
    "index_bytes=357096\n"
    "data_bytes=147825626\n"
    "index_mappings=3036\n"
    "index_keys=1760\n"
    "mappings_lost=0\n"
    "records_lost=0\n"
    "indexed_sessions_after_churn=0\n"
    "indexed_failed_after_churn=0\n"
    "partitioned_nodes=4\n"
    "chaos_frames_dropped=163\n"
    "chaos_frames_duplicated=230\n"
    "chaos_frames_reordered=814\n"
    "chaos_frames_delayed=0\n"
    "chaos_frames_corrupted=152\n"
    "bus_timeouts=540\n"
    "bus_duplicates=468\n"
    "bus_rejected=152\n";
const char* const kStreamedFlatDigest =
    "avg_interactions=2.0433333333333334\n"
    "normal_traffic_per_query=1868.7376666666667\n"
    "cache_traffic_per_query=0\n"
    "hit_ratio=0\n"
    "first_node_hit_share=0\n"
    "avg_cached_keys_per_node=0\n"
    "full_cache_fraction=0\n"
    "empty_cache_fraction=1\n"
    "avg_regular_keys_per_node=29.300000000000001\n"
    "avg_generalization_steps=0.043333333333333335\n"
    "post_churn_success=1\n"
    "post_churn_indexed_success=1\n"
    "avg_interactions_after_churn=0\n"
    "retry_backoff_ms=0\n"
    "wire_normal_traffic_per_query=0\n"
    "wire_cache_traffic_per_query=0\n"
    "event_clock_ms=0\n"
    "node_load_sum=2.0176666666666669\n"
    "node_load_max=0.23100000000000001\n"
    "max_cached_keys=0\n"
    "non_indexed_queries=130\n"
    "failed_lookups=0\n"
    "rpc_failures=0\n"
    "degraded_sessions=0\n"
    "gave_up_sessions=0\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=0\n"
    "sessions_after_churn=0\n"
    "failed_after_churn=0\n"
    "repair_moves=0\n"
    "wire_messages=0\n"
    "ledger.queries.messages=6130\n"
    "ledger.queries.bytes=451010\n"
    "ledger.responses.messages=6130\n"
    "ledger.responses.bytes=5155203\n"
    "ledger.cache.messages=0\n"
    "ledger.cache.bytes=0\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=0\n"
    "ledger.retries.bytes=0\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=0\n"
    "wire.queries.bytes=0\n"
    "wire.responses.messages=0\n"
    "wire.responses.bytes=0\n"
    "wire.cache.messages=0\n"
    "wire.cache.bytes=0\n"
    "wire.routing.messages=0\n"
    "wire.routing.bytes=0\n"
    "wire.retries.messages=0\n"
    "wire.retries.bytes=0\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=0\n"
    "wire.timeouts.bytes=0\n"
    "wire.duplicates.messages=0\n"
    "wire.duplicates.bytes=0\n"
    "wire.rejected.messages=0\n"
    "wire.rejected.bytes=0\n"
    "convergence_ms=0\n"
    "articles=300\n"
    "index_bytes=275166\n"
    "data_bytes=76209883\n"
    "index_mappings=1800\n"
    "index_keys=872\n"
    "mappings_lost=0\n"
    "records_lost=0\n"
    "indexed_sessions_after_churn=0\n"
    "indexed_failed_after_churn=0\n"
    "partitioned_nodes=0\n"
    "chaos_frames_dropped=0\n"
    "chaos_frames_duplicated=0\n"
    "chaos_frames_reordered=0\n"
    "chaos_frames_delayed=0\n"
    "chaos_frames_corrupted=0\n"
    "bus_timeouts=0\n"
    "bus_duplicates=0\n"
    "bus_rejected=0\n";
const char* const kStreamedLruMultiDigest =
    "avg_interactions=2.7966666666666669\n"
    "normal_traffic_per_query=1348.3983333333333\n"
    "cache_traffic_per_query=304.27566666666667\n"
    "hit_ratio=0.32166666666666666\n"
    "first_node_hit_share=0.63108808290155438\n"
    "avg_cached_keys_per_node=4.5499999999999998\n"
    "full_cache_fraction=0.82499999999999996\n"
    "empty_cache_fraction=0.025000000000000001\n"
    "avg_regular_keys_per_node=29.300000000000001\n"
    "avg_generalization_steps=0.042666666666666665\n"
    "post_churn_success=1\n"
    "post_churn_indexed_success=1\n"
    "avg_interactions_after_churn=0\n"
    "retry_backoff_ms=0\n"
    "wire_normal_traffic_per_query=0\n"
    "wire_cache_traffic_per_query=0\n"
    "event_clock_ms=0\n"
    "node_load_sum=2.7366666666666655\n"
    "node_load_max=0.252\n"
    "max_cached_keys=5\n"
    "non_indexed_queries=128\n"
    "failed_lookups=0\n"
    "rpc_failures=0\n"
    "degraded_sessions=0\n"
    "gave_up_sessions=0\n"
    "unreachable_sessions=0\n"
    "stale_shortcut_invalidations=0\n"
    "sessions_after_churn=0\n"
    "failed_after_churn=0\n"
    "repair_moves=0\n"
    "wire_messages=0\n"
    "ledger.queries.messages=8390\n"
    "ledger.queries.bytes=721112\n"
    "ledger.responses.messages=7425\n"
    "ledger.responses.bytes=3324083\n"
    "ledger.cache.messages=4373\n"
    "ledger.cache.bytes=912827\n"
    "ledger.routing.messages=0\n"
    "ledger.routing.bytes=0\n"
    "ledger.retries.messages=0\n"
    "ledger.retries.bytes=0\n"
    "ledger.maintenance.messages=0\n"
    "ledger.maintenance.bytes=0\n"
    "ledger.timeouts.messages=0\n"
    "ledger.timeouts.bytes=0\n"
    "ledger.duplicates.messages=0\n"
    "ledger.duplicates.bytes=0\n"
    "ledger.rejected.messages=0\n"
    "ledger.rejected.bytes=0\n"
    "wire.queries.messages=0\n"
    "wire.queries.bytes=0\n"
    "wire.responses.messages=0\n"
    "wire.responses.bytes=0\n"
    "wire.cache.messages=0\n"
    "wire.cache.bytes=0\n"
    "wire.routing.messages=0\n"
    "wire.routing.bytes=0\n"
    "wire.retries.messages=0\n"
    "wire.retries.bytes=0\n"
    "wire.maintenance.messages=0\n"
    "wire.maintenance.bytes=0\n"
    "wire.timeouts.messages=0\n"
    "wire.timeouts.bytes=0\n"
    "wire.duplicates.messages=0\n"
    "wire.duplicates.bytes=0\n"
    "wire.rejected.messages=0\n"
    "wire.rejected.bytes=0\n"
    "convergence_ms=0\n"
    "articles=300\n"
    "index_bytes=188198\n"
    "data_bytes=76209883\n"
    "index_mappings=1512\n"
    "index_keys=872\n"
    "mappings_lost=0\n"
    "records_lost=0\n"
    "indexed_sessions_after_churn=0\n"
    "indexed_failed_after_churn=0\n"
    "partitioned_nodes=0\n"
    "chaos_frames_dropped=0\n"
    "chaos_frames_duplicated=0\n"
    "chaos_frames_reordered=0\n"
    "chaos_frames_delayed=0\n"
    "chaos_frames_corrupted=0\n"
    "bus_timeouts=0\n"
    "bus_duplicates=0\n"
    "bus_rejected=0\n";

TEST(Simulation, EngineCellsMatchPinnedDigests) {
  SimulationConfig base = small_config(SchemeKind::kSimple, CachePolicy::kNone);
  base.nodes = 40;
  base.queries = 3000;
  base.corpus.articles = 300;
  base.corpus.authors = 100;
  base.corpus.conferences = 12;

  SimulationConfig chord_r2 = base;
  chord_r2.substrate = Substrate::kChord;
  chord_r2.replication = 2;
  chord_r2.policy = CachePolicy::kSingle;
  chord_r2.transport = TransportKind::kEventQueue;
  SimulationConfig pastry = base;
  pastry.substrate = Substrate::kPastry;
  SimulationConfig chaos = base;
  chaos.policy = CachePolicy::kSingle;
  chaos.replication = 2;
  chaos.transport = TransportKind::kEventQueue;
  chaos.chaos.drop_probability = 0.02;
  chaos.chaos.duplicate_probability = 0.03;
  chaos.chaos.corrupt_probability = 0.02;
  chaos.chaos.reorder_probability = 0.10;
  chaos.chaos.partition_fraction = 0.10;
  SimulationConfig streamed_flat = base;
  streamed_flat.streaming = true;
  streamed_flat.scheme = SchemeKind::kFlat;
  SimulationConfig streamed_lru_multi = base;
  streamed_lru_multi.streaming = true;
  streamed_lru_multi.policy = CachePolicy::kLruMulti;
  streamed_lru_multi.cache_capacity = 5;

  const SimulationResults chord_r = run_simulation(chord_r2);
  const SimulationResults chaos_r = run_simulation(chaos);
  const SimulationResults lru_multi_r = run_simulation(streamed_lru_multi);
  // The cells exercise what they are meant to.
  EXPECT_GT(chord_r.routing_bytes, 0u);
  EXPECT_GT(chaos_r.chaos_frames_dropped, 0u);
  EXPECT_GT(lru_multi_r.full_cache_fraction, 0.0);

  EXPECT_EQ(engine_digest(chord_r), kChordR2Digest);
  EXPECT_EQ(engine_digest(run_simulation(pastry)), kPastryDigest);
  EXPECT_EQ(engine_digest(chaos_r), kChaosDigest);
  EXPECT_EQ(engine_digest(run_simulation(streamed_flat)), kStreamedFlatDigest);
  EXPECT_EQ(engine_digest(lru_multi_r), kStreamedLruMultiDigest);
}

TEST(Simulation, CustomStructureWeights) {
  SimulationConfig config = small_config(SchemeKind::kSimple, CachePolicy::kNone);
  config.queries = 500;
  config.corpus.articles = 100;
  // Only author+year queries: every query needs generalization.
  config.structure_weights = {0.0, 0.0, 0.0, 0.0, 1.0};
  const SimulationResults r = run_simulation(config);
  EXPECT_EQ(r.non_indexed_queries, 500u);
  EXPECT_EQ(r.failed_lookups, 0u);
}

}  // namespace
}  // namespace dhtidx::sim
