// Determinism of the sharded streaming core (sim/sharded.hpp).
//
// The contract under test is the --shards analogue of PR 1's --jobs
// guarantee: a streaming cell produces bit-identical results for every shard
// count, and the streaming generators produce the same world on every run
// with the same seed. Doubles are compared with EXPECT_EQ throughout — the
// guarantee is bit-identity, not approximation.
#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <string>

#include "audit/audit.hpp"
#include "biblio/stream.hpp"
#include "common/error.hpp"
#include "common/rss.hpp"
#include "dht/ring.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "sim/sweep.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {
namespace {

biblio::CorpusConfig small_corpus() {
  biblio::CorpusConfig corpus;
  corpus.articles = 300;
  corpus.authors = 90;
  corpus.conferences = 12;
  return corpus;
}

SimulationConfig streaming_config(std::size_t shards,
                                  index::CachePolicy policy = index::CachePolicy::kNone,
                                  std::size_t capacity = 0) {
  SimulationConfig config;
  config.nodes = 48;
  config.queries = 1500;
  config.corpus = small_corpus();
  config.streaming = true;
  config.shards = shards;
  config.policy = policy;
  config.cache_capacity = capacity;
  config.seed = 7;
  return config;
}

void expect_identical(const SimulationResults& a, const SimulationResults& b) {
  EXPECT_EQ(a.avg_interactions, b.avg_interactions);
  EXPECT_EQ(a.avg_generalization_steps, b.avg_generalization_steps);
  EXPECT_EQ(a.normal_traffic_per_query, b.normal_traffic_per_query);
  EXPECT_EQ(a.cache_traffic_per_query, b.cache_traffic_per_query);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.first_node_hit_share, b.first_node_hit_share);
  EXPECT_EQ(a.avg_cached_keys_per_node, b.avg_cached_keys_per_node);
  EXPECT_EQ(a.max_cached_keys, b.max_cached_keys);
  EXPECT_EQ(a.full_cache_fraction, b.full_cache_fraction);
  EXPECT_EQ(a.empty_cache_fraction, b.empty_cache_fraction);
  EXPECT_EQ(a.avg_regular_keys_per_node, b.avg_regular_keys_per_node);
  EXPECT_EQ(a.node_load_fractions, b.node_load_fractions);
  EXPECT_EQ(a.non_indexed_queries, b.non_indexed_queries);
  EXPECT_EQ(a.failed_lookups, b.failed_lookups);
  EXPECT_EQ(a.gave_up_sessions, b.gave_up_sessions);
  EXPECT_EQ(a.unreachable_sessions, b.unreachable_sessions);
  EXPECT_EQ(a.index_bytes, b.index_bytes);
  EXPECT_EQ(a.data_bytes, b.data_bytes);
  EXPECT_EQ(a.index_mappings, b.index_mappings);
  EXPECT_EQ(a.index_keys, b.index_keys);
  for (std::size_t i = 0; i < a.ledger.categories().size(); ++i) {
    const auto named_a = a.ledger.categories()[i];
    const auto named_b = b.ledger.categories()[i];
    EXPECT_EQ(named_a.stats->messages(), named_b.stats->messages()) << named_a.name;
    EXPECT_EQ(named_a.stats->bytes(), named_b.stats->bytes()) << named_a.name;
  }
}

TEST(ArticleStream, SameSeedSameArticles) {
  const biblio::ArticleStream first{small_corpus()};
  const biblio::ArticleStream second{small_corpus()};
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{149},
                              std::size_t{299}}) {
    EXPECT_EQ(first.article(i), second.article(i));
  }
  // Counter addressing: generation order must not matter.
  EXPECT_EQ(first.article(200), second.article(200));
  EXPECT_EQ(first.article(3), second.article(3));
}

TEST(ArticleStream, DifferentSeedsDiffer) {
  biblio::CorpusConfig other = small_corpus();
  other.seed = 43;
  const biblio::ArticleStream first{small_corpus()};
  const biblio::ArticleStream second{other};
  bool any_difference = false;
  for (std::size_t i = 0; i < 20; ++i) {
    if (!(first.article(i) == second.article(i))) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ArticleStream, TitlesAndMsdsAreUnique) {
  const biblio::ArticleStream stream{small_corpus()};
  std::set<std::string> titles;
  std::set<std::string> msds;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const biblio::Article article = stream.article(i);
    titles.insert(article.title);
    msds.insert(std::string{article.msd().canonical()});
  }
  EXPECT_EQ(titles.size(), stream.size());
  EXPECT_EQ(msds.size(), stream.size());
}

TEST(ArticleStream, RejectsOutOfRangeAndEmptyConfig) {
  const biblio::ArticleStream stream{small_corpus()};
  EXPECT_THROW(stream.article(stream.size()), InvariantError);
  biblio::CorpusConfig empty = small_corpus();
  empty.articles = 0;
  EXPECT_THROW(biblio::ArticleStream{empty}, InvariantError);
}

TEST(StreamingWorkload, SameSeedSameRequests) {
  const biblio::ArticleStream stream{small_corpus()};
  const workload::StreamingWorkload first{stream, 7};
  const workload::StreamingWorkload second{stream, 7};
  for (const std::uint64_t i : {std::uint64_t{0}, std::uint64_t{99}, std::uint64_t{1234}}) {
    const workload::StreamingRequest a = first.request_at(i);
    const workload::StreamingRequest b = second.request_at(i);
    EXPECT_EQ(a.article_index, b.article_index);
    EXPECT_EQ(a.structure, b.structure);
    EXPECT_EQ(a.query, b.query);
    EXPECT_EQ(a.target_msd, b.target_msd);
  }
  // The target MSD really is the requested article's, and the query covers it.
  const workload::StreamingRequest request = first.request_at(42);
  EXPECT_EQ(request.target_msd, stream.article(request.article_index).msd());
  EXPECT_TRUE(request.query.covers(request.target_msd));
}

TEST(ShardedSimulation, ResultsBitIdenticalAcrossShardCounts) {
  const SimulationResults one = run_simulation(streaming_config(1));
  const SimulationResults two = run_simulation(streaming_config(2));
  const SimulationResults four = run_simulation(streaming_config(4));
  expect_identical(one, two);
  expect_identical(one, four);
  // The world did something: queries resolved against a populated index.
  EXPECT_GT(one.index_mappings, 0u);
  EXPECT_GT(one.avg_interactions, 1.0);
  EXPECT_LT(static_cast<double>(one.failed_lookups),
            0.05 * static_cast<double>(streaming_config(1).queries));
}

TEST(ShardedSimulation, RepeatedRunsBitIdentical) {
  const SimulationResults first = run_simulation(streaming_config(2));
  const SimulationResults second = run_simulation(streaming_config(2));
  expect_identical(first, second);
}

TEST(ShardedSimulation, SingleShardCachingPolicyRunsAndRepeats) {
  const SimulationConfig config =
      streaming_config(1, index::CachePolicy::kLru, 10);
  const SimulationResults first = run_simulation(config);
  const SimulationResults second = run_simulation(config);
  expect_identical(first, second);
  EXPECT_GT(first.hit_ratio, 0.0);
  EXPECT_GT(first.avg_cached_keys_per_node, 0.0);
}

TEST(ShardedSimulation, CachedResultsBitIdenticalAcrossShardCounts) {
  // The PR 10 contract: caching feeds (bulk-synchronous query epochs) keep
  // every cache metric — MRU order via hits, LRU evictions via occupancy,
  // install traffic via the ledger — bit-identical across shard counts.
  // Both an unbounded multi-placement policy and a capacity-bounded LRU
  // (the eviction-heavy case) are pinned.
  for (const auto& [policy, capacity] :
       {std::pair<index::CachePolicy, std::size_t>{index::CachePolicy::kMulti, 0},
        {index::CachePolicy::kLru, 10}}) {
    const SimulationResults one = run_simulation(streaming_config(1, policy, capacity));
    const SimulationResults two = run_simulation(streaming_config(2, policy, capacity));
    const SimulationResults four = run_simulation(streaming_config(4, policy, capacity));
    expect_identical(one, two);
    expect_identical(one, four);
    // The caches did something: hits happened and shortcuts were installed.
    EXPECT_GT(one.hit_ratio, 0.0);
    EXPECT_GT(one.avg_cached_keys_per_node, 0.0);
    EXPECT_GT(one.cache_traffic_per_query, 0.0);
  }
}

TEST(ShardedSimulation, EpochBoundaryHammer) {
  // Many feed epochs (6000 queries / 1024 per epoch), max shard fan-out, the
  // policy exercising the full delta taxonomy (multi-placement installs,
  // touches, evictions). Primarily a TSan target: the CI sanitizer build
  // runs this to hammer the lookup/intern/apply phase boundaries.
  const SimulationConfig base = streaming_config(4, index::CachePolicy::kLruMulti, 8);
  SimulationConfig config = base;
  config.queries = 6000;
  const SimulationResults sharded = run_simulation(config);
  SimulationConfig single = config;
  single.shards = 1;
  expect_identical(sharded, run_simulation(single));
  EXPECT_GT(sharded.hit_ratio, 0.0);
}

TEST(ShardedSimulation, SweepJsonBitIdenticalAcrossShards) {
  // The per-cell sweep JSON must not leak the shard count or any wall-clock
  // reading. Strip the volatile timing/memory fields (documented as
  // machine-dependent) and require the rest of the line to match byte for
  // byte. The cell set mirrors a slice of the fig13 policy ladder: a
  // cacheless cell, a second scheme, and two caching cells (the PR 10
  // hard gate).
  const auto sweep_line = [](std::size_t shards) {
    std::vector<SimulationConfig> cells;
    cells.push_back(streaming_config(shards));
    SimulationConfig flat = streaming_config(shards);
    flat.scheme = index::SchemeKind::kFlat;
    cells.push_back(flat);
    cells.push_back(streaming_config(shards, index::CachePolicy::kMulti, 0));
    cells.push_back(streaming_config(shards, index::CachePolicy::kLru, 10));
    SweepOptions options;
    options.jobs = 1;
    const SweepSummary summary = SweepRunner{options}.run(cells);
    std::string line = json_summary("test_scale", summary);
    line = std::regex_replace(line, std::regex{R"("wall_s":[^,]+,)"}, "");
    line = std::regex_replace(line, std::regex{R"("peak_rss_bytes":[0-9]+,)"}, "");
    return line;
  };
  const std::string one = sweep_line(1);
  const std::string two = sweep_line(2);
  const std::string four = sweep_line(4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"results\":[{"), std::string::npos);
}

TEST(ShardedSimulation, ShardedBuildPassesFullAudit) {
  // Audit a sharded world directly (independent of the DHTIDX_AUDIT compile
  // hooks): every invariant — covering, reachability, placement, replica
  // consistency, ledger arithmetic — must hold on the concurrently built
  // index.
  SimulationConfig config = streaming_config(3);
  config.replication = 2;
  dht::Ring ring = dht::Ring::with_nodes(config.nodes);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger, config.replication};
  index::IndexService service{ring, ledger, config.cache_capacity, config.replication};
  const biblio::ArticleStream stream{config.corpus};
  build_streaming_world(config, ring, service, store, stream);

  const index::IndexingScheme scheme = index::IndexingScheme::make(config.scheme);
  audit::Options options;
  options.scheme = &scheme;
  EXPECT_NO_THROW(audit::audit_or_throw("sharded-build", ring, service, store, options));
  EXPECT_GT(service.totals().mappings, 0u);
  EXPECT_GT(store.total_bytes(), 0u);
}

TEST(ShardedSimulation, ShardedCachedWorldPassesFullAudit) {
  // Audit a shard-concurrent *cached* world directly (independent of the
  // DHTIDX_AUDIT compile hooks): after the epoch-based feed has installed,
  // touched and evicted shortcuts concurrently, every invariant — covering,
  // reachability, placement, replica consistency, cache coherence, ledger
  // arithmetic — must hold on the final state.
  SimulationConfig config = streaming_config(3, index::CachePolicy::kLruMulti, 8);
  config.replication = 2;
  dht::Ring ring = dht::Ring::with_nodes(config.nodes);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger, config.replication};
  index::IndexService service{ring, ledger, config.cache_capacity, config.replication};
  const biblio::ArticleStream stream{config.corpus};
  build_streaming_world(config, ring, service, store, stream);
  const workload::StreamingWorkload workload{stream, config.seed};
  const FeedTotals feed = feed_streaming_world(config, ring, service, store, workload);
  EXPECT_GT(feed.hits, 0u);
  EXPECT_GT(feed.ledger.cache.bytes(), 0u);

  const index::IndexingScheme scheme = index::IndexingScheme::make(config.scheme);
  audit::Options options;
  options.scheme = &scheme;
  EXPECT_NO_THROW(
      audit::audit_or_throw("sharded-cached-feed", ring, service, store, options));
}

TEST(ShardedSimulation, RejectsUnsupportedConfigurations) {
  // Sharded without streaming: the sharded core only runs streaming worlds.
  SimulationConfig sharded_materialized = streaming_config(2);
  sharded_materialized.streaming = false;
  EXPECT_THROW(run_simulation(sharded_materialized), InvariantError);

  // Streaming on a non-ring substrate.
  SimulationConfig chord = streaming_config(1);
  chord.substrate = Substrate::kChord;
  EXPECT_THROW(run_simulation(chord), InvariantError);

  // Streaming with churn.
  SimulationConfig churn = streaming_config(1);
  churn.churn.crash_fraction = 0.1;
  EXPECT_THROW(run_simulation(churn), InvariantError);

  // Streaming runs generate their own corpus.
  const biblio::Corpus corpus = biblio::Corpus::generate(small_corpus());
  EXPECT_THROW(run_simulation(streaming_config(1), &corpus), InvariantError);
}

TEST(PeakRss, ReportsAPlausibleWatermark) {
  const std::uint64_t watermark = peak_rss_bytes();
#if defined(__unix__) || defined(__APPLE__)
  // A running test binary holds at least a megabyte resident.
  EXPECT_GT(watermark, 1024u * 1024u);
#else
  (void)watermark;  // portable fallback: 0 means "unavailable"
#endif
  // Monotone: a later reading never shrinks.
  EXPECT_GE(peak_rss_bytes(), watermark);
}

}  // namespace
}  // namespace dhtidx::sim
