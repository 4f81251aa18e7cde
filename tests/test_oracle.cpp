// Brute-force covering oracle: the index's answers checked against a scan of
// the article source that shares no code with the index walk.
//
// For each cell (seed × scheme × shard count) a streamed world is built and
// every published MSD is re-derived from the ArticleStream. For a family of
// queries -- the workload's requests, the scheme's entry queries, and
// wildcard queries -- the oracle is the set of published MSDs `d` with
// q.covers(d):
//   - search_all(q) must return exactly that set. For wildcard queries it
//     must return a subset: a query with a "*" step or a // path has no index
//     key of its own, and covers() is only sound (never falsely true) there,
//     so the index can answer them only through a generalization and may
//     miss descriptors the oracle counts.
//   - In this fault-free world, resolve(q, d) must find every such `d` for a
//     wildcard-free `q`. For wildcard queries resolve() is not checked: its
//     greedy generalization may step to a keyless "*" candidate (dropping
//     [conf=C] from [*/last=L][conf=C] before [*/last=L]) or find no
//     candidate at all ([//title=T]), and then misses.
// A failure prints the replay tuple (seed, scheme, shards, query index).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "biblio/stream.hpp"
#include "dht/ring.hpp"
#include "index/lookup.hpp"
#include "index/scheme.hpp"
#include "index/service.hpp"
#include "sim/sharded.hpp"
#include "storage/dht_store.hpp"
#include "workload/streaming.hpp"

namespace dhtidx::sim {
namespace {

using query::Query;

constexpr std::size_t kWorkloadQueries = 60;
constexpr std::size_t kEntryArticles = 12;
constexpr std::size_t kResolvesPerQuery = 3;

const char* scheme_name(index::SchemeKind kind) {
  switch (kind) {
    case index::SchemeKind::kSimple:
      return "simple";
    case index::SchemeKind::kFlat:
      return "flat";
    case index::SchemeKind::kComplex:
      return "complex";
  }
  return "?";
}

struct OracleQuery {
  Query query;
  bool wildcard = false;
};

/// A query that keeps `msd`'s author/last constraint with its first step
/// replaced by "*", plus its conf constraint anchored: covered by `msd`,
/// keyless in every scheme.
Query star_step_query(const Query& msd) {
  Query q{msd.root()};
  for (const query::Constraint& c : msd.constraints()) {
    if (c.path == "author/last") q.add_field("*/last", *c.value);
    if (c.path == "conf") q.add_field("conf", *c.value);
  }
  return q;
}

/// A query that floats `msd`'s title constraint to any depth.
Query descendant_query(const Query& msd) {
  Query q{msd.root()};
  for (const query::Constraint& c : msd.constraints()) {
    if (c.path != "title") continue;
    query::Constraint floating = c;
    floating.descendant = true;
    q.add_constraint(std::move(floating));
  }
  return q;
}

class CoveringOracle
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, index::SchemeKind, std::size_t>> {
};

TEST_P(CoveringOracle, IndexAnswersEqualTheBruteForceCoverSet) {
  const auto [seed, scheme_kind, shards] = GetParam();
  SimulationConfig config;
  config.nodes = 48;
  config.corpus.articles = 300;
  config.corpus.authors = 90;
  config.corpus.conferences = 12;
  config.corpus.seed = seed;
  config.seed = seed;
  config.scheme = scheme_kind;
  config.streaming = true;
  config.shards = shards;

  dht::Ring ring = dht::Ring::with_nodes(config.nodes);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger, config.replication};
  index::IndexService service{ring, ledger, config.cache_capacity, config.replication};
  const biblio::ArticleStream stream{config.corpus};
  build_streaming_world(config, ring, service, store, stream);

  // Every published MSD, re-derived from the article source.
  std::vector<Query> published;
  published.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) published.push_back(stream.article(i).msd());

  std::vector<OracleQuery> family;
  const workload::StreamingWorkload workload{stream, seed};
  for (std::size_t i = 0; i < kWorkloadQueries; ++i) {
    family.push_back({workload.request_at(i).query, false});
  }
  const index::IndexingScheme scheme = index::IndexingScheme::make(scheme_kind);
  for (std::size_t k = 0; k < kEntryArticles; ++k) {
    const Query& msd = published[k * stream.size() / kEntryArticles];
    for (const index::Mapping& m : scheme.mappings_for(msd)) family.push_back({m.source, false});
    family.push_back({star_step_query(msd), true});
    family.push_back({descendant_query(msd), true});
  }

  index::LookupEngine engine{service, store, {index::CachePolicy::kNone}};
  std::size_t compared = 0;
  std::size_t resolved = 0;
  for (std::size_t qi = 0; qi < family.size(); ++qi) {
    const auto& [q, wildcard] = family[qi];
    SCOPED_TRACE("replay: seed=" + std::to_string(seed) + " scheme=" +
                 scheme_name(scheme_kind) + " shards=" + std::to_string(shards) +
                 " query=" + std::to_string(qi) + " " + std::string{q.canonical()});
    std::set<std::string> expected;
    std::vector<const Query*> covered;
    for (const Query& d : published) {
      if (!q.covers(d)) continue;
      if (expected.insert(std::string{d.canonical()}).second) covered.push_back(&d);
    }
    std::set<std::string> found;
    for (const Query& d : engine.search_all(q)) found.insert(std::string{d.canonical()});
    if (wildcard) {
      for (const std::string& d : found) {
        EXPECT_TRUE(expected.contains(d)) << "search_all returned an uncovered MSD " << d;
      }
      continue;
    }
    EXPECT_EQ(found, expected);
    ++compared;
    for (std::size_t k = 0; k < covered.size() && k < kResolvesPerQuery; ++k) {
      const Query& d = *covered[k * covered.size() / kResolvesPerQuery];
      EXPECT_TRUE(engine.resolve(q, d).found) << "resolve missed " << d.canonical();
      ++resolved;
    }
  }
  // The family exercises both checks.
  EXPECT_GT(compared, kWorkloadQueries);
  EXPECT_GT(resolved, family.size());
}

INSTANTIATE_TEST_SUITE_P(
    Cells, CoveringOracle,
    ::testing::Combine(::testing::Values(std::uint64_t{3}, std::uint64_t{11}, std::uint64_t{29}),
                       ::testing::Values(index::SchemeKind::kSimple, index::SchemeKind::kFlat,
                                         index::SchemeKind::kComplex),
                       ::testing::Values(std::size_t{1}, std::size_t{2})),
    [](const auto& cell) {
      return std::string{scheme_name(std::get<1>(cell.param))} + "_seed" +
             std::to_string(std::get<0>(cell.param)) + "_shards" +
             std::to_string(std::get<2>(cell.param));
    });

}  // namespace
}  // namespace dhtidx::sim
