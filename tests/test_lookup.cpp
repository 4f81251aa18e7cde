// End-to-end lookup behaviour: directed resolution, caching, generalization,
// and the automated exhaustive search.
#include "index/lookup.hpp"

#include <gtest/gtest.h>

#include "biblio/corpus.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "persist/snapshot.hpp"
#include "workload/structure.hpp"

namespace dhtidx::index {
namespace {

using query::Query;
using workload::QueryStructure;

struct World {
  explicit World(SchemeKind scheme, CachePolicy policy = CachePolicy::kNone,
                 std::size_t cache_capacity = 0, std::size_t articles = 60)
      : ring(dht::Ring::with_nodes(25)),
        store(ring, ledger),
        service(ring, ledger, cache_capacity),
        builder(service, store, IndexingScheme::make(scheme)),
        engine(service, store, {policy}) {
    biblio::CorpusConfig config;
    config.articles = articles;
    config.authors = articles / 3 + 1;
    config.conferences = 8;
    corpus = biblio::Corpus::generate(config);
    for (const auto& a : corpus->articles()) {
      builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
    }
    ledger.reset();
  }

  const biblio::Article& article(std::size_t i) const { return corpus->article(i); }

  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store;
  IndexService service;
  IndexBuilder builder;
  LookupEngine engine;
  std::optional<biblio::Corpus> corpus;
};

TEST(Lookup, DirectMsdLookupIsOneInteraction) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.msd(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.interactions, 1);
  EXPECT_FALSE(outcome.non_indexed);
}

TEST(Lookup, AuthorQueryTakesThreeInteractionsInSimple) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  // author -> author+title -> MSD -> file.
  EXPECT_EQ(outcome.interactions, 3);
  EXPECT_EQ(outcome.visited_nodes.size(), 3u);
}

TEST(Lookup, AuthorQueryTakesTwoInteractionsInFlat) {
  World w{SchemeKind::kFlat};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_EQ(outcome.interactions, 2);
}

TEST(Lookup, AuthorQueryTakesFourInteractionsInComplex) {
  World w{SchemeKind::kComplex};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  // author -> author+conf -> author+conf+year -> MSD -> file.
  EXPECT_EQ(outcome.interactions, 4);
}

TEST(Lookup, NonIndexedAuthorYearGeneralizes) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_year_query(), a.msd());
  EXPECT_TRUE(outcome.found);
  EXPECT_TRUE(outcome.non_indexed);
  EXPECT_EQ(outcome.generalization_steps, 1);
  // One wasted interaction plus the regular author chain.
  EXPECT_EQ(outcome.interactions, 4);
}

TEST(Lookup, EveryArticleReachableFromEveryStructure) {
  for (const SchemeKind scheme :
       {SchemeKind::kSimple, SchemeKind::kFlat, SchemeKind::kComplex}) {
    World w{scheme};
    for (const auto& a : w.corpus->articles()) {
      for (const QueryStructure structure : workload::kAllStructures) {
        const Query q = workload::build_query(a, structure);
        const auto outcome = w.engine.resolve(q, a.msd());
        ASSERT_TRUE(outcome.found)
            << to_string(scheme) << " " << to_string(structure) << " article " << a.id;
        ASSERT_LE(outcome.interactions, 6);
      }
    }
  }
}

TEST(Lookup, RepeatedQueryHitsSingleCache) {
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = w.article(0);
  const auto first = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.interactions, 3);
  const auto second = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.cache_hit_position, 1);
  EXPECT_EQ(second.interactions, 2);  // hit + file fetch
}

TEST(Lookup, CacheDistinguishesTargets) {
  // Two articles by the same author: a cached shortcut for one must not be
  // returned as a hit for the other.
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const biblio::Article* first = nullptr;
  const biblio::Article* second = nullptr;
  for (const auto& x : w.corpus->articles()) {
    for (const auto& y : w.corpus->articles()) {
      if (x.id != y.id && x.first_name == y.first_name && x.last_name == y.last_name) {
        first = &x;
        second = &y;
      }
    }
  }
  ASSERT_NE(first, nullptr) << "corpus lacks an author with two articles";
  const auto warm = w.engine.resolve(first->author_query(), first->msd());
  EXPECT_TRUE(warm.found);
  const auto other = w.engine.resolve(second->author_query(), second->msd());
  EXPECT_TRUE(other.found);
  EXPECT_FALSE(other.cache_hit);
  // Both shortcuts now exist; both hit.
  EXPECT_TRUE(w.engine.resolve(first->author_query(), first->msd()).cache_hit);
  EXPECT_TRUE(w.engine.resolve(second->author_query(), second->msd()).cache_hit);
}

TEST(Lookup, MultiCachePopulatesWholeChain) {
  World wm{SchemeKind::kSimple, CachePolicy::kMulti};
  const auto& a = wm.article(0);
  wm.engine.resolve(a.author_query(), a.msd());
  // Now the author+title node also has a shortcut: a user starting from the
  // author+title query hits at the first node.
  const auto outcome = wm.engine.resolve(a.author_title_query(), a.msd());
  EXPECT_TRUE(outcome.cache_hit);
  EXPECT_EQ(outcome.cache_hit_position, 1);
}

TEST(Lookup, SingleCacheDoesNotPopulateChainTail) {
  World ws{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = ws.article(0);
  ws.engine.resolve(a.author_query(), a.msd());
  const auto outcome = ws.engine.resolve(a.author_title_query(), a.msd());
  EXPECT_FALSE(outcome.cache_hit);
}

TEST(Lookup, CacheEliminatesRepeatNonIndexedErrors) {
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = w.article(0);
  const auto first = w.engine.resolve(a.author_year_query(), a.msd());
  EXPECT_TRUE(first.non_indexed);
  const auto second = w.engine.resolve(a.author_year_query(), a.msd());
  EXPECT_FALSE(second.non_indexed);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.interactions, 2);
}

TEST(Lookup, LruEvictionBringsErrorsBack) {
  World w{SchemeKind::kSimple, CachePolicy::kLru, /*cache_capacity=*/1};
  const auto& a = w.article(0);
  w.engine.resolve(a.author_year_query(), a.msd());
  // Displace the shortcut: with capacity 1, any newer entry on the same node
  // evicts the author+year shortcut.
  const Id node = w.service.node_for(a.author_year_query());
  w.service.state_at(node).cache().insert(query::Query::parse("/article/title/Filler"),
                                          a.msd());
  EXPECT_EQ(w.service.state_at(node).cache().size(), 1u);
  const auto again = w.engine.resolve(a.author_year_query(), a.msd());
  EXPECT_TRUE(again.non_indexed);
  EXPECT_TRUE(again.found);
}

TEST(Lookup, CacheTrafficAccounted) {
  World w{SchemeKind::kSimple, CachePolicy::kSingle};
  const auto& a = w.article(0);
  w.ledger.reset();
  w.engine.resolve(a.author_query(), a.msd());
  EXPECT_GT(w.ledger.cache.bytes(), 0u);  // shortcut creation
  const auto before_hit = w.ledger.cache.bytes();
  w.engine.resolve(a.author_query(), a.msd());
  EXPECT_GT(w.ledger.cache.bytes(), before_hit);  // hit response counts as cache traffic
}

TEST(Lookup, FlatRespondsWithWholeResultSet) {
  // Response traffic for an author query in flat includes the MSDs of all
  // the author's articles, not just the target's.
  World w{SchemeKind::kFlat};
  const biblio::Article* prolific = nullptr;
  std::size_t best = 1;
  for (const auto& a : w.corpus->articles()) {
    const auto works = w.corpus->by_author(a.first_name, a.last_name);
    if (works.size() > best) {
      best = works.size();
      prolific = &a;
    }
  }
  ASSERT_NE(prolific, nullptr);
  w.ledger.reset();
  w.engine.resolve(prolific->author_query(), prolific->msd());
  EXPECT_GT(w.ledger.responses.bytes(),
            best * (prolific->msd().byte_size() / 2));
}

TEST(Lookup, FailsCleanlyWhenQueryDoesNotCoverTarget) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto& b = w.article(1);
  ASSERT_NE(a.title, b.title);
  const auto outcome = w.engine.resolve(a.title_query(), b.msd());
  EXPECT_FALSE(outcome.found);
  // A clean miss is not a failure of the machinery: the budget was not
  // exhausted and every node answered.
  EXPECT_FALSE(outcome.gave_up);
  EXPECT_FALSE(outcome.unreachable);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_EQ(outcome.rpc_failures, 0);
}

TEST(Lookup, ExhaustedInteractionBudgetSetsGaveUpNotCleanMiss) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  // The author chain needs 3 interactions; allow only 2.
  LookupEngine strict{w.service, w.store, {CachePolicy::kNone, /*max_interactions=*/2}};
  const auto outcome = strict.resolve(a.author_query(), a.msd());
  EXPECT_FALSE(outcome.found);
  EXPECT_TRUE(outcome.gave_up);
  EXPECT_FALSE(outcome.unreachable);
  EXPECT_EQ(outcome.interactions, 2);

  // The same session with enough budget succeeds and clears the flag.
  const auto relaxed = w.engine.resolve(a.author_query(), a.msd());
  EXPECT_TRUE(relaxed.found);
  EXPECT_FALSE(relaxed.gave_up);
}

TEST(Lookup, SearchAllFindsAllArticlesOfAnAuthor) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto works = w.corpus->by_author(a.first_name, a.last_name);
  const auto results = w.engine.search_all(a.author_query());
  ASSERT_EQ(results.size(), works.size());
  for (const auto* article : works) {
    EXPECT_NE(std::find(results.begin(), results.end(), article->msd()), results.end());
  }
}

TEST(Lookup, SearchAllOnMsdReturnsItself) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(3);
  const auto results = w.engine.search_all(a.msd());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], a.msd());
}

TEST(Lookup, SearchAllOnUnknownQueryIsEmpty) {
  World w{SchemeKind::kSimple};
  EXPECT_TRUE(w.engine.search_all(Query::parse("/article/author/last/Nobody")).empty());
}

TEST(Lookup, SearchAllWorksAcrossSchemes) {
  for (const SchemeKind scheme :
       {SchemeKind::kSimple, SchemeKind::kFlat, SchemeKind::kComplex}) {
    World w{scheme};
    const auto& a = w.article(5);
    const auto results = w.engine.search_all(a.conference_year_query());
    EXPECT_FALSE(results.empty()) << to_string(scheme);
    EXPECT_NE(std::find(results.begin(), results.end(), a.msd()), results.end());
  }
}

TEST(Lookup, VisitedNodesMatchResponsibleNodes) {
  World w{SchemeKind::kSimple};
  const auto& a = w.article(0);
  const auto outcome = w.engine.resolve(a.author_query(), a.msd());
  ASSERT_EQ(outcome.visited_nodes.size(), 3u);
  EXPECT_EQ(outcome.visited_nodes[0], w.ring.successor(a.author_query().key()));
  EXPECT_EQ(outcome.visited_nodes[1], w.ring.successor(a.author_title_query().key()));
  EXPECT_EQ(outcome.visited_nodes[2], w.ring.successor(a.msd().key()));
}

// The bytes a lookup response for `key` carries, re-summed target by target:
// the reference the entries' running totals must match.
std::uint64_t resummed_response_bytes(const IndexService& service, const Query& key) {
  std::uint64_t bytes = net::kMessageOverheadBytes;
  for (const auto& [node, state] : service.states()) {
    if (const IndexNodeState::SourceEntry* entry = state.entry_of(key); entry != nullptr) {
      for (const IndexNodeState::TargetRef& ref : entry->targets) {
        bytes += ref.target->byte_size();
      }
    }
  }
  return bytes;
}

// A key holding an intermediate target and two equal-size targets that
// both cover the MSD, then also a short-circuit entry to the MSD itself:
// the most specific covering target wins, the first inserted among equals,
// and the ledger charges every target of every response.
TEST(Lookup, NextHopTieBreakAndResponseBytes) {
  for (const bool conf_year_first : {true, false}) {
    World w{SchemeKind::kSimple};
    const auto& a = w.article(0);
    const Query key = a.author_query();
    const Query conf_year = a.author_conference_year_query();
    Query title_year = a.author_title_query();
    title_year.add_field("year", std::to_string(a.year));
    ASSERT_EQ(conf_year.constraints().size(), title_year.constraints().size());
    ASSERT_NE(w.ring.successor(conf_year.key()), w.ring.successor(title_year.key()));
    // The builder already mapped key -> author+title (the intermediate).
    const Query& first = conf_year_first ? conf_year : title_year;
    const Query& second = conf_year_first ? title_year : conf_year;
    w.service.insert(key, first);
    w.service.insert(key, second);
    w.service.insert(first, a.msd());
    w.service.insert(second, a.msd());

    // Resolves key -> MSD and checks the responses it charged: one per
    // index key asked (`hop`, when set, is the one between) plus the fetch.
    const auto resolve_via = [&](const Query* hop) {
      w.ledger.reset();
      w.store.get(a.msd().key());
      std::uint64_t expected = w.ledger.responses.bytes();
      expected += resummed_response_bytes(w.service, key);
      if (hop != nullptr) expected += resummed_response_bytes(w.service, *hop);
      w.ledger.reset();
      const auto outcome = w.engine.resolve(key, a.msd());
      EXPECT_TRUE(outcome.found);
      EXPECT_EQ(w.ledger.responses.bytes(), expected);
      return outcome;
    };
    const auto tied = resolve_via(&first);
    ASSERT_EQ(tied.visited_nodes.size(), 3u);
    EXPECT_EQ(tied.visited_nodes[1], w.ring.successor(first.key()));

    // A short-circuit entry is the most specific covering target of all.
    w.builder.add_shortcircuit(key, a.msd());
    const auto direct = resolve_via(nullptr);
    ASSERT_EQ(direct.visited_nodes.size(), 2u);
    EXPECT_EQ(direct.visited_nodes[1], w.ring.successor(a.msd().key()));
  }
}

std::uint64_t running_byte_total(const IndexService& service) {
  std::uint64_t total = 0;
  for (const auto& [node, state] : service.states()) {
    for (const auto& [source, targets] : state.entries()) total += targets.byte_size();
  }
  return total;
}

void expect_running_totals_exact(const IndexService& service, const char* phase) {
  for (const auto& [node, state] : service.states()) {
    for (const auto& [source, targets] : state.entries()) {
      std::uint64_t sum = 0;
      for (const IndexNodeState::TargetRef& ref : targets) sum += ref.target->byte_size();
      EXPECT_EQ(targets.byte_size(), sum) << phase << ": " << source->canonical();
    }
  }
}

TEST(Lookup, EntryByteTotalsTrackEveryMutation) {
  World w{SchemeKind::kFlat};
  expect_running_totals_exact(w.service, "add");
  const std::uint64_t built = running_byte_total(w.service);
  ASSERT_GT(built, 0u);

  // A refresh restamps the mapping; it must not count the target again.
  for (const auto& a : w.corpus->articles()) w.builder.republish(a.descriptor(), 5);
  expect_running_totals_exact(w.service, "republish");
  EXPECT_EQ(running_byte_total(w.service), built);

  EXPECT_GT(w.builder.remove_file(w.article(0).descriptor()), 0u);
  expect_running_totals_exact(w.service, "remove");
  const std::uint64_t removed = running_byte_total(w.service);
  EXPECT_LT(removed, built);

  for (std::size_t i = 1; i < w.corpus->size(); i += 2) {
    w.builder.republish(w.article(i).descriptor(), 10);
  }
  EXPECT_GT(w.service.expire(10), 0u);
  expect_running_totals_exact(w.service, "expire");
  const std::uint64_t expired = running_byte_total(w.service);
  EXPECT_LT(expired, removed);

  // Migration: the busiest node departs and rebalance() moves its entries.
  Id busiest;
  std::size_t most = 0;
  for (const auto& [node, state] : w.service.states()) {
    if (state.mapping_count() > most) {
      most = state.mapping_count();
      busiest = node;
    }
  }
  w.ring.remove(busiest);
  EXPECT_GT(w.service.rebalance(), 0u);
  EXPECT_EQ(w.service.find_state(busiest), nullptr);
  expect_running_totals_exact(w.service, "rebalance");
  EXPECT_EQ(running_byte_total(w.service), expired);

  net::TrafficLedger ledger;
  dht::Ring ring = dht::Ring::with_nodes(25);
  storage::DhtStore store{ring, ledger};
  IndexService restored{ring, ledger};
  persist::load_snapshot(persist::save_snapshot(w.service, w.store), restored, store);
  expect_running_totals_exact(restored, "restore");
  EXPECT_EQ(running_byte_total(restored), expired);
}

}  // namespace
}  // namespace dhtidx::index
