// Coherence of the Query lazy caches (canonical form + memoized DHT key) and
// the QueryInterner's identity guarantees. The hot path leans on both: a
// stale key cache would route queries to the wrong node, and an interner
// returning distinct instances for equal queries would break the
// pointer-identity probes in the index and shortcut caches.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/flat_map.hpp"
#include "common/id.hpp"
#include "query/interner.hpp"
#include "query/query.hpp"

namespace dhtidx {
namespace {

using query::Query;
using query::QueryInterner;

TEST(QueryKeyCache, KeyMatchesHashOfCanonical) {
  const Query q = Query::parse("/article[author/last=Smith][conf=INFOCOM]");
  EXPECT_EQ(q.key(), Id::hash(q.canonical()));
  // Second call returns the memoized value.
  EXPECT_EQ(q.key(), Id::hash(q.canonical()));
}

TEST(QueryKeyCache, AddConstraintInvalidatesBothCaches) {
  Query q = Query::parse("/article[author/last=Smith]");
  const std::string canonical_before = std::string{q.canonical()};
  const Id key_before = q.key();

  q.add_field("conf", "INFOCOM");
  EXPECT_NE(q.canonical(), canonical_before);
  EXPECT_NE(q.key(), key_before);
  // The refreshed caches agree with each other.
  EXPECT_EQ(q.key(), Id::hash(q.canonical()));
}

TEST(QueryKeyCache, EveryMutatorKeepsKeyConsistent) {
  Query q = Query::parse("/article[author/last=Smith][conf=INFOCOM][year=1996]");
  q.key();  // warm the cache before each mutation

  q.add_presence("title");
  EXPECT_EQ(q.key(), Id::hash(q.canonical()));

  q.add_prefix("author/first", "J");
  EXPECT_EQ(q.key(), Id::hash(q.canonical()));

  query::Constraint extra;
  extra.path = "journal";
  extra.value = "TON";
  q.add_constraint(extra);
  EXPECT_EQ(q.key(), Id::hash(q.canonical()));
}

TEST(QueryKeyCache, CopiesAndMovesCarryWarmCaches) {
  Query q = Query::parse("/article[author/last=Doe]");
  const Id key = q.key();

  const Query copy = q;
  EXPECT_EQ(copy.key(), key);

  const Query moved = std::move(q);
  EXPECT_EQ(moved.key(), key);
  EXPECT_EQ(moved.key(), Id::hash(moved.canonical()));
}

TEST(QueryKeyCache, DerivedQueriesHashTheirOwnForm) {
  const Query q = Query::parse("/article[author/last=Smith][conf=INFOCOM]");
  q.key();
  for (const Query& g : q.drop_one_generalizations()) {
    EXPECT_EQ(g.key(), Id::hash(g.canonical()));
    EXPECT_NE(g.key(), q.key());
  }
  const Query kept = q.keep_constraints({0});
  EXPECT_EQ(kept.key(), Id::hash(kept.canonical()));
}

TEST(QueryInternerTest, EqualSpellingsShareOneInstance) {
  QueryInterner interner;
  // Footnote 1: equivalent XPath spellings normalize to the same canonical
  // form, so they must intern to the same instance.
  const Query* a = interner.intern(Query::parse("/article[conf=INFOCOM][author/last=Smith]"));
  const Query* b = interner.intern(Query::parse("/article[author/last=Smith][conf=INFOCOM]"));
  const Query* c = interner.intern(Query::parse("/article/author/last/Smith")
                                       .add_field("conf", "INFOCOM"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(QueryInternerTest, InternedInstanceEqualsFreshParse) {
  QueryInterner interner;
  const Query fresh = Query::parse("/article[author/last=Smith][title=TCP]");
  const Query* interned = interner.intern(fresh);
  EXPECT_EQ(*interned, fresh);
  EXPECT_EQ(interned->canonical(), fresh.canonical());
  EXPECT_EQ(interned->key(), fresh.key());
  EXPECT_EQ(query::QueryHasher{}(*interned), query::QueryHasher{}(fresh));
}

TEST(QueryInternerTest, FindExistingNeverGrowsThePool) {
  QueryInterner interner;
  interner.intern(Query::parse("/article/conf/INFOCOM"));
  ASSERT_EQ(interner.size(), 1u);

  EXPECT_EQ(interner.find_existing(Query::parse("/article/conf/SIGCOMM")), nullptr);
  EXPECT_EQ(interner.size(), 1u);  // the miss did not leak an arena entry

  const Query* hit = interner.find_existing(Query::parse("/article/conf/INFOCOM"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, interner.intern(Query::parse("/article/conf/INFOCOM")));
}

TEST(QueryInternerTest, PointersStayValidAsThePoolGrows) {
  QueryInterner interner;
  std::vector<const Query*> first_batch;
  for (int i = 0; i < 16; ++i) {
    first_batch.push_back(
        interner.intern(Query{"article"}.add_field("year", std::to_string(1980 + i))));
  }
  for (int i = 0; i < 512; ++i) {
    interner.intern(Query{"article"}.add_field("title", "t" + std::to_string(i)));
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(first_batch[i]->constraints().front().value,
              std::to_string(1980 + i));
    EXPECT_EQ(first_batch[i],
              interner.intern(Query{"article"}.add_field("year", std::to_string(1980 + i))));
  }
}

TEST(QueryInternerTest, RefsSurviveAHundredThousandInternsAndAMove) {
  // Short canonical forms ("/a[y=7]") live in the string's inline buffer,
  // so the pool's string_view keys are only valid while the queries
  // themselves never move: not as the arena grows, not when the interner
  // is moved.
  constexpr int kQueries = 100000;
  const auto make = [](int i) {
    Query q{"a"};
    if (i % 2 == 0) {
      q.add_field("y", std::to_string(i));
    } else {
      q.add_field("author/last", "L" + std::to_string(i)).add_field("title", "T");
    }
    return q;
  };
  QueryInterner interner;
  std::vector<const Query*> refs;
  refs.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) refs.push_back(interner.intern(make(i)));
  ASSERT_EQ(interner.size(), static_cast<std::size_t>(kQueries));

  const auto check = [&](QueryInterner& pool) {
    for (int i = 0; i < kQueries; i += 97) {
      const Query expected = make(i);
      ASSERT_EQ(*refs[i], expected);
      ASSERT_EQ(refs[i]->key(), Id::hash(expected.canonical()));
      ASSERT_EQ(pool.find_existing(expected), refs[i]);
      ASSERT_EQ(pool.intern(expected), refs[i]);
    }
    EXPECT_EQ(pool.size(), static_cast<std::size_t>(kQueries));
  };
  check(interner);
  QueryInterner moved{std::move(interner)};
  check(moved);
  QueryInterner assigned;
  assigned.intern(make(-1));
  assigned = std::move(moved);
  check(assigned);
}

TEST(QueryInternerTest, DistinctQueriesGetDistinctInstances) {
  QueryInterner interner;
  std::unordered_set<const Query*> instances;
  for (int i = 0; i < 64; ++i) {
    instances.insert(
        interner.intern(Query{"article"}.add_field("year", std::to_string(i))));
  }
  EXPECT_EQ(instances.size(), 64u);
  EXPECT_EQ(interner.size(), 64u);
}

TEST(FlatMapTest, IteratesInAscendingKeyOrderLikeStdMap) {
  FlatMap<int, std::string> map;
  map[5] = "five";
  map[1] = "one";
  map[3] = "three";
  map[2] = "two";
  std::vector<int> keys;
  for (const auto& [k, v] : map) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3, 5}));
}

TEST(FlatMapTest, FindEraseAndTryEmplaceMatchMapSemantics) {
  FlatMap<int, int> map;
  EXPECT_TRUE(map.try_emplace(2, 20).second);
  EXPECT_FALSE(map.try_emplace(2, 99).second);
  EXPECT_EQ(map.at(2), 20);
  EXPECT_TRUE(map.contains(2));
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_EQ(map.erase(7), 0u);
  EXPECT_EQ(map.erase(2), 1u);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, GenerationCountsEveryStructuralMutation) {
  FlatMap<int, int> map;
  const auto gen = [&] { return map.generation(); };
  const std::uint64_t g0 = gen();

  map.try_emplace(1, 10);
  EXPECT_GT(gen(), g0);

  std::uint64_t g = gen();
  map.try_emplace(1, 99);  // no-op: key exists, no invalidation
  EXPECT_EQ(gen(), g);
  map.find(1);             // reads never bump
  map.at(1) = 11;          // value writes never bump
  EXPECT_EQ(gen(), g);

  map.emplace(2, 20);
  EXPECT_GT(gen(), g);
  g = gen();
  map.erase(2);
  EXPECT_GT(gen(), g);
  g = gen();
  map.erase(7);  // erasing a missing key mutates nothing
  EXPECT_EQ(gen(), g);
  map.clear();
  EXPECT_GT(gen(), g);
  g = gen();
  map.clear();  // clearing an empty map mutates nothing
  EXPECT_EQ(gen(), g);
}

TEST(FlatMapTest, StaleRefTrapsInsteadOfReadingFreedMemory) {
  // Regression for the PR 5 rebalance bug: a reference to a destination
  // element was bound *before* a second element was materialized, and the
  // insertion reallocated the vector out from under it. With Ref the same
  // bind-order mistake now throws deterministically.
  FlatMap<int, std::vector<int>> stores;
  stores.try_emplace(1).first->second = {100};

  FlatMap<int, std::vector<int>>::Ref destination{stores, 1};
  EXPECT_EQ((*destination)[0], 100);  // fresh ref reads fine

  // The buggy order: mutate the map while still holding the old reference.
  stores.try_emplace(2);
  EXPECT_THROW(destination.get(), std::logic_error);
  EXPECT_THROW(*destination, std::logic_error);
  EXPECT_THROW(destination->push_back(7), std::logic_error);

  // rebind() after an intentional mutation makes the handle valid again.
  destination.rebind(1);
  destination->push_back(200);
  EXPECT_EQ(stores.at(1), (std::vector<int>{100, 200}));
}

TEST(FlatMapTest, CorrectBindOrderSurvivesTheRebalancePattern) {
  // The fixed pattern used by DhtStore::rebalance: materialize the
  // destination first, then bind both handles, then move data. No mutation
  // happens between binding and use, so no trap fires.
  FlatMap<int, std::vector<int>> stores;
  stores.try_emplace(1).first->second = {1, 2, 3};

  stores[2];  // materialize the destination BEFORE binding any reference
  FlatMap<int, std::vector<int>>::Ref destination{stores, 2};
  FlatMap<int, std::vector<int>>::Ref source{stores, 1};

  for (const int record : *source) destination->push_back(record);
  source->clear();
  EXPECT_EQ(stores.at(2), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(stores.at(1).empty());
}

TEST(FlatMapTest, RefTrapsAfterEraseAndClearToo) {
  FlatMap<int, int> map;
  map.try_emplace(1, 10);
  map.try_emplace(2, 20);

  FlatMap<int, int>::Ref ref{map, 1};
  map.erase(2);
  EXPECT_THROW(ref.get(), std::logic_error);
  ref.rebind(1);
  EXPECT_EQ(*ref, 10);
  map.clear();
  EXPECT_THROW(ref.get(), std::logic_error);
}

}  // namespace
}  // namespace dhtidx
