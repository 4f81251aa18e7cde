// Prefix constraints and prefix index levels (Section IV-C: "one can create
// an index with all the files of an author that start with the letter 'A'").
#include <gtest/gtest.h>

#include <set>

#include "biblio/corpus.hpp"
#include "common/error.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "xml/parser.hpp"

namespace dhtidx {
namespace {

using query::Query;

TEST(PrefixQuery, ParseAndCanonicalRoundTrip) {
  const Query q = Query::parse("/article[author/last^=Sm]");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_TRUE(q.constraints()[0].value_is_prefix);
  EXPECT_EQ(q.constraints()[0].value, "Sm");
  const Query reparsed = Query::parse(q.canonical());
  EXPECT_EQ(reparsed, q);
}

TEST(PrefixQuery, AddPrefixBuilderMatchesParsed) {
  Query q{"article"};
  q.add_prefix("author/last", "Sm");
  EXPECT_EQ(q, Query::parse("/article[author/last^=Sm]"));
}

TEST(PrefixQuery, PrefixDiffersFromExactValue) {
  EXPECT_NE(Query::parse("/article[author/last^=Smith]"),
            Query::parse("/article[author/last=Smith]"));
}

TEST(PrefixQuery, MatchesDocumentsByPrefix) {
  const xml::Element doc = xml::parse(
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>TCP</title></article>");
  EXPECT_TRUE(Query::parse("/article[author/last^=S]").matches(doc));
  EXPECT_TRUE(Query::parse("/article[author/last^=Smi]").matches(doc));
  EXPECT_TRUE(Query::parse("/article[author/last^=Smith]").matches(doc));
  EXPECT_FALSE(Query::parse("/article[author/last^=Sx]").matches(doc));
  EXPECT_FALSE(Query::parse("/article[author/last^=smith]").matches(doc));  // case-sensitive
}

TEST(PrefixQuery, CoveringLattice) {
  const Query s = Query::parse("/article[author/last^=S]");
  const Query sm = Query::parse("/article[author/last^=Sm]");
  const Query smith = Query::parse("/article[author/last=Smith]");
  const Query sanders = Query::parse("/article[author/last=Sanders]");
  // Shorter prefixes cover longer ones cover exact values.
  EXPECT_TRUE(s.covers(sm));
  EXPECT_TRUE(sm.covers(smith));
  EXPECT_TRUE(s.covers(smith));
  EXPECT_TRUE(s.covers(sanders));
  EXPECT_FALSE(sm.covers(sanders));
  // Never the other way around.
  EXPECT_FALSE(sm.covers(s));
  EXPECT_FALSE(smith.covers(sm));
  EXPECT_FALSE(smith.covers(s));
  // An exact value never covers a prefix query.
  EXPECT_FALSE(smith.covers(Query::parse("/article[author/last^=Smith]")));
  // But a prefix equal to the full value covers the exact query.
  EXPECT_TRUE(Query::parse("/article[author/last^=Smith]").covers(smith));
  // Presence is covered by prefix queries too.
  EXPECT_TRUE(Query::parse("/article[author/last=*]").covers(sm));
}

TEST(PrefixQuery, CoversIsConsistentWithMatching) {
  const xml::Element doc = xml::parse(
      "<article><author><first>A</first><last>Sanders</last></author></article>");
  const Query s = Query::parse("/article[author/last^=S]");
  const Query msd = Query::most_specific(doc);
  EXPECT_TRUE(s.covers(msd));
  EXPECT_TRUE(s.matches(doc));
}

TEST(PrefixScheme, RejectsInvalidRules) {
  index::IndexingScheme scheme = index::IndexingScheme::simple();
  EXPECT_THROW(scheme.add_prefix_rule({{}, 1, {}, true}), InvariantError);
  EXPECT_THROW(scheme.add_prefix_rule({{"author", "last"}, 0, {}, true}), InvariantError);
  EXPECT_THROW(scheme.add_prefix_rule({{"author", "last"}, 1, {"title"}, false}),
               InvariantError);
  scheme.add_prefix_rule({{"author", "last"}, 1, {"author"}, false});  // valid
}

TEST(PrefixScheme, GeneratesCoveringPrefixMappings) {
  index::IndexingScheme scheme = index::IndexingScheme::simple();
  scheme.add_prefix_rule({{"author", "last"}, 1, {"author"}, false});

  biblio::Article a;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "TCP";
  a.conference = "SIGCOMM";
  a.year = 1989;
  a.file_bytes = 1;
  const auto mappings = scheme.mappings_for(a.msd());
  EXPECT_EQ(mappings.size(), 7u);  // 6 simple + 1 prefix level
  bool found = false;
  for (const auto& m : mappings) {
    EXPECT_TRUE(m.source.covers(m.target));
    if (m.source == Query::parse("/article[author/last^=S]")) {
      EXPECT_EQ(m.target, a.author_query());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PrefixScheme, EndToEndInitialSearch) {
  // Index a corpus with a last-name-initial level and find all authors whose
  // last name starts with a given letter.
  biblio::CorpusConfig config;
  config.articles = 120;
  config.authors = 40;
  config.conferences = 8;
  const biblio::Corpus corpus = biblio::Corpus::generate(config);

  dht::Ring ring = dht::Ring::with_nodes(25);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  index::IndexingScheme scheme = index::IndexingScheme::simple();
  scheme.add_prefix_rule({{"author", "last"}, 1, {"author"}, false});
  index::IndexBuilder builder{service, store, scheme};
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }

  index::LookupEngine engine{service, store, {index::CachePolicy::kNone}};
  const char initial = corpus.article(0).last_name[0];
  Query q{"article"};
  q.add_prefix("author/last", std::string(1, initial));
  const auto results = engine.search_all(q);

  std::set<std::string> expected;
  for (const auto& a : corpus.articles()) {
    if (a.last_name[0] == initial) expected.insert(std::string{a.msd().canonical()});
  }
  ASSERT_FALSE(expected.empty());
  std::set<std::string> got;
  for (const auto& msd : results) got.insert(std::string{msd.canonical()});
  EXPECT_EQ(got, expected);
}

TEST(PrefixScheme, LongerPrefixThanValueClamps) {
  index::IndexingScheme scheme{"p", {{{"title"}, {}, true}}};
  scheme.add_prefix_rule({{"title"}, 100, {"title"}, false});
  xml::Element doc{"article"};
  doc.add_child("title", "Ab");
  const auto mappings = scheme.mappings_for(query::Query::most_specific(doc));
  // The prefix level degenerates to the full value; source would cover the
  // target trivially but must never equal it (prefix != exact constraint).
  for (const auto& m : mappings) {
    EXPECT_TRUE(m.source.covers(m.target));
    EXPECT_NE(m.source, m.target);
  }
}

}  // namespace
}  // namespace dhtidx
