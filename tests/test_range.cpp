// Client-side range expansion for interval queries (the publication-date
// intervals of the BibFinder/NetBib interfaces, Section V-B).
#include <gtest/gtest.h>

#include <set>

#include "biblio/corpus.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"

namespace dhtidx::index {
namespace {

using query::Query;

class RangeWorld : public ::testing::Test {
 protected:
  void SetUp() override {
    biblio::CorpusConfig config;
    config.articles = 150;
    config.authors = 50;
    config.conferences = 10;
    config.first_year = 1990;
    config.last_year = 2000;
    corpus_.emplace(biblio::Corpus::generate(config));
    for (const auto& a : corpus_->articles()) {
      builder_.index_file(a.descriptor(), a.file_name(), a.file_bytes);
    }
  }

  std::set<std::string> expected_in_range(int lo, int hi) const {
    std::set<std::string> expected;
    for (const auto& a : corpus_->articles()) {
      if (a.year >= lo && a.year <= hi) expected.insert(std::string{a.msd().canonical()});
    }
    return expected;
  }

  dht::Ring ring_ = dht::Ring::with_nodes(30);
  net::TrafficLedger ledger_;
  storage::DhtStore store_{ring_, ledger_};
  IndexService service_{ring_, ledger_};
  IndexBuilder builder_{service_, store_, IndexingScheme::simple()};
  LookupEngine engine_{service_, store_, {CachePolicy::kNone}};
  std::optional<biblio::Corpus> corpus_;
};

TEST_F(RangeWorld, YearIntervalFindsAllArticles) {
  const auto results = engine_.search_range(Query{"article"}, "year", 1993, 1996);
  std::set<std::string> got;
  for (const auto& msd : results) got.insert(std::string{msd.canonical()});
  EXPECT_EQ(got, expected_in_range(1993, 1996));
  EXPECT_FALSE(got.empty());
}

TEST_F(RangeWorld, SingleYearRangeEqualsExactQuery) {
  const auto ranged = engine_.search_range(Query{"article"}, "year", 1995, 1995);
  Query exact{"article"};
  exact.add_field("year", "1995");
  const auto direct = engine_.search_all(exact);
  EXPECT_EQ(ranged, direct);
}

TEST_F(RangeWorld, EmptyRangeYieldsNothing) {
  EXPECT_TRUE(engine_.search_range(Query{"article"}, "year", 1996, 1993).empty());
  EXPECT_TRUE(engine_.search_range(Query{"article"}, "year", 2050, 2060).empty());
}

TEST_F(RangeWorld, RangeComposesWithOtherConstraints) {
  // "Articles by this author published after 1994" -- the author+year combo
  // is not indexed, so each expanded query exercises generalization too.
  const auto& a = corpus_->article(0);
  const auto results =
      engine_.search_range(a.author_query(), "year", 1994, 2000);
  std::set<std::string> expected;
  for (const auto* w : corpus_->by_author(a.first_name, a.last_name)) {
    if (w->year >= 1994) expected.insert(std::string{w->msd().canonical()});
  }
  std::set<std::string> got;
  for (const auto& msd : results) got.insert(std::string{msd.canonical()});
  EXPECT_EQ(got, expected);
}

TEST_F(RangeWorld, ResultsAreDeduplicatedAndSorted) {
  const auto results = engine_.search_range(Query{"article"}, "year", 1990, 2000);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(results[i - 1], results[i]);
  }
  EXPECT_EQ(results.size(), expected_in_range(1990, 2000).size());
  EXPECT_EQ(results.size(), corpus_->size());
}

}  // namespace
}  // namespace dhtidx::index
