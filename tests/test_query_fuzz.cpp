// Randomized property tests over the query algebra: for arbitrary queries
// and descriptors drawn from a shared vocabulary, the covering relation must
// be sound w.r.t. matching, canonicalization must round-trip, and the
// generalization operators must behave monotonically.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "query/query.hpp"
#include "xml/node.hpp"

namespace dhtidx::query {
namespace {

constexpr const char* kFields[] = {"author/first", "author/last", "title", "conf",
                                   "year", "pages", "editor/last"};
constexpr const char* kValues[] = {"A", "B", "C", "Smith", "Doe", "TCP", "1996",
                                   "INFOCOM", "x y", "it's", "[odd]", "a=b", "*"};

/// A random conjunctive query over the shared vocabulary.
Query random_query(Rng& rng) {
  Query q{"article"};
  const int constraints = static_cast<int>(rng.next_in(0, 4));
  for (int i = 0; i < constraints; ++i) {
    const char* field = kFields[rng.next_index(std::size(kFields))];
    const double kind = rng.next_double();
    if (kind < 0.15) {
      q.add_presence(field);
    } else if (kind < 0.3) {
      std::string value = kValues[rng.next_index(std::size(kValues))];
      if (!value.empty()) q.add_prefix(field, value.substr(0, 1));
    } else {
      q.add_field(field, kValues[rng.next_index(std::size(kValues))]);
    }
  }
  return q;
}

/// A random descriptor assigning values to a subset of the fields.
xml::Element random_descriptor(Rng& rng) {
  xml::Element doc{"article"};
  xml::Element author{"author"};
  bool has_author = false;
  for (const char* field : kFields) {
    if (!rng.next_bool(0.7)) continue;
    const std::string value = kValues[rng.next_index(std::size(kValues))];
    const std::vector<std::string> parts = [&] {
      std::vector<std::string> out;
      std::string part;
      for (const char c : std::string{field}) {
        if (c == '/') {
          out.push_back(part);
          part.clear();
        } else {
          part.push_back(c);
        }
      }
      out.push_back(part);
      return out;
    }();
    if (parts.size() == 1) {
      doc.add_child(parts[0], value);
    } else if (parts[0] == "author") {
      author.add_child(parts[1], value);
      has_author = true;
    } else {
      xml::Element nested{parts[0]};
      nested.add_child(parts[1], value);
      doc.add_child(std::move(nested));
    }
  }
  if (has_author) doc.add_child(author);
  if (doc.children().empty()) doc.add_child("title", "fallback");
  return doc;
}

class QueryFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueryFuzzTest, CoversIsSoundForMatching) {
  // If a covers b, then every document matching b matches a.
  Rng rng{GetParam()};
  std::vector<Query> queries;
  std::vector<xml::Element> docs;
  for (int i = 0; i < 12; ++i) queries.push_back(random_query(rng));
  for (int i = 0; i < 12; ++i) docs.push_back(random_descriptor(rng));
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      if (!a.covers(b)) continue;
      for (const xml::Element& doc : docs) {
        if (b.matches(doc)) {
          EXPECT_TRUE(a.matches(doc))
              << a.canonical() << " covers " << b.canonical()
              << " but misses a doc matching the latter";
        }
      }
    }
  }
}

TEST_P(QueryFuzzTest, MsdIsCoveredByEveryMatchingQuery) {
  Rng rng{GetParam() ^ 0xbeef};
  for (int i = 0; i < 20; ++i) {
    const xml::Element doc = random_descriptor(rng);
    const Query msd = Query::most_specific(doc);
    EXPECT_TRUE(msd.matches(doc));
    for (int j = 0; j < 10; ++j) {
      const Query q = random_query(rng);
      if (q.matches(doc)) {
        EXPECT_TRUE(q.covers(msd)) << q.canonical() << " matches the doc of "
                                   << msd.canonical() << " but does not cover its MSD";
      }
    }
  }
}

TEST_P(QueryFuzzTest, CanonicalRoundTripsThroughParser) {
  Rng rng{GetParam() ^ 0xc0de};
  for (int i = 0; i < 60; ++i) {
    const Query q = random_query(rng);
    const Query reparsed = Query::parse(q.canonical());
    EXPECT_EQ(reparsed, q) << q.canonical();
    EXPECT_EQ(reparsed.key(), q.key());
  }
}

TEST_P(QueryFuzzTest, DropOneGeneralizationsAlwaysCover) {
  Rng rng{GetParam() ^ 0xfeed};
  for (int i = 0; i < 40; ++i) {
    const Query q = random_query(rng);
    for (const Query& g : q.drop_one_generalizations()) {
      EXPECT_TRUE(g.covers(q)) << g.canonical() << " vs " << q.canonical();
    }
  }
}

TEST_P(QueryFuzzTest, CoveringIsTransitiveOnRandomTriples) {
  Rng rng{GetParam() ^ 0x7777};
  std::vector<Query> queries;
  for (int i = 0; i < 15; ++i) queries.push_back(random_query(rng));
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      if (!a.covers(b)) continue;
      for (const Query& c : queries) {
        if (b.covers(c)) {
          EXPECT_TRUE(a.covers(c)) << a.canonical() << " | " << b.canonical() << " | "
                                   << c.canonical();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest, ::testing::Range<std::uint64_t>(0, 12));

/// The parser's contract on arbitrary bytes: either a ParseError, or a query
/// whose canonical string parses back to the same query (and key). Any
/// other exception escapes and fails the test.
void expect_rejected_or_round_trips(const std::string& input, int& accepted) {
  Query q;
  try {
    q = Query::parse(input);
  } catch (const ParseError&) {
    return;
  }
  ++accepted;
  Query reparsed;
  try {
    reparsed = Query::parse(q.canonical());
  } catch (const ParseError& e) {
    ADD_FAILURE() << "canonical " << q.canonical() << " of input " << input
                  << " does not re-parse: " << e.what();
    return;
  }
  EXPECT_EQ(reparsed, q) << "input " << input << " canonical " << q.canonical();
  EXPECT_EQ(reparsed.key(), q.key()) << "input " << input;
}

TEST(QueryParserFuzz, RandomBuffersAreRejectedOrRoundTrip) {
  // 5k buffers: half uniform bytes, half drawn from the grammar's own
  // punctuation and a few name and whitespace characters, most behind a
  // leading '/' so that they get past the first token.
  static constexpr std::string_view kGrammar = "/[]=^*'\\ \tab1_.-:abtab/[]=";
  Rng rng{0x5eed};
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const bool uniform = i % 2 == 0;
    std::string input = rng.next_bool(0.8) ? "/" : "";
    const std::size_t length = rng.next_index(uniform ? 48 : 24);
    for (std::size_t k = 0; k < length; ++k) {
      input.push_back(uniform ? static_cast<char>(rng.next_index(256))
                              : kGrammar[rng.next_index(kGrammar.size())]);
    }
    expect_rejected_or_round_trips(input, accepted);
  }
  EXPECT_GT(accepted, 100);  // the sweep must reach past the first token
}

TEST(QueryParserFuzz, MutatedSeedQueriesAreRejectedOrRoundTrip) {
  // 2k mutations of valid queries covering every construct: nested
  // predicates, the paper's /a/b/v form, //, "*" steps and root, ^=,
  // presence markers, quoted values with escapes and edge whitespace.
  const std::string seeds[] = {
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]",
      "/article/author/last/Smith",
      "/article/author[first/John][last/Smith]",
      "/article[//last/Smith][year=1996]",
      "/article[*/last=Smith][author/first=*]",
      "/*[title^=TC][conf^='IN ']",
      "/article[title='A = B [sic] /ok\\' quote'][pages='*']",
      "/article[title=' padded '][conf=x y]",
      "/article[//editor/contact[last=Doe][first=J]]",
      "/article[year][author/last=*]",
  };
  static constexpr std::string_view kInsert = "/[]=^*' \\ab.";
  Rng rng{0xf022};
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string input = seeds[rng.next_index(std::size(seeds))];
    const std::size_t mutations = 1 + rng.next_index(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next_index(input.size() + 1);
      switch (rng.next_index(4)) {
        case 0:  // insert a grammar character
          input.insert(at, 1, kInsert[rng.next_index(kInsert.size())]);
          break;
        case 1:  // delete a byte
          if (at < input.size()) input.erase(at, 1);
          break;
        case 2:  // overwrite with an arbitrary byte
          if (at < input.size()) input[at] = static_cast<char>(rng.next_index(256));
          break;
        default: {  // duplicate a short slice
          const std::size_t len = std::min<std::size_t>(input.size() - std::min(at, input.size()),
                                                        1 + rng.next_index(8));
          input.insert(at, input.substr(at, len));
          break;
        }
      }
    }
    expect_rejected_or_round_trips(input, accepted);
  }
  EXPECT_GT(accepted, 200);
}

}  // namespace
}  // namespace dhtidx::query
