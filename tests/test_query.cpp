#include "query/query.hpp"

#include <gtest/gtest.h>

#include <compare>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "xml/parser.hpp"

namespace dhtidx::query {
namespace {

TEST(QueryParse, PaperStylePathQuery) {
  // q4 = /article/title/TCP -- the last step is the value.
  const Query q = Query::parse("/article/title/TCP");
  EXPECT_EQ(q.root(), "article");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "title");
  EXPECT_EQ(q.constraints()[0].value, "TCP");
}

TEST(QueryParse, DeepPathQuery) {
  // q6 = /article/author/last/Smith.
  const Query q = Query::parse("/article/author/last/Smith");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "author/last");
  EXPECT_EQ(q.constraints()[0].value, "Smith");
}

TEST(QueryParse, NestedPredicates) {
  // q3 = /article/author[first/John][last/Smith].
  const Query q = Query::parse("/article/author[first/John][last/Smith]");
  ASSERT_EQ(q.constraints().size(), 2u);
  EXPECT_EQ(q.constraints()[0].path_string(), "author/first");
  EXPECT_EQ(q.constraints()[0].value, "John");
  EXPECT_EQ(q.constraints()[1].path_string(), "author/last");
  EXPECT_EQ(q.constraints()[1].value, "Smith");
}

TEST(QueryParse, FullMostSpecificQuery) {
  // q1 from Figure 2.
  const Query q = Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]"
      "[year/1989][size/315635]");
  EXPECT_EQ(q.constraints().size(), 6u);
}

TEST(QueryParse, ExplicitValueSyntax) {
  const Query a = Query::parse("/article[author/last=Smith]");
  const Query b = Query::parse("/article/author/last/Smith");
  EXPECT_EQ(a, b);
}

TEST(QueryParse, QuotedValues) {
  const Query q = Query::parse("/article[title='A = B [sic] /ok\\' quote']");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].value, "A = B [sic] /ok' quote");
}

TEST(QueryParse, PresenceSingleStep) {
  const Query q = Query::parse("/article/author");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "author");
  EXPECT_FALSE(q.constraints()[0].value.has_value());
}

TEST(QueryParse, PresenceMarkerForNestedField) {
  const Query q = Query::parse("/article[author/last=*]");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "author/last");
  EXPECT_FALSE(q.constraints()[0].value.has_value());
}

TEST(QueryParse, RootOnly) {
  const Query q = Query::parse("/article");
  EXPECT_EQ(q.root(), "article");
  EXPECT_FALSE(q.has_constraints());
}

TEST(QueryParse, DescendantAxisInPredicate) {
  const Query q = Query::parse("/article[//last/Smith]");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_TRUE(q.constraints()[0].descendant);
  EXPECT_EQ(q.constraints()[0].path_string(), "last");
  EXPECT_EQ(q.constraints()[0].value, "Smith");
}

TEST(QueryParse, WildcardSegment) {
  const Query q = Query::parse("/article[*/last=Smith]");
  ASSERT_EQ(q.constraints().size(), 1u);
  EXPECT_EQ(q.constraints()[0].path_string(), "*/last");
}

TEST(QueryParse, MalformedInputsRejected) {
  EXPECT_THROW(Query::parse(""), ParseError);
  EXPECT_THROW(Query::parse("article"), ParseError);
  EXPECT_THROW(Query::parse("/article[unclosed"), ParseError);
  EXPECT_THROW(Query::parse("/article]"), ParseError);
  EXPECT_THROW(Query::parse("/article[=x]"), ParseError);
  EXPECT_THROW(Query::parse("//article"), ParseError);
  EXPECT_THROW(Query::parse("/article[a=]"), ParseError);
}

TEST(QueryNormalization, EquivalentSpellingsShareCanonicalForm) {
  // Footnote 1: equivalent expressions are transformed into a unique
  // normalized format (and hence the same DHT key).
  const Query a = Query::parse("/article[author[first/John][last/Smith]][conf/INFOCOM]");
  const Query b = Query::parse("/article[conf=INFOCOM][author/last=Smith][author/first=John]");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.key(), b.key());
}

TEST(QueryNormalization, DuplicateConstraintsCollapse) {
  const Query q = Query::parse("/article[title/TCP][title=TCP]");
  EXPECT_EQ(q.constraints().size(), 1u);
}

TEST(QueryCanonical, RoundTripsThroughParser) {
  const char* samples[] = {
      "/article/title/TCP",
      "/article[author[first/John][last/Smith]][conf/SIGCOMM]",
      "/article[author/last=*]",
      "/article/author",
      "/article[//last/Smith]",
      "/article[title='we [heart] DHTs']",
      "/article[*/last=Doe]",
  };
  for (const char* text : samples) {
    const Query q = Query::parse(text);
    const Query reparsed = Query::parse(q.canonical());
    EXPECT_EQ(reparsed, q) << text << " -> " << q.canonical();
    EXPECT_EQ(reparsed.canonical(), q.canonical());
  }
}

TEST(QueryCanonical, QuotesStarValue) {
  Query q{"article"};
  q.add_field("title", "*");
  const Query reparsed = Query::parse(q.canonical());
  ASSERT_EQ(reparsed.constraints().size(), 1u);
  EXPECT_EQ(reparsed.constraints()[0].value, "*");
}

TEST(QueryBuild, AddFieldMatchesParsedForm) {
  Query q{"article"};
  q.add_field("author/first", "John").add_field("author/last", "Smith");
  EXPECT_EQ(q, Query::parse("/article/author[first/John][last/Smith]"));
}

TEST(QueryBuild, EmptyPathRejected) {
  Query q{"article"};
  EXPECT_THROW(q.add_constraint(Constraint{}), InvariantError);
}

TEST(QueryBuild, EmptyPathStepsRejected) {
  // Each of these would render a canonical string that either fails to
  // re-parse or re-parses to another query ([/a=v] reads back as [//a=v]).
  for (const std::string path : {"", "a//b", "/a", "a/", "//a", "a/b/"}) {
    const auto expect_rejected = [&](const auto& add) {
      Query q{"article"};
      try {
        add(q);
        ADD_FAILURE() << "path '" << path << "' was accepted";
      } catch (const InvariantError& e) {
        EXPECT_NE(std::string{e.what()}.find("'" + path + "'"), std::string::npos) << e.what();
      }
      EXPECT_FALSE(q.has_constraints());
    };
    expect_rejected([&](Query& q) { q.add_field(path, "v"); });
    expect_rejected([&](Query& q) { q.add_presence(path); });
    expect_rejected([&](Query& q) { q.add_prefix(path, "v"); });
  }
}

TEST(QueryCanonical, EdgeWhitespaceValuesAreQuoted) {
  // The parser trims bare values, so a value with edge whitespace must be
  // quoted or parse(canonical()) would lose it and change the key.
  for (const char* text : {"/*[title='a ']", "/*[title=' a']", "/*[title^='T ']",
                           "/article[conf='\tX'][year=' ']"}) {
    const Query q = Query::parse(text);
    const Query reparsed = Query::parse(q.canonical());
    EXPECT_EQ(reparsed, q) << text << " -> " << q.canonical();
    EXPECT_EQ(reparsed.key(), q.key()) << text;
  }
  EXPECT_EQ(Query::parse("/*[title='a ']").canonical(), "/*[title='a ']");
  EXPECT_EQ(Query::parse("/*[title='a b']").canonical(), "/*[title=a b]");
}

TEST(QueryConstraint, PathOrderEqualsStepVectorOrder) {
  // The one-string path must sort exactly like the step vector it stands
  // for; normalization, canonical strings and DHT keys depend on it. The
  // names mix characters that sort below '/' ('-', '.') and above it
  // (digits, '_', letters), plus "*" steps.
  const std::vector<std::string> names = {"a", "b", "ab", "a-", "a.", "-", ".", "_",
                                          "0", "9", "a0", "a_b", "*", "a*", "a.b"};
  Rng rng{14};
  const auto random_steps = [&] {
    std::vector<std::string> steps(1 + rng.next_index(3));
    for (std::string& step : steps) step = names[rng.next_index(names.size())];
    return steps;
  };
  const auto sign = [](std::strong_ordering order) { return order < 0 ? -1 : order > 0 ? 1 : 0; };
  for (int i = 0; i < 20000; ++i) {
    const std::vector<std::string> a = random_steps();
    const std::vector<std::string> b = rng.next_bool(0.2) ? a : random_steps();
    Constraint ca;
    ca.path = join(a, "/");
    ca.value = "v";
    Constraint cb = ca;
    cb.path = join(b, "/");
    ASSERT_EQ(sign(ca <=> cb), sign(a <=> b)) << ca.path << " vs " << cb.path;
    ASSERT_EQ(ca == cb, a == b) << ca.path << " vs " << cb.path;
    ASSERT_EQ(path_equals(ca.path, b), a == b) << ca.path << " vs " << cb.path;
    ASSERT_EQ(ca.first_step(), a.front());
  }
}

TEST(QueryGolden, CanonicalFormsAndKeysArePinned) {
  // Captured from the step-vector representation: the one-string path must
  // leave every canonical string and DHT key byte-identical.
  struct Golden {
    const char* text;
    const char* canonical;
    const char* key;
  };
  const Golden goldens[] = {
      {"/article[author/last=*]", "/article[author/last=*]",
       "f6c5b5c884e4204ad24dbba48a7423f4ec8e559a"},
      {"/article[author=*][author/first=*]", "/article[author][author/first=*]",
       "bd8e5509daa9dd440eb0b2b01b1b20aa123eee14"},
      {"/article[//last/Smith]", "/article[//last=Smith]",
       "064afb19ced4e8654ac88274f9d40b1616455b41"},
      {"/article[//*/last=Smith][year=1996]", "/article[//*/last=Smith][year=1996]",
       "85c6d52934f2933abed2557c6953717beb37f8d9"},
      {"/article[*/last=Smith]", "/article[*/last=Smith]",
       "d5acb0b581baf5608c904809430b46af79ed155f"},
      {"/article[title='A = B [sic] /ok\\' quote'][conf='*']",
       "/article[conf='*'][title='A = B [sic] /ok\\' quote']",
       "b351ef039c6735327362821b9f549a9c4cc94b82"},
      {"/*[title='']", "/*[title='']", "09f3d9cf566015466e4e259df74daad21df4a0fa"},
      {"/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989]"
       "[size/315635]",
       "/article[author/first=John][author/last=Smith][conf=SIGCOMM][size=315635][title=TCP]"
       "[year=1989]",
       "13827801c4235206af3bc6d902cf6b1b527e775d"},
      {"/article[author[first/John][last/Smith]][conf/INFOCOM]",
       "/article[author/first=John][author/last=Smith][conf=INFOCOM]",
       "607fc4805c83159082c18bd31862c6a1d6054a48"},
      {"/article/author[first/John][last/Smith]",
       "/article[author/first=John][author/last=Smith]",
       "b33ed77e72be530123badfe59facb26920fef4c2"},
      {"/article/title/TCP", "/article[title=TCP]", "a00a68a20f5e00dc6e694eaca6c71e889a755f15"},
      {"/article/author/last/Smith", "/article[author/last=Smith]",
       "8f911d7ab92d80b48e7588a6c2cb6fc730e35996"},
      // '-' and '.' sort below '/', digits, ':' and '_' above it: a plain
      // string comparison of joined paths would reorder these.
      {"/article[a.b/c=1][a/b.c=2][a=3][a/b=4][a-b=5][a_b/c=6][a:b=7][a0=8]",
       "/article[a=3][a/b=4][a/b.c=2][a-b=5][a.b/c=1][a0=8][a:b=7][a_b/c=6]",
       "6dd23976eeec82ff9c38f7bd139918df5b9c1322"},
  };
  for (const Golden& g : goldens) {
    const Query q = Query::parse(g.text);
    EXPECT_EQ(q.canonical(), g.canonical) << g.text;
    EXPECT_EQ(q.key().to_hex(), g.key) << g.text;
  }
}

TEST(QueryMostSpecific, CapturesAllLeaves) {
  const xml::Element doc = xml::parse(
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>TCP</title><conf>SIGCOMM</conf><year>1989</year>"
      "<size>315635</size></article>");
  const Query msd = Query::most_specific(doc);
  EXPECT_EQ(msd.constraints().size(), 6u);
  EXPECT_TRUE(msd.matches(doc));
  EXPECT_TRUE(msd.is_most_specific_of(doc));
  // The paper's q1 is exactly this query.
  const Query q1 = Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]"
      "[year/1989][size/315635]");
  EXPECT_EQ(msd, q1);
}

TEST(QueryMostSpecific, RejectsNamesThatCannotBePathSteps) {
  // Element names become path steps joined by '/'; a name that is empty or
  // holds a '/' would be read back as a different path.
  for (const char* name : {"", "a/b"}) {
    xml::Element doc{"article"};
    doc.add_child(name, "v");
    EXPECT_THROW(Query::most_specific(doc), InvariantError) << name;
  }
}

TEST(QueryGeneralizations, DropOneProducesCoveringQueries) {
  const Query q = Query::parse("/article[author/last=Smith][year=1996][conf=INFOCOM]");
  const auto gens = q.drop_one_generalizations();
  ASSERT_EQ(gens.size(), 3u);
  for (const Query& g : gens) {
    EXPECT_EQ(g.constraints().size(), 2u);
    EXPECT_TRUE(g.covers(q));
    EXPECT_FALSE(q.covers(g));
  }
}

TEST(QueryKeepConstraints, SelectsSubset) {
  const Query q = Query::parse("/article[conf=A][title=B][year=C]");
  const Query sub = q.keep_constraints({0, 2});
  EXPECT_EQ(sub.constraints().size(), 2u);
  EXPECT_TRUE(sub.covers(q));
  EXPECT_THROW(q.keep_constraints({9}), InvariantError);
}

TEST(QueryByteSize, TracksCanonicalLength) {
  const Query q = Query::parse("/article/title/TCP");
  EXPECT_EQ(q.byte_size(), q.canonical().size());
}

TEST(QueryHasherWorks, DistinctQueriesDistinctHashes) {
  QueryHasher hasher;
  EXPECT_NE(hasher(Query::parse("/article/title/TCP")),
            hasher(Query::parse("/article/title/IPV6")));
}

}  // namespace
}  // namespace dhtidx::query
