// The covering partial order (Section III-B), validated against Figures 2/3
// of the paper and by algebraic properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "query/query.hpp"
#include "xml/parser.hpp"

namespace dhtidx::query {
namespace {

struct PaperQueries {
  Query q1 = Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM]"
      "[year/1989][size/315635]");
  Query q2 = Query::parse("/article[author[first/John][last/Smith]][conf/INFOCOM]");
  Query q3 = Query::parse("/article/author[first/John][last/Smith]");
  Query q4 = Query::parse("/article/title/TCP");
  Query q5 = Query::parse("/article/conf/INFOCOM");
  Query q6 = Query::parse("/article/author/last/Smith");

  // MSDs of d2 and d3 (Figure 1).
  Query d2 = Query::parse(
      "/article[author[first/John][last/Smith]][title/IPv6][conf/INFOCOM]"
      "[year/1996][size/312352]");
  Query d3 = Query::parse(
      "/article[author[first/Alan][last/Doe]][title/Wavelets][conf/INFOCOM]"
      "[year/1996][size/259827]");
};

TEST(Covering, Figure3Edges) {
  // Figure 3 partial ordering: qi -> qj reads qi covered-by... the arrows in
  // the figure point from more specific to less specific; we verify covering
  // top-down: q4 ⊒ q1 (wait: more specific above) -- concretely:
  const PaperQueries p;
  // q4 (title TCP) covers q1 (the MSD of d1).
  EXPECT_TRUE(p.q4.covers(p.q1));
  // q3 (author John Smith) covers q1 and q2 and d2.
  EXPECT_TRUE(p.q3.covers(p.q1));
  EXPECT_TRUE(p.q3.covers(p.q2));
  EXPECT_TRUE(p.q3.covers(p.d2));
  // q2 covers d2 (author + INFOCOM).
  EXPECT_TRUE(p.q2.covers(p.d2));
  // q5 (conf INFOCOM) covers q2, d2, d3.
  EXPECT_TRUE(p.q5.covers(p.q2));
  EXPECT_TRUE(p.q5.covers(p.d2));
  EXPECT_TRUE(p.q5.covers(p.d3));
  // q6 (last Smith) covers q3.
  EXPECT_TRUE(p.q6.covers(p.q3));
}

TEST(Covering, Figure3NonEdges) {
  const PaperQueries p;
  // q2 requires INFOCOM, so it does not cover q1 (SIGCOMM).
  EXPECT_FALSE(p.q2.covers(p.q1));
  // q4 (TCP) does not cover d2 (IPv6) or d3 (Wavelets).
  EXPECT_FALSE(p.q4.covers(p.d2));
  EXPECT_FALSE(p.q4.covers(p.d3));
  // q5 (INFOCOM) does not cover q1 (SIGCOMM).
  EXPECT_FALSE(p.q5.covers(p.q1));
  // q6 (Smith) does not cover d3 (Doe).
  EXPECT_FALSE(p.q6.covers(p.d3));
  // More specific never covers less specific.
  EXPECT_FALSE(p.q1.covers(p.q4));
  EXPECT_FALSE(p.q3.covers(p.q6));
  EXPECT_FALSE(p.q2.covers(p.q5));
}

TEST(Covering, ReflexiveOnAllPaperQueries) {
  const PaperQueries p;
  for (const Query* q : {&p.q1, &p.q2, &p.q3, &p.q4, &p.q5, &p.q6, &p.d2, &p.d3}) {
    EXPECT_TRUE(q->covers(*q)) << q->canonical();
  }
}

TEST(Covering, RootOnlyQueryCoversEverything) {
  const PaperQueries p;
  const Query any = Query::parse("/article");
  for (const Query* q : {&p.q1, &p.q2, &p.q3, &p.q4, &p.q5, &p.q6}) {
    EXPECT_TRUE(any.covers(*q));
    EXPECT_FALSE(q->covers(any));
  }
}

TEST(Covering, DifferentRootNeverCovers) {
  const Query a = Query::parse("/article/title/TCP");
  const Query b = Query::parse("/book/title/TCP");
  EXPECT_FALSE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
}

TEST(Covering, WildcardRootCoversAnyRoot) {
  const Query star = Query::parse("/*");
  EXPECT_TRUE(star.covers(Query::parse("/article/title/TCP")));
  EXPECT_TRUE(star.covers(Query::parse("/book/title/TCP")));
}

TEST(Covering, PresenceCoveredByValue) {
  const Query presence = Query::parse("/article[author/last=*]");
  const Query value = Query::parse("/article/author/last/Smith");
  EXPECT_TRUE(presence.covers(value));
  EXPECT_FALSE(value.covers(presence));
}

TEST(Covering, WildcardSegmentCoversConcreteSegment) {
  const Query wildcard = Query::parse("/article[*/last=Smith]");
  const Query concrete = Query::parse("/article/author/last/Smith");
  EXPECT_TRUE(wildcard.covers(concrete));
  EXPECT_FALSE(concrete.covers(wildcard));
}

TEST(Covering, DescendantCoversAnchored) {
  const Query floating = Query::parse("/article[//last/Smith]");
  const Query anchored = Query::parse("/article/author/last/Smith");
  EXPECT_TRUE(floating.covers(anchored));
  // An anchored constraint cannot cover a floating one: the floating query
  // can be satisfied at a different position.
  EXPECT_FALSE(anchored.covers(floating));
}

TEST(Covering, DescendantSuffixMatching) {
  const Query floating = Query::parse("/article[//last/Smith]");
  const Query deep = Query::parse("/article[editor/contact/last=Smith]");
  EXPECT_TRUE(floating.covers(deep));
  const Query other_leaf = Query::parse("/article[editor/contact/first=Smith]");
  EXPECT_FALSE(floating.covers(other_leaf));
}

TEST(ConstraintImplies, ValueRules) {
  Constraint smith;
  smith.path = "author/last";
  smith.value = "Smith";
  Constraint presence;
  presence.path = "author/last";
  Constraint doe = smith;
  doe.value = "Doe";
  EXPECT_TRUE(constraint_implies(smith, presence));
  EXPECT_FALSE(constraint_implies(presence, smith));
  EXPECT_FALSE(constraint_implies(doe, smith));
  EXPECT_TRUE(constraint_implies(smith, smith));
}

// Property tests over a generated family of queries.
class CoveringPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static std::vector<Query> family(int seed) {
    // Sub-queries of one MSD: every subset of its constraints.
    const Query msd = Query::parse(
        "/article[author[first/F" + std::to_string(seed) + "][last/L" +
        std::to_string(seed) + "]][title/T][conf/C][year/Y]");
    const auto& cs = msd.constraints();
    std::vector<Query> out;
    for (std::size_t mask = 0; mask < (1u << cs.size()); ++mask) {
      std::vector<std::size_t> keep;
      for (std::size_t i = 0; i < cs.size(); ++i) {
        if (mask & (1u << i)) keep.push_back(i);
      }
      out.push_back(msd.keep_constraints(keep));
    }
    return out;
  }
};

TEST_P(CoveringPropertyTest, SubsetOfConstraintsIffCovers) {
  // For same-root conjunctive queries drawn from one MSD, covering must be
  // exactly the subset relation on constraints.
  const auto queries = family(GetParam());
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      bool subset = true;
      for (const auto& c : a.constraints()) {
        bool found = false;
        for (const auto& d : b.constraints()) {
          if (c == d) found = true;
        }
        if (!found) subset = false;
      }
      EXPECT_EQ(a.covers(b), subset) << a.canonical() << " vs " << b.canonical();
    }
  }
}

TEST_P(CoveringPropertyTest, Transitivity) {
  const auto queries = family(GetParam());
  // Sample triples (full cube is 32^3; take a stride).
  for (std::size_t i = 0; i < queries.size(); i += 3) {
    for (std::size_t j = 0; j < queries.size(); j += 2) {
      for (std::size_t k = 0; k < queries.size(); k += 3) {
        if (queries[i].covers(queries[j]) && queries[j].covers(queries[k])) {
          EXPECT_TRUE(queries[i].covers(queries[k]));
        }
      }
    }
  }
}

TEST_P(CoveringPropertyTest, AntisymmetryUpToCanonicalEquality) {
  const auto queries = family(GetParam());
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      if (a.covers(b) && b.covers(a)) {
        EXPECT_EQ(a.canonical(), b.canonical());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoveringPropertyTest, ::testing::Range(0, 4));

TEST(CoveringSemantics, CoversImpliesMatchSupersetOnConcreteDocs) {
  // Semantic check: if a covers b then every document matching b matches a.
  const xml::Element d1 = xml::parse(
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>");
  const xml::Element d2 = xml::parse(
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>IPv6</title><conf>INFOCOM</conf><year>1996</year></article>");
  const std::vector<Query> queries = {
      Query::parse("/article"),
      Query::parse("/article/author/last/Smith"),
      Query::parse("/article/author[first/John][last/Smith]"),
      Query::parse("/article/title/TCP"),
      Query::parse("/article/conf/INFOCOM"),
      Query::parse("/article[author/last=Smith][year=1996]"),
      Query::parse("/article[//last/Smith]"),
      Query::parse("/article[*/first=John]"),
  };
  for (const Query& a : queries) {
    for (const Query& b : queries) {
      if (!a.covers(b)) continue;
      for (const xml::Element* doc : {&d1, &d2}) {
        if (b.matches(*doc)) {
          EXPECT_TRUE(a.matches(*doc))
              << a.canonical() << " covers " << b.canonical() << " but misses doc";
        }
      }
    }
  }
}

// Cover-bit soundness: a.covers(b) must imply
// (required_bits(a) & ~present_bits(b)) == 0, or the next-hop filter would
// drop a covering target. Pairs come from a generator that mixes every
// constraint shape the parser accepts -- exact, ^= prefix, presence-only, //
// descendant, "*" steps -- on both sides, with a "*" root now and then, and
// derives most `a` from `b` by dropping and weakening constraints so that
// many pairs do cover.
class QueryPairGenerator {
 public:
  explicit QueryPairGenerator(std::uint32_t seed) : rng_(seed) {}

  Constraint random_constraint() {
    static const std::vector<std::string> kPaths = {
        "author/first", "author/last", "title",
        "conf",         "year",        "editor/contact/last"};
    static const std::vector<std::string> kValues = {"Smith", "Smi", "S", "John",
                                                     "TCP",   "1996", "a*b", ""};
    Constraint c;
    c.path = kPaths[pick(kPaths.size())];
    c.value = kValues[pick(kValues.size())];
    if (pick(6) == 0) weaken(c);  // else exact, the common case
    return c;
  }

  /// Turns `c` into a constraint it implies (or leaves it as is).
  void weaken(Constraint& c) {
    switch (pick(5)) {
      case 0:  // presence-only
        c.value.reset();
        c.value_is_prefix = false;
        break;
      case 1:  // prefix of the value
        if (c.value) {
          c.value = c.value->substr(0, pick(c.value->size() + 1));
          c.value_is_prefix = true;
        }
        break;
      case 2: {  // // over a suffix of the path
        std::vector<std::string> steps = split(c.path, '/');
        steps.erase(steps.begin(), steps.begin() + static_cast<long>(pick(steps.size())));
        c.path = join(steps, "/");
        c.descendant = true;
        break;
      }
      case 3: {  // one step becomes "*"
        std::vector<std::string> steps = split(c.path, '/');
        steps[pick(steps.size())] = "*";
        c.path = join(steps, "/");
        break;
      }
      default:
        break;
    }
  }

  Query random_query(bool star_root) {
    Query q{star_root ? "*" : "article"};
    const std::size_t n = 1 + pick(4);
    for (std::size_t i = 0; i < n; ++i) q.add_constraint(random_constraint());
    return q;
  }

  /// A query derived from `b`: a subset of its constraints, some weakened.
  Query generalize(const Query& b) {
    Query a{pick(8) == 0 ? std::string{"*"} : b.root()};
    for (Constraint c : b.constraints()) {
      if (pick(3) == 0) continue;
      if (pick(2) == 0) weaken(c);
      a.add_constraint(std::move(c));
    }
    return a;
  }

  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng_);
  }

 private:
  std::mt19937 rng_;
};

// The vector-of-Constraint covers() that preceded the slot-reading one,
// kept as a reference that shares no code with it: a query is decoded into
// owned Constraints, and implication is decided on those.
namespace reference {

std::string_view take_step(std::string_view& rest) {
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return std::exchange(rest, std::string_view{});
  const std::string_view step{rest.data(), slash};
  rest.remove_prefix(slash + 1);
  return step;
}

bool has_star_step(std::string_view path) {
  for (std::size_t at = path.find('*'); at != std::string_view::npos;
       at = path.find('*', at + 1)) {
    const bool starts = at == 0 || path[at - 1] == '/';
    const bool ends = at + 1 == path.size() || path[at + 1] == '/';
    if (starts && ends) return true;
  }
  return false;
}

bool path_matches_exact(std::string_view pattern, std::string_view concrete) {
  if (pattern == concrete) return true;
  if (!has_star_step(pattern)) return false;
  while (!pattern.empty() && !concrete.empty()) {
    const std::string_view want = take_step(pattern);
    const std::string_view have = take_step(concrete);
    if (want != "*" && want != have) return false;
  }
  return pattern.empty() && concrete.empty();
}

bool path_matches_suffix(std::string_view pattern, std::string_view concrete) {
  const auto steps = [](std::string_view path) {
    return static_cast<std::size_t>(std::count(path.begin(), path.end(), '/')) + 1;
  };
  const std::size_t want = steps(pattern);
  const std::size_t have = steps(concrete);
  if (want > have) return false;
  for (std::size_t skip = have - want; skip > 0; --skip) take_step(concrete);
  return path_matches_exact(pattern, concrete);
}

bool implies(const Constraint& specific, const Constraint& general) {
  if (general.value) {
    if (!specific.value) return false;
    if (general.value_is_prefix) {
      if (specific.value_is_prefix && specific.value->size() < general.value->size()) {
        return false;
      }
      if (!starts_with(*specific.value, *general.value)) return false;
    } else if (specific.value_is_prefix || *specific.value != *general.value) {
      return false;
    }
  }
  if (!general.descendant && !specific.descendant) {
    return path_matches_exact(general.path, specific.path);
  }
  if (general.descendant) return path_matches_suffix(general.path, specific.path);
  return false;
}

bool covers(const Query& a, const Query& b) {
  if (a.root() != "*" && a.root() != b.root()) return false;
  const std::vector<Constraint> general{a.constraints().begin(), a.constraints().end()};
  const std::vector<Constraint> specific{b.constraints().begin(), b.constraints().end()};
  return std::all_of(general.begin(), general.end(), [&](const Constraint& g) {
    return std::any_of(specific.begin(), specific.end(),
                       [&](const Constraint& s) { return implies(s, g); });
  });
}

}  // namespace reference

TEST(CoversReference, AgreesOnTheGeneratedPairs) {
  // The pairs of CoverBits.CoveringPairsPassTheFilter: same generator, same
  // seed, same draws.
  QueryPairGenerator gen{2004};
  int covering = 0;
  for (int i = 0; i < 20000; ++i) {
    const Query b = gen.random_query(/*star_root=*/gen.pick(10) == 0);
    const Query a = gen.pick(4) == 0 ? gen.random_query(gen.pick(10) == 0) : gen.generalize(b);
    const bool expected = reference::covers(a, b);
    EXPECT_EQ(a.covers(b), expected) << a.canonical() << " vs " << b.canonical();
    if (expected) ++covering;
  }
  EXPECT_GT(covering, 10000);
}

TEST(CoverBits, CoveringPairsPassTheFilter) {
  QueryPairGenerator gen{2004};
  int covering = 0;
  int covering_with_required_bits = 0;
  int filtered = 0;
  for (int i = 0; i < 20000; ++i) {
    const Query b = gen.random_query(/*star_root=*/gen.pick(10) == 0);
    const Query a = gen.pick(4) == 0 ? gen.random_query(gen.pick(10) == 0) : gen.generalize(b);
    const bool passes = (required_bits(a) & ~present_bits(b)) == 0;
    if (!passes) ++filtered;
    if (!a.covers(b)) continue;
    ++covering;
    if (required_bits(a) != 0) ++covering_with_required_bits;
    EXPECT_TRUE(passes) << a.canonical() << " covers " << b.canonical();
  }
  // The pairs exercise both sides of the filter.
  EXPECT_GT(covering, 10000);
  EXPECT_GT(covering_with_required_bits, 5000);
  EXPECT_GT(filtered, 2000);
}

TEST(CoverBits, OnlyPlainConstraintsAreRequired) {
  // Each of these covers /article[author/last=Smith] without an identical
  // constraint, so none may require a bit.
  const Query msd = Query::parse("/article[author/last=Smith][title=TCP]");
  for (const char* general : {"/article[author/last^=Sm]", "/article[author/last=*]",
                              "/article[//last=Smith]", "/article[*/last=Smith]", "/*"}) {
    const Query g = Query::parse(general);
    ASSERT_TRUE(g.covers(msd)) << general;
    EXPECT_EQ(required_bits(g), 0u) << general;
  }
  const Query plain = Query::parse("/article[author/last=Smith]");
  EXPECT_NE(required_bits(plain), 0u);
  EXPECT_EQ(required_bits(plain) & ~present_bits(msd), 0u);
  // An MSD's constraints are all plain: it requires every bit it presents.
  EXPECT_EQ(required_bits(msd), present_bits(msd));
}

}  // namespace
}  // namespace dhtidx::query
