#include "index/scheme.hpp"

#include <gtest/gtest.h>

#include <set>

#include "biblio/corpus.hpp"
#include "common/error.hpp"

namespace dhtidx::index {
namespace {

biblio::Article sample_article() {
  biblio::Article a;
  a.id = 1;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "TCP";
  a.conference = "SIGCOMM";
  a.year = 1989;
  a.file_bytes = 315635;
  return a;
}

TEST(Scheme, SimpleProducesSixMappings) {
  const auto mappings = IndexingScheme::simple().mappings_for(sample_article().msd());
  EXPECT_EQ(mappings.size(), 6u);
}

TEST(Scheme, FlatProducesSixDirectMappings) {
  const biblio::Article a = sample_article();
  const auto mappings = IndexingScheme::flat().mappings_for(a.msd());
  EXPECT_EQ(mappings.size(), 6u);
  for (const Mapping& m : mappings) {
    EXPECT_EQ(m.target, a.msd()) << m.source.canonical();
  }
}

TEST(Scheme, ComplexProducesEightMappings) {
  const auto mappings = IndexingScheme::complex().mappings_for(sample_article().msd());
  EXPECT_EQ(mappings.size(), 8u);
}

TEST(Scheme, EverySourceCoversItsTarget) {
  const biblio::Article a = sample_article();
  for (const SchemeKind kind :
       {SchemeKind::kSimple, SchemeKind::kFlat, SchemeKind::kComplex}) {
    for (const Mapping& m : IndexingScheme::make(kind).mappings_for(a.msd())) {
      EXPECT_TRUE(m.source.covers(m.target))
          << to_string(kind) << ": " << m.source.canonical() << " -> "
          << m.target.canonical();
      EXPECT_NE(m.source, m.target);
    }
  }
}

TEST(Scheme, SimpleIndexKeysAreTheExpectedFields) {
  const biblio::Article a = sample_article();
  std::set<std::string> sources;
  for (const Mapping& m : IndexingScheme::simple().mappings_for(a.msd())) {
    sources.insert(std::string{m.source.canonical()});
  }
  EXPECT_TRUE(sources.contains(std::string{a.author_query().canonical()}));
  EXPECT_TRUE(sources.contains(std::string{a.title_query().canonical()}));
  EXPECT_TRUE(sources.contains(std::string{a.author_title_query().canonical()}));
  EXPECT_TRUE(sources.contains(std::string{a.conference_query().canonical()}));
  EXPECT_TRUE(sources.contains(std::string{a.year_query().canonical()}));
  EXPECT_TRUE(sources.contains(std::string{a.conference_year_query().canonical()}));
  // The administrative "size" field is never an index key (Section IV-C).
  for (const std::string& s : sources) {
    EXPECT_EQ(s.find("size"), std::string::npos);
  }
}

TEST(Scheme, SimpleChainsAuthorThroughAuthorTitle) {
  const biblio::Article a = sample_article();
  bool found = false;
  for (const Mapping& m : IndexingScheme::simple().mappings_for(a.msd())) {
    if (m.source == a.author_query()) {
      EXPECT_EQ(m.target, a.author_title_query());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Scheme, ComplexChainsAuthorThroughConference) {
  const biblio::Article a = sample_article();
  bool author_to_ac = false;
  bool ac_to_acy = false;
  bool acy_to_msd = false;
  for (const Mapping& m : IndexingScheme::complex().mappings_for(a.msd())) {
    if (m.source == a.author_query() && m.target == a.author_conference_query()) {
      author_to_ac = true;
    }
    if (m.source == a.author_conference_query() &&
        m.target == a.author_conference_year_query()) {
      ac_to_acy = true;
    }
    if (m.source == a.author_conference_year_query() && m.target == a.msd()) {
      acy_to_msd = true;
    }
  }
  EXPECT_TRUE(author_to_ac);
  EXPECT_TRUE(ac_to_acy);
  EXPECT_TRUE(acy_to_msd);
}

TEST(Scheme, ProjectSelectsTopLevelFields) {
  const biblio::Article a = sample_article();
  const query::Query authors = IndexingScheme::project(a.msd(), {"author"});
  EXPECT_EQ(authors, a.author_query());
  const query::Query none = IndexingScheme::project(a.msd(), {"editor"});
  EXPECT_FALSE(none.has_constraints());
}

TEST(Scheme, MissingSourceFieldSkipsRule) {
  // A descriptor without a year: rules involving year do not apply.
  xml::Element doc{"article"};
  doc.add_child("title", "No Year");
  xml::Element author{"author"};
  author.add_child("first", "A");
  author.add_child("last", "B");
  doc.add_child(std::move(author));
  const query::Query msd = query::Query::most_specific(doc);
  const auto mappings = IndexingScheme::simple().mappings_for(msd);
  for (const Mapping& m : mappings) {
    EXPECT_EQ(m.source.canonical().find("year"), std::string::npos);
    EXPECT_EQ(m.source.canonical().find("conf"), std::string::npos);
  }
  // author -> author+title and title -> author+title. The author+title -> MSD
  // rule degenerates here: with no other fields, author+title IS the MSD, so
  // the self-mapping is skipped and the MSD is reached directly.
  EXPECT_EQ(mappings.size(), 2u);
  EXPECT_EQ(IndexingScheme::project(msd, {"author", "title"}), msd);
}

TEST(Scheme, DegenerateSelfMappingSkipped) {
  // Descriptor with only an author: author -> author+title would self-map.
  xml::Element doc{"article"};
  xml::Element author{"author"};
  author.add_child("first", "A");
  author.add_child("last", "B");
  doc.add_child(std::move(author));
  const query::Query msd = query::Query::most_specific(doc);
  for (const Mapping& m : IndexingScheme::simple().mappings_for(msd)) {
    EXPECT_NE(m.source, m.target);
  }
}

TEST(Scheme, CustomSchemeValidation) {
  // Source fields must be a subset of target fields.
  EXPECT_THROW((IndexingScheme{"bad", {{{"author"}, {"title"}, false}}}), InvariantError);
  EXPECT_THROW((IndexingScheme{"bad", {{{}, {"title"}, false}}}), InvariantError);
  EXPECT_THROW((IndexingScheme{"bad", {{{"author"}, {}, false}}}), InvariantError);
  // A valid custom scheme works.
  const IndexingScheme music{"music",
                             {{{"artist"}, {"artist", "album"}, false},
                              {{"artist", "album"}, {}, true}}};
  EXPECT_EQ(music.rules().size(), 2u);
}

class SchemeCoveringProperty : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(SchemeCoveringProperty, HoldsOverGeneratedCorpus) {
  // The arbitrary-linking resilience property: every generated index entry
  // respects the covering relation, for every article in a corpus sample.
  biblio::CorpusConfig config;
  config.articles = 100;
  config.authors = 40;
  const biblio::Corpus corpus = biblio::Corpus::generate(config);
  const IndexingScheme scheme = IndexingScheme::make(GetParam());
  for (const biblio::Article& a : corpus.articles()) {
    const query::Query msd = a.msd();
    for (const Mapping& m : scheme.mappings_for(msd)) {
      ASSERT_TRUE(m.source.covers(m.target));
      ASSERT_TRUE(m.source.covers(msd));
      ASSERT_TRUE(m.target.covers(msd));
      ASSERT_TRUE(m.source.matches(a.descriptor()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeCoveringProperty,
                         ::testing::Values(SchemeKind::kSimple, SchemeKind::kFlat,
                                           SchemeKind::kComplex));

}  // namespace
}  // namespace dhtidx::index
