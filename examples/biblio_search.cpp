// Distributed bibliographic database with interactive-style search.
//
// Reproduces the paper's motivating application at small scale: a DBLP-like
// corpus distributed over a 500-node DHT, searched with XPath-subset queries
// given on the command line (or a scripted demo session when none are given).
//
// Usage:
//   biblio_search                          # scripted demo session
//   biblio_search "/article/author/last/Smith" ...
//   biblio_search --scheme flat "/article/year/1996"
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "biblio/corpus.hpp"
#include "common/error.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/fuzzy.hpp"
#include "index/lookup.hpp"

using namespace dhtidx;

namespace {

void show_results(const std::vector<query::Query>& results) {
  if (results.empty()) {
    std::printf("  no matching descriptors.\n");
    return;
  }
  const std::size_t shown = std::min<std::size_t>(results.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("  %s\n", std::string{results[i].canonical()}.c_str());
  }
  if (results.size() > shown) {
    std::printf("  ... and %zu more\n", results.size() - shown);
  }
}

}  // namespace

int main(int argc, char** argv) {
  index::SchemeKind scheme = index::SchemeKind::kSimple;
  std::vector<std::string> queries;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scheme") == 0 && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "simple") {
        scheme = index::SchemeKind::kSimple;
      } else if (name == "flat") {
        scheme = index::SchemeKind::kFlat;
      } else if (name == "complex") {
        scheme = index::SchemeKind::kComplex;
      } else {
        std::fprintf(stderr, "unknown scheme '%s' (simple|flat|complex)\n", name.c_str());
        return 2;
      }
    } else {
      queries.emplace_back(argv[i]);
    }
  }

  // Build the database: 2,000 articles over 500 nodes.
  biblio::CorpusConfig corpus_config;
  corpus_config.articles = 2000;
  corpus_config.authors = 650;
  corpus_config.conferences = 30;
  const biblio::Corpus corpus = biblio::Corpus::generate(corpus_config);

  dht::Ring ring = dht::Ring::with_nodes(500);
  net::TrafficLedger traffic;
  storage::DhtStore storage{ring, traffic};
  index::IndexService index{ring, traffic};
  // Extend the chosen scheme with a last-name-initial level (Section IV-C)
  // so single-letter author browsing works.
  index::IndexingScheme extended = index::IndexingScheme::make(scheme);
  extended.add_prefix_rule({{"author", "last"}, 1, {"author"}, false});
  extended.add_path_rule({{"author", "last"}, {"author"}, false});  // Figure 4 Last-name index
  index::IndexBuilder builder{index, storage, std::move(extended)};
  index::FieldDictionary dictionary;  // known values, for typo correction
  builder.set_dictionary(&dictionary);
  for (const auto& article : corpus.articles()) {
    builder.index_file(article.descriptor(), article.file_name(), article.file_bytes);
  }
  std::printf("Bibliographic database: %zu articles, %zu authors, %zu venues, "
              "%zu nodes, %s indexing.\n\n",
              corpus.size(), corpus.distinct_authors(), corpus.distinct_conferences(),
              ring.size(), to_string(scheme).c_str());

  index::LookupEngine engine{index, storage, {index::CachePolicy::kSingle}};
  index::FuzzyResolver fuzzy{engine, dictionary};

  if (queries.empty()) {
    // Scripted session: author, venue+year, title, an author-initial browse,
    // a misspelled author (typo correction), and a miss.
    const auto& a = corpus.article(0);
    queries.push_back(std::string{a.author_query().canonical()});
    queries.push_back(std::string{a.conference_year_query().canonical()});
    queries.push_back(std::string{a.title_query().canonical()});
    queries.push_back("/article[author/last^=" + a.last_name.substr(0, 1) + "]");
    std::string typo = a.last_name;
    typo[typo.size() / 2] = typo[typo.size() / 2] == 'x' ? 'y' : 'x';
    queries.push_back("/article/author/last/" + typo);
    queries.push_back("/article/author/last/Nobody");
  }

  for (const std::string& text : queries) {
    std::printf("query> %s\n", text.c_str());
    query::Query q;
    try {
      q = query::Query::parse(text);
    } catch (const ParseError& e) {
      std::printf("  %s\n\n", e.what());
      continue;
    }
    const auto result = fuzzy.search(q);
    if (result.corrected) {
      std::printf("  (no exact match; did you mean %s?)\n",
                  std::string{result.used_query.canonical()}.c_str());
    }
    show_results(result.results);
    std::printf("\n");
  }

  std::printf("Session traffic: %llu bytes over %llu messages.\n",
              static_cast<unsigned long long>(traffic.total_bytes()),
              static_cast<unsigned long long>(traffic.queries.messages() +
                                              traffic.responses.messages()));
  return 0;
}
