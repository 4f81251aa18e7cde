// Interactive browsing of the distributed index (Section IV-B's interactive
// mode), driven by the InteractiveSession API.
//
// With --stdin, reads commands from standard input:
//     start <xpath-query> | choose <i> | refine <field> <value> | back |
//     fetch | quit
// Without it, replays a scripted session that walks from a last name down to
// a file, backtracks, and refines.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

#include "biblio/corpus.hpp"
#include "common/error.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/session.hpp"

using namespace dhtidx;

namespace {

void show(const index::InteractiveSession& session) {
  std::printf("@ %s   (%d interactions)\n", std::string{session.current().canonical()}.c_str(),
              session.interactions());
  if (session.at_file()) {
    std::printf("  => FILE: %s\n", session.fetch().front().kind.c_str());
    return;
  }
  if (session.options().empty()) {
    std::printf("  (no refinements: dead end -- try back)\n");
    return;
  }
  for (std::size_t i = 0; i < session.options().size(); ++i) {
    std::printf("  [%zu] %s\n", i, std::string{session.options()[i].canonical()}.c_str());
  }
}

int run_stdin(index::InteractiveSession& session) {
  std::printf("commands: start <q> | choose <i> | refine <field> <value> | back | fetch | quit\n");
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in{line};
    std::string command;
    in >> command;
    try {
      if (command == "start") {
        std::string rest;
        std::getline(in, rest);
        session.start(query::Query::parse(rest));
        show(session);
      } else if (command == "choose") {
        std::size_t i = 0;
        in >> i;
        session.choose(i);
        show(session);
      } else if (command == "refine") {
        std::string field, value;
        in >> field;
        std::getline(in, value);
        while (!value.empty() && value.front() == ' ') value.erase(value.begin());
        session.refine(field, value);
        show(session);
      } else if (command == "back") {
        session.back();
        show(session);
      } else if (command == "fetch") {
        for (const auto& record : session.fetch()) {
          std::printf("  %s (%llu bytes)\n", record.kind.c_str(),
                      static_cast<unsigned long long>(record.byte_size()));
        }
      } else if (command == "quit" || command == "exit") {
        return 0;
      } else if (!command.empty()) {
        std::printf("unknown command '%s'\n", command.c_str());
      }
    } catch (const Error& e) {
      std::printf("  error: %s\n", e.what());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  biblio::CorpusConfig config;
  config.articles = 400;
  config.authors = 120;
  config.conferences = 12;
  const biblio::Corpus corpus = biblio::Corpus::generate(config);

  dht::Ring ring = dht::Ring::with_nodes(100);
  net::TrafficLedger traffic;
  storage::DhtStore storage{ring, traffic};
  index::IndexService index{ring, traffic};
  index::IndexBuilder builder{index, storage, index::IndexingScheme::figure4()};
  for (const auto& article : corpus.articles()) {
    builder.index_file(article.descriptor(), article.file_name(), article.file_bytes);
  }
  std::printf("Indexed %zu articles (figure-4 scheme: last-name -> author -> "
              "article -> publication).\n\n",
              corpus.size());

  index::InteractiveSession session{index, storage};
  if (argc > 1 && std::strcmp(argv[1], "--stdin") == 0) {
    return run_stdin(session);
  }

  // Scripted walk: last name -> author -> article -> file, with a detour.
  const auto& a = corpus.article(0);
  std::printf("-- start with just the last name '%s'\n", a.last_name.c_str());
  session.start(query::Query::parse("/article/author/last/" + a.last_name));
  show(session);

  std::printf("\n-- choose the first full author name\n");
  session.choose(0);
  show(session);

  std::printf("\n-- oops, wrong author? step back and re-choose\n");
  session.back();
  session.choose(0);
  show(session);

  // Walk down until a file, always picking option 0.
  while (!session.at_file() && !session.options().empty()) {
    std::printf("\n-- choose [0]\n");
    session.choose(0);
    show(session);
  }
  std::printf("\nReached a file after %d interactions; trail length %zu.\n",
              session.interactions(), session.trail().size());
  return session.at_file() ? 0 : 1;
}
