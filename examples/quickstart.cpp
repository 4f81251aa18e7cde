// Quickstart: the README example, end to end.
//
// Builds a tiny DHT, stores the three articles of the paper's Figure 1,
// indexes them with the simple scheme, and finds "TCP by John Smith" starting
// from a broad author query -- following the index chain exactly as a user
// would in Section IV-B.
#include <cstdio>

#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "xml/parser.hpp"

using namespace dhtidx;

int main() {
  // 1. A peer-to-peer substrate: 32 nodes on a consistent-hashing ring.
  //    (Swap in dht::ChordNetwork for the full protocol; the index layer
  //    only needs the key-to-node mapping.)
  dht::Ring ring = dht::Ring::with_nodes(32);
  net::TrafficLedger traffic;
  storage::DhtStore storage{ring, traffic};
  index::IndexService index{ring, traffic};
  index::IndexBuilder builder{index, storage, index::IndexingScheme::simple()};

  // 2. Store and index some XML-described files (Figure 1 of the paper).
  const char* descriptors[] = {
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>TCP</title><conf>SIGCOMM</conf><year>1989</year><size>315635</size></article>",
      "<article><author><first>John</first><last>Smith</last></author>"
      "<title>IPv6</title><conf>INFOCOM</conf><year>1996</year><size>312352</size></article>",
      "<article><author><first>Alan</first><last>Doe</last></author>"
      "<title>Wavelets</title><conf>INFOCOM</conf><year>1996</year><size>259827</size></article>",
  };
  const char* files[] = {"x.pdf", "y.pdf", "z.pdf"};
  for (int i = 0; i < 3; ++i) {
    builder.index_file(xml::parse(descriptors[i]), files[i], 250000);
  }
  std::printf("Indexed 3 articles on a %zu-node DHT.\n\n", ring.size());

  // 3. A user with partial information: "articles by John Smith".
  const query::Query broad = query::Query::parse("/article/author[first/John][last/Smith]");
  std::printf("Broad query: %s\n", std::string{broad.canonical()}.c_str());

  index::LookupEngine engine{index, storage, {index::CachePolicy::kSingle}};

  // 3a. Automated mode: find everything that matches.
  const auto all = engine.search_all(broad);
  std::printf("search_all found %zu matching descriptors:\n", all.size());
  for (const auto& msd : all) std::printf("  %s\n", std::string{msd.canonical()}.c_str());

  // 3b. Directed mode: walk the index chain to one specific article.
  const query::Query target = query::Query::most_specific(xml::parse(descriptors[0]));
  const auto outcome = engine.resolve(broad, target);
  std::printf("\nResolved the TCP article in %d interactions (%s).\n",
              outcome.interactions, outcome.found ? "found" : "NOT FOUND");

  // 3c. Second lookup hits the adaptive cache and jumps straight to the file.
  const auto cached = engine.resolve(broad, target);
  std::printf("Repeat lookup: %d interactions, cache hit at node #%d.\n",
              cached.interactions, cached.cache_hit_position);

  std::printf("\nTraffic so far: %llu bytes of queries/responses, %llu cache bytes.\n",
              static_cast<unsigned long long>(traffic.normal_bytes()),
              static_cast<unsigned long long>(traffic.cache.bytes()));
  return outcome.found && cached.cache_hit ? 0 : 1;
}
