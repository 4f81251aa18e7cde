// dhtidx_ctl: command-line front end for the library's whole workflow.
//
//   dhtidx_ctl gen   --articles N --out corpus.xml
//       generate a synthetic bibliographic corpus
//   dhtidx_ctl index --corpus corpus.xml [--scheme simple|flat|complex|figure4]
//                    [--nodes N] --out snapshot.xml
//       build the distributed index + storage and snapshot it
//   dhtidx_ctl query --snapshot snapshot.xml [--nodes N] [--fuzzy] "<xpath>"...
//       restore a snapshot and run searches
//   dhtidx_ctl stats --snapshot snapshot.xml [--nodes N]
//       restore and print index/storage statistics
//   dhtidx_ctl sim   [--scheme S] [--policy none|single|multi|lru] [--capacity K]
//                    [--queries N] [--articles N] [--nodes N]
//       run one evaluation experiment and print its metrics
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/fuzzy.hpp"
#include "index/lookup.hpp"
#include "persist/snapshot.hpp"
#include "xml/parser.hpp"
#include "sim/simulation.hpp"

using namespace dhtidx;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::stoull(it->second);
  }
  bool has(const std::string& key) const { return options.contains(key); }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (key == "fuzzy") {
        args.options[key] = "true";
      } else if (i + 1 < argc) {
        args.options[key] = argv[++i];
      } else {
        throw Error("option --" + key + " needs a value");
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

index::IndexingScheme scheme_by_name(const std::string& name) {
  if (name == "simple") return index::IndexingScheme::simple();
  if (name == "flat") return index::IndexingScheme::flat();
  if (name == "complex") return index::IndexingScheme::complex();
  if (name == "figure4") return index::IndexingScheme::figure4();
  throw Error("unknown scheme '" + name + "' (simple|flat|complex|figure4)");
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path};
  if (!out) throw Error("cannot write " + path);
  out << content;
}

int cmd_gen(const Args& args) {
  biblio::CorpusConfig config;
  config.articles = args.get_size("articles", 1000);
  config.authors = args.get_size("authors", config.articles / 3 + 1);
  config.conferences = args.get_size("conferences", 30);
  config.seed = args.get_size("seed", 42);
  const biblio::Corpus corpus = biblio::Corpus::generate(config);
  const std::string out = args.get("out", "corpus.xml");
  write_file(out, corpus.to_xml());
  std::printf("wrote %zu articles (%zu authors, %zu venues) to %s\n", corpus.size(),
              corpus.distinct_authors(), corpus.distinct_conferences(), out.c_str());
  return 0;
}

int cmd_index(const Args& args) {
  const biblio::Corpus corpus = biblio::Corpus::from_xml(read_file(args.get("corpus", "corpus.xml")));
  dht::Ring ring = dht::Ring::with_nodes(args.get_size("nodes", 100));
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  index::IndexBuilder builder{service, store, scheme_by_name(args.get("scheme", "simple"))};
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }
  const std::string out = args.get("out", "snapshot.xml");
  persist::save_snapshot_file(out, service, store);
  const auto totals = service.totals();
  std::printf("indexed %zu articles with '%s': %zu keys, %zu mappings (%s); snapshot %s\n",
              corpus.size(), builder.scheme().name().c_str(), totals.keys, totals.mappings,
              format_bytes(totals.bytes).c_str(), out.c_str());
  return 0;
}

int cmd_query(const Args& args) {
  dht::Ring ring = dht::Ring::with_nodes(args.get_size("nodes", 100));
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  persist::load_snapshot_file(args.get("snapshot", "snapshot.xml"), service, store);

  // Rebuild the validation dictionary from the stored descriptors.
  index::FieldDictionary dictionary;
  for (const auto& [node, node_store] : store.node_stores()) {
    for (const Id& key : node_store.keys()) {
      for (const auto& record : node_store.get(key)) {
        try {
          const query::Query msd =
              query::Query::most_specific(xml::parse(record.payload));
          for (const auto& c : msd.constraints()) {
            if (c.value && !c.value_is_prefix) dictionary.add(std::string{c.path}, *c.value);
          }
        } catch (const ParseError&) {
        }
      }
    }
  }

  index::LookupEngine engine{service, store, {index::CachePolicy::kSingle}};
  index::FuzzyResolver fuzzy{engine, dictionary};
  for (const std::string& text : args.positional) {
    std::printf("query> %s\n", text.c_str());
    try {
      const query::Query q = query::Query::parse(text);
      std::vector<query::Query> results;
      if (args.has("fuzzy")) {
        const auto result = fuzzy.search(q);
        if (result.corrected) {
          std::printf("  (did you mean %s?)\n", std::string{result.used_query.canonical()}.c_str());
        }
        results = result.results;
      } else {
        results = engine.search_all(q);
      }
      for (const auto& msd : results) std::printf("  %s\n", std::string{msd.canonical()}.c_str());
      std::printf("  (%zu results)\n", results.size());
    } catch (const Error& e) {
      std::printf("  error: %s\n", e.what());
    }
  }
  return 0;
}

int cmd_stats(const Args& args) {
  dht::Ring ring = dht::Ring::with_nodes(args.get_size("nodes", 100));
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  const auto loaded =
      persist::load_snapshot_file(args.get("snapshot", "snapshot.xml"), service, store);
  const auto totals = service.totals();
  std::printf("snapshot        : %s\n", args.get("snapshot", "snapshot.xml").c_str());
  std::printf("nodes           : %zu\n", ring.size());
  std::printf("index keys      : %zu\n", totals.keys);
  std::printf("index mappings  : %zu (loaded %zu)\n", totals.mappings, loaded.mappings);
  std::printf("index bytes     : %s\n", format_bytes(totals.bytes).c_str());
  std::printf("stored records  : %zu (loaded %zu)\n", store.total_records(), loaded.records);
  std::printf("stored bytes    : %s\n", format_bytes(store.total_bytes()).c_str());
  return 0;
}

int cmd_sim(const Args& args) {
  sim::SimulationConfig config;
  config.nodes = args.get_size("nodes", 500);
  config.queries = args.get_size("queries", 50000);
  config.corpus.articles = args.get_size("articles", 10000);
  config.corpus.authors = args.get_size("authors", config.corpus.articles / 3 + 1);
  const std::string scheme = args.get("scheme", "simple");
  if (scheme == "simple") {
    config.scheme = index::SchemeKind::kSimple;
  } else if (scheme == "flat") {
    config.scheme = index::SchemeKind::kFlat;
  } else if (scheme == "complex") {
    config.scheme = index::SchemeKind::kComplex;
  } else {
    throw Error("unknown scheme '" + scheme + "'");
  }
  const std::string policy = args.get("policy", "none");
  if (policy == "none") {
    config.policy = index::CachePolicy::kNone;
  } else if (policy == "single") {
    config.policy = index::CachePolicy::kSingle;
  } else if (policy == "multi") {
    config.policy = index::CachePolicy::kMulti;
  } else if (policy == "lru") {
    config.policy = index::CachePolicy::kLru;
    config.cache_capacity = args.get_size("capacity", 30);
  } else {
    throw Error("unknown policy '" + policy + "' (none|single|multi|lru)");
  }
  const auto r = sim::run_simulation(config);
  std::printf("configuration    : %s\n", sim::config_label(config).c_str());
  std::printf("interactions     : %.2f per query\n", r.avg_interactions);
  std::printf("normal traffic   : %.0f B per query\n", r.normal_traffic_per_query);
  std::printf("cache traffic    : %.0f B per query\n", r.cache_traffic_per_query);
  std::printf("hit ratio        : %.1f%%\n", 100.0 * r.hit_ratio);
  std::printf("non-indexed      : %zu queries\n", r.non_indexed_queries);
  std::printf("cached keys/node : %.1f\n", r.avg_cached_keys_per_node);
  std::printf("index storage    : %s\n", format_bytes(r.index_bytes).c_str());
  std::printf("failed lookups   : %zu\n", r.failed_lookups);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: dhtidx_ctl <gen|index|query|stats|sim> [options]\n"
               "see the header of examples/dhtidx_ctl.cpp for details\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "index") return cmd_index(args);
    if (args.command == "query") return cmd_query(args);
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "sim") return cmd_sim(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dhtidx_ctl: %s\n", e.what());
    return 1;
  }
}
