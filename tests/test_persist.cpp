// Snapshot persistence: save/load round-trips, cross-membership restore,
// covering enforcement against tampered snapshots.
#include "persist/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "biblio/corpus.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"

namespace dhtidx::persist {
namespace {

using query::Query;

struct World {
  explicit World(std::size_t nodes) : ring(dht::Ring::with_nodes(nodes)) {}
  net::TrafficLedger ledger;
  dht::Ring ring;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
};

biblio::Corpus small_corpus() {
  biblio::CorpusConfig config;
  config.articles = 40;
  config.authors = 15;
  config.conferences = 6;
  return biblio::Corpus::generate(config);
}

void build(World& w, const biblio::Corpus& corpus) {
  index::IndexBuilder builder{w.service, w.store, index::IndexingScheme::simple()};
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }
}

TEST(Snapshot, RoundTripPreservesEverything) {
  const biblio::Corpus corpus = small_corpus();
  World original{20};
  build(original, corpus);
  const std::string xml = save_snapshot(original.service, original.store);

  World restored{20};
  const LoadStats stats = load_snapshot(xml, restored.service, restored.store);
  EXPECT_EQ(stats.mappings, original.service.totals().mappings);
  EXPECT_EQ(stats.records, original.store.total_records());
  EXPECT_EQ(restored.service.totals().mappings, original.service.totals().mappings);
  EXPECT_EQ(restored.service.totals().keys, original.service.totals().keys);
  EXPECT_EQ(restored.store.total_records(), original.store.total_records());

  // Every article is still resolvable in the restored world.
  index::LookupEngine engine{restored.service, restored.store,
                             {index::CachePolicy::kNone}};
  for (const auto& a : corpus.articles()) {
    EXPECT_TRUE(engine.resolve(a.author_query(), a.msd()).found) << a.title;
  }
}

TEST(Snapshot, RestoreUnderDifferentMembership) {
  // A snapshot taken on a 20-node network restores onto a 35-node network:
  // entries re-place through the new DHT automatically.
  const biblio::Corpus corpus = small_corpus();
  World original{20};
  build(original, corpus);
  const std::string xml = save_snapshot(original.service, original.store);

  World bigger{35};
  load_snapshot(xml, bigger.service, bigger.store);
  index::LookupEngine engine{bigger.service, bigger.store, {index::CachePolicy::kNone}};
  for (const auto& a : corpus.articles()) {
    EXPECT_TRUE(engine.resolve(a.title_query(), a.msd()).found) << a.title;
  }
  // Placement matches the new ring.
  for (const auto& [node, state] : bigger.service.states()) {
    for (const auto& [source, targets] : state.entries()) {
      EXPECT_EQ(bigger.ring.successor(source->key()), node);
    }
  }
}

TEST(Snapshot, VirtualBytesSurvive) {
  World w{10};
  index::IndexBuilder builder{w.service, w.store, index::IndexingScheme::simple()};
  biblio::Article a;
  a.first_name = "A";
  a.last_name = "B";
  a.title = "T";
  a.conference = "C";
  a.year = 2000;
  a.file_bytes = 123456;
  builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  const std::string xml = save_snapshot(w.service, w.store);

  World restored{10};
  load_snapshot(xml, restored.service, restored.store);
  const auto got = restored.store.get(a.msd().key());
  ASSERT_EQ(got.records->size(), 1u);
  EXPECT_EQ((*got.records)[0].virtual_payload_bytes, 123456u);
  EXPECT_EQ((*got.records)[0].kind, "file:" + a.file_name());
}

TEST(Snapshot, EmptyWorldRoundTrips) {
  World w{5};
  const std::string xml = save_snapshot(w.service, w.store);
  World restored{5};
  const LoadStats stats = load_snapshot(xml, restored.service, restored.store);
  EXPECT_EQ(stats.mappings, 0u);
  EXPECT_EQ(stats.records, 0u);
}

TEST(Snapshot, MalformedInputRejected) {
  World w{5};
  EXPECT_THROW(load_snapshot("<wrong/>", w.service, w.store), ParseError);
  EXPECT_THROW(load_snapshot("<dhtidx-snapshot><index><mapping/></index></dhtidx-snapshot>",
                             w.service, w.store),
               ParseError);
  EXPECT_THROW(load_snapshot("not xml at all", w.service, w.store), ParseError);
}

TEST(Snapshot, TamperedMappingRejectedByCoveringCheck) {
  // A snapshot that aliases a Doe key to a Smith article is refused on load:
  // the resilience-to-arbitrary-linking property survives persistence.
  World w{5};
  const std::string tampered =
      "<dhtidx-snapshot><index>"
      "<mapping source=\"/article[author/last=Doe]\" "
      "target=\"/article[author/first=John][author/last=Smith][title=TCP]\"/>"
      "</index></dhtidx-snapshot>";
  EXPECT_THROW(load_snapshot(tampered, w.service, w.store), InvariantError);
}

TEST(Snapshot, FileRoundTrip) {
  const biblio::Corpus corpus = small_corpus();
  World w{10};
  build(w, corpus);
  const std::string path = "/tmp/dhtidx-snapshot-test.xml";
  save_snapshot_file(path, w.service, w.store);

  World restored{10};
  const LoadStats stats = load_snapshot_file(path, restored.service, restored.store);
  EXPECT_EQ(stats.records, w.store.total_records());
  std::remove(path.c_str());
  EXPECT_THROW(load_snapshot_file("/nonexistent/nope.xml", restored.service, restored.store),
               Error);
}

// Byte-level sweep of load_snapshot, mirroring XmlParserFuzz and the query
// parser sweep: every buffer must either be refused with a typed error
// (ParseError for malformed XML, attributes, keys or queries; InvariantError
// for a mapping the covering check refuses) or load into a world that passes
// the auditor. Anything else -- another exception type, a crash, a world
// with a violated invariant -- fails.
void expect_refused_or_audit_clean(const std::string& input, int& loaded) {
  World w{8};
  try {
    load_snapshot(input, w.service, w.store);
  } catch (const ParseError&) {
    return;
  } catch (const InvariantError&) {
    return;
  }
  ++loaded;
  const audit::Report report = audit::Auditor{w.ring, w.service, w.store}.run();
  EXPECT_TRUE(report.clean()) << report.to_text() << "\nfor input:\n" << input;
}

/// Up to three random predicates drawn from the corpus's fields, values
/// that need quoting, and stray punctuation.
std::string random_predicates(Rng& rng) {
  static constexpr const char* kPredicates[] = {
      "[author/last=Smith]", "[author/first=John]", "[title=TCP]", "[conf=INFOCOM]",
      "[year=1996]",         "[title^=T]",          "[author=*]",  "[//last=Smith]",
      "[*/last=Smith]",      "[title='a/b']",       "[size=1]",    "[",
      "]",                   "=",                   "'",           "/"};
  std::string text;
  const std::size_t n = rng.next_index(4);
  for (std::size_t k = 0; k < n; ++k) text += kPredicates[rng.next_index(std::size(kPredicates))];
  return text;
}

/// A random query spelling: a root and random predicates.
std::string random_query_text(Rng& rng) {
  return (rng.next_bool(0.9) ? "/article" : "/*") + random_predicates(rng);
}

TEST(SnapshotFuzz, RandomBuffersAreRefusedOrLoadAuditClean) {
  // 5k buffers. A third are uniform bytes; a third are snapshot-vocabulary
  // tokens in random order; a third are well-formed envelopes around one
  // random mapping or record, so that the sweep reaches the query parser,
  // the covering check, Id::from_hex and the virtual-bytes parse.
  static constexpr const char* kTokens[] = {
      "<dhtidx-snapshot>", "</dhtidx-snapshot>", "<index>", "</index>", "<storage>",
      "</storage>", "<mapping source=\"/article[title=TCP]\" target=\"/article[title=TCP]"
      "[year=1996]\"/>", "<mapping ", "source=\"", "target=\"", "\"", "/>", "<record ",
      "key=\"", "kind=\"", "virtual-bytes=\"", ">", "</record>", "/article[author/last=Smith]",
      "0123456789abcdef", "&amp;", "&lt;", " ", "<?xml version=\"1.0\"?>"};
  Rng rng{0x5a9b};
  int loaded = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string input;
    switch (i % 3) {
      case 0: {
        const std::size_t length = rng.next_index(64);
        for (std::size_t k = 0; k < length; ++k) {
          input.push_back(static_cast<char>(rng.next_index(256)));
        }
        break;
      }
      case 1: {
        const std::size_t length = 1 + rng.next_index(12);
        for (std::size_t k = 0; k < length; ++k) input += kTokens[rng.next_index(std::size(kTokens))];
        break;
      }
      default: {
        input = "<dhtidx-snapshot>";
        if (rng.next_bool(0.6)) {
          // Half the targets extend their source, so that many cover.
          const std::string source = random_query_text(rng);
          const std::string target = rng.next_bool(0.5)
                                         ? source + random_predicates(rng)
                                         : random_query_text(rng);
          input += "<index><mapping source=\"" + source + "\" target=\"" + target +
                   "\"/></index>";
        } else {
          // Mostly well-formed 40-digit keys, sometimes of the wrong length
          // or with a non-hex digit.
          const bool valid = rng.next_bool(0.7);
          const std::size_t digits = valid ? 40 : rng.next_index(44);
          std::string key;
          for (std::size_t k = 0; k < digits; ++k) {
            key.push_back("0123456789abcdefX"[rng.next_index(valid ? 16 : 17)]);
          }
          static constexpr const char* kBytes[] = {"12", "-3", "x", "", "99999999999999999999999"};
          input += "<storage><record key=\"" + key + "\" kind=\"file:a\" virtual-bytes=\"" +
                   kBytes[rng.next_index(std::size(kBytes))] + "\">payload</record></storage>";
        }
        input += "</dhtidx-snapshot>";
        break;
      }
    }
    expect_refused_or_audit_clean(input, loaded);
  }
  EXPECT_GT(loaded, 250);  // the sweep must get past the XML layer
}

TEST(SnapshotFuzz, MutatedSnapshotsAreRefusedOrLoadAuditClean) {
  // 2k mutations of real snapshots (a built world, an empty one) and of the
  // hand-written inputs above: insert a markup byte, delete a byte,
  // overwrite one, or duplicate a short slice.
  biblio::CorpusConfig config;
  config.articles = 6;
  config.authors = 4;
  config.conferences = 3;
  const biblio::Corpus corpus = biblio::Corpus::generate(config);
  World built{8};
  build(built, corpus);
  World empty{8};
  const std::vector<std::string> seeds = {
      save_snapshot(built.service, built.store),
      save_snapshot(empty.service, empty.store),
      "<dhtidx-snapshot><index><mapping source=\"/article[author/last=Doe]\" "
      "target=\"/article[author/first=John][author/last=Doe][title=TCP]\"/></index>"
      "</dhtidx-snapshot>",
  };
  static constexpr std::string_view kInsert = "<>/=\"'&;[]*^ a0";
  Rng rng{0x5a9c};
  int loaded = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string input = seeds[rng.next_index(seeds.size())];
    const std::size_t mutations = 1 + rng.next_index(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next_index(input.size() + 1);
      switch (rng.next_index(4)) {
        case 0:
          input.insert(at, 1, kInsert[rng.next_index(kInsert.size())]);
          break;
        case 1:
          if (at < input.size()) input.erase(at, 1);
          break;
        case 2:
          if (at < input.size()) input[at] = static_cast<char>(rng.next_index(256));
          break;
        default: {
          const std::size_t len = std::min<std::size_t>(input.size() - std::min(at, input.size()),
                                                        1 + rng.next_index(8));
          input.insert(at, input.substr(at, len));
          break;
        }
      }
    }
    expect_refused_or_audit_clean(input, loaded);
  }
  EXPECT_GT(loaded, 200);
}

}  // namespace
}  // namespace dhtidx::persist
