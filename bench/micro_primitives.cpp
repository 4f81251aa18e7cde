// Micro-benchmarks for the primitive operations every lookup is built from:
// hashing, query parsing/normalization, the covering test, substrate
// resolution, index operations and cache operations -- plus the composite
// hot paths (full iterated-lookup walk, shortcut-cache hit/miss, publish
// and republish) whose before/after numbers are tracked in BENCH_PR5.json.
//
// Besides the usual console table, the binary emits one line per benchmark
// in the repo's one-line JSON summary format (src/common/json.hpp), so runs
// can be appended to the BENCH_*.json perf trajectory:
//   {"bench":"micro_primitives","name":"BM_...","ns_per_op":...,"iterations":...}
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "biblio/corpus.hpp"
#include "biblio/stream.hpp"
#include "common/json.hpp"
#include "common/sha1.hpp"
#include "dht/chord.hpp"
#include "dht/ring.hpp"
#include "index/builder.hpp"
#include "index/lookup.hpp"
#include "net/codec.hpp"
#include "query/interner.hpp"
#include "query/query.hpp"
#include "workload/streaming.hpp"

namespace {

using namespace dhtidx;

void BM_Sha1Hash(benchmark::State& state) {
  const std::string input(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(input));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1Hash)->Arg(64)->Arg(1024)->Arg(65536);

void BM_QueryParse(benchmark::State& state) {
  const std::string text =
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::Query::parse(text));
  }
}
BENCHMARK(BM_QueryParse);

void BM_QueryCanonicalAndKey(benchmark::State& state) {
  for (auto _ : state) {
    query::Query q{"article"};
    q.add_field("author/first", "John").add_field("author/last", "Smith");
    q.add_field("conf", "SIGCOMM");
    benchmark::DoNotOptimize(q.key());
  }
}
BENCHMARK(BM_QueryCanonicalAndKey);

// The repeated-key pattern of a lookup walk: the same query object is hashed
// at every hop (service contact, storage fetch, cache probes). With key
// memoization this is a cached read after the first call.
void BM_QueryKeyRepeated(benchmark::State& state) {
  const query::Query q = query::Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.key());
  }
}
BENCHMARK(BM_QueryKeyRepeated);

void BM_QueryCovers(benchmark::State& state) {
  const query::Query broad = query::Query::parse("/article/author/last/Smith");
  const query::Query specific = query::Query::parse(
      "/article[author[first/John][last/Smith]][title/TCP][conf/SIGCOMM][year/1989]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(broad.covers(specific));
  }
}
BENCHMARK(BM_QueryCovers);

void BM_QueryMatches(benchmark::State& state) {
  biblio::Article a;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "TCP";
  a.conference = "SIGCOMM";
  a.year = 1989;
  a.file_bytes = 1;
  const xml::Element doc = a.descriptor();
  const query::Query q = query::Query::parse("/article/author/last/Smith");
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.matches(doc));
  }
}
BENCHMARK(BM_QueryMatches);

// Copying a flat most-specific query: what every mapping, pending intern
// request and cache entry built from an article pays. A query is one
// buffer, so a copy is one allocation and one memcpy, memoized key
// included.
void BM_QueryCopy(benchmark::State& state) {
  biblio::Article a;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "Scalable distributed indexing";
  a.conference = "ICDCS";
  a.year = 2004;
  a.file_bytes = 1;
  const query::Query msd = a.msd();
  msd.key();
  for (auto _ : state) {
    query::Query copy = msd;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_QueryCopy);

// Filling an interner with N most-specific queries of streamed articles and
// destroying it: the pool a streamed world builds and tears down.
void BM_InternerTeardown(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  biblio::CorpusConfig config;
  config.articles = n;
  const biblio::ArticleStream stream{config};
  std::vector<query::Query> msds;
  msds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    msds.push_back(stream.article(i).msd());
    msds.back().key();
  }
  for (auto _ : state) {
    query::QueryInterner pool;
    for (const query::Query& msd : msds) benchmark::DoNotOptimize(pool.intern(msd));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_InternerTeardown)->Arg(100000)->Unit(benchmark::kMillisecond);

// Interner probes as the build and the feed make them, against a pool of the
// MSDs of 100k streamed articles: a query equal to a pooled one but another
// object (hit), and a query the pool lacks (miss). A probe hashes the
// canonical bytes and compares them on a 32-bit hash match; no SHA-1.
const query::QueryInterner& probe_pool() {
  static const query::QueryInterner pool = [] {
    biblio::CorpusConfig config;
    config.articles = 100000;
    const biblio::ArticleStream stream{config};
    query::QueryInterner interner;
    for (std::size_t i = 0; i < stream.size(); ++i) interner.intern(stream.article(i).msd());
    return interner;
  }();
  return pool;
}

/// 1024 MSDs of streamed articles [first, first + 1024).
std::vector<query::Query> probe_queries(std::size_t first) {
  biblio::CorpusConfig config;
  config.articles = first + 1024;
  const biblio::ArticleStream stream{config};
  std::vector<query::Query> queries;
  for (std::size_t i = first; i < stream.size(); ++i) queries.push_back(stream.article(i).msd());
  return queries;
}

void BM_InternProbeHit(benchmark::State& state) {
  const query::QueryInterner& pool = probe_pool();
  const std::vector<query::Query> probes = probe_queries(0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.find_existing(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_InternProbeHit);

void BM_InternProbeMiss(benchmark::State& state) {
  const query::QueryInterner& pool = probe_pool();
  const std::vector<query::Query> probes = probe_queries(100000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.find_existing(probes[i++ % probes.size()]));
  }
}
BENCHMARK(BM_InternProbeMiss);

// The covering test of next-hop selection: a streamed request's query
// against its target MSD (true), and against the next article's MSD
// (mostly false), alternating over 1024 requests.
void BM_CoversMsd(benchmark::State& state) {
  const biblio::ArticleStream stream{biblio::CorpusConfig{}};
  const workload::StreamingWorkload workload{stream, 7};
  std::vector<std::pair<query::Query, query::Query>> pairs;
  for (std::uint64_t i = 0; i < 1024; ++i) {
    workload::StreamingRequest request = workload.request_at(i);
    pairs.emplace_back(request.query, std::move(request.target_msd));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [q, msd] = pairs[i % pairs.size()];
    const auto& other = pairs[(i + 1) % pairs.size()].second;
    benchmark::DoNotOptimize(q.covers(i % 2 == 0 ? msd : other));
    ++i;
  }
}
BENCHMARK(BM_CoversMsd);

// Streaming generators (biblio/stream.hpp, workload/streaming.hpp): the cost
// of synthesizing one article / one query request from its counter. This is
// the per-item overhead a streaming cell pays instead of materializing the
// workload up front.
void BM_StreamArticle(benchmark::State& state) {
  static const biblio::ArticleStream stream{biblio::CorpusConfig{}};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream.article(i++ % stream.size()));
  }
}
BENCHMARK(BM_StreamArticle);

void BM_StreamRequest(benchmark::State& state) {
  static const biblio::ArticleStream stream{biblio::CorpusConfig{}};
  static const workload::StreamingWorkload workload{stream, 7};
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.request_at(i++));
  }
}
BENCHMARK(BM_StreamRequest);

void BM_RingLookup(benchmark::State& state) {
  dht::Ring ring = dht::Ring::with_nodes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.lookup(Id::from_uint64(i++ * 0x9E3779B97F4A7C15ull)));
  }
}
BENCHMARK(BM_RingLookup)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ChordLookup(benchmark::State& state) {
  dht::ChordNetwork net{3};
  for (int i = 0; i < state.range(0); ++i) {
    net.add_node("n" + std::to_string(i));
    net.stabilize_round(4);
  }
  net.stabilize_until_converged();
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.lookup(Id::hash("k" + std::to_string(i++))));
  }
}
BENCHMARK(BM_ChordLookup)->Arg(32)->Arg(128);

void BM_SchemeMappings(benchmark::State& state) {
  biblio::Article a;
  a.first_name = "John";
  a.last_name = "Smith";
  a.title = "Scalable distributed indexing";
  a.conference = "ICDCS";
  a.year = 2004;
  a.file_bytes = 1;
  const query::Query msd = a.msd();
  const index::IndexingScheme scheme = index::IndexingScheme::complex();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.mappings_for(msd));
  }
}
BENCHMARK(BM_SchemeMappings);

void BM_ShortcutCacheInsertFind(benchmark::State& state) {
  index::ShortcutCache cache{static_cast<std::size_t>(state.range(0))};
  const query::Query target = query::Query::parse("/article[title=T][year=2000]");
  std::uint64_t i = 0;
  for (auto _ : state) {
    const query::Query source =
        query::Query::parse("/article/title/T" + std::to_string(i++ % 1000));
    cache.insert(source, target);
    benchmark::DoNotOptimize(cache.find(source));
  }
}
BENCHMARK(BM_ShortcutCacheInsertFind)->Arg(0)->Arg(30);

// Steady-state shortcut-cache probes with pre-parsed queries: a hit on a
// populated cache (find + touch, the jump path of resolve()) and a miss
// (find on a source the cache has never seen).
void BM_ShortcutCacheHit(benchmark::State& state) {
  index::ShortcutCache cache{0};
  const query::Query target = query::Query::parse("/article[title=T][year=2000]");
  std::vector<query::Query> sources;
  for (int i = 0; i < 1000; ++i) {
    sources.push_back(query::Query::parse("/article/title/T" + std::to_string(i)));
    cache.insert(sources.back(), target);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const query::Query& source = sources[i++ % sources.size()];
    benchmark::DoNotOptimize(cache.find(source));
    cache.touch(source, target);
  }
}
BENCHMARK(BM_ShortcutCacheHit);

void BM_ShortcutCacheMiss(benchmark::State& state) {
  index::ShortcutCache cache{0};
  const query::Query target = query::Query::parse("/article[title=T][year=2000]");
  for (int i = 0; i < 1000; ++i) {
    cache.insert(query::Query::parse("/article/title/T" + std::to_string(i)), target);
  }
  std::vector<query::Query> absent;
  for (int i = 0; i < 1000; ++i) {
    absent.push_back(query::Query::parse("/article/title/M" + std::to_string(i)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(absent[i++ % absent.size()]));
  }
}
BENCHMARK(BM_ShortcutCacheMiss);

// An epoch's worth of cache deltas replayed through the interned apply API
// (PR 10): the per-delta cost of the sharded feed's apply sub-phase, with the
// intern probe already paid during the serial intern step. Pointer-identity
// touch/insert against a live LRU list, no hashing of query text.
void BM_CacheApplyEpoch(benchmark::State& state) {
  query::QueryInterner interner;
  index::ShortcutCache cache{static_cast<std::size_t>(state.range(0)), &interner};
  const query::Query* target =
      interner.intern(query::Query::parse("/article[title=T][year=2000]"));
  std::vector<const query::Query*> sources;
  for (int i = 0; i < 1024; ++i) {
    sources.push_back(
        interner.intern(query::Query::parse("/article/title/T" + std::to_string(i))));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const query::Query* source = sources[i++ % sources.size()];
    if (!cache.insert_interned(source, target)) {
      cache.touch_interned(source, target);
    }
  }
}
BENCHMARK(BM_CacheApplyEpoch)->Arg(0)->Arg(30);

/// Representative wire frame for the codec benchmarks: a lookup response
/// carrying a handful of payload items, the common shape on the feed path.
net::Message bench_message() {
  net::Message m = net::Message::request(net::Action::kLookup, Id::hash("from"),
                                         Id::hash("to"));
  m.request_id = 0x1234567890ABCDEFull;
  for (int i = 0; i < 4; ++i) {
    m.payload.push_back("payload-item-" + std::to_string(i) +
                        std::string(48, 'x'));
  }
  return m;
}

// Encode into a fresh string every frame: one allocation per call, the
// pre-PR 10 send path.
void BM_EncodeFresh(benchmark::State& state) {
  const net::Message m = bench_message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::codec::encode(m));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(net::codec::encoded_size(m)));
}
BENCHMARK(BM_EncodeFresh);

// Encode into a reused scratch buffer (codec::encode_into): after warm-up the
// capacity is retained, so the steady state is allocation-free. This is the
// transport/bus hot path since PR 10.
void BM_EncodeReuse(benchmark::State& state) {
  const net::Message m = bench_message();
  std::string scratch;
  for (auto _ : state) {
    net::codec::encode_into(m, scratch);
    benchmark::DoNotOptimize(scratch);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(net::codec::encoded_size(m)));
}
BENCHMARK(BM_EncodeReuse);

/// A lookup reply carrying `targets` items of canonical-query size: each is
/// the canonical form of a most-specific article descriptor query, the shape
/// a lookup returns (the paper_wire replies carry ~55 targets, p99 626).
net::Message lookup_reply(std::size_t targets) {
  net::Message m = net::Message::response_to(
      net::Message::request(net::Action::kLookup, Id{}, Id::hash("to")));
  m.request_id = 0x1234567890ABCDEFull;
  for (std::size_t i = 0; i < targets; ++i) {
    const std::string n = std::to_string(i);
    m.payload.push_back(query::Query::parse("/article[author[first/John][last/Smith" + n +
                                            "]][title/TCP" + n +
                                            "][conf/SIGCOMM][year/1989][size/315635]")
                            .canonical());
  }
  return m;
}

// Decode one lookup reply: validates every item's framing, then adopts the
// item section with one copy, however many targets it carries.
void BM_DecodeLookupReply(benchmark::State& state) {
  const std::string frame =
      net::codec::encode(lookup_reply(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::codec::decode(frame));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_DecodeLookupReply)->Arg(4)->Arg(55)->Arg(626);

// Copy a lookup reply, as the bus does when it parks a delivered response:
// one allocation for the payload buffer.
void BM_MessageCopy(benchmark::State& state) {
  const net::Message m = lookup_reply(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    net::Message copy = m;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_MessageCopy)->Arg(55);

/// Shared world for the composite hot-path benchmarks: a mid-size corpus
/// fully indexed over a 100-node ring. Built once per process.
struct BenchWorld {
  biblio::Corpus corpus;
  dht::Ring ring;
  net::TrafficLedger ledger;
  storage::DhtStore store;
  index::IndexService service;
  index::IndexBuilder builder;

  explicit BenchWorld(index::IndexingScheme scheme, std::size_t skip_first = 0,
                      biblio::CorpusConfig corpus_config = {.articles = 1000, .authors = 300})
      : corpus(biblio::Corpus::generate(corpus_config)),
        ring(dht::Ring::with_nodes(100)),
        store(ring, ledger),
        service(ring, ledger),
        builder(service, store, std::move(scheme)) {
    for (std::size_t i = skip_first; i < corpus.size(); ++i) {
      const biblio::Article& a = corpus.article(i);
      builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
    }
  }
};

void BM_IndexLookup(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::simple()};
  std::vector<query::Query> queries;
  for (std::size_t i = 0; i < 256; ++i) {
    queries.push_back(world.corpus.article(i).author_query());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.service.lookup(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_IndexLookup);

// One full user session per iteration: iterated lookup from the author query
// down the complex scheme's hierarchy to the MSD, file fetch included.
void BM_IteratedLookupWalk(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::complex()};
  index::LookupEngine engine{world.service, world.store, {index::CachePolicy::kNone}};
  std::size_t i = 0;
  for (auto _ : state) {
    const biblio::Article& a = world.corpus.article(i++ % world.corpus.size());
    benchmark::DoNotOptimize(engine.resolve(a.author_query(), a.msd()));
  }
}
BENCHMARK(BM_IteratedLookupWalk);

// The flat scheme's walk: a conference key maps straight to the MSDs of all
// its articles (~250 each here), so the first hop picks the next hop out of
// a long posting list and charges its whole response.
void BM_IteratedLookupWalkFlat(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::flat(), 0,
                          {.articles = 2000, .authors = 600, .conferences = 8}};
  index::LookupEngine engine{world.service, world.store, {index::CachePolicy::kNone}};
  std::size_t i = 0;
  for (auto _ : state) {
    const biblio::Article& a = world.corpus.article(i++ % world.corpus.size());
    benchmark::DoNotOptimize(engine.resolve(a.conference_query(), a.msd()));
  }
}
BENCHMARK(BM_IteratedLookupWalkFlat);

// The walk with a warm shortcut cache: after the first session per article
// every later session jumps straight from the first node to the file.
void BM_IteratedLookupWalkCached(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::complex()};
  index::LookupEngine engine{world.service, world.store, {index::CachePolicy::kSingle}};
  for (std::size_t i = 0; i < world.corpus.size(); ++i) {
    const biblio::Article& a = world.corpus.article(i);
    engine.resolve(a.author_query(), a.msd());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const biblio::Article& a = world.corpus.article(i++ % world.corpus.size());
    benchmark::DoNotOptimize(engine.resolve(a.author_query(), a.msd()));
  }
}
BENCHMARK(BM_IteratedLookupWalkCached);

void BM_SearchAll(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::simple()};
  index::LookupEngine engine{world.service, world.store, {index::CachePolicy::kNone}};
  std::size_t i = 0;
  for (auto _ : state) {
    const biblio::Article& a = world.corpus.article(i++ % world.corpus.size());
    benchmark::DoNotOptimize(engine.search_all(a.author_query()));
  }
}
BENCHMARK(BM_SearchAll);

// Publish path: store the file record and register every scheme mapping,
// then remove the file again so the world stays in a steady state.
void BM_PublishRemove(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::simple(), /*skip_first=*/1};
  const biblio::Article& a = world.corpus.article(0);
  const xml::Element descriptor = a.descriptor();
  const std::string name = a.file_name();
  for (auto _ : state) {
    world.builder.index_file(descriptor, name, a.file_bytes);
    world.builder.remove_file(descriptor);
  }
}
BENCHMARK(BM_PublishRemove);

// Republish refresh: the soft-state maintenance cadence of the churn phase.
// Every mapping already exists, so this measures the probe-and-restamp path.
void BM_RepublishRefresh(benchmark::State& state) {
  static BenchWorld world{index::IndexingScheme::simple()};
  const biblio::Article& a = world.corpus.article(0);
  const xml::Element descriptor = a.descriptor();
  std::uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.builder.republish(descriptor, ++now));
  }
}
BENCHMARK(BM_RepublishRefresh);

void BM_ResolveAuthorQuery(benchmark::State& state) {
  biblio::CorpusConfig config;
  config.articles = 1000;
  config.authors = 300;
  const biblio::Corpus corpus = biblio::Corpus::generate(config);
  dht::Ring ring = dht::Ring::with_nodes(100);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger};
  index::IndexService service{ring, ledger};
  index::IndexBuilder builder{service, store, index::IndexingScheme::simple()};
  for (const auto& a : corpus.articles()) {
    builder.index_file(a.descriptor(), a.file_name(), a.file_bytes);
  }
  index::LookupEngine engine{service, store, {index::CachePolicy::kNone}};
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = corpus.article(i++ % corpus.size());
    benchmark::DoNotOptimize(engine.resolve(a.author_query(), a.msd()));
  }
}
BENCHMARK(BM_ResolveAuthorQuery);

/// Console output as usual, plus one JSON line per benchmark at the end of
/// the run (the BENCH_*.json trajectory format shared with the sweeps).
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string line = "{";
      json::append_field(line, "bench", "micro_primitives");
      json::append_field(line, "name", run.benchmark_name());
      json::append_field(line, "ns_per_op", json::num(run.GetAdjustedRealTime()), false);
      json::append_field(line, "iterations", std::to_string(run.iterations), false);
      line.push_back('}');
      lines_.push_back(std::move(line));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  }

 private:
  std::vector<std::string> lines_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
