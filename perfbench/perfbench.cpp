// dhtidx_perfbench: the process-level half of the repository benchmark.
//
// run.py (beside this file) drives it; every invocation is one fresh process
// that prints exactly one JSON line on stdout.
//
//   dhtidx_perfbench run   --workload W [--seed N] [--queries Q] [--shards S]
//                          [--materialized | --streaming]
//                          [--transport inproc|eventq] [--smoke]
//       One sim::run_simulation call of workload W, timed from outside, with
//       the library's own build/feed phase timers, the process's peak RSS and
//       the result digest the output check compares.
//
//   dhtidx_perfbench trace --workload W --out FILE [--seed N] [--queries Q]
//                          [--smoke]
//       The traced run: builds W's streamed world at one shard from public
//       pieces (Ring, DhtStore, IndexService, ArticleStream) with
//       sim::build_streaming_world / sim::feed_streaming_world recorded as
//       the sim.build and sim.feed spans, then replays 2,000 of the feed's
//       requests, one `session` span each, whose children time one public
//       call each. Spans are written to FILE as Chrome trace-event JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "biblio/stream.hpp"
#include "common/json.hpp"
#include "dht/ring.hpp"
#include "index/lookup.hpp"
#include "index/service.hpp"
#include "net/codec.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "storage/dht_store.hpp"
#include "trace.hpp"
#include "workload/streaming.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace dhtidx;
using perfbench::Clock;

namespace {

/// Sessions the traced run replays: enough for a p99 with 20 samples above it.
constexpr std::size_t kReplaySessions = 2000;

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 7;
  std::size_t queries = 0;  ///< 0 = the workload's default
  std::size_t shards = 1;
  bool materialized = false;
  bool streaming = false;
  std::string transport;  ///< empty = the workload's own
  bool smoke = false;
  std::string out;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "dhtidx_perfbench: %s\n", message.c_str());
  std::exit(2);
}

std::size_t parse_count(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage_error(flag + " expects a number, got '" + text + "'");
  return static_cast<std::size_t>(value);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage_error("usage: dhtidx_perfbench run|trace --workload W [options]");
  Options options;
  options.mode = argv[1];
  if (options.mode != "run" && options.mode != "trace") {
    usage_error("unknown mode '" + options.mode + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = parse_count(arg, value());
    else if (arg == "--queries") options.queries = parse_count(arg, value());
    else if (arg == "--shards") options.shards = parse_count(arg, value());
    else if (arg == "--transport") options.transport = value();
    else if (arg == "--out") options.out = value();
    else if (arg == "--materialized") options.materialized = true;
    else if (arg == "--streaming") options.streaming = true;
    else if (arg == "--smoke") options.smoke = true;
    else usage_error("unknown argument '" + arg + "'");
  }
  if (options.mode == "trace" && options.out.empty()) usage_error("trace needs --out FILE");
  return options;
}

/// The benchmark's workloads (README.md beside this file says why each was
/// chosen). `smoke` shrinks every world to a few hundred nodes.
sim::SimulationConfig workload_config(const Options& options) {
  sim::SimulationConfig config;
  const std::string& name = options.workload;
  if (name == "stream_flat" || name == "stream_cached") {
    // scale_frontier's streaming_cell at 5k nodes / 50k articles.
    const std::size_t articles = options.smoke ? 2000 : 50000;
    config.nodes = options.smoke ? 200 : 5000;
    config.corpus.articles = articles;
    config.corpus.authors = std::max<std::size_t>(50, articles * 28 / 100);
    config.corpus.conferences = std::max<std::size_t>(60, articles / 5000);
    config.streaming = true;
    config.shards = options.shards;
    if (name == "stream_flat") {
      config.scheme = index::SchemeKind::kFlat;
    } else {
      config.scheme = index::SchemeKind::kComplex;
      config.policy = index::CachePolicy::kLruMulti;
      config.cache_capacity = 10;
    }
  } else if (name == "paper_wire") {
    // bench::paper_config(): the paper's Section V-E world.
    config.nodes = options.smoke ? 100 : 500;
    config.corpus.articles = options.smoke ? 1000 : 10000;
    config.corpus.authors = options.smoke ? 280 : 2800;
    config.corpus.conferences = 60;
    config.scheme = index::SchemeKind::kSimple;
    config.policy = index::CachePolicy::kSingle;
    config.transport = sim::TransportKind::kEventQueue;
  } else {
    usage_error("unknown workload '" + name + "'");
  }
  config.queries = options.queries != 0 ? options.queries : (options.smoke ? 2000 : 50000);
  config.seed = options.seed;
  config.corpus.seed = options.seed;
  if (options.materialized) {
    config.streaming = false;
    config.shards = 1;
  }
  if (options.streaming) {
    // The streamed world of the same shape (in-process transport only).
    config.streaming = true;
    config.shards = options.shards;
    config.transport = sim::TransportKind::kInProcess;
  }
  if (options.transport == "inproc") {
    config.transport = sim::TransportKind::kInProcess;
  } else if (options.transport == "eventq") {
    config.transport = sim::TransportKind::kEventQueue;
  } else if (!options.transport.empty()) {
    usage_error("unknown transport '" + options.transport + "'");
  }
  return config;
}

/// Exact rendering (round-trippable) for values the output check compares.
std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The output check's result digest: equal digests mean equal simulated
/// results on every quantity the paper's figures plot per query.
std::string digest(double interactions, double normal_bytes, double cache_bytes,
                   double hit_ratio, std::size_t non_indexed, std::size_t failed) {
  return "interactions=" + exact(interactions) + " normal_bytes=" + exact(normal_bytes) +
         " cache_bytes=" + exact(cache_bytes) + " hit_ratio=" + exact(hit_ratio) +
         " non_indexed=" + std::to_string(non_indexed) + " failed=" + std::to_string(failed);
}

std::string digest_of(const sim::SimulationResults& r) {
  return digest(r.avg_interactions, r.normal_traffic_per_query, r.cache_traffic_per_query,
                r.hit_ratio, r.non_indexed_queries, r.failed_lookups);
}

std::string stamp() {
  std::string out = "{";
  json::append_field(out, "build_type", PERFBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  json::append_field(out, "optimized", "true", false);
#else
  json::append_field(out, "optimized", "false", false);
#endif
  json::append_field(out, "compiler", __VERSION__);
  return out + "}";
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int run_mode(const Options& options) {
  const sim::SimulationConfig config = workload_config(options);
  const Clock::time_point start = Clock::now();
  const sim::SimulationResults r = sim::run_simulation(config);
  const double wall_s = seconds_since(start);

  std::string out = "{";
  json::append_field(out, "stamp", stamp(), false);
  json::append_field(out, "shards", std::to_string(std::max<std::size_t>(config.shards, 1)),
                     false);
  json::append_field(out, "nodes", std::to_string(r.nodes), false);
  json::append_field(out, "articles", std::to_string(r.articles), false);
  json::append_field(out, "queries", std::to_string(r.queries), false);
  json::append_field(out, "wall_s", exact(wall_s), false);
  json::append_field(out, "build_s", exact(r.build_wall_s), false);
  json::append_field(out, "feed_s", exact(r.feed_wall_s), false);
  json::append_field(out, "setup_s", exact(wall_s - r.build_wall_s - r.feed_wall_s), false);
  json::append_field(out, "peak_rss_bytes", std::to_string(r.peak_rss_bytes), false);
  json::append_field(out, "failed_lookups", std::to_string(r.failed_lookups), false);
  json::append_field(out, "wire_messages", std::to_string(r.wire_messages), false);
  json::append_field(out, "wire_bytes", std::to_string(r.wire_ledger.total_bytes()), false);
  json::append_field(out, "digest", digest_of(r));
  std::printf("%s}\n", out.c_str());
  return 0;
}

/// Distribution summary of one span name's durations (or any sample).
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
};

Summary summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  s.p50 = sim::percentile(values, 50.0);
  s.p99 = sim::percentile(std::move(values), 99.0);
  return s;
}

int trace_mode(const Options& options) {
  // The traced world is always a streamed world at one shard: the layer
  // functions are the same ones the materialized engine calls, and the
  // streamed build/feed entry points are public.
  sim::SimulationConfig config = workload_config(options);
  config.streaming = true;
  config.shards = 1;
  config.transport = sim::TransportKind::kInProcess;

  perfbench::Tracer tracer;
  dht::Ring ring = dht::Ring::with_nodes(config.nodes);
  net::TrafficLedger ledger;
  storage::DhtStore store{ring, ledger, config.replication};
  index::IndexService service{ring, ledger, config.cache_capacity, config.replication};
  const biblio::ArticleStream stream{config.corpus};
  const workload::StreamingWorkload workload{
      stream, workload::PopularityModel{stream.size(), config.popularity_c,
                                        config.popularity_alpha},
      workload::StructureModel{}, config.seed};

  const double build_ns = static_cast<double>(tracer.time("sim.build", 0, 0, [&] {
    sim::build_streaming_world(config, ring, service, store, stream);
  }));
  ledger.reset();
  sim::FeedTotals feed;
  const double feed_ns = static_cast<double>(tracer.time("sim.feed", 0, 0, [&] {
    feed = sim::feed_streaming_world(config, ring, service, store, workload);
  }));

  const double queries = static_cast<double>(config.queries);
  const std::string feed_digest =
      digest(static_cast<double>(feed.interactions) / queries,
             static_cast<double>(feed.ledger.normal_bytes()) / queries,
             static_cast<double>(feed.ledger.cache.bytes()) / queries,
             static_cast<double>(feed.hits) / queries, feed.non_indexed, feed.failed_lookups);

  // Shortcut-cache state after the feed, read from every node's cache.
  std::uint64_t evictions = 0;
  std::uint64_t cached_keys = 0;
  const std::vector<Id> nodes = ring.node_ids();
  for (const Id& node : nodes) {
    if (const index::IndexNodeState* state = service.find_state(node); state != nullptr) {
      evictions += state->cache().evictions();
      cached_keys += state->cache().size();
    }
  }

  // Replay: an evenly spaced sample of the feed's requests against the fed
  // world, one public call per child span. The cacheless engine reads the
  // index only, so the replay leaves the world as the feed left it.
  index::LookupEngine engine{service, store, {index::CachePolicy::kNone}};
  const std::size_t sample = std::min(kReplaySessions, config.queries);
  std::vector<double> targets;
  std::vector<double> interactions;
  std::vector<double> residuals;
  std::vector<double> frame_bytes;
  std::uint64_t sink = 0;
  for (std::size_t k = 0; k < sample; ++k) {
    const std::uint64_t index = k * config.queries / sample;
    const std::uint64_t session_id = k + 1;
    const std::uint64_t session = tracer.begin("session", 0, session_id);
    const auto time = [&](const char* name, auto&& fn) {
      return static_cast<double>(tracer.time(name, session, session_id, fn));
    };

    workload::StreamingRequest request;
    time("workload.request", [&] { request = workload.request_at(index); });
    query::Query fresh{request.query.root()};
    for (const query::Constraint& c : request.query.constraints()) fresh.add_constraint(c);
    time("query.key", [&] { sink += fresh.key().bytes()[0]; });
    time("query.intern_probe", [&] {
      sink += service.interner().find_existing(request.query) != nullptr ? 1 : 0;
    });
    index::LookupOutcome outcome;
    const double resolve_ns = time("index.resolve", [&] {
      outcome = engine.resolve(request.query, request.target_msd);
    });
    if (!outcome.found) {
      std::fprintf(stderr, "dhtidx_perfbench: replayed request %llu was not found\n",
                   static_cast<unsigned long long>(index));
      return 1;
    }
    const double route_ns =
        time("dht.route", [&] { sink += ring.lookup(request.query.key()).hops; });
    index::IndexService::Reply reply;
    const double probe_ns = time("index.probe", [&] { reply = service.lookup(request.query); });
    const double get_ns = time("storage.get", [&] {
      sink += store.get(request.target_msd.key()).records->size();
    });

    net::Message message =
        net::Message::response_to(net::Message::request(net::Action::kLookup, Id{}, reply.node));
    for (const query::Query* target : reply.targets) {
      message.payload.push_back(target->canonical());
    }
    std::string frame;
    time("net.encode", [&] { frame = net::codec::encode(message); });
    net::Message decoded;
    time("net.decode", [&] { decoded = net::codec::decode(frame); });
    if (!(decoded == message)) {
      std::fprintf(stderr, "dhtidx_perfbench: codec round trip changed a lookup reply\n");
      return 1;
    }
    tracer.end(session);

    targets.push_back(static_cast<double>(reply.targets.size()));
    interactions.push_back(static_cast<double>(outcome.interactions));
    residuals.push_back(resolve_ns - outcome.interactions * (probe_ns + route_ns) - get_ns);
    frame_bytes.push_back(static_cast<double>(frame.size()));
  }

  std::map<std::string, double> metrics;
  const auto timing = [&](const std::string& span, const std::string& metric) {
    metrics[metric] = summarize(tracer.durations(span)).p50;
  };
  timing("workload.request", "workload.request_ns");
  timing("query.key", "query.key_ns");
  timing("query.intern_probe", "query.intern_probe_ns");
  timing("dht.route", "dht.route_ns");
  timing("storage.get", "storage.get_ns");
  timing("net.encode", "net.encode_ns");
  timing("net.decode", "net.decode_ns");
  const Summary probe = summarize(tracer.durations("index.probe"));
  metrics["index.probe_ns.p50"] = probe.p50;
  metrics["index.probe_ns.p99"] = probe.p99;
  const Summary resolve = summarize(tracer.durations("index.resolve"));
  metrics["index.resolve_ns.p50"] = resolve.p50;
  metrics["index.resolve_ns.p99"] = resolve.p99;
  metrics["index.resolve_ns.mean"] = resolve.mean;
  const Summary probe_targets = summarize(targets);
  metrics["index.probe_targets.mean"] = probe_targets.mean;
  metrics["index.probe_targets.p99"] = probe_targets.p99;
  metrics["index.interactions"] = summarize(interactions).mean;
  metrics["index.resolve_residual_ns"] = summarize(residuals).mean;
  metrics["net.frame_bytes"] = summarize(frame_bytes).mean;
  metrics["index.cache_hit_ratio"] = static_cast<double>(feed.hits) / queries;
  metrics["index.cache_evictions_per_query"] = static_cast<double>(evictions) / queries;
  metrics["index.cache_keys_per_node"] =
      static_cast<double>(cached_keys) / static_cast<double>(nodes.size());
  metrics["trace.sessions"] = static_cast<double>(sample);

  std::string metrics_json = "{";
  for (const auto& [name, value] : metrics) {
    json::append_field(metrics_json, name.c_str(), exact(value), false);
  }
  metrics_json += "}";

  if (!tracer.write_chrome(options.out, {{"workload", options.workload},
                                         {"seed", std::to_string(options.seed)},
                                         {"queries", std::to_string(config.queries)},
                                         {"stamp", stamp()}})) {
    std::fprintf(stderr, "dhtidx_perfbench: cannot write %s\n", options.out.c_str());
    return 1;
  }

  std::string out = "{";
  json::append_field(out, "stamp", stamp(), false);
  json::append_field(out, "queries", std::to_string(config.queries), false);
  json::append_field(out, "build_s", exact(build_ns / 1e9), false);
  json::append_field(out, "feed_s", exact(feed_ns / 1e9), false);
  json::append_field(out, "spans", std::to_string(tracer.spans().size()), false);
  json::append_field(out, "sink", std::to_string(sink), false);
  json::append_field(out, "digest", feed_digest);
  json::append_field(out, "metrics", metrics_json, false);
  std::printf("%s}\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return options.mode == "run" ? run_mode(options) : trace_mode(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dhtidx_perfbench: %s\n", e.what());
    return 1;
  }
}
