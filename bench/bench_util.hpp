// Shared helpers for the experiment-reproduction binaries.
//
// Each bench regenerates one exhibit of the paper (a figure or table) at the
// paper's scale: a 500-node network, 10,000 articles, 50,000 queries from the
// realistic generator. Helpers here provide that canonical configuration and
// lightweight table formatting.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/sweep.hpp"

namespace dhtidx::bench {

/// The terminate handler in place before bench_util.hpp installed its own.
inline std::terminate_handler previous_terminate_handler = nullptr;

/// A configuration the engine rejects is a usage error. A bench main lets a
/// sim::UnsupportedConfig escape (from run_cells, parallel_for or
/// run_simulation); this handler reports it like an unknown argument --
/// the message on stderr, exit status 2 -- instead of aborting. Any other
/// uncaught exception goes on to the previous handler.
[[noreturn]] inline void report_unsupported_config() {
  try {
    if (const std::exception_ptr error = std::current_exception()) std::rethrow_exception(error);
  } catch (const sim::UnsupportedConfig& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "usage error: %s\n", e.what());
    std::_Exit(2);
  } catch (...) {
  }
  if (previous_terminate_handler != nullptr) previous_terminate_handler();
  std::abort();
}

/// Installs report_unsupported_config in every binary that includes this
/// header, before main runs.
inline const bool unsupported_config_is_usage_error =
    (previous_terminate_handler = std::set_terminate(report_unsupported_config), true);

/// Command-line options shared by every bench binary.
struct BenchOptions {
  std::size_t jobs = 0;    ///< worker threads for sweeps; 0 = hardware concurrency
  std::size_t shards = 0;  ///< >0: run cells as streaming worlds with N shards
};

/// Parses `--jobs N` / `--jobs=N` / `-j N`, `--shards N` / `--shards=N` (and
/// `--help`). Every bench accepts the flags; binaries without independent
/// simulation cells simply ignore them. Exits on unknown arguments.
inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--jobs N] [--shards N]\n"
          "  --jobs N, -j N   worker threads for the experiment sweep\n"
          "                   (default: hardware concurrency)\n"
          "  --shards N       run every cell as a streaming world with N\n"
          "                   shard workers (default: the materialized\n"
          "                   single-threaded world; the streamed corpus is a\n"
          "                   separate golden universe, results are\n"
          "                   bit-identical across N)\n",
          argv[0]);
      std::exit(0);
    }
    const auto parse_count = [&](const char* text) {
      char* end = nullptr;
      const unsigned long value = std::strtoul(text, &end, 10);
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "%s: '%s' is not a count\n", argv[0], text);
        std::exit(2);
      }
      return static_cast<std::size_t>(value);
    };
    if (arg == "--jobs" || arg == "-j" || arg == "--shards") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a count\n", argv[0], arg.c_str());
        std::exit(2);
      }
      const std::size_t value = parse_count(argv[++i]);
      if (arg == "--shards") {
        options.shards = value;
      } else {
        options.jobs = value;
      }
      continue;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = parse_count(arg.c_str() + 7);
      continue;
    }
    if (arg.rfind("--shards=", 0) == 0) {
      options.shards = parse_count(arg.c_str() + 9);
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n", argv[0], arg.c_str());
    std::exit(2);
  }
  return options;
}

/// Applies `--shards N`: switches every cell to the streaming world with N
/// shard workers (shards == 0 leaves the cells untouched). Returns the
/// corpus pointer to hand to run_cells — nullptr for streaming runs, which
/// synthesize their own corpus from the cell's corpus parameters; the
/// streamed universe is golden-separate from the materialized one, but
/// bit-identical across every N (and every --jobs).
inline const biblio::Corpus* apply_shards(std::vector<sim::SimulationConfig>& cells,
                                          const biblio::Corpus* corpus,
                                          const BenchOptions& options) {
  if (options.shards == 0) return corpus;
  for (sim::SimulationConfig& cell : cells) {
    cell.streaming = true;
    cell.shards = options.shards;
  }
  return nullptr;
}

/// Submits the cells to the parallel sweep runner, prints the sweep timing
/// plus the one-line JSON summary, and returns per-cell results in
/// submission order (so tables print exactly as the sequential code did).
inline std::vector<sim::CellResult> run_cells(const std::string& bench_name,
                                              const std::vector<sim::SimulationConfig>& cells,
                                              const biblio::Corpus* corpus,
                                              const BenchOptions& options) {
  sim::SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  const sim::SweepRunner runner{sweep_options};
  sim::SweepSummary sweep = runner.run(cells, corpus);
  std::printf("[sweep] %s: %zu cells on %zu worker(s) in %.2fs\n", bench_name.c_str(),
              sweep.cells.size(), sweep.jobs, sweep.wall_seconds);
  std::printf("%s\n", sim::json_summary(bench_name, sweep).c_str());
  return std::move(sweep.cells);
}

/// The evaluation setup of Section V-E.
inline sim::SimulationConfig paper_config() {
  sim::SimulationConfig config;
  config.nodes = 500;
  config.queries = 50000;
  config.corpus.articles = 10000;
  config.corpus.authors = 2800;   // DBLP-like ~3.5 articles per author
  config.corpus.conferences = 60;
  config.seed = 7;
  return config;
}

/// Section-header banner.
inline void banner(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '=').c_str());
}

/// Prints one row of a fixed-width table.
inline void row(const std::string& label, const std::vector<std::string>& cells,
                int label_width = 22, int cell_width = 12) {
  std::printf("%-*s", label_width, label.c_str());
  for (const std::string& cell : cells) std::printf(" %*s", cell_width, cell.c_str());
  std::printf("\n");
}

inline std::string fmt(double value, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

inline std::string fmt_int(std::uint64_t value) {
  return std::to_string(value);
}

/// Percent with one decimal.
inline std::string fmt_pct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * fraction);
  return buf;
}

}  // namespace dhtidx::bench
