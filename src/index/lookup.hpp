// Lookup engine (Sections IV-B and IV-C).
//
// resolve() simulates one user session: starting from an initial (usually
// broad) query, the user iteratively asks the index service for more specific
// queries, picking at each step the result that matches the article they are
// after, until the MSD is reached and the file fetched. Along the way the
// engine
//   - consults the shortcut caches and "jumps" on a hit,
//   - falls back to generalization when the query is not indexed
//     ("locating non-indexed data", the source of Table I's error counts),
//   - creates shortcut entries after success, per the configured policy.
// Cache mutations go through a CacheDeltaLog, applied at the end of the
// session or, in the sharded feed, at the end of the epoch.
//
// search_all() is the automated mode: it exhaustively explores the index
// below a query and returns every reachable MSD, for applications that want
// full result sets rather than a directed walk.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/id.hpp"
#include "common/thread_annotations.hpp"
#include "index/cache.hpp"
#include "index/service.hpp"
#include "query/query.hpp"
#include "storage/dht_store.hpp"

namespace dhtidx::index {

/// The shortcut-cache mutations lookup sessions record (DESIGN.md section
/// 15.1). resolve() never mutates a cache while it walks: every touch,
/// install and invalidation becomes a (vt, seq)-tagged delta -- vt the
/// session's virtual time, seq its emission order within the session --
/// queued for the shard that owns the delta's node, and queries the shared
/// pool has not seen become intern requests. A log reaches the caches in two
/// steps: interns.intern_all() (serial), then apply() on every delta in
/// (vt, seq) order. resolve() without a log runs exactly that on the
/// engine's own log before it returns (epoch length 1); the sharded feed
/// hands each worker an epoch log and applies them all at the barrier.
class CacheDeltaLog {
 public:
  struct Delta {
    enum class Kind : std::uint8_t {
      kTouch,       ///< a hit promoted the entry to most recently used
      kInstall,     ///< shortcut creation after a successful session
      kInvalidate,  ///< a failed jump dropped the stale entry
    };

    std::uint64_t vt = 0;
    std::uint32_t seq = 0;
    Kind kind = Kind::kTouch;
    Id node;  ///< the node whose cache this delta applies to
    // Interned refs when the query was pooled at record time, else slots in
    // the log's intern requests.
    const query::Query* source = nullptr;
    const query::Query* target = nullptr;
    std::uint32_t source_pending = query::InternRequests::kNoPending;
    std::uint32_t target_pending = query::InternRequests::kNoPending;
  };

  /// Records against `interner` (probe-only). `shard_of` maps a node to the
  /// shard owning its cache, one queue per shard; without it there is one.
  explicit CacheDeltaLog(const query::QueryInterner& interner, std::size_t shards = 1,
                         std::function<std::size_t(const Id&)> shard_of = {})
      : interner_(interner), shard_of_(std::move(shard_of)), queues_(shards) {}

  /// Phase capability over the buffers: exclusive while one session records
  /// (the owning worker) and while the driver interns; shared during apply,
  /// where every applier reads any log's queues.
  PhaseCapability phase_;
  query::InternRequests interns;

  /// Empties the log for the next epoch, keeping its buffers.
  void reset() DHTIDX_REQUIRES(phase_);

  /// Stamps the virtual time of the session about to record.
  void begin_session(std::uint64_t vt) DHTIDX_REQUIRES(phase_) {
    vt_ = vt;
    seq_ = 0;
  }

  void record(Delta::Kind kind, const Id& node, const query::Query& source,
              const query::Query& target);

  /// The deltas addressed to `shard`, (vt, seq)-sorted by construction.
  const std::vector<Delta>& queue(std::size_t shard) const DHTIDX_REQUIRES_SHARED(phase_) {
    return queues_[shard];
  }

  /// Applies one of this log's deltas to `cache`, the cache of delta.node,
  /// once the interns are resolved: the only place a session's shortcut
  /// mutations reach a cache. An install charges `ledger` and posts the
  /// kShortcut message on `bus` (when attached) only when it creates an
  /// entry; the invalidation notice was charged and posted when recorded.
  void apply(const Delta& delta, ShortcutCache& cache, net::TrafficLedger& ledger,
             net::MessageBus* bus) const DHTIDX_REQUIRES_SHARED(phase_);

 private:
  const query::QueryInterner& interner_;
  std::function<std::size_t(const Id&)> shard_of_;
  std::vector<std::vector<Delta>> queues_ DHTIDX_GUARDED_BY(phase_);
  std::uint64_t vt_ DHTIDX_GUARDED_BY(phase_) = 0;
  std::uint32_t seq_ DHTIDX_GUARDED_BY(phase_) = 0;
};

/// Lookup behaviour configuration.
struct LookupConfig {
  CachePolicy policy = CachePolicy::kNone;
  /// Hard bound on user-system interactions before giving up.
  int max_interactions = 32;
};

/// What happened during one resolve() session.
struct LookupOutcome {
  bool found = false;
  int interactions = 0;        ///< user-system rounds, including the file fetch
  bool cache_hit = false;      ///< a shortcut ended the search
  int cache_hit_position = 0;  ///< 1-based index of the hit node in the chain
  bool non_indexed = false;    ///< the initial query was not in any index
  int generalization_steps = 0;  ///< extra interactions spent generalizing
  std::vector<Id> visited_nodes;  ///< nodes contacted, in order (incl. storage)

  // Failure bookkeeping (zeros on a healthy network). `found == false` alone
  // conflates three distinct endings; the flags below separate them:
  // a clean miss (all false), an exhausted interaction budget (gave_up), and
  // a node with no reachable replica (unreachable).
  int rpc_failures = 0;       ///< delivery attempts that failed along the walk
  bool degraded = false;      ///< at least one failed attempt (session still ran)
  bool gave_up = false;       ///< max_interactions exhausted before finding
  bool unreachable = false;   ///< a required key had no reachable replica
  int stale_shortcuts = 0;    ///< shortcuts invalidated after a failed jump
};

/// Directed and exhaustive lookups over a distributed index.
class LookupEngine {
 public:
  /// All references must outlive the engine.
  LookupEngine(IndexService& service, storage::DhtStore& store, LookupConfig config)
      : service_(service), store_(store), config_(config), session_log_(service.interner()) {}

  const LookupConfig& config() const { return config_; }

  /// Resolves the article whose MSD is `target_msd`, starting from `initial`.
  /// `initial` must cover `target_msd` (the user's query matches the article
  /// they want); otherwise the lookup fails cleanly with found == false.
  /// The session's cache mutations are applied before this returns, so each
  /// session sees every earlier one's shortcuts (the sequential feed).
  LookupOutcome resolve(const query::Query& initial, const query::Query& target_msd);

  /// resolve() against frozen caches: the session's cache mutations are
  /// recorded into `log` under its current session stamp and reach no cache
  /// until the caller applies the log (the sharded feed's lookup sub-phase).
  /// Either way a session never sees a shortcut it invalidated itself.
  LookupOutcome resolve(const query::Query& initial, const query::Query& target_msd,
                        CacheDeltaLog& log);

  /// Failure bookkeeping for one exhaustive search. When branches of the
  /// index tree sat on unreachable nodes the result set is partial
  /// (`complete == false`) instead of the search throwing mid-walk.
  struct SearchStats {
    int rpc_failures = 0;
    int unreachable_nodes = 0;
    bool complete = true;
  };

  /// Exhaustive search: every MSD reachable from `initial` through the index
  /// (automated mode: "the system recursively explores the indexes and
  /// returns all the file descriptors that match the original query").
  /// Non-indexed queries are generalized and the broader result set filtered
  /// back down to the original query. `depth_limit` bounds the recursion.
  /// `stats` (optional) reports failed hops and whether the set is complete.
  std::vector<query::Query> search_all(const query::Query& initial, int depth_limit = 8,
                                       SearchStats* stats = nullptr);

  /// Range search over an integer-valued field: both query logs the paper
  /// studies include publication-date intervals ("published before/after a
  /// given year"). The DHT only supports exact keys, so the range is
  /// expanded client-side into one query per value in [lo, hi], and results
  /// are unioned. `base` provides the other constraints (may be root-only).
  std::vector<query::Query> search_range(const query::Query& base,
                                         std::string_view field_path, long lo, long hi,
                                         int depth_limit = 8);

  /// Maintenance sweep: drops every shortcut whose target MSD no longer has a
  /// stored record on any replica (stale after crashes or removals). Returns
  /// the number of shortcuts dropped. Traffic-free, like rebalance().
  std::size_t purge_stale_shortcuts();

 private:
  /// Generalization candidates for a non-indexed query, best first: drop one
  /// top-level field group at a time, preferring to keep more constraints.
  static std::vector<query::Query> generalization_candidates(const query::Query& q);

  /// The index-walking part of search_all (no generalization fallback).
  std::vector<query::Query> search_tree(const query::Query& initial, int depth_limit,
                                        SearchStats* stats);

  void create_shortcuts(const std::vector<std::pair<Id, const query::Query*>>& asked,
                        const query::Query& target_msd, CacheDeltaLog& log);

  IndexService& service_;
  storage::DhtStore& store_;
  LookupConfig config_;
  CacheDeltaLog session_log_;  ///< the epoch-length-1 log of resolve()
};

}  // namespace dhtidx::index
