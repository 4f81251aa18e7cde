// Query interning: one immutable instance per distinct query.
//
// Every layer of the index used to pass queries around by value -- builder to
// service, service to per-node stores, node stores to the shortcut caches --
// so a popular query existed as thousands of deep copies, each re-deriving
// its canonical string and DHT key. A QueryInterner is an arena that stores
// exactly one immutable Query per canonical form; everything downstream keeps
// `const Query*` refs instead of copies, and pointer equality coincides with
// query equality for pointers produced by the same interner.
//
// Interned queries are returned with their canonical string and DHT key
// pre-computed, so concurrent readers never race on the lazy caches, and are
// never freed before the interner itself: erasing an index entry leaves the
// interned query behind (refs held elsewhere -- shortcut caches, replies in
// flight, audit snapshots -- stay valid for the interner's lifetime).
//
// Not thread-safe: each simulation cell owns its world (and therefore its
// interner); nothing concurrent ever writes one. The sharded build (DESIGN.md
// section 12) leans on exactly that split: concurrent produce-phase workers
// may *probe* the pool (find_existing), and only the driver's serial intern
// sub-phase ever grows it. That contract is expressed as a capability below
// (`intern_phase_`), so the DHTIDX_THREAD_SAFETY build statically rejects any
// new code path that writes the pool without declaring it runs in the serial
// phase.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "query/query.hpp"

namespace dhtidx::query {

/// Arena of canonical query instances.
class QueryInterner {
 public:
  QueryInterner() = default;
  QueryInterner(QueryInterner&&) = default;
  QueryInterner& operator=(QueryInterner&&) = default;
  QueryInterner(const QueryInterner&) = delete;
  QueryInterner& operator=(const QueryInterner&) = delete;

  /// The canonical instance equal to `q`, created on first sight. The
  /// returned query has its canonical string and DHT key pre-computed.
  /// Probes before copying: re-interning an already-pooled query (the steady
  /// state of republish and shortcut-refresh traffic) costs one hash lookup,
  /// no Query copy.
  const Query* intern(const Query& q) {
    const Query* existing = find_existing(q);
    return existing != nullptr ? existing : intern_impl(Query{q});
  }
  const Query* intern(Query&& q) { return intern_impl(std::move(q)); }

  /// The canonical instance equal to `q` when one exists, nullptr otherwise.
  /// Probe-only: never grows the pool (lookups of absent queries must not
  /// leak arena memory), so concurrent produce-phase workers may call it
  /// while the pool is frozen between serial intern sub-phases.
  const Query* find_existing(const Query& q) const {
    intern_phase_.assert_shared();  // reads are safe: pool frozen outside the serial phase
    const auto it = pool_.find(std::string_view{q.canonical()});
    return it == pool_.end() ? nullptr : it->second;
  }

  /// Number of distinct queries interned.
  std::size_t size() const {
    intern_phase_.assert_shared();
    return pool_.size();
  }

 private:
  const Query* intern_impl(Query&& q);

  /// The serial-intern-phase contract as a capability: the pool only grows
  /// while exactly one thread runs intern (single-threaded cells trivially;
  /// the sharded build's driver between produce barriers), and is read-only
  /// frozen whenever workers run concurrently.
  PhaseCapability intern_phase_;

  // The arena proper, in insertion order. A deque never relocates its
  // elements on push_back, and its move constructor and move assignment
  // hand the element blocks over as they are, so refs stay valid for the
  // interner's lifetime, across a move of the interner too. Teardown then
  // frees the queries in the order they were allocated.
  std::deque<Query> arena_ DHTIDX_GUARDED_BY(intern_phase_);
  // Probe table. Keys are views into each stored query's canonical cache,
  // which is immutable once the query is interned.
  // dhtidx-lint: allow(hot-path-map) "hash probe table keyed by canonical form; iteration order is never observed, so determinism is unaffected"
  std::unordered_map<std::string_view, const Query*> pool_ DHTIDX_GUARDED_BY(intern_phase_);
};

/// Epoch-scoped intern requests, shared by the sharded build's producers and
/// the lookup engine's cache-delta logs: the new (not yet pooled) queries a
/// worker emitted this epoch, in emission order, deduplicated by canonical
/// form, and resolved to interned refs by the serial intern sub-phase
/// between the parallel phases (DESIGN.md sections 12 and 15).
struct InternRequests {
  /// Transparent string hash: pending_index is probed with views.
  struct CanonicalHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  /// Marks a ref that was pooled at emission time (no pending slot).
  static constexpr std::uint32_t kNoPending = 0xFFFFFFFFu;

  /// Phase capability over the buffers: exclusive while the owning worker
  /// fills them (produce/lookup sub-phases) and while the driver interns
  /// (serial sub-phase); shared during apply, where any worker may read any
  /// owner's resolved refs concurrently — and must never mutate them.
  PhaseCapability phase_;
  /// New queries, in emission order.
  std::vector<Query> pending DHTIDX_GUARDED_BY(phase_);
  /// canonical -> idx into pending. Exact-key probes only, by string_view,
  /// so a probe copies nothing.
  // dhtidx-lint: allow(hot-path-map) "exact-key dedup probe table, never iterated; cleared every epoch"
  std::unordered_map<std::string, std::uint32_t, CanonicalHash, std::equal_to<>> pending_index
      DHTIDX_GUARDED_BY(phase_);
  /// pending[i] -> interned ref.
  std::vector<const Query*> resolved DHTIDX_GUARDED_BY(phase_);

  void reset() DHTIDX_REQUIRES(phase_) {
    pending.clear();
    pending_index.clear();
    resolved.clear();
  }

  /// Resolves `q` to either an already-pooled ref (read-only interner probe)
  /// or a worker-local pending slot. The probe is safe concurrently: the
  /// pool only grows in the serial intern sub-phase between parallel phases.
  void resolve(const QueryInterner& interner, Query&& q, const Query*& ref,
               std::uint32_t& pending_slot) DHTIDX_REQUIRES(phase_) {
    if (const Query* existing = interner.find_existing(q)) {
      ref = existing;
      pending_slot = kNoPending;
      return;
    }
    enqueue(std::move(q), ref, pending_slot);
  }

  /// resolve() without taking ownership: probes first and copies `q` only
  /// when it is genuinely new — the common case (an interned query flowing
  /// back through a recorded delta) costs one probe and zero copies.
  void resolve_copy(const QueryInterner& interner, const Query& q, const Query*& ref,
                    std::uint32_t& pending_slot) DHTIDX_REQUIRES(phase_) {
    if (const Query* existing = interner.find_existing(q)) {
      ref = existing;
      pending_slot = kNoPending;
      return;
    }
    enqueue(Query{q}, ref, pending_slot);
  }

  /// The serial intern sub-phase: the only writes the shared pool ever sees.
  /// intern() probes before inserting, so the same query pending in several
  /// workers resolves to one instance.
  void intern_all(QueryInterner& interner) DHTIDX_REQUIRES(phase_) {
    resolved.reserve(pending.size());
    for (Query& q : pending) {
      resolved.push_back(interner.intern(std::move(q)));
    }
  }

  /// The ref an operation resolved at emission time, or its post-intern
  /// resolution when the query was new this epoch.
  const Query* ref_of(const Query* direct, std::uint32_t pending_slot) const
      DHTIDX_REQUIRES_SHARED(phase_) {
    return direct != nullptr ? direct : resolved[pending_slot];
  }

 private:
  void enqueue(Query&& q, const Query*& ref, std::uint32_t& pending_slot)
      DHTIDX_REQUIRES(phase_) {
    const std::string& canonical = q.canonical();
    const auto it = pending_index.find(std::string_view{canonical});
    ref = nullptr;
    if (it != pending_index.end()) {
      pending_slot = it->second;
      return;
    }
    pending_slot = static_cast<std::uint32_t>(pending.size());
    pending_index.emplace(canonical, pending_slot);
    pending.push_back(std::move(q));
  }
};

}  // namespace dhtidx::query
