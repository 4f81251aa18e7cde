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
// An interned query is one Query buffer (query.hpp) with its DHT key
// pre-computed, so concurrent readers never race on the key memo. It is
// never freed before the interner itself: erasing an index entry leaves the
// interned query behind (refs held elsewhere -- shortcut caches, replies in
// flight, audit snapshots -- stay valid for the interner's lifetime). The
// probe table is a CanonicalIndex: (hash32, arena index) slots, probed with
// a cheap hash of the canonical bytes rather than the SHA-1 key, since most
// probes hit a query that is already pooled and need no key at all.
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
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"
#include "query/query.hpp"

namespace dhtidx::query {

/// Open-addressing probe table over queries stored elsewhere in insertion
/// order (the interner's arena, an epoch's pending list): linear probing over
/// (hash32, index) slots, a power-of-two capacity at most 3/4 full. A probe
/// compares canonical bytes only on a 32-bit hash match; growing rehashes
/// from the stored hashes alone.
class CanonicalIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  /// The probe hash of a canonical form.
  static std::uint32_t hash(std::string_view canonical) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(canonical));
  }

  /// The index i with entries[i].canonical() == canonical, or kAbsent.
  /// `entries` is the sequence the indices refer to.
  template <typename Entries>
  std::uint32_t find(std::string_view canonical, std::uint32_t hash,
                     const Entries& entries) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t at = hash & mask;; at = (at + 1) & mask) {
      const Slot& slot = slots_[at];
      if (slot.index == kAbsent) return kAbsent;
      if (slot.hash == hash && entries[slot.index].canonical() == canonical) return slot.index;
    }
  }

  /// Adds entry `index`, which find() does not know yet, under `hash`.
  void insert(std::uint32_t hash, std::uint32_t index);

  /// Forgets every entry; keeps the capacity.
  void clear();

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t index = kAbsent;
  };

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Arena of canonical query instances.
class QueryInterner {
 public:
  QueryInterner() = default;
  QueryInterner(QueryInterner&&) = default;
  QueryInterner& operator=(QueryInterner&&) = default;
  QueryInterner(const QueryInterner&) = delete;
  QueryInterner& operator=(const QueryInterner&) = delete;

  /// The canonical instance equal to `q`, created on first sight. The
  /// returned query has its DHT key pre-computed. Probes before copying:
  /// re-interning an already-pooled query (the steady state of republish and
  /// shortcut-refresh traffic) costs one probe, no Query copy.
  const Query* intern(const Query& q) {
    const std::uint32_t hash = CanonicalIndex::hash(q.canonical());
    const Query* existing = find_existing(q, hash);
    return existing != nullptr ? existing : insert(Query{q}, hash);
  }
  const Query* intern(Query&& q) {
    const std::uint32_t hash = CanonicalIndex::hash(q.canonical());
    const Query* existing = find_existing(q, hash);
    return existing != nullptr ? existing : insert(std::move(q), hash);
  }

  /// The canonical instance equal to `q` when one exists, nullptr otherwise.
  /// Probe-only: never grows the pool (lookups of absent queries must not
  /// leak arena memory), so concurrent produce-phase workers may call it
  /// while the pool is frozen between serial intern sub-phases.
  const Query* find_existing(const Query& q) const {
    return find_existing(q, CanonicalIndex::hash(q.canonical()));
  }
  /// find_existing() with the probe hash of `q`'s canonical form given.
  const Query* find_existing(const Query& q, std::uint32_t hash) const {
    intern_phase_.assert_shared();  // reads are safe: pool frozen outside the serial phase
    const std::uint32_t at = index_.find(q.canonical(), hash, arena_);
    return at == CanonicalIndex::kAbsent ? nullptr : &arena_[at];
  }

  /// Number of distinct queries interned.
  std::size_t size() const {
    intern_phase_.assert_shared();
    return arena_.size();
  }

 private:
  /// Appends `q`, known to be absent, and pre-warms its key.
  const Query* insert(Query&& q, std::uint32_t hash);

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
  // Probe table over arena_ indices.
  CanonicalIndex index_ DHTIDX_GUARDED_BY(intern_phase_);
};

/// Epoch-scoped intern requests, shared by the sharded build's producers and
/// the lookup engine's cache-delta logs: the new (not yet pooled) queries a
/// worker emitted this epoch, in emission order, deduplicated by canonical
/// form, and resolved to interned refs by the serial intern sub-phase
/// between the parallel phases (DESIGN.md sections 12 and 15).
struct InternRequests {
  /// Marks a ref that was pooled at emission time (no pending slot).
  static constexpr std::uint32_t kNoPending = 0xFFFFFFFFu;

  /// Phase capability over the buffers: exclusive while the owning worker
  /// fills them (produce/lookup sub-phases) and while the driver interns
  /// (serial sub-phase); shared during apply, where any worker may read any
  /// owner's resolved refs concurrently — and must never mutate them.
  PhaseCapability phase_;
  /// New queries, in emission order.
  std::vector<Query> pending DHTIDX_GUARDED_BY(phase_);
  /// Probe table over `pending` indices.
  CanonicalIndex pending_index DHTIDX_GUARDED_BY(phase_);
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
    const std::uint32_t hash = CanonicalIndex::hash(q.canonical());
    if (const Query* existing = interner.find_existing(q, hash)) {
      ref = existing;
      pending_slot = kNoPending;
      return;
    }
    enqueue(std::move(q), hash, ref, pending_slot);
  }

  /// resolve() without taking ownership: probes first and copies `q` only
  /// when it is genuinely new — the common case (an interned query flowing
  /// back through a recorded delta) costs one probe and zero copies.
  void resolve_copy(const QueryInterner& interner, const Query& q, const Query*& ref,
                    std::uint32_t& pending_slot) DHTIDX_REQUIRES(phase_) {
    const std::uint32_t hash = CanonicalIndex::hash(q.canonical());
    if (const Query* existing = interner.find_existing(q, hash)) {
      ref = existing;
      pending_slot = kNoPending;
      return;
    }
    enqueue(Query{q}, hash, ref, pending_slot);
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
  void enqueue(Query&& q, std::uint32_t hash, const Query*& ref, std::uint32_t& pending_slot)
      DHTIDX_REQUIRES(phase_) {
    ref = nullptr;
    pending_slot = pending_index.find(q.canonical(), hash, pending);
    if (pending_slot != CanonicalIndex::kAbsent) return;
    pending_slot = static_cast<std::uint32_t>(pending.size());
    pending_index.insert(hash, pending_slot);
    pending.push_back(std::move(q));
  }
};

}  // namespace dhtidx::query
