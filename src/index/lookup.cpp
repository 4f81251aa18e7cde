#include "index/lookup.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/error.hpp"
#include "net/stats.hpp"

namespace dhtidx::index {

using query::Query;

#ifdef DHTIDX_AUDIT
namespace {

/// Audit build: re-runs one hop's next-hop choice and response charge the
/// pre-filter way -- covers() on every target, byte_size() re-summed -- and
/// throws when the filtered loop of resolve() disagreed.
void cross_check_hop(const Id& node, const Query& key, const IndexNodeState::SourceEntry* entry,
                     const Query& target_msd, const Query* picked) {
  const Query* scanned = nullptr;
  std::uint64_t summed = 0;
  if (entry != nullptr) {
    for (const IndexNodeState::TargetRef& ref : entry->targets) {
      summed += ref.target->byte_size();
      const Query& t = *ref.target;
      if (t != target_msd && !t.covers(target_msd)) continue;
      if (scanned == nullptr || t.constraints().size() > scanned->constraints().size()) {
        scanned = ref.target;
      }
    }
  }
  const std::uint64_t charged = entry != nullptr ? entry->targets.byte_size() : 0;
  if (scanned == picked && summed == charged) return;
  const auto name = [](const Query* pick) {
    return pick == nullptr ? std::string{"none"} : "'" + std::string{pick->canonical()} + "'";
  };
  throw InvariantError("next hop at node " + node.brief() + " for key '" +
                       std::string{key.canonical()} + "': filtered pick " + name(picked) +
                       ", scan pick " + name(scanned) + ", charged " + std::to_string(charged) +
                       " B, re-summed " + std::to_string(summed) + " B");
}

}  // namespace
#endif

void CacheDeltaLog::reset() {
  interns.phase_.assert_exclusive();  // same phase structure as the owner
  interns.reset();
  for (std::vector<Delta>& queue : queues_) queue.clear();
  vt_ = 0;
  seq_ = 0;
}

void CacheDeltaLog::record(Delta::Kind kind, const Id& node, const Query& source,
                           const Query& target) {
  phase_.assert_exclusive();  // one session records at a time, its worker alone
  interns.phase_.assert_exclusive();
  Delta delta;
  delta.vt = vt_;
  delta.seq = seq_++;
  delta.kind = kind;
  delta.node = node;
  interns.resolve_copy(interner_, source, delta.source, delta.source_pending);
  interns.resolve_copy(interner_, target, delta.target, delta.target_pending);
  queues_[shard_of_ ? shard_of_(node) : 0].push_back(delta);
}

void CacheDeltaLog::apply(const Delta& delta, ShortcutCache& cache,
                          net::TrafficLedger& ledger, net::MessageBus* bus) const {
  interns.phase_.assert_shared();  // resolved refs are read-only from here on
  const Query* source = interns.ref_of(delta.source, delta.source_pending);
  const Query* target = interns.ref_of(delta.target, delta.target_pending);
  switch (delta.kind) {
    case Delta::Kind::kTouch:
      // An earlier delta may have evicted or invalidated the entry since the
      // hit; the touch is then a no-op.
      cache.touch_interned(source, target);
      break;
    case Delta::Kind::kInstall:
      if (cache.insert_interned(source, target)) {
        ledger.cache.record(source->byte_size() + target->byte_size() +
                            net::kMessageOverheadBytes);
        if (bus != nullptr) {
          net::Message install =
              net::Message::request(net::Action::kShortcut, Id{}, delta.node);
          install.payload.push_back(source->canonical());
          install.payload.push_back(target->canonical());
          bus->post(std::move(install), [](const net::Message&) {});
        }
      }
      break;
    case Delta::Kind::kInvalidate:
      // Idempotent: two sessions of one epoch may have jumped on the same
      // stale entry; the second erase finds nothing.
      cache.erase_interned(source, target);
      break;
  }
}

LookupOutcome LookupEngine::resolve(const Query& initial, const Query& target_msd) {
  // Epoch length 1: record into the engine's own log, then intern and apply
  // it, so the next session sees this one's shortcuts.
  session_log_.phase_.assert_exclusive();  // the engine's private log
  session_log_.reset();
  const LookupOutcome outcome = resolve(initial, target_msd, session_log_);
  const std::vector<CacheDeltaLog::Delta>& deltas = session_log_.queue(0);
  if (deltas.empty()) return outcome;
  session_log_.interns.phase_.assert_exclusive();
  session_log_.interns.intern_all(service_.interner());
  net::TrafficLedger& ledger = service_.active_ledger();
  for (const CacheDeltaLog::Delta& delta : deltas) {
    session_log_.apply(delta, service_.state_at(delta.node).cache(), ledger, service_.bus());
  }
  return outcome;
}

LookupOutcome LookupEngine::resolve(const Query& initial, const Query& target_msd,
                                    CacheDeltaLog& log) {
  LookupOutcome outcome;
  net::TrafficLedger& ledger = service_.active_ledger();
  // (node, query asked there) for every index node on the successful path;
  // shortcut creation replays this chain. The walk passes `const Query*` refs
  // throughout: index targets are interner-owned, generalizations live in
  // `scratch` (a deque, so addresses are stable), and each query's canonical
  // form and DHT key are computed at most once for the whole session.
  std::vector<std::pair<Id, const Query*>> asked;
  // Set while the current q == target_msd was reached through a shortcut jump
  // from (node, query): a failed fetch then invalidates that shortcut and the
  // session resumes the normal walk from the jump origin instead of failing.
  std::optional<std::pair<Id, const Query*>> jumped_from;
  std::deque<Query> scratch;
  // What this session reads of the caches: everything but the entries it
  // invalidated itself, whose erase waits in the log.
  HiddenShortcuts hidden;
  const HiddenShortcuts* cache_view = caching_enabled(config_.policy) ? &hidden : nullptr;
  // Cover bits of the target: a target whose plain constraints are not all
  // among them cannot cover it (query::required_bits), so the next-hop loop
  // skips it without calling covers().
  const std::uint64_t present = query::present_bits(target_msd);

  const Query* q = &initial;
  while (outcome.interactions < config_.max_interactions) {
    if (*q == target_msd) {
      // Final step: fetch the file from the storage layer (the Publication
      // index of Figure 5). DhtStore::get accounts its own traffic and fails
      // over across storage replicas itself.
      const auto got = store_.get(q->key());
      ++outcome.interactions;
      outcome.rpc_failures += got.rpc_failures;
      outcome.visited_nodes.push_back(got.node);
      outcome.found = !got.records->empty();
      if (outcome.found) {
        create_shortcuts(asked, target_msd, log);
        break;
      }
      if (jumped_from) {
        // Stale shortcut: the jump promised a file that is not there (crashed
        // or departed storage). Drop the entry so later sessions stop jumping
        // into the void, and fall back to the normal walk from where the jump
        // happened. The jump proves the entry is in the cache this session
        // reads, so the notice is charged and sent now; the session stops
        // seeing the entry at once, the cache when the log is applied.
        const auto& [origin, source] = *jumped_from;
        log.record(CacheDeltaLog::Delta::Kind::kInvalidate, origin, *source, target_msd);
        hidden.hide(origin, *source, target_msd);
        ledger.cache.record(net::kMessageOverheadBytes);  // invalidation notice
        if (net::MessageBus* bus = service_.bus(); bus != nullptr) {
          // Wire record of the invalidation: a shortcut message with
          // kNotFound status drops the entry (PROTOCOL.md).
          net::Message notice = net::Message::request(net::Action::kShortcut, Id{}, origin);
          notice.status = net::Status::kNotFound;
          notice.payload.push_back(source->canonical());
          notice.payload.push_back(target_msd.canonical());
          bus->post(std::move(notice), [](const net::Message&) {});
        }
        ++outcome.stale_shortcuts;
        outcome.cache_hit = false;
        outcome.cache_hit_position = 0;
        q = jumped_from->second;
        jumped_from.reset();
        continue;
      }
      if (got.unreachable) outcome.unreachable = true;
      break;
    }

    const auto contact = service_.contact(*q, cache_view);
    outcome.rpc_failures += contact.rpc_failures;
    ++outcome.interactions;
    outcome.visited_nodes.push_back(contact.node);
    if (contact.unreachable) {
      // No replica of this key answered within the retry budget. The walk
      // cannot continue past a dead key (every covering path routes through
      // it); report the partial session instead of throwing.
      outcome.unreachable = true;
      break;
    }
    const Id node = contact.node;

    // The shortcut cache is consulted by the node before the regular index;
    // a hit answers with the target descriptor directly.
    bool key_has_cache_entries = false;
    if (cache_view != nullptr && contact.state != nullptr) {
      const auto cached = hidden.visible(contact.state->cache(), node, *q);
      key_has_cache_entries = !cached.empty();
      const Query* hit = nullptr;
      for (const Query* t : cached) {
        if (*t == target_msd) {
          hit = t;
          break;
        }
      }
      if (hit != nullptr) {
        log.record(CacheDeltaLog::Delta::Kind::kTouch, node, *q, target_msd);
        ledger.cache.record(target_msd.byte_size() + net::kMessageOverheadBytes);
        if (!outcome.cache_hit) {
          outcome.cache_hit = true;
          outcome.cache_hit_position = static_cast<int>(outcome.visited_nodes.size());
        }
        asked.emplace_back(node, q);
        jumped_from = std::pair{node, q};
        q = hit;  // jump straight to the file (interned instance of the MSD)
        continue;
      }
    }

    const IndexNodeState::SourceEntry* entry =
        contact.state != nullptr ? contact.state->entry_of(*q) : nullptr;
    ledger.responses.record(net::kMessageOverheadBytes +
                            (entry != nullptr ? entry->targets.byte_size() : 0));

    // The user picks the result that matches the article they are after: the
    // one covering (or equal to) the target MSD. Among several matches the
    // most specific wins, so short-circuit entries (direct MSD links for
    // popular content, Section IV-C) take precedence over intermediate keys.
    const Query* next = nullptr;
    if (entry != nullptr) {
      for (const IndexNodeState::TargetRef& ref : entry->targets) {
        if ((ref.required & ~present) != 0) continue;  // provably not covering
        const Query& t = *ref.target;
        if (t != target_msd && !t.covers(target_msd)) continue;
        if (next == nullptr || t.constraints().size() > next->constraints().size()) {
          next = ref.target;
        }
      }
    }
#ifdef DHTIDX_AUDIT
    cross_check_hop(node, *q, entry, target_msd, next);
#endif
    if (next != nullptr) {
      asked.emplace_back(node, q);
      q = next;
      continue;
    }

    // Miss: generalize by dropping one field group and retrying
    // (Section IV-B). A query counts as an error for Table I only when its
    // key is absent from every index on the node -- regular and cache alike:
    // "an index entry is created automatically after the first lookup;
    // subsequent queries from other users can locate the data using the
    // cache entry, and hence do not experience an error" (Section V-E h).
    if (entry == nullptr && !key_has_cache_entries) outcome.non_indexed = true;
    std::vector<Query> candidates = generalization_candidates(*q);
    Query* fallback = nullptr;
    for (Query& g : candidates) {
      if (g.covers(target_msd)) {
        fallback = &g;
        break;
      }
    }
    if (fallback == nullptr) break;  // nothing left to drop: clean miss
    // Remember the non-indexed query's node: after success a shortcut is
    // created there, so later users asking the same query avoid the error
    // ("the cache reduces the number of errors", Section V-E h).
    asked.emplace_back(node, q);
    ++outcome.generalization_steps;
    // The same generalization recurs across sessions; reuse the interned
    // instance (warm canonical + key) when the index already knows it.
    if (const Query* interned = service_.interner().find_existing(*fallback)) {
      q = interned;
    } else {
      scratch.push_back(std::move(*fallback));
      q = &scratch.back();
    }
  }
  if (!outcome.found && outcome.interactions >= config_.max_interactions) {
    outcome.gave_up = true;  // budget exhausted, distinct from a clean miss
  }
  outcome.degraded = outcome.rpc_failures > 0;
  return outcome;
}

std::vector<Query> LookupEngine::generalization_candidates(const Query& q) {
  // Group constraint indices by their top-level field.
  // dhtidx-lint: allow(hot-path-map) "sorted field order drives the deterministic generalization sequence; a handful of entries per query"
  std::map<std::string_view, std::vector<std::size_t>> groups;
  const auto& constraints = q.constraints();
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    groups[constraints[i].first_step()].push_back(i);
  }
  if (groups.size() <= 1) return {};  // dropping the only field leaves nothing

  std::vector<Query> candidates;
  candidates.reserve(groups.size());
  for (const auto& [field, indices] : groups) {
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < constraints.size(); ++i) {
      if (std::find(indices.begin(), indices.end(), i) == indices.end()) keep.push_back(i);
    }
    candidates.push_back(q.keep_constraints(keep));
  }
  // Prefer dropping the field that loses the fewest constraints (keeps the
  // query as selective as possible); tie-break on canonical form for
  // determinism.
  std::stable_sort(candidates.begin(), candidates.end(), [](const Query& a, const Query& b) {
    if (a.constraints().size() != b.constraints().size()) {
      return a.constraints().size() > b.constraints().size();
    }
    return a.canonical() < b.canonical();
  });
  return candidates;
}

void LookupEngine::create_shortcuts(const std::vector<std::pair<Id, const Query*>>& asked,
                                    const Query& target_msd, CacheDeltaLog& log) {
  if (!caching_enabled(config_.policy) || asked.empty()) return;
  net::FailureInjector* failures = service_.failures();
  const std::size_t count = multi_placement(config_.policy) ? asked.size() : 1;
  for (std::size_t i = 0; i < count; ++i) {
    const auto& [node, q] = asked[i];
    if (*q == target_msd) continue;  // no point shortcutting the MSD to itself
    if (failures != nullptr && failures->is_crashed(node)) continue;  // dead, no cache
    log.record(CacheDeltaLog::Delta::Kind::kInstall, node, *q, target_msd);
  }
}

std::vector<Query> LookupEngine::search_range(const Query& base,
                                              std::string_view field_path, long lo,
                                              long hi, int depth_limit) {
  std::vector<Query> results;
  std::set<std::string> seen;
  for (long value = lo; value <= hi; ++value) {
    Query q = base;
    q.add_field(field_path, std::to_string(value));
    for (Query& msd : search_all(q, depth_limit)) {
      if (seen.insert(std::string{msd.canonical()}).second) results.push_back(std::move(msd));
    }
  }
  std::sort(results.begin(), results.end());
  return results;
}

std::vector<Query> LookupEngine::search_all(const Query& initial, int depth_limit,
                                            SearchStats* stats) {
  std::vector<Query> results = search_tree(initial, depth_limit, stats);
  if (!results.empty()) return results;
  // The query may simply not be indexed: generalize, search the broader
  // query, and keep only the descriptors the original query covers
  // (Section IV-B's generalization/specialization, automated).
  for (const Query& g : generalization_candidates(initial)) {
    std::vector<Query> broader = search_all(g, depth_limit, stats);
    if (broader.empty()) continue;
    std::vector<Query> filtered;
    for (Query& msd : broader) {
      if (initial.covers(msd)) filtered.push_back(std::move(msd));
    }
    return filtered;
  }
  return {};
}

std::vector<Query> LookupEngine::search_tree(const Query& initial, int depth_limit,
                                             SearchStats* stats) {
  std::vector<Query> results;
  // Walk on interned refs: reply targets come from the service's interner, so
  // the seen-set is pointer identity. The start query is resolved to its
  // interned instance when the index knows it; when it does not, no interned
  // target can equal it either, so mixing in its plain address stays exact.
  const Query* start = service_.interner().find_existing(initial);
  if (start == nullptr) start = &initial;
  std::unordered_set<const Query*> seen{start};
  std::vector<std::pair<const Query*, int>> frontier{{start, 0}};
  while (!frontier.empty()) {
    const auto [q, depth] = frontier.back();
    frontier.pop_back();
    if (depth > depth_limit) continue;
    // Accounts its own traffic; tagged kSearchAll so measured traffic can
    // attribute exhaustive-search descent separately from direct lookups.
    const auto reply = service_.lookup(*q, net::Action::kSearchAll);
    if (stats != nullptr) stats->rpc_failures += reply.rpc_failures;
    if (reply.unreachable) {
      // This branch of the index tree is currently dark: return the rest of
      // the result set as partial instead of failing the whole search.
      if (stats != nullptr) {
        ++stats->unreachable_nodes;
        stats->complete = false;
      }
      continue;
    }
    if (reply.targets.empty()) {
      // Leaf of the index graph: if a file record exists here, q is an MSD.
      const auto got = store_.get(q->key());
      if (stats != nullptr) stats->rpc_failures += got.rpc_failures;
      if (got.unreachable) {
        if (stats != nullptr) {
          ++stats->unreachable_nodes;
          stats->complete = false;
        }
        continue;
      }
      if (!got.records->empty()) results.push_back(*q);
      continue;
    }
    for (const Query* t : reply.targets) {
      if (seen.insert(t).second) frontier.emplace_back(t, depth + 1);
    }
  }
  std::sort(results.begin(), results.end());
  return results;
}

std::size_t LookupEngine::purge_stale_shortcuts() {
  std::size_t purged = 0;
  for (auto& [node, state] : service_.states()) {
    // Collect by value first: erase() mutates the structures entries() points
    // into.
    std::vector<std::pair<Query, Query>> stale;
    for (const auto& [source, target] : state.cache().entries()) {
      if (!store_.has_record(target->key())) stale.emplace_back(*source, *target);
    }
    for (const auto& [source, target] : stale) {
      if (state.cache().erase(source, target)) ++purged;
    }
  }
  return purged;
}

}  // namespace dhtidx::index
