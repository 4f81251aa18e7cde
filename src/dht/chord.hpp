// Chord distributed hash table (Stoica et al., SIGCOMM 2001).
//
// A faithful single-process implementation of the protocol the paper cites as
// its reference substrate: 160-bit identifier circle, finger tables,
// successor lists, periodic stabilization, and iterative key resolution.
// Inter-node calls go through ChordNetwork::rpc, which accounts routing
// traffic and applies failure injection, so protocol behaviour under churn is
// observable and testable.
//
// The simulation in src/sim uses the cheaper Ring view instead (the paper's
// Section V-E argues substrate choice does not affect indexing metrics);
// ChordNetwork exists so the full stack can run end-to-end and so the
// substrate-independence claim can be validated (bench/ablation_substrate).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/id.hpp"
#include "common/rng.hpp"
#include "dht/dht.hpp"
#include "net/failure.hpp"
#include "net/latency.hpp"
#include "net/stats.hpp"

namespace dhtidx::dht {

class ChordNetwork;

/// One Chord peer. Created and owned by a ChordNetwork.
class ChordNode {
 public:
  static constexpr std::size_t kFingerCount = Id::kBits;
  static constexpr std::size_t kSuccessorListLength = 8;

  ChordNode(Id id, ChordNetwork* network) : id_(id), network_(network) {}

  const Id& id() const { return id_; }
  bool alive() const { return alive_; }

  /// Current first live successor. Falls back through the successor list,
  /// pinging entries; repairs the list in passing.
  Id successor();

  const std::vector<Id>& successor_list() const { return successors_; }
  const std::optional<Id>& predecessor() const { return predecessor_; }
  std::optional<Id> finger(std::size_t i) const { return fingers_.at(i); }

  /// Resolves the node responsible for `key`, counting overlay hops into
  /// `hops`. May route through other nodes via RPC.
  Id find_successor(const Id& key, int& hops);

  /// The finger (or successor-list entry) closest to but preceding `key`.
  Id closest_preceding(const Id& key) const;

  // --- protocol maintenance (driven by ChordNetwork) ---

  /// Bootstraps this node as the first member of the ring.
  void create();

  /// Joins via an existing member.
  void join(const Id& bootstrap);

  /// Verifies the immediate successor and notifies it (Chord's stabilize).
  void stabilize();

  /// Candidate predecessor notification from another node.
  void notify(const Id& candidate);

  /// Clears the predecessor if it stopped responding.
  void check_predecessor();

  /// Refreshes `count` finger-table entries starting from an internal cursor.
  void fix_fingers(std::size_t count);

  /// Drops every reference to a node observed dead.
  void forget(const Id& node);

  /// Tells neighbours about this node's departure (graceful leave).
  void leave_gracefully();

 private:
  friend class ChordNetwork;

  void set_successor_front(const Id& node);
  void adopt_successor_list(const Id& head, const std::vector<Id>& rest);

  Id id_;
  ChordNetwork* network_;
  bool alive_ = true;
  std::optional<Id> predecessor_;
  std::vector<Id> successors_;  // front = immediate successor
  std::array<std::optional<Id>, kFingerCount> fingers_{};
  std::size_t next_finger_ = 0;
};

/// A complete simulated Chord overlay.
class ChordNetwork : public Dht {
 public:
  explicit ChordNetwork(std::uint64_t seed = 0xc402d);

  /// Adds a node with the given name (id = SHA-1(name)) and joins it through
  /// a random existing member. Returns its id. The ring is usable after
  /// stabilization; call stabilize_until_converged() or stabilize rounds.
  Id add_node(const std::string& name);

  /// Adds a node with an explicit id (tests use predictable positions).
  Id add_node_with_id(const Id& id);

  /// Crashes a node without warning. Its state stays around (dead) so RPCs
  /// to it fail realistically until neighbours repair.
  void crash(const Id& id);

  /// Graceful departure: the node hands its neighbours over before leaving.
  void leave(const Id& id);

  /// Runs one maintenance round on every live node (stabilize, notify,
  /// check_predecessor, and `fingers_per_round` finger refreshes each).
  void stabilize_round(std::size_t fingers_per_round = 16);

  /// Runs maintenance rounds until the ring is correct w.r.t. the live
  /// membership or `max_rounds` is hit. Returns the number of rounds used,
  /// or -1 when it did not converge.
  int stabilize_until_converged(int max_rounds = 256);

  /// True when every live node's successor pointer matches the sorted live
  /// membership (the Chord correctness invariant).
  bool ring_correct() const;

  // Dht interface: resolves from a random live node.
  LookupResult lookup(const Id& key) override;
  std::optional<Rng> lookup_rng() const override { return rng_; }
  void restore_lookup_rng(const Rng& rng) override { rng_ = rng; }

  /// The responsible node followed by live entries of its successor list.
  std::vector<Id> replica_set(const Id& key, std::size_t count) override;

  /// Resolves starting at a specific node.
  LookupResult lookup_from(const Id& origin, const Id& key);

  std::vector<Id> node_ids() const override;
  std::size_t size() const override;

  ChordNode& node(const Id& id);
  const ChordNode& node(const Id& id) const;
  bool is_alive(const Id& id) const;

  net::TrafficStats& routing_stats() { return routing_stats_; }
  net::LatencyModel& latency() { return latency_; }
  net::FailureInjector& failures() { return failures_; }

  /// Invokes `fn` on the target node as an RPC: checks delivery, records
  /// `payload_bytes` + envelope into routing stats, samples one hop of
  /// latency. Throws net::RpcError when the target is unreachable.
  template <typename F>
  auto rpc(const Id& target, std::uint64_t payload_bytes, F&& fn) {
    failures_.check_delivery(target);
    const auto it = nodes_.find(target);
    if (it == nodes_.end() || !it->second->alive()) {
      throw net::RpcError("node " + target.brief() + " is gone");
    }
    routing_stats_.record(payload_bytes + net::kMessageOverheadBytes);
    latency_.sample_hop_ms();
    return fn(*it->second);
  }

  /// Liveness probe. Lossy links would otherwise make healthy nodes look
  /// dead, so the probe retries before giving up (each attempt counts as a
  /// routing message).
  bool ping(const Id& target, int attempts = 3);

 private:
  // dhtidx-lint: allow(hot-path-map) "substrate membership (includes dead nodes), mutated only at join/leave; sorted iteration order is part of deterministic node enumeration"
  std::map<Id, std::unique_ptr<ChordNode>> nodes_;
  net::TrafficStats routing_stats_;
  net::LatencyModel latency_;
  net::FailureInjector failures_;
  Rng rng_;
};

}  // namespace dhtidx::dht
