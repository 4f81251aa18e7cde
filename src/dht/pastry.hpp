// Pastry substrate (Rowstron & Druschel, Middleware 2001) -- the third DHT
// the paper lists, and the basis of the Pastry/PAST storage system it cites
// as an example substrate (Section III-A).
//
// Identifiers are 160-bit numbers read as 40 hexadecimal digits. Each node
// keeps
//   - a leaf set: the L/2 numerically closest nodes on either side,
//   - a routing table: row r holds nodes sharing an r-digit prefix with this
//     node, one column per value of the (r+1)-th digit.
// A key is routed to the node numerically closest to it: forward within the
// leaf set when the key falls inside it, otherwise to the routing-table
// entry matching one more digit, otherwise to any known node numerically
// closer with at least the same shared prefix.
//
// Simulation-grade like ChordNetwork/CanNetwork: single process, RPCs with
// traffic accounting and failure injection, explicit repair rounds.
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
#include "net/stats.hpp"

namespace dhtidx::dht {

class PastryNetwork;

/// Number of hex digits in an id.
inline constexpr std::size_t kPastryDigits = 2 * Id::kBytes;

/// The i-th hex digit of an id (0 = most significant).
int pastry_digit(const Id& id, std::size_t i);

/// Length of the common hex-digit prefix of two ids.
std::size_t pastry_prefix(const Id& a, const Id& b);

/// True when `a` is numerically closer to `key` than `b` is (minimum of the
/// two directions around the circle; exact byte arithmetic, ties broken by
/// smaller id).
bool pastry_closer(const Id& a, const Id& b, const Id& key);

/// One Pastry peer.
class PastryNode {
 public:
  static constexpr std::size_t kLeafHalf = 4;  ///< leaf-set entries per side
  static constexpr std::size_t kColumns = 16;

  PastryNode(Id id, PastryNetwork* network) : id_(id), network_(network) {}

  const Id& id() const { return id_; }
  bool alive() const { return alive_; }

  /// The node responsible for `key` (numerically closest), routing through
  /// the overlay and counting hops.
  Id route(const Id& key, int& hops);

  /// All nodes this one knows (leaf set + routing table), for state exchange.
  std::vector<Id> known_nodes() const;

  /// Incorporates a node into the leaf set / routing table as appropriate.
  void learn(const Id& node);

  /// Drops a node from all state.
  void forget(const Id& node);

  /// Prunes dead entries and refills the leaf set from neighbours' state.
  void repair();

  const std::vector<Id>& smaller_leaves() const { return smaller_; }
  const std::vector<Id>& larger_leaves() const { return larger_; }
  std::optional<Id> table_entry(std::size_t row, std::size_t column) const;

 private:
  friend class PastryNetwork;

  /// True when `key` lies within the span of the leaf set (or the set is
  /// small enough to cover the whole circle).
  bool key_in_leaf_range(const Id& key) const;

  /// Numerically closest to `key` among this node and its leaves.
  Id closest_known(const Id& key) const;

  Id id_;
  PastryNetwork* network_;
  bool alive_ = true;
  std::vector<Id> smaller_;  // numerically below id_, nearest first
  std::vector<Id> larger_;   // numerically above id_, nearest first
  std::array<std::array<std::optional<Id>, kColumns>, kPastryDigits> table_{};
};

/// A complete simulated Pastry overlay.
class PastryNetwork : public Dht {
 public:
  explicit PastryNetwork(std::uint64_t seed = 0x9a57);

  /// Adds a node (id = SHA-1(name)), joining through a random live member.
  Id add_node(const std::string& name);

  /// Crashes a node without warning; run repair_round() to heal.
  void crash(const Id& id);

  /// One repair round on every live node.
  void repair_round();

  /// True when every live node's leaf set matches the numerically sorted
  /// membership.
  bool leaf_sets_correct() const;

  // Dht interface: routes from a random live node. Responsibility is the
  // numerically closest node.
  LookupResult lookup(const Id& key) override;
  std::optional<Rng> lookup_rng() const override { return rng_; }
  void restore_lookup_rng(const Rng& rng) override { rng_ = rng; }
  LookupResult lookup_from(const Id& origin, const Id& key);
  std::vector<Id> node_ids() const override;
  std::size_t size() const override;

  PastryNode& node(const Id& id);
  bool is_alive(const Id& id) const;
  net::TrafficStats& routing_stats() { return routing_stats_; }
  net::FailureInjector& failures() { return failures_; }

  /// RPC helper (traffic accounting + failure injection).
  template <typename F>
  auto rpc(const Id& target, std::uint64_t payload_bytes, F&& fn) {
    failures_.check_delivery(target);
    const auto it = nodes_.find(target);
    if (it == nodes_.end() || !it->second->alive()) {
      throw net::RpcError("node " + target.brief() + " is gone");
    }
    routing_stats_.record(payload_bytes + net::kMessageOverheadBytes);
    return fn(*it->second);
  }

  bool ping(const Id& target);

 private:
  // dhtidx-lint: allow(hot-path-map) "substrate membership, mutated only at join/leave; sorted iteration order is part of deterministic node enumeration"
  std::map<Id, std::unique_ptr<PastryNode>> nodes_;
  net::TrafficStats routing_stats_;
  net::FailureInjector failures_;
  Rng rng_;
};

}  // namespace dhtidx::dht
