// CAN: a Content-Addressable Network substrate (Ratnasamy et al., SIGCOMM
// 2001) -- the second DHT the paper names as a possible substrate.
//
// The key space is the 2-d unit torus. Every node owns one or more
// rectangular zones; a key hashes to a point and belongs to the node whose
// zone contains it. Joins split the zone containing a random point; greedy
// routing forwards through bordering neighbours toward the target point;
// crashes hand the orphaned zones to the bordering neighbour with the
// smallest volume (the CAN takeover rule, simplified to immediate handover).
//
// Like ChordNetwork this is a single-process protocol simulation with
// routing-traffic accounting; it exists to demonstrate (and test) that the
// indexing layer is substrate-agnostic across fundamentally different
// geometries (ring vs. torus).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/id.hpp"
#include "common/rng.hpp"
#include "dht/dht.hpp"
#include "net/stats.hpp"

namespace dhtidx::dht {

/// A point on the 2-d unit torus.
struct CanPoint {
  double x = 0.0;
  double y = 0.0;
};

/// An axis-aligned rectangle [lo.x, hi.x) x [lo.y, hi.y).
struct CanZone {
  CanPoint lo;
  CanPoint hi;

  bool contains(const CanPoint& p) const {
    return p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y;
  }
  double width() const { return hi.x - lo.x; }
  double height() const { return hi.y - lo.y; }
  double volume() const { return width() * height(); }

  /// Torus distance from the zone to a point (zero when inside).
  double distance_to(const CanPoint& p) const;

  /// True when the zones share a border on the torus (abutting edges with
  /// overlapping extent in the other dimension).
  static bool adjacent(const CanZone& a, const CanZone& b);
};

/// A complete simulated CAN overlay.
class CanNetwork : public Dht {
 public:
  explicit CanNetwork(std::uint64_t seed = 0xCA9);

  /// Adds a node (id = SHA-1(name)): picks a random point, splits the zone
  /// owning it, and hands one half to the new node. Returns its id.
  Id add_node(const std::string& name);

  /// Crashes a node; its zones are taken over by bordering neighbours.
  void crash(const Id& id);

  /// Maps a key to its point on the torus.
  static CanPoint point_of(const Id& key);

  // Dht interface. lookup() greedily routes from a random node.
  LookupResult lookup(const Id& key) override;
  std::optional<Rng> lookup_rng() const override { return rng_; }
  void restore_lookup_rng(const Rng& rng) override { rng_ = rng; }
  LookupResult lookup_from(const Id& origin, const Id& key);
  std::vector<Id> node_ids() const override;
  std::size_t size() const override;

  /// Zones currently owned by a node.
  const std::vector<CanZone>& zones_of(const Id& id) const;

  /// Node ids bordering any zone of `id`.
  std::vector<Id> neighbours_of(const Id& id) const;

  /// Invariant: the live zones tile the unit square exactly (total volume 1,
  /// pairwise disjoint). Used by tests.
  bool zones_partition_space(double tolerance = 1e-9) const;

  net::TrafficStats& routing_stats() { return routing_stats_; }

 private:
  struct Node {
    std::vector<CanZone> zones;
    bool alive = true;
  };

  /// The live node whose zone contains `p` (authoritative, non-routing).
  Id owner_of(const CanPoint& p) const;

  // dhtidx-lint: allow(hot-path-map) "substrate membership, mutated only at join/leave; sorted iteration order is part of deterministic node enumeration"
  std::map<Id, Node> nodes_;
  net::TrafficStats routing_stats_;
  Rng rng_;
};

}  // namespace dhtidx::dht
