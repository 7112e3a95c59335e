// Declarative scenario construction: one fluent spec for hosts, paths,
// middleboxes and workloads, lowered onto the Topology engine.
//
// Before this layer the tree had three bespoke setup paths -- TwoHostRig
// hand-wiring, build_capacity_topology's imperative loops, and each fig*
// bench rolling its own graph -- and middleboxes were spliced imperatively
// at every call site. A ScenarioSpec instead *declares* the experiment:
//
//   ScenarioSpec spec;
//   spec.seed(7).shards(2);
//   NodeId c = spec.host("client");
//   NodeId r = spec.router("gw");
//   NodeId s = spec.host("server");
//   size_t wifi = spec.path(c, r, wifi_path());
//   spec.link(r, s, wire, wire, "backhaul");
//   spec.via_up(wifi, MiddleboxDecl::option_stripper(
//       OptionStripper::Scope::kSynOnly, OptionStripper::What::kMpCapable));
//   spec.workload(wc);           // optional: WorkloadEngine groups
//   Scenario scn = spec.build(); // topology + middleboxes + engines
//
// build() replays the declarations in order onto a fresh Topology, so
// node ids, link indices, addresses and loss seeds are exactly what the
// same sequence of add_host/connect calls would produce -- the capacity
// builders construct through this layer and their determinism digests are
// pinned unchanged. Middlebox chains are lowered to splice_ab/splice_ba
// (still the implementation detail); duplex elements (NAT) additionally
// get their public address routed like the private host side's address,
// so return traffic reaches the reverse sink on any router graph.
//
// Scenario owns everything it built: the Topology, every instantiated
// middlebox (reachable through typed accessors by declaration handle),
// and one WorkloadEngine per declared workload group.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "app/harness.h"
#include "app/workload.h"
#include "middlebox/nat.h"
#include "middlebox/option_stripper.h"
#include "middlebox/payload_modifier.h"
#include "sim/topology.h"

namespace mptcp {

/// One declared in-path element. Factories cover the catalogue the fleet
/// scenarios draw from; the struct is plain data so specs stay copyable
/// and comparable.
struct MiddleboxDecl {
  enum class Kind : uint8_t {
    kOptionStripper,   ///< one-directional, middlebox/option_stripper.h
    kPayloadModifier,  ///< one-directional DSS-checksum-corrupting ALG
    kNat,              ///< duplex, middlebox/nat.h
  };

  Kind kind = Kind::kOptionStripper;
  // OptionStripper parameters.
  OptionStripper::Scope scope = OptionStripper::Scope::kAllSegments;
  OptionStripper::What what = OptionStripper::What::kAllMptcp;
  // Nat parameters.
  IpAddr nat_public{};
  Port nat_first_port = 20000;
  // PayloadModifier parameter.
  uint64_t modify_interval = 1;

  static MiddleboxDecl option_stripper(OptionStripper::Scope scope,
                                       OptionStripper::What what) {
    MiddleboxDecl d;
    d.kind = Kind::kOptionStripper;
    d.scope = scope;
    d.what = what;
    return d;
  }
  static MiddleboxDecl nat(IpAddr public_addr, Port first_port = 20000) {
    MiddleboxDecl d;
    d.kind = Kind::kNat;
    d.nat_public = public_addr;
    d.nat_first_port = first_port;
    return d;
  }
  static MiddleboxDecl payload_modifier(uint64_t interval = 1) {
    MiddleboxDecl d;
    d.kind = Kind::kPayloadModifier;
    d.modify_interval = interval;
    return d;
  }
};

class Scenario;

class ScenarioSpec {
 public:
  ScenarioSpec& seed(uint64_t s) {
    seed_ = s;
    return *this;
  }
  ScenarioSpec& shards(size_t n) {
    shards_ = n == 0 ? 1 : n;
    return *this;
  }
  uint64_t seed() const { return seed_; }
  size_t shard_count() const { return shards_; }

  /// Stable token -> shard pinning (FNV-1a mod this spec's shard count),
  /// the one name hash for spreading nodes across shards. Available at
  /// declaration time so a group of related nodes ("f3.client",
  /// "f3.gw", ...) can be pinned to one shard derived from a shared
  /// token.
  size_t shard_for(std::string_view token) const;

  /// Declares a host/router pinned to `shard`, the one way to place a
  /// node. Ids are assigned in declaration order and are identical to the
  /// built Topology's NodeIds.
  NodeId host(std::string name, size_t shard = 0);
  NodeId router(std::string name, size_t shard = 0);

  /// Declares a full-duplex link (`ab` shapes a->b); returns the link
  /// index, identical to the built Topology's.
  size_t link(NodeId a, NodeId b, const LinkConfig& ab, const LinkConfig& ba,
              std::string name = "");
  /// Same, from a PathSpec: `up` is a->b, so declare as (client, gateway).
  size_t path(NodeId a, NodeId b, const PathSpec& p) {
    return link(a, b, p.up, p.down, p.name);
  }

  /// Declares a one-directional middlebox in the a->b (`via_up`) or b->a
  /// (`via_down`) chain of link `l`, or a duplex element (`via`) whose
  /// forward side faces away from the link's host endpoint. Elements on
  /// the same direction nest in declaration order, most recent first
  /// (splice semantics). Returns a handle for Scenario's typed accessors.
  size_t via_up(size_t l, const MiddleboxDecl& mb);
  size_t via_down(size_t l, const MiddleboxDecl& mb);
  size_t via(size_t l, const MiddleboxDecl& mb);

  /// Declares a workload group; the built Scenario owns one WorkloadEngine
  /// per group, in declaration order.
  size_t workload(WorkloadConfig wc);

  /// Replays the declarations onto a fresh Topology, instantiates and
  /// splices middleboxes, computes routes (plus NAT public-address
  /// aliases) and constructs the workload engines.
  Scenario build() const;

 private:
  friend class Scenario;

  struct NodeDecl {
    std::string name;
    bool is_router = false;
    size_t shard = 0;
  };
  struct LinkDecl {
    NodeId a = 0;
    NodeId b = 0;
    LinkConfig ab;
    LinkConfig ba;
    std::string name;
  };
  struct MboxDecl {
    MiddleboxDecl mb;
    size_t link = 0;
    enum class Dir : uint8_t { kUp, kDown, kDuplex } dir = Dir::kUp;
  };

  uint64_t seed_ = 1;
  size_t shards_ = 1;
  std::vector<NodeDecl> nodes_;
  std::vector<LinkDecl> links_;
  std::vector<MboxDecl> mboxes_;
  std::vector<WorkloadConfig> workloads_;
};

/// A built scenario: the Topology plus everything the spec declared on
/// top of it. Move-only; handles returned by the spec index into it.
class Scenario {
 public:
  Scenario(Scenario&&) = default;
  Scenario& operator=(Scenario&&) = default;

  Topology& topo() { return *topo_; }

  // --- middlebox access by declaration handle ------------------------------
  OptionStripper* option_stripper(size_t h) {
    return mboxes_[h].stripper.get();
  }
  PayloadModifier* payload_modifier(size_t h) {
    return mboxes_[h].modifier.get();
  }
  Nat* nat(size_t h) { return mboxes_[h].nat.get(); }

  // --- workload groups -----------------------------------------------------
  size_t engine_count() const { return engines_.size(); }
  WorkloadEngine& engine(size_t i) { return *engines_[i]; }
  void start_workloads() {
    for (auto& e : engines_) e->start();
  }
  void stop_workloads() {
    for (auto& e : engines_) e->stop();
  }

  /// Hands the bare Topology to callers that predate Scenario ownership
  /// (the capacity builders). Only legal when the spec declared no
  /// middleboxes or workloads -- those hold references into the Topology.
  std::unique_ptr<Topology> take_topology() {
    assert(mboxes_.empty() && engines_.empty());
    return std::move(topo_);
  }

 private:
  friend class ScenarioSpec;
  Scenario() = default;

  struct MboxInstance {
    std::unique_ptr<OptionStripper> stripper;
    std::unique_ptr<PayloadModifier> modifier;
    std::unique_ptr<Nat> nat;
  };

  std::unique_ptr<Topology> topo_;
  std::vector<MboxInstance> mboxes_;
  std::vector<std::unique_ptr<WorkloadEngine>> engines_;
  /// Per link: the address its host-side endpoint gained (side a when
  /// both ends are hosts) -- the address a NAT on that link translates.
  std::vector<IpAddr> link_host_addr_;
};

/// The classic two-host shape, declared on a spec: a (possibly
/// multihomed) client whose paths all meet one gateway router, with the
/// server behind an effectively ideal wire -- TwoHostRig's semantics on
/// the Topology engine, so the same experiment composes with sharding,
/// declared middleboxes and workload groups.
struct TwoHostShape {
  NodeId client = 0;
  NodeId gw = 0;
  NodeId server = 0;
  std::vector<size_t> paths;  ///< link index per path, add order
  size_t server_link = 0;
};

/// Declares the shape above. `prefix` namespaces the node names (islands
/// in a population use "f<i>."), `shard` pins every node of the shape.
TwoHostShape declare_two_host(ScenarioSpec& spec,
                              const std::vector<PathSpec>& paths,
                              const std::string& prefix = "",
                              size_t shard = 0);

}  // namespace mptcp
