#pragma once
/// \file live.hpp
/// \brief The in-process loopback-UDP cluster the live workloads run on,
/// the receive-side tap used by traced runs, and the per-layer timings
/// taken on what the tap captured.

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/runtime.hpp"
#include "crypto/identity.hpp"
#include "dht/kademlia_node.hpp"
#include "net/datagram.hpp"
#include "net/sharded.hpp"
#include "obs/registry.hpp"
#include "perfbench.hpp"

namespace pb {

/// Transport decorator for traced runs: forwards everything to the real
/// transport and wraps each endpoint's receive handler to time it (into
/// \p handleNs, nanoseconds) and to keep every 32nd datagram for the
/// layer timings below.
class TapTransport final : public net::Transport {
 public:
  TapTransport(net::Transport& inner, obs::Histogram& handleNs)
      : inner_(inner), handleNs_(handleNs) {}

  net::Address registerEndpoint(net::ReceiveHandler h) override {
    return inner_.registerEndpoint(wrap(std::move(h)));
  }
  net::Address registerEndpoint(net::ReceiveHandler h,
                                net::Executor& deliverTo) override {
    return inner_.registerEndpoint(wrap(std::move(h)), deliverTo);
  }
  void setHandler(net::Address a, net::ReceiveHandler h) override {
    inner_.setHandler(a, wrap(std::move(h)));
  }
  bool send(net::Address from, net::Address to,
            std::vector<u8> payload) override {
    return inner_.send(from, to, std::move(payload));
  }
  bool isOnline(net::Address a) const override { return inner_.isOnline(a); }
  usize mtuBytes() const override { return inner_.mtuBytes(); }

  /// The datagrams kept so far (call once the loops are stopped).
  std::vector<std::vector<u8>> captured();

 private:
  net::ReceiveHandler wrap(net::ReceiveHandler h);

  static constexpr u64 kCaptureEvery = 32;
  static constexpr usize kCaptureCap = 4096;

  net::Transport& inner_;
  obs::Histogram& handleNs_;
  std::atomic<u64> seen_{0};
  std::mutex mu_;
  std::vector<std::vector<u8>> captured_;  // guarded by mu_
};

/// A live cluster built through the entry points the daemons use:
/// makeDatagramTransport(defaultNetBackend()), a ShardedExecutor with node
/// i on shard i % shards, a ShardedRuntime, default NodeConfig. With a
/// registry every layer records into it. With \p tapped the tap wraps the
/// transport; traced mode taps both of its clusters, so the gap between
/// them is the obs layer's alone.
class LiveCluster {
 public:
  LiveCluster(usize nodes, usize shards, obs::MetricsRegistry* reg,
              bool tapped, u64 seed);
  ~LiveCluster();

  LiveCluster(const LiveCluster&) = delete;
  LiveCluster& operator=(const LiveCluster&) = delete;

  /// Joins nodes 1..n-1 through node 0.
  void boot();

  /// Inserts the whole corpus (batched insertResources, one loader thread
  /// per shard). Returns false if any insert failed.
  bool preload(const Inputs& in);

  /// Stops the loops (idempotent); state can then be read from this thread.
  void stop();

  usize size() const { return nodes_.size(); }
  dht::KademliaNode& node(usize i) { return *nodes_[i]; }
  core::Runtime& rtFor(usize i) { return rt_.forShard(execs_.shardOf(i)); }
  net::DatagramTransport& udp() { return *udp_; }
  TapTransport* tap() { return tap_.get(); }
  obs::MetricsRegistry* registry() { return reg_; }
  const crypto::CertificationService& cs() const { return cs_; }
  usize shards() const { return execs_.shardCount(); }

  /// Client config for this cluster: defaults (cache off) wired to the
  /// registry when traced, and a finite op deadline.
  core::DharmaConfig clientConfig() const;
  static core::OpPolicy opPolicy();

  /// Sums of every node's counters.
  dht::NodeCounters totals() const { return sumCounters(nodePtrs()); }
  std::vector<const dht::KademliaNode*> nodePtrs() const;

 private:
  obs::MetricsRegistry* reg_;
  obs::Histogram ownHandleNs_;  ///< the tap's histogram without a registry
  net::ShardedExecutor execs_;
  std::unique_ptr<net::DatagramTransport> udp_;
  std::unique_ptr<TapTransport> tap_;
  crypto::CertificationService cs_{"perfbench-secret"};
  core::ShardedRuntime rt_;
  std::vector<std::unique_ptr<dht::KademliaNode>> nodes_;
  u64 seed_;
};

// ---------------------------------------------------------------------------
// Layer timings on captured inputs: mean microseconds per call.
// ---------------------------------------------------------------------------

double timeDecode(const std::vector<std::vector<u8>>& datagrams);
double timeVerify(const crypto::CertificationService& cs,
                  const std::vector<std::vector<u8>>& datagrams);
/// BlockStore::apply on the tokens of the captured STORE requests.
double timeApply(const std::vector<std::vector<u8>>& datagrams);

/// Per-layer metrics every traced live run reports, from the registry,
/// the public counters and the tap: deltas between \p before (taken when
/// the measured phase started) and now. \p ops is the op count measured.
struct LayerBaseline {
  net::UdpStats udp;
  dht::NodeCounters nodes;
  obs::RegistrySnapshot reg;
};
LayerBaseline layerBaseline(LiveCluster& c);
void reportLiveLayers(LiveCluster& c, const LayerBaseline& before, u64 ops,
                      double seconds, const std::vector<dht::NodeId>& keys,
                      Result& out);

}  // namespace pb
