/// \file layers.cpp
/// \brief Per-layer measurement: the receive-side tap, timed calls to layer
/// functions on inputs captured from the run, and the per-layer metrics a
/// traced live run reports.

#include <algorithm>
#include <map>

#include "dht/rpc.hpp"
#include "dht/storage.hpp"
#include "gateway/http.hpp"
#include "live.hpp"
#include "util/buffer.hpp"

namespace pb {

// ---------------------------------------------------------------------------
// TapTransport
// ---------------------------------------------------------------------------

net::ReceiveHandler TapTransport::wrap(net::ReceiveHandler h) {
  return [this, h = std::move(h)](net::Address from,
                                  const std::vector<u8>& data) {
    Clock::time_point t0 = Clock::now();
    h(from, data);
    handleNs_.record(static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
    if (seen_.fetch_add(1, std::memory_order_relaxed) % kCaptureEvery == 0) {
      std::lock_guard<std::mutex> lk(mu_);
      if (captured_.size() < kCaptureCap) captured_.push_back(data);
    }
  };
}

std::vector<std::vector<u8>> TapTransport::captured() {
  std::lock_guard<std::mutex> lk(mu_);
  return captured_;
}

// ---------------------------------------------------------------------------
// Timed layer calls
// ---------------------------------------------------------------------------

namespace {

/// Results of timed calls land here so the compiler cannot drop the work.
volatile usize g_sink = 0;

/// Calls \p body (which performs \p perPass calls) until ~30 ms have passed
/// and at least three passes ran; returns mean microseconds per call.
template <typename F>
double timeCalls(usize perPass, F&& body) {
  if (perPass == 0) return 0.0;
  body();  // warm
  usize passes = 0;
  Clock::time_point t0 = Clock::now();
  do {
    body();
    ++passes;
  } while (passes < 3 || usSince(t0) < 30'000);
  return usSince(t0) / static_cast<double>(passes * perPass);
}

std::vector<dht::Envelope> decodeAll(
    const std::vector<std::vector<u8>>& datagrams) {
  std::vector<dht::Envelope> out;
  for (const auto& d : datagrams) {
    if (auto env = dht::Envelope::decode(d)) out.push_back(std::move(*env));
  }
  return out;
}

}  // namespace

double timeDecode(const std::vector<std::vector<u8>>& datagrams) {
  return timeCalls(datagrams.size(), [&] {
    for (const auto& d : datagrams) {
      auto env = dht::Envelope::decode(d);
      g_sink = g_sink + (env ? env->body.size() : 0);
    }
  });
}

double timeVerify(const crypto::CertificationService& cs,
                  const std::vector<std::vector<u8>>& datagrams) {
  std::vector<dht::Envelope> envs = decodeAll(datagrams);
  return timeCalls(envs.size(), [&] {
    for (const auto& e : envs) g_sink = g_sink + cs.verify(e.credential, 0);
  });
}

double timeApply(const std::vector<std::vector<u8>>& datagrams) {
  std::vector<dht::StoreReq> stores;
  for (const auto& env : decodeAll(datagrams)) {
    if (env.type != dht::RpcType::kStore) continue;
    ByteReader r(env.body);
    stores.push_back(dht::StoreReq::decode(r));
  }
  usize tokens = 0;
  for (const auto& s : stores) tokens += s.tokens.size();
  if (tokens == 0) return 0.0;
  return timeCalls(tokens, [&] {
    dht::BlockStore store;
    for (const auto& s : stores) {
      for (const auto& t : s.tokens) g_sink = g_sink + store.apply(s.key, t, 1);
    }
  });
}

double timeClosest(const std::vector<const dht::KademliaNode*>& nodes,
                   const std::vector<dht::NodeId>& keys) {
  if (keys.empty()) return 0.0;
  return timeCalls(keys.size() * nodes.size(), [&] {
    for (const dht::KademliaNode* n : nodes) {
      for (const auto& k : keys) {
        g_sink = g_sink + n->routing().closest(k, n->config().k).size();
      }
    }
  });
}

double timeParse(const std::vector<std::string>& requests) {
  return timeCalls(requests.size(), [&] {
    for (const auto& r : requests) {
      gateway::HttpParser p;
      g_sink = g_sink + (p.feed(r) == gateway::ParseState::kComplete);
    }
  });
}

// ---------------------------------------------------------------------------
// Per-layer report of a traced live run
// ---------------------------------------------------------------------------

LayerBaseline layerBaseline(LiveCluster& c) {
  LayerBaseline b;
  b.udp = c.udp().stats();
  b.nodes = c.totals();
  if (c.registry() != nullptr) b.reg = c.registry()->snapshot();
  return b;
}

HistMap histMap(const obs::RegistrySnapshot& s) {
  HistMap m;
  for (const auto& row : s.hists) m[row.id] = row.hist;
  return m;
}

obs::HistogramSnapshot deltaOf(const HistMap& after, const HistMap& before,
                               const std::string& name,
                               const std::string& label) {
  obs::HistogramSnapshot out;
  for (const auto& [id, h] : after) {
    bool match = id == name || id.rfind(name + "{", 0) == 0;
    if (!match || (!label.empty() && id.find(label) == std::string::npos)) {
      continue;
    }
    auto it = before.find(id);
    out.merge(it == before.end() ? h : histDelta(h, it->second));
  }
  return out;
}

namespace {

double perOp(double x, u64 ops) {
  return ops == 0 ? 0.0 : x / static_cast<double>(ops);
}

}  // namespace

void reportEngineLayers(const HistMap& a, const HistMap& b,
                        const dht::NodeCounters& n,
                        const dht::NodeCounters& n0, u64 ops, Result& out) {
  for (const char* rpc : {"find_node", "find_value", "store"}) {
    std::string label = std::string("rpc=\"") + rpc + "\"";
    out.set(std::string("dht.rpc_service_p50_us.") + rpc,
            deltaOf(a, b, "dharma_node_rpc_service_us", label).quantile(0.5),
            "us");
  }
  for (const char* kind : {"node", "value"}) {
    std::string label = std::string("kind=\"") + kind + "\"";
    obs::HistogramSnapshot lat =
        deltaOf(a, b, "dharma_node_lookup_latency_us", label);
    out.set(std::string("dht.lookup_p50_us.") + kind, lat.quantile(0.5), "us");
    out.set(std::string("dht.lookup_p99_us.") + kind, lat.quantile(0.99), "us");
  }
  out.set("dht.lookup_hops_p50",
          deltaOf(a, b, "dharma_node_lookup_hops").quantile(0.5), "rpcs");
  // RPCs of value lookups are the GETs' share; everything else a node sent
  // (FIND_NODE lookups, STOREs) is the PUTs'.
  const double getRpcs = static_cast<double>(
      deltaOf(a, b, "dharma_node_lookup_hops", "kind=\"value\"").sum);
  const double puts = static_cast<double>(n.puts - n0.puts);
  const double gets = static_cast<double>(n.gets - n0.gets);
  const double rpcs = static_cast<double>(n.rpcsSent - n0.rpcsSent);
  out.set("dht.rpcs_per_put", puts > 0 ? (rpcs - getRpcs) / puts : 0.0,
          "rpcs");
  out.set("dht.rpcs_per_get", gets > 0 ? getRpcs / gets : 0.0, "rpcs");
  out.set("dht.lookups_per_op",
          perOp(static_cast<double>(n.lookups - n0.lookups), ops), "1/op");
  out.set("dht.timeouts_per_kop",
          1000.0 * perOp(static_cast<double>(n.timeouts - n0.timeouts), ops),
          "1/kop");
  const double applied = static_cast<double>(n.storesAccepted - n0.storesAccepted);
  const double dedup =
      static_cast<double>(n.storesDeduplicated - n0.storesDeduplicated);
  out.set("dht.store_dedup_ratio",
          applied + dedup > 0 ? dedup / (applied + dedup) : 0.0, "ratio");
  const double hits = static_cast<double>(n.cacheHits - n0.cacheHits);
  const double misses = static_cast<double>(n.cacheMisses - n0.cacheMisses);
  out.set("cache.node_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");

  for (const char* op : {"search_step", "resolve", "tag"}) {
    std::string label = std::string("op=\"") + op + "\",result=\"ok\"";
    std::string name = op == std::string("search_step") ? "search" : op;
    out.set("core.op_p50_us." + name,
            deltaOf(a, b, "dharma_client_op_latency_us", label).quantile(0.5),
            "us");
  }
  out.set("core.block_p50_us",
          deltaOf(a, b, "dharma_client_block_latency_us", "result=\"ok\"")
              .quantile(0.5),
          "us");
}

dht::NodeCounters sumCounters(const std::vector<const dht::KademliaNode*>& ns) {
  dht::NodeCounters t;
  for (const dht::KademliaNode* node : ns) {
    const dht::NodeCounters& c = node->counters();
    t.lookups += c.lookups;
    t.puts += c.puts;
    t.gets += c.gets;
    t.rpcsSent += c.rpcsSent;
    t.timeouts += c.timeouts;
    t.storesAccepted += c.storesAccepted;
    t.storesDeduplicated += c.storesDeduplicated;
    t.cacheHits += c.cacheHits;
    t.cacheMisses += c.cacheMisses;
  }
  return t;
}

void reportLiveLayers(LiveCluster& c, const LayerBaseline& before, u64 ops,
                      double seconds, const std::vector<dht::NodeId>& keys,
                      Result& out) {
  const net::UdpStats udp = c.udp().stats();
  const dht::NodeCounters n = c.totals();
  const HistMap a = histMap(c.registry()->snapshot());
  const HistMap b = histMap(before.reg);

  out.set("net.datagrams_per_op",
          perOp(static_cast<double>(udp.sent - before.udp.sent), ops), "1/op");
  out.set("net.bytes_per_op",
          perOp(static_cast<double>(udp.bytesSent - before.udp.bytesSent), ops),
          "B/op");
  out.set("net.recv_batch_mean",
          histMean(deltaOf(a, b, "dharma_udp_recv_batch_datagrams")), "count");
  out.set("net.send_p50_us", deltaOf(a, b, "dharma_udp_send_us").quantile(0.5),
          "us");
  obs::HistogramSnapshot wait = deltaOf(a, b, "dharma_node_shard_task_wait_us");
  obs::HistogramSnapshot run = deltaOf(a, b, "dharma_node_shard_task_run_us");
  out.set("net.shard_wait_p50_us", wait.quantile(0.5), "us");
  out.set("net.shard_wait_p99_us", wait.quantile(0.99), "us");
  out.set("net.shard_run_p50_us", run.quantile(0.5), "us");
  out.set("net.shard_run_p99_us", run.quantile(0.99), "us");
  double busyMax = 0;
  double tasksMax = 0;
  double tasksMin = 0;
  for (usize s = 0; s < c.shards(); ++s) {
    std::string label = "shard=\"" + std::to_string(s) + "\"";
    obs::HistogramSnapshot h =
        deltaOf(a, b, "dharma_node_shard_task_run_us", label);
    busyMax = std::max(busyMax, static_cast<double>(h.sum) / (seconds * 1e6));
    double tasks = static_cast<double>(h.count());
    tasksMax = s == 0 ? tasks : std::max(tasksMax, tasks);
    tasksMin = s == 0 ? tasks : std::min(tasksMin, tasks);
  }
  out.set("net.shard_busy_max", busyMax, "ratio");
  out.set("net.shard_imbalance", tasksMin > 0 ? tasksMax / tasksMin : 0.0,
          "ratio");

  out.set("crypto.verifies_per_op",
          perOp(static_cast<double>(udp.received - before.udp.received), ops),
          "1/op");
  obs::HistogramSnapshot handle = deltaOf(a, b, "perfbench_handle_ns");
  out.set("dht.handle_p50_us", handle.quantile(0.5) / 1000.0, "us");
  out.set("dht.handle_p99_us", handle.quantile(0.99) / 1000.0, "us");
  reportEngineLayers(a, b, n, before.nodes, ops, out);

  // Timed layer calls on what this run captured and built.
  std::vector<std::vector<u8>> cap = c.tap()->captured();
  out.set("dht.decode_us", timeDecode(cap), "us");
  out.set("crypto.verify_us", timeVerify(c.cs(), cap), "us");
  out.set("dht.apply_us", timeApply(cap), "us");
  out.set("dht.closest_us", timeClosest(c.nodePtrs(), keys), "us");
}

}  // namespace pb
