/// \file sim.cpp
/// \brief sim-replay: the write-replay annotation trace through
/// dht::DhtNetwork on the deterministic simulator, single-threaded.
///
/// A run is a sequence of identical passes: fresh DhtNetwork, bootstrap,
/// replay the first kPassOps annotations of the trace through one
/// DharmaClient. Set-up is timed apart, nine times back to back. Passes repeat until --seconds are spent; the first is a
/// discarded warm-up. With --trace 1, untraced and traced passes alternate.
/// Every pass does exactly the same simulated work, so its count digest
/// must repeat bit for bit — a mismatch fails the run.

#include <algorithm>
#include <sstream>

#include "core/client.hpp"
#include "dht/dht_network.hpp"
#include "obs/registry.hpp"
#include "perfbench.hpp"

namespace pb {

namespace {

constexpr usize kSimNodes = 32;
constexpr usize kSimBucket = 5;  ///< NodeConfig::k: several lookup hops
constexpr usize kPassOps = 2000;

struct Pass {
  double replayS = 0;
  double cpuUsPerOp = 0;
  Samples lat;
  u64 ops = 0;
  u64 failed = 0;
  core::DharmaClient::Counters client;
  // Exact counts over the replay (the digest).
  u64 events = 0;
  u64 datagrams = 0;
  u64 delivered = 0;
  u64 bytes = 0;
  dht::NodeCounters n0, n;
  HistMap h0, h;
  std::vector<const dht::KademliaNode*> nodes;

  std::string digest() const {
    std::ostringstream s;
    s << "ops=" << ops << " failed=" << failed << " events=" << events
      << " datagrams=" << datagrams << " bytes=" << bytes
      << " lookups=" << n.lookups - n0.lookups
      << " rpcs=" << n.rpcsSent - n0.rpcsSent << " puts=" << n.puts - n0.puts
      << " gets=" << n.gets - n0.gets;
    return s.str();
  }
};

std::vector<const dht::KademliaNode*> nodesOf(dht::DhtNetwork& net) {
  std::vector<const dht::KademliaNode*> out;
  for (usize i = 0; i < net.size(); ++i) out.push_back(&net.node(i));
  return out;
}

dht::DhtNetworkConfig simConfig(u64 seed, obs::MetricsRegistry* reg) {
  dht::DhtNetworkConfig cfg;
  cfg.nodes = kSimNodes;
  cfg.seed = seed;
  cfg.node.k = kSimBucket;
  cfg.node.metrics = reg;
  return cfg;
}

/// Set-up time: network construction plus bootstrap, timed back to back
/// so each sample sees the same heap state; the median is kept.
double setupSeconds(u64 seed) {
  constexpr usize kSetups = 9;
  std::vector<double> times;
  for (usize i = 0; i < kSetups; ++i) {
    Clock::time_point t0 = Clock::now();
    dht::DhtNetwork net(simConfig(seed, nullptr));
    net.bootstrap();
    times.push_back(secondsSince(t0));
  }
  return median(times);
}

/// One pass. With \p reg set, \p keep receives the network (for the
/// closest() timing on its final tables).
Pass runPass(const Inputs& in, u64 seed, obs::MetricsRegistry* reg,
             Result& out, std::unique_ptr<dht::DhtNetwork>* keep = nullptr) {
  Pass p;
  auto net = std::make_unique<dht::DhtNetwork>(simConfig(seed, reg));
  net->bootstrap();

  core::DharmaConfig ccfg;
  ccfg.metrics = reg;
  core::DharmaClient client(*net, 0, ccfg, seed);
  p.nodes = nodesOf(*net);
  p.n0 = sumCounters(p.nodes);
  if (reg != nullptr) p.h0 = histMap(reg->snapshot());
  const u64 ev0 = net->sim().executed();
  const net::NetworkStats s0 = net->network().stats();

  const usize n = std::min(kPassOps, in.writeTrace.size());
  double cpu0 = cpuSeconds();
  Clock::time_point t1 = Clock::now();
  for (usize i = 0; i < n; ++i) {
    const wl::Annotation& a = in.writeTrace[i];
    Clock::time_point o0 = Clock::now();
    auto o = client.tagResource(Inputs::resName(a.res), Inputs::tagName(a.tag));
    p.lat.add(usSince(o0));
    ++p.ops;
    if (!o.ok()) {
      ++p.failed;
      continue;
    }
    if (o.retries == 0 &&
        (o.cost.lookups > 4 + ccfg.k || o.cost.servedFromCache != 0)) {
      out.fail("sim tag cost " + std::to_string(o.cost.lookups) +
               " lookups > 4+k");
    }
  }
  p.replayS = secondsSince(t1);
  p.client = client.counters();
  p.cpuUsPerOp = (cpuSeconds() - cpu0) * 1e6 / static_cast<double>(p.ops);

  const net::NetworkStats s = net->network().stats();
  p.events = net->sim().executed() - ev0;
  p.datagrams = s.sent - s0.sent;
  p.delivered = s.delivered - s0.delivered;
  p.bytes = s.bytesSent - s0.bytesSent;
  p.n = sumCounters(p.nodes);
  if (reg != nullptr) p.h = histMap(reg->snapshot());
  if (keep != nullptr) {
    *keep = std::move(net);
  } else {
    p.nodes.clear();
  }
  return p;
}

void reportSimLayers(const Pass& p, const std::vector<dht::NodeId>& keys,
                     Result& out) {
  const double ops = static_cast<double>(p.ops);
  out.set("net.datagrams_per_op", static_cast<double>(p.datagrams) / ops,
          "1/op");
  out.set("net.bytes_per_op", static_cast<double>(p.bytes) / ops, "B/op");
  out.set("net.sim_events_per_op", static_cast<double>(p.events) / ops,
          "1/op");
  out.set("crypto.verifies_per_op", static_cast<double>(p.delivered) / ops,
          "1/op");
  reportEngineLayers(p.h, p.h0, p.n, p.n0, p.ops, out);
  reportOpErrors(p.client.byError, p.client.retries, p.ops, out);
  out.set("dht.closest_us", timeClosest(p.nodes, keys), "us");
}

}  // namespace

void runSim(const RunParams& rp, const Inputs& in, Result& out) {
  const std::vector<dht::NodeId> keys = traceKeys(in);

  std::string digest;
  auto checkDigest = [&](const Pass& p) {
    if (digest.empty()) {
      digest = p.digest();
      std::printf("# sim-replay digest: %s\n", digest.c_str());
    } else if (p.digest() != digest) {
      out.fail("sim-replay digest changed between passes: " + p.digest() +
               " vs " + digest);
    }
  };
  auto account = [&](const Pass& p) {
    out.attempted += p.ops;
    out.failed += p.failed;
  };

  checkDigest(runPass(in, rp.seed, nullptr, out));  // warm-up

  if (!rp.trace) {
    const double setup = setupSeconds(rp.seed);
    Clock::time_point t0 = Clock::now();
    std::vector<Pass> passes;
    while (passes.size() < 4 || secondsSince(t0) < rp.seconds) {
      passes.push_back(runPass(in, rp.seed, nullptr, out));
      checkDigest(passes.back());
      account(passes.back());
    }
    // Every pass does identical work, so pass-to-pass differences are the
    // machine's: report the least disturbed quartile of passes.
    std::vector<double> rates, cpus, p50s;
    for (const Pass& p : passes) {
      rates.push_back(static_cast<double>(p.ops) / p.replayS);
      cpus.push_back(p.cpuUsPerOp);
      p50s.push_back(p.lat.pct(0.50));
    }
    out.set("setup_s", setup, "s");
    out.set("ops_per_s", quartile(rates, 3), "1/s");
    out.set("op_p50_us", quartile(p50s, 1), "us");
    out.set("cpu_us_per_op", quartile(cpus, 1), "us");
    return;
  }

  // Traced mode: untraced and traced passes alternate, so both see the
  // same spells of the machine; the layers come from the last traced pass.
  std::vector<double> plainCpus, tracedCpus;
  Pass last;
  std::unique_ptr<dht::DhtNetwork> net;
  obs::MetricsRegistry reg;
  Clock::time_point t0 = Clock::now();
  while (tracedCpus.size() < 2 || secondsSince(t0) < rp.seconds) {
    Pass plain = runPass(in, rp.seed, nullptr, out);
    checkDigest(plain);
    account(plain);
    plainCpus.push_back(plain.cpuUsPerOp);
    // Each traced pass takes its registry deltas from its own start.
    last = runPass(in, rp.seed, &reg, out, &net);
    checkDigest(last);
    account(last);
    tracedCpus.push_back(last.cpuUsPerOp);
  }
  reportSimLayers(last, keys, out);
  out.set("obs.overhead_ratio", median(tracedCpus) / median(plainCpus) - 1.0,
          "ratio");
}

}  // namespace pb
