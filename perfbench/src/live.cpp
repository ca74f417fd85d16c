/// \file live.cpp
/// \brief The live loopback-UDP cluster and the two closed-loop workloads
/// on it: read-zipf (search sessions) and write-replay (annotation trace).

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <thread>

#include "core/keys.hpp"
#include "live.hpp"

namespace pb {

// ---------------------------------------------------------------------------
// LiveCluster
// ---------------------------------------------------------------------------

LiveCluster::LiveCluster(usize nodes, usize shards, obs::MetricsRegistry* reg,
                         bool tapped, u64 seed)
    : reg_(reg),
      execs_(net::ShardedExecutor::Config{shards, reg}),
      udp_(net::makeDatagramTransport(net::defaultNetBackend(),
                                      execs_.shard(0),
                                      net::UdpConfig{"127.0.0.1", 1400, reg})),
      rt_(execs_, *udp_),
      seed_(seed) {
  execs_.start();
  net::Transport* wire = udp_.get();
  if (tapped) {
    obs::Histogram& handleNs =
        reg_ != nullptr
            ? reg_->histogram("perfbench_handle_ns",
                              "Receive handler time (nanoseconds)")
            : ownHandleNs_;
    tap_ = std::make_unique<TapTransport>(*udp_, handleNs);
    wire = tap_.get();
  }
  dht::NodeConfig nodeCfg;
  nodeCfg.metrics = reg_;
  // dharma_node's --rpc-timeout-ms: a datagram lost to a full loopback
  // receive buffer (a busy machine) then stalls its lookup for 100 ms
  // rather than the 1.5 s default sized for real networks. Loopback
  // replies take well under 1 ms at p99.
  nodeCfg.rpcTimeoutUs = 100'000;
  for (usize i = 0; i < nodes; ++i) {
    nodes_.push_back(std::make_unique<dht::KademliaNode>(
        execs_.shard(execs_.shardOf(i)), *wire, cs_,
        cs_.enroll("perfbench-" + std::to_string(i)), nodeCfg, seed_ + i));
  }
}

LiveCluster::~LiveCluster() {
  stop();
  udp_->close();
  nodes_.clear();
}

void LiveCluster::stop() { execs_.stop(); }

void LiveCluster::boot() {
  const dht::Contact seed = nodes_[0]->contact();
  for (usize i = 1; i < nodes_.size(); ++i) {
    rtFor(i).awaitDone([&](std::function<void()> done) {
      nodes_[i]->join(seed, std::move(done));
    });
  }
}

bool LiveCluster::preload(const Inputs& in) {
  // One insert at a time per shard, each from the next node of that shard:
  // batched inserts fan out hundreds of RPCs at once, whose replies burst
  // into one socket and overflow its receive buffer on a busy machine —
  // and every lost datagram costs an RPC timeout.
  const usize nLoaders = shards();
  std::atomic<bool> ok{true};
  std::vector<std::thread> loaders;
  for (usize l = 0; l < nLoaders; ++l) {
    loaders.emplace_back([&, l] {
      std::vector<std::unique_ptr<core::DharmaClient>> clients;
      for (usize n = l; n < nodes_.size(); n += nLoaders) {
        clients.push_back(std::make_unique<core::DharmaClient>(
            rtFor(n), *nodes_[n], core::DharmaConfig{}, seed_ + n, opPolicy()));
      }
      for (usize i = l; i < in.resources.size(); i += nLoaders) {
        const u32 r = in.resources[i];
        std::vector<std::string> tags;
        for (const folk::TrgEdge& e : in.corpus.tagsOf(r)) {
          tags.push_back(Inputs::tagName(e.tag));
        }
        core::DharmaClient& c = *clients[(i / nLoaders) % clients.size()];
        if (!c.insertResource(Inputs::resName(r), Inputs::uriOf(r), tags).ok()) {
          ok = false;
        }
      }
    });
  }
  for (auto& t : loaders) t.join();
  return ok;
}

core::DharmaConfig LiveCluster::clientConfig() const {
  core::DharmaConfig cfg;
  cfg.metrics = reg_;
  return cfg;
}

core::OpPolicy LiveCluster::opPolicy() {
  core::OpPolicy p;
  p.opDeadlineUs = 5'000'000;  // a hung op fails instead of stalling the run
  return p;
}

std::vector<const dht::KademliaNode*> LiveCluster::nodePtrs() const {
  std::vector<const dht::KademliaNode*> out;
  for (const auto& n : nodes_) out.push_back(n.get());
  return out;
}

// ---------------------------------------------------------------------------
// Closed-loop generators
// ---------------------------------------------------------------------------

namespace {

/// What one generator thread saw.
struct GenStats {
  Samples search, resolve, tag;
  u64 attempted = 0;
  u64 failed = 0;
  std::array<u64, core::kOpErrorCount> byError{};
  u64 retries = 0;
  u64 cacheHits = 0;
  u64 cacheMisses = 0;
  usize sessions = 0;   ///< read-zipf: sessions started
  usize traceDone = 0;  ///< write-replay: sub-trace ops issued, all laps
  std::vector<std::string> taintedRes;  ///< write-replay: failed ops' r
  std::vector<std::string> problems;

  void problem(std::string p) {
    if (problems.size() < 10) problems.push_back(std::move(p));
  }
  template <typename T>
  bool account(const core::Outcome<T>& o) {
    ++attempted;
    if (o.ok()) return true;
    ++failed;
    ++byError[static_cast<usize>(o.error())];
    return false;
  }
  void absorb(const core::DharmaClient& c) {
    retries += c.counters().retries;
    cacheHits += c.cacheStats().hits;
    cacheMisses += c.cacheStats().misses;
  }
};

/// Measured windows of one cluster's load, possibly over several slices.
/// Throughput and CPU per op are taken per one-second window; the medians
/// over all windows are the reported figures.
struct Phase {
  double seconds = 0;
  u64 ops = 0;
  std::vector<double> rates;  ///< ops/s per window
  std::vector<double> cpus;   ///< process CPU us per op per window

  double opsPerS() const { return median(rates); }
  double cpuUsPerOp() const { return median(cpus); }
};

/// Runs \p generators concurrent generator bodies for \p seconds and
/// appends the windows to \p phase. Each body runs one generator until
/// `stop`, bumping `done` per op.
template <typename Body>
void runPhase(double seconds, usize generators, Body body, Phase& phase) {
  std::atomic<bool> stop{false};
  std::atomic<u64> done{0};
  std::vector<std::thread> threads;
  for (usize g = 0; g < generators; ++g) {
    threads.emplace_back([&, g] { body(g, stop, done); });
  }
  const double window = std::min(1.0, seconds / 4);
  Clock::time_point t0 = Clock::now();
  Clock::time_point winStart = t0;
  u64 winOps = done.load();
  double winCpu = cpuSeconds();
  for (usize w = 1; secondsSince(t0) < seconds - 1e-3; ++w) {
    std::this_thread::sleep_until(
        t0 + std::chrono::microseconds(static_cast<i64>(w * window * 1e6)));
    Clock::time_point now = Clock::now();
    u64 ops = done.load();
    double cpu = cpuSeconds();
    double dt = std::chrono::duration<double>(now - winStart).count();
    if (ops > winOps) {
      phase.rates.push_back(static_cast<double>(ops - winOps) / dt);
      phase.cpus.push_back((cpu - winCpu) * 1e6 /
                           static_cast<double>(ops - winOps));
    }
    winStart = now;
    winOps = ops;
    winCpu = cpu;
  }
  phase.seconds += secondsSince(t0);
  phase.ops += done.load();
  stop = true;
  for (auto& t : threads) t.join();
}

/// Closed-loop Zipf search sessions: each session is a few search steps
/// and ends in a resolveUri of a resource the last step returned.
void readGenerator(LiveCluster& c, const Inputs& in, usize g, usize G,
                   std::atomic<bool>& stop, std::atomic<u64>& done,
                   GenStats& st) {
  const usize nodeIdx = 1 + g;
  core::DharmaClient client(c.rtFor(nodeIdx), c.node(nodeIdx),
                            c.clientConfig(), in.seed + 100 + g,
                            LiveCluster::opPolicy());
  for (; !stop; ++st.sessions) {
    const std::vector<u32>& session =
        in.reads[(g + st.sessions * G) % in.reads.size()];
    std::string resolveRes;
    for (u32 rank : session) {
      const std::string tag = Inputs::tagName(in.tagsByRank[rank]);
      Clock::time_point t0 = Clock::now();
      auto o = client.searchStep(tag);
      st.search.add(usSince(t0));
      ++done;
      if (!st.account(o)) continue;
      // Table I holds for an op that needed no retry.
      if (o.retries == 0 &&
          (o.cost.lookups != 2 || o.cost.servedFromCache != 0)) {
        st.problem("search cost " + std::to_string(o.cost.lookups) +
                   " lookups != 2 for " + tag);
      }
      if (!o->tagKnown || o->resources.empty()) {
        st.problem("search found no resources for preloaded tag " + tag);
      } else {
        resolveRes = o->resources.front().name;
      }
    }
    if (resolveRes.empty()) continue;
    Clock::time_point t0 = Clock::now();
    auto o = client.resolveUri(resolveRes);
    st.resolve.add(usSince(t0));
    ++done;
    if (!st.account(o)) continue;
    if (o.retries == 0 &&
        (o.cost.lookups != 1 || o.cost.servedFromCache != 0)) {
      st.problem("resolve cost " + std::to_string(o.cost.lookups) +
                 " lookups != 1");
    }
    const std::string want =
        Inputs::uriOf(static_cast<u32>(std::stoul(resolveRes.substr(1))));
    if (*o != want) st.problem("resolve " + resolveRes + " gave " + *o);
  }
  st.absorb(client);
}

/// The \p i-th op of a writer replaying \p sub: a writer that reaches the
/// end of its sub-trace replays it again under fresh resource names (lap
/// suffix), so every lap starts from empty r̄ blocks and a faster program
/// never runs out of trace.
struct TraceOp {
  std::string res;
  u32 tag;
};
TraceOp traceOp(const wl::Trace& sub, usize i) {
  const wl::Annotation& a = sub[i % sub.size()];
  const usize lap = i / sub.size();
  std::string res = Inputs::resName(a.res);
  if (lap > 0) res += "~" + std::to_string(lap);
  return TraceOp{std::move(res), a.tag};
}

/// Closed-loop replay of one resource-partition of the annotation trace
/// as approximated tagResource ops.
void writeGenerator(LiveCluster& c, const Inputs& in, const wl::Trace& sub,
                    usize g, std::atomic<bool>& stop, std::atomic<u64>& done,
                    GenStats& st) {
  const usize nodeIdx = 1 + g;
  core::DharmaConfig cfg = c.clientConfig();
  core::DharmaClient client(c.rtFor(nodeIdx), c.node(nodeIdx), cfg,
                            in.seed + 200 + g, LiveCluster::opPolicy());
  for (; !stop && !sub.empty(); ++st.traceDone) {
    const TraceOp op = traceOp(sub, st.traceDone);
    Clock::time_point t0 = Clock::now();
    auto o = client.tagResource(op.res, Inputs::tagName(op.tag));
    st.tag.add(usSince(t0));
    ++done;
    if (!st.account(o)) {
      st.taintedRes.push_back(op.res);
      continue;
    }
    if (o.retries == 0 &&
        (o.cost.lookups > 4 + cfg.k || o.cost.servedFromCache != 0)) {
      st.problem("tag cost " + std::to_string(o.cost.lookups) +
                 " lookups > 4+k");
    }
  }
  st.absorb(client);
}

/// Runs the workload's generators on \p c for \p seconds, continuing
/// where \p per (one entry per generator) left off.
void drive(LiveCluster& c, const RunParams& p, const Inputs& in,
           const std::vector<wl::Trace>& parts, double seconds,
           std::vector<GenStats>& per, Phase& phase) {
  const usize G = per.size();
  const bool reads = p.workload == "read-zipf";
  runPhase(
      seconds, G,
      [&](usize g, std::atomic<bool>& stop, std::atomic<u64>& done) {
        if (reads) {
          readGenerator(c, in, g, G, stop, done, per[g]);
        } else {
          writeGenerator(c, in, parts[g], g, stop, done, per[g]);
        }
      },
      phase);
}

GenStats mergeStats(const std::vector<GenStats>& per) {
  GenStats all;
  for (const GenStats& s : per) {
    all.search.merge(s.search);
    all.resolve.merge(s.resolve);
    all.tag.merge(s.tag);
    all.attempted += s.attempted;
    all.failed += s.failed;
    for (usize e = 0; e < s.byError.size(); ++e) all.byError[e] += s.byError[e];
    all.retries += s.retries;
    all.cacheHits += s.cacheHits;
    all.cacheMisses += s.cacheMisses;
    for (const auto& pr : s.problems) all.problem(pr);
  }
  return all;
}

/// After write-replay, with the loops stopped: the r̄ of sampled resources
/// must equal the completed trace prefix applied to an empty TRG.
void checkResourceBlocks(LiveCluster& c, const std::vector<wl::Trace>& parts,
                         const std::vector<GenStats>& per, Result& out) {
  std::map<std::string, std::map<u32, u64>> expect;
  std::vector<std::string> order;
  for (usize g = 0; g < parts.size(); ++g) {
    for (usize i = 0; i < per[g].traceDone; ++i) {
      TraceOp op = traceOp(parts[g], i);
      if (expect.find(op.res) == expect.end()) order.push_back(op.res);
      ++expect[op.res][op.tag];
    }
  }
  std::vector<std::string> tainted;
  for (const GenStats& s : per) {
    tainted.insert(tainted.end(), s.taintedRes.begin(), s.taintedRes.end());
  }
  // Every 8th distinct resource, plus the one with the most annotations.
  std::vector<std::string> sample;
  for (usize i = 0; i < order.size(); i += 8) sample.push_back(order[i]);
  std::string star;
  u64 starCount = 0;
  for (const auto& [r, tags] : expect) {
    u64 n = 0;
    for (const auto& [t, w] : tags) n += w;
    if (n > starCount) {
      star = r;
      starCount = n;
    }
  }
  if (starCount > 0) sample.push_back(star);
  usize checked = 0;
  for (const std::string& name : sample) {
    if (std::find(tainted.begin(), tainted.end(), name) != tainted.end()) {
      continue;
    }
    // The freshest view over every replica (the system's own max-merge):
    // a STORE lost on one replica is not an error at put quorum 1, but an
    // increment missing from all of them, or applied twice, is.
    const dht::NodeId key = core::blockKey(name, core::BlockType::kResourceTags);
    std::optional<dht::BlockView> view;
    for (const dht::KademliaNode* n : c.nodePtrs()) {
      auto v = n->store().query(key, dht::GetOptions{});
      if (!v) continue;
      if (view) {
        view->mergeMax(*v);
      } else {
        view = std::move(v);
      }
    }
    if (!view) {
      out.fail("r-bar of " + name + " missing after write-replay");
      continue;
    }
    const auto& want = expect[name];
    for (const dht::BlockEntry& e : view->entries) {
      u32 tag = static_cast<u32>(std::stoul(e.name.substr(1)));
      auto it = want.find(tag);
      if (it == want.end() || it->second != e.weight) {
        out.fail("r-bar of " + name + ": " + e.name + "=" +
                 std::to_string(e.weight) + ", trace prefix says " +
                 std::to_string(it == want.end() ? 0 : it->second));
      }
    }
    if (view->entries.size() != want.size()) {
      out.fail("r-bar of " + name + " has " +
               std::to_string(view->entries.size()) + " tags, trace prefix " +
               std::to_string(want.size()));
    }
    ++checked;
  }
  if (checked == 0) out.fail("no resource block could be checked");
}

void reportFailures(const GenStats& s, Result& out) {
  out.attempted += s.attempted;
  out.failed += s.failed;
  for (const auto& pr : s.problems) out.fail(pr);
}

}  // namespace

void runLive(const RunParams& p, const Inputs& in, Result& out) {
  const Sizing sz = sizingFor(p.workload, p.nproc);
  const bool reads = p.workload == "read-zipf";
  const std::vector<wl::Trace> parts =
      splitByResource(in.writeTrace, sz.generators);

  auto setUp = [&](obs::MetricsRegistry* reg, std::vector<double>& times) {
    Clock::time_point t0 = Clock::now();
    auto c = std::make_unique<LiveCluster>(sz.nodes, sz.shards, reg,
                                           p.trace, p.seed);
    c->boot();
    if (reads && !c->preload(in)) out.fail("corpus preload failed");
    times.push_back(secondsSince(t0));
    std::printf("# setup %zu: %.3f s, %llu RPC timeouts\n", times.size(),
                times.back(),
                static_cast<unsigned long long>(c->totals().timeouts));
    return c;
  };

  std::vector<double> setupTimes;
  const usize G = sz.generators;
  {
    // Set-up 1 carries the discarded warm-up.
    auto warm = setUp(nullptr, setupTimes);
    std::vector<GenStats> per(G);
    Phase phase;
    drive(*warm, p, in, parts, kWarmupSeconds, per, phase);
  }
  if (!p.trace) {
    setUp(nullptr, setupTimes);  // set-up 2 is only timed
    auto c = setUp(nullptr, setupTimes);
    std::vector<GenStats> per(G);
    Phase phase;
    drive(*c, p, in, parts, p.seconds, per, phase);
    c->stop();
    if (!reads) {
      for (usize g = 0; g < G; ++g) {
        std::printf("# writer %zu: %zu ops over a part of %zu annotations\n",
                    g, per[g].traceDone, parts[g].size());
      }
      checkResourceBlocks(*c, parts, per, out);
    }
    const GenStats all = mergeStats(per);
    reportFailures(all, out);
    out.set("setup_s", median(setupTimes), "s");
    out.set("ops_per_s", phase.opsPerS(), "1/s");
    out.set("op_p50_us", (reads ? all.search : all.tag).pct(0.50), "us");
    out.set("cpu_us_per_op", phase.cpuUsPerOp(), "us");
    return;
  }

  // Traced mode: an untraced and a traced cluster, driven in alternating
  // slices so both see the same spells of the machine.
  obs::MetricsRegistry reg;
  auto plainC = setUp(nullptr, setupTimes);
  auto tracedC = setUp(&reg, setupTimes);
  LayerBaseline base = layerBaseline(*tracedC);
  std::vector<GenStats> plainPer(G), tracedPer(G);
  Phase plain, traced;
  constexpr double kSlice = 2.0;
  while (plain.seconds + traced.seconds < p.seconds - 1e-3) {
    const double slice =
        std::min(kSlice, (p.seconds - plain.seconds - traced.seconds) / 2);
    drive(*plainC, p, in, parts, slice, plainPer, plain);
    drive(*tracedC, p, in, parts, slice, tracedPer, traced);
  }
  plainC->stop();
  tracedC->stop();
  if (!reads) checkResourceBlocks(*plainC, parts, plainPer, out);
  const GenStats plainAll = mergeStats(plainPer);
  const GenStats tracedAll = mergeStats(tracedPer);
  reportFailures(plainAll, out);
  reportFailures(tracedAll, out);
  reportLiveLayers(*tracedC, base, traced.ops, traced.seconds,
                   reads ? tagKeys(in) : traceKeys(in), out);
  out.set("obs.overhead_ratio", traced.cpuUsPerOp() / plain.cpuUsPerOp() - 1.0,
          "ratio");
  reportOpErrors(tracedAll.byError, tracedAll.retries, tracedAll.attempted,
                 out);
  const double lookups =
      static_cast<double>(tracedAll.cacheHits + tracedAll.cacheMisses);
  out.set("cache.client_hit_ratio",
          lookups > 0 ? static_cast<double>(tracedAll.cacheHits) / lookups
                      : 0.0,
          "ratio");
  // The workload's named end-to-end figures, from the untraced cluster.
  if (reads) {
    out.set("search_p50_us", plainAll.search.pct(0.50), "us");
    out.set("search_p99_us", plainAll.search.pct(0.99), "us");
    out.set("resolve_p50_us", plainAll.resolve.pct(0.50), "us");
  } else {
    out.set("tag_p50_us", plainAll.tag.pct(0.50), "us");
    out.set("tag_p99_us", plainAll.tag.pct(0.99), "us");
  }
}

}  // namespace pb
