/// \file main.cpp
/// \brief perfbench entry point: argument parsing, load sizing, the metric
/// catalogue and the final JSON line. See perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "net/datagram.hpp"
#include "perfbench.hpp"
#include "util/logging.hpp"

namespace pb {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"}, {"op_p50_us", "us"},
    {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, reported by every workload with --trace 1. A layer a
/// workload does not run reports 0 (see README.md for which apply where).
constexpr MetricDef kPerLayer[] = {
    {"net.datagrams_per_op", "1/op"},
    {"net.bytes_per_op", "B/op"},
    {"net.recv_batch_mean", "count"},
    {"net.send_p50_us", "us"},
    {"net.shard_wait_p50_us", "us"},
    {"net.shard_wait_p99_us", "us"},
    {"net.shard_run_p50_us", "us"},
    {"net.shard_run_p99_us", "us"},
    {"net.shard_busy_max", "ratio"},
    {"net.shard_imbalance", "ratio"},
    {"net.sim_events_per_op", "1/op"},
    {"crypto.verify_us", "us"},
    {"crypto.verifies_per_op", "1/op"},
    {"dht.handle_p50_us", "us"},
    {"dht.handle_p99_us", "us"},
    {"dht.decode_us", "us"},
    {"dht.rpc_service_p50_us.find_node", "us"},
    {"dht.rpc_service_p50_us.find_value", "us"},
    {"dht.rpc_service_p50_us.store", "us"},
    {"dht.lookup_p50_us.node", "us"},
    {"dht.lookup_p50_us.value", "us"},
    {"dht.lookup_p99_us.node", "us"},
    {"dht.lookup_p99_us.value", "us"},
    {"dht.lookup_hops_p50", "rpcs"},
    {"dht.rpcs_per_put", "rpcs"},
    {"dht.rpcs_per_get", "rpcs"},
    {"dht.lookups_per_op", "1/op"},
    {"dht.timeouts_per_kop", "1/kop"},
    {"dht.closest_us", "us"},
    {"dht.apply_us", "us"},
    {"dht.store_dedup_ratio", "ratio"},
    {"cache.client_hit_ratio", "ratio"},
    {"cache.node_hit_ratio", "ratio"},
    {"core.op_p50_us.search", "us"},
    {"core.op_p50_us.resolve", "us"},
    {"core.op_p50_us.tag", "us"},
    {"core.block_p50_us", "us"},
    {"core.retries_per_kop", "1/kop"},
    {"core.errors.not_found", "count"},
    {"core.errors.quorum_failed", "count"},
    {"core.errors.timeout", "count"},
    {"core.errors.node_offline", "count"},
    {"gateway.parse_us", "us"},
    {"gateway.route_p50_us.search", "us"},
    {"gateway.route_p50_us.resolve", "us"},
    {"gateway.route_p50_us.post_tags", "us"},
    {"gateway.route_p99_us.search", "us"},
    {"gateway.route_p99_us.resolve", "us"},
    {"gateway.route_p99_us.post_tags", "us"},
    {"gateway.edge_p50_us", "us"},
    {"gateway.rejected_ratio", "ratio"},
    {"gateway.non2xx", "count"},
    {"gateway.bytes_per_req", "B"},
    {"gateway.lateness_p99_us", "us"},
    {"obs.overhead_ratio", "ratio"},
    {"search_p50_us", "us"},
    {"search_p99_us", "us"},
    {"resolve_p50_us", "us"},
    {"tag_p50_us", "us"},
    {"tag_p99_us", "us"},
    {"http_p50_us", "us"},
    {"http_p99_us", "us"},
    {"http_max_rps", "1/s"},
    {"failed_ratio", "ratio"},
};

const char* const kWorkloads[] = {"read-zipf", "write-replay", "gateway-mixed",
                                  "sim-replay"};

bool knownWorkload(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <read-zipf|write-replay|"
               "gateway-mixed|sim-replay> --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

RunParams parseArgs(int argc, char** argv) {
  RunParams p;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    std::string val = argv[++i];
    try {
      if (key == "--workload") {
        p.workload = val;
        haveWorkload = true;
      } else if (key == "--seed") {
        p.seed = std::stoull(val);
      } else if (key == "--seconds") {
        p.seconds = std::stod(val);
      } else if (key == "--trace") {
        p.trace = std::stoi(val) != 0;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      usage("bad value '" + val + "' for " + key);
    }
  }
  if (!haveWorkload || !knownWorkload(p.workload)) {
    usage("unknown or missing --workload");
  }
  if (!(p.seconds >= 1.0 && p.seconds <= 120.0)) {
    usage("--seconds must be in [1, 120]");
  }
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  p.nproc = n > 0 ? static_cast<usize>(n) : 1;
  return p;
}

void printResult(const RunParams& p, Result& r) {
  if (r.attempted == 0) r.fail("no operation was attempted");
  if (p.trace) {
    r.set("failed_ratio",
          r.attempted == 0 ? 1.0
                           : static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted),
          "ratio");
  } else {
    r.set("peak_rss_mb", peakRssMb(), "MB");
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", r.get(d.name));
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + d.unit + "\"}";
  };
  if (p.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  json += "}}";
  for (const std::string& why : r.problems) {
    std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
  }
  std::cout << json << std::endl;
}

}  // namespace

Sizing sizingFor(const std::string& workload, usize nproc) {
  Sizing s;
  if (workload == "gateway-mixed") {
    // One open-loop generator thread with two keep-alive connections, and
    // the single shard dharma_gateway runs by default: 1 + 2 + 1. A small
    // overlay keeps the gateway's own share of each request visible.
    s.nodes = 8;
    s.shards = 1;
    s.generators = 1;
    return s;
  }
  // Two shard loops and two closed-loop generator threads on four cores;
  // fewer on smaller machines.
  s.shards = nproc >= 4 ? 2 : 1;
  s.generators = nproc >= 4 ? 2 : 1;
  return s;
}

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  RunParams p = parseArgs(argc, argv);
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with assertions on\n";
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build (Release only)\n";
    return 2;
  }
  dharma::setLogLevel(dharma::LogLevel::kWarn);

  const Sizing sz = sizingFor(p.workload, p.nproc);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              p.workload.c_str(), static_cast<unsigned long long>(p.seed),
              p.seconds, p.trace ? 1 : 0);
  std::printf("# nproc=%zu build=%s backend=%s\n", p.nproc,
              PERFBENCH_BUILD_TYPE,
              net::netBackendName(net::defaultNetBackend()));
  if (p.workload != "sim-replay") {
    std::printf("# live cluster: nodes=%zu shards=%zu generators=%zu\n",
                sz.nodes, sz.shards, sz.generators);
  }
  std::fflush(stdout);

  Inputs in = makeInputs(p.seed);
  Result r;
  if (p.workload == "sim-replay") {
    runSim(p, in, r);
  } else if (p.workload == "gateway-mixed") {
    runGateway(p, in, r);
  } else {
    runLive(p, in, r);
  }
  printResult(p, r);
  return r.correct ? 0 : 1;
}
