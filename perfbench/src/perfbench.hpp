#pragma once
/// \file perfbench.hpp
/// \brief Shared vocabulary of the repository benchmark program.
///
/// One binary runs one named workload per invocation:
///
///   perfbench --workload <read-zipf|write-replay|gateway-mixed|sim-replay>
///             --seed N --seconds S --trace 0|1
///
/// With --trace 0 it measures the untraced system and reports the
/// end-to-end metrics; with --trace 1 it drives an untraced and a traced
/// system in alternating slices and reports the per-layer metrics plus the
/// tracing overhead between the two. The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.

#include <array>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/outcome.hpp"
#include "dht/kademlia_node.hpp"
#include "folksonomy/trg.hpp"
#include "obs/histogram.hpp"
#include "util/types.hpp"
#include "workload/readwl.hpp"
#include "workload/trace.hpp"

namespace dharma::obs {
class MetricsRegistry;
struct RegistrySnapshot;
}  // namespace dharma::obs

namespace pb {

using namespace dharma;
using Clock = std::chrono::steady_clock;

inline double usSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}
inline double secondsSince(Clock::time_point t0) { return usSince(t0) / 1e6; }

/// Process user+sys CPU seconds (getrusage).
double cpuSeconds();
/// Peak resident set size of the process, MiB.
double peakRssMb();

/// Latency samples; percentiles by nearest rank on a sorted copy.
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  void merge(const Samples& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
  usize size() const { return v.size(); }
  double pct(double q) const;
};

double median(std::vector<double> xs);
/// The \p q-th quartile (1 or 3) of \p xs, linear interpolation.
double quartile(std::vector<double> xs, int q);

/// after − before, bucket-wise (max is after's).
obs::HistogramSnapshot histDelta(const obs::HistogramSnapshot& after,
                                 const obs::HistogramSnapshot& before);
inline double histMean(const obs::HistogramSnapshot& h) {
  return h.count() == 0 ? 0.0
                        : static_cast<double>(h.sum) /
                              static_cast<double>(h.count());
}

/// Registry histograms by series id (name{labels}).
using HistMap = std::map<std::string, obs::HistogramSnapshot>;
HistMap histMap(const obs::RegistrySnapshot& s);
/// Merged after − before of every series whose id is \p name or starts
/// with "name{" and, if given, contains \p label.
obs::HistogramSnapshot deltaOf(const HistMap& after, const HistMap& before,
                               const std::string& name,
                               const std::string& label = "");

/// The run's verdict and numbers; rendered as the final JSON line.
struct Result {
  bool correct = true;
  std::vector<std::string> problems;  ///< correctness failures, printed
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void fail(const std::string& why);
  void set(const std::string& name, double value, const std::string& unit);
  /// Value of an already-set metric (0 if absent).
  double get(const std::string& name) const;
};

/// Engine-side per-layer metrics (dht.*, core.*, cache.node_hit_ratio)
/// from registry deltas and summed node counters, shared by the live and
/// simulated runs.
void reportEngineLayers(const HistMap& after, const HistMap& before,
                        const dht::NodeCounters& n,
                        const dht::NodeCounters& n0, u64 ops, Result& out);
/// core.errors.* by OpError kind and core.retries_per_kop.
void reportOpErrors(const std::array<u64, core::kOpErrorCount>& byError,
                    u64 retries, u64 ops, Result& out);
dht::NodeCounters sumCounters(const std::vector<const dht::KademliaNode*>& ns);
/// RoutingTable::closest(key, k) over every node's final table.
double timeClosest(const std::vector<const dht::KademliaNode*>& nodes,
                   const std::vector<dht::NodeId>& keys);
double timeParse(const std::vector<std::string>& requests);

// ---------------------------------------------------------------------------
// Inputs: everything the program sees is generated here from --seed.
// ---------------------------------------------------------------------------

struct Inputs {
  u64 seed = 0;
  folk::Trg corpus;             ///< Last.fm-shaped TRG (preload, reads)
  std::vector<u32> resources;   ///< used resource ids
  std::vector<u32> tagsByRank;  ///< used tag ids, most popular first
  wl::Trace writeTrace;         ///< paper-order annotation trace
  wl::ReadTrace reads;          ///< Zipf(1) search sessions over tag ranks

  static std::string tagName(u32 t) { return "t" + std::to_string(t); }
  static std::string resName(u32 r) { return "r" + std::to_string(r); }
  static std::string uriOf(u32 r) { return "uri://res/" + std::to_string(r); }
};

Inputs makeInputs(u64 seed);

/// Block keys the workloads touch, for timing RoutingTable::closest: the
/// t̄/t̂ keys of the 64 most popular tags, and the r̄ keys of the first 128
/// annotations of the trace.
std::vector<dht::NodeId> tagKeys(const Inputs& in);
std::vector<dht::NodeId> traceKeys(const Inputs& in);

/// Splits the write trace by resource into \p parts sub-traces (resource r
/// goes to part r % parts) so no two writers ever race on one r̄.
std::vector<wl::Trace> splitByResource(const wl::Trace& trace, usize parts);

// ---------------------------------------------------------------------------
// Run parameters and workloads.
// ---------------------------------------------------------------------------

struct RunParams {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  usize nproc = 1;
};

/// Load sizing shared by the live workloads (see README.md): shard loops
/// plus generator threads (plus client connections, for the gateway) never
/// exceed nproc.
struct Sizing {
  usize nodes = 32;
  usize shards = 2;
  usize generators = 2;
};
Sizing sizingFor(const std::string& workload, usize nproc);

/// Discarded warm-up ahead of every measured phase.
constexpr double kWarmupSeconds = 1.0;

void runLive(const RunParams& p, const Inputs& in, Result& out);
void runGateway(const RunParams& p, const Inputs& in, Result& out);
void runSim(const RunParams& p, const Inputs& in, Result& out);

}  // namespace pb
