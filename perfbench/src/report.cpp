/// \file report.cpp
/// \brief Measurement helpers shared by every workload: process CPU and
/// memory, percentiles, registry histogram deltas, the Result record.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "obs/registry.hpp"
#include "perfbench.hpp"

namespace pb {

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Samples::pct(double q) const {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  usize idx = static_cast<usize>(q * static_cast<double>(s.size() - 1) + 0.5);
  std::nth_element(s.begin(), s.begin() + static_cast<long>(idx), s.end());
  return s[idx];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  usize n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

double quartile(std::vector<double> xs, int q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q / 4.0 * static_cast<double>(xs.size() - 1);
  const usize lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

obs::HistogramSnapshot histDelta(const obs::HistogramSnapshot& after,
                                 const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = after;
  for (usize b = 0; b < d.buckets.size(); ++b) {
    d.buckets[b] -= std::min(d.buckets[b], before.buckets[b]);
  }
  d.sum -= std::min(d.sum, before.sum);
  return d;
}

void reportOpErrors(const std::array<u64, core::kOpErrorCount>& byError,
                    u64 retries, u64 ops, Result& out) {
  static constexpr const char* kNames[core::kOpErrorCount] = {
      "core.errors.not_found", "core.errors.quorum_failed",
      "core.errors.timeout", "core.errors.node_offline"};
  for (usize e = 0; e < byError.size(); ++e) {
    out.set(kNames[e], static_cast<double>(byError[e]), "count");
  }
  out.set("core.retries_per_kop",
          ops == 0 ? 0.0
                   : 1000.0 * static_cast<double>(retries) /
                         static_cast<double>(ops),
          "1/kop");
}

void Result::fail(const std::string& why) {
  correct = false;
  if (problems.size() < 50) problems.push_back(why);
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, vu] : metrics) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

double Result::get(const std::string& name) const {
  for (const auto& [n, vu] : metrics) {
    if (n == name) return vu.first;
  }
  return 0.0;
}

}  // namespace pb
