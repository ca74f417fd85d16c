/// \file inputs.cpp
/// \brief Workload generation. Everything a workload feeds the system is
/// derived here from --seed; the program only ever sees the generated ops.

#include <algorithm>

#include "core/keys.hpp"
#include "perfbench.hpp"
#include "workload/synth.hpp"

namespace pb {

namespace {

/// Scale of the preloaded corpus (read-zipf, gateway-mixed): ~420
/// resources and ~110 tags with Last.fm's degree shape, small enough to
/// preload three times per run.
constexpr double kCorpusScale = 0.0003;
/// Scale of the TRG behind the annotation trace (write-replay, sim-replay,
/// the gateway's POSTs): 22k annotations. A write-replay writer that gets
/// to the end of its part replays it under fresh resource names.
constexpr double kTraceScale = 0.002;

constexpr u64 kReadSessions = 50'000;
constexpr u32 kStepsPerSession = 3;

}  // namespace

Inputs makeInputs(u64 seed) {
  Inputs in;
  in.seed = seed;
  in.corpus = wl::generate(wl::SynthConfig::lastfmScaled(kCorpusScale, seed));
  for (u32 r = 0; r < in.corpus.resourceSpan(); ++r) {
    if (in.corpus.resourceDegree(r) > 0) in.resources.push_back(r);
  }
  for (u32 t = 0; t < in.corpus.tagSpan(); ++t) {
    if (in.corpus.tagDegree(t) > 0) in.tagsByRank.push_back(t);
  }
  std::stable_sort(in.tagsByRank.begin(), in.tagsByRank.end(),
                   [&](u32 a, u32 b) {
                     return in.corpus.tagDegree(a) > in.corpus.tagDegree(b);
                   });

  const u64 traceSeed = seed * 0x9E3779B97F4A7C15ULL + 1;
  folk::Trg traceTrg =
      wl::generate(wl::SynthConfig::lastfmScaled(kTraceScale, traceSeed));
  in.writeTrace = wl::buildPaperOrderTrace(traceTrg, traceSeed);

  wl::ZipfReadConfig rc;
  rc.tagUniverse = static_cast<u32>(in.tagsByRank.size());
  rc.sessions = kReadSessions;
  rc.stepsPerSession = kStepsPerSession;
  rc.alpha = 1.0;
  rc.seed = seed;
  in.reads = wl::makeZipfReadTrace(rc);
  return in;
}

std::vector<dht::NodeId> tagKeys(const Inputs& in) {
  std::vector<dht::NodeId> keys;
  for (usize i = 0; i < std::min<usize>(64, in.tagsByRank.size()); ++i) {
    const std::string t = Inputs::tagName(in.tagsByRank[i]);
    keys.push_back(core::blockKey(t, core::BlockType::kTagResources));
    keys.push_back(core::blockKey(t, core::BlockType::kTagNeighbors));
  }
  return keys;
}

std::vector<dht::NodeId> traceKeys(const Inputs& in) {
  std::vector<dht::NodeId> keys;
  for (usize i = 0; i < std::min<usize>(128, in.writeTrace.size()); ++i) {
    keys.push_back(core::blockKey(Inputs::resName(in.writeTrace[i].res),
                                  core::BlockType::kResourceTags));
  }
  return keys;
}

std::vector<wl::Trace> splitByResource(const wl::Trace& trace, usize parts) {
  std::vector<wl::Trace> out(parts);
  for (const wl::Annotation& a : trace) out[a.res % parts].push_back(a);
  return out;
}

}  // namespace pb
