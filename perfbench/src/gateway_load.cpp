/// \file gateway_load.cpp
/// \brief gateway-mixed: open-loop HTTP/1.1 keep-alive load over loopback
/// TCP against an in-process GatewayServer set up like dharma_gateway's
/// defaults (client cache on, 4 workers, one shard).
///
/// One generator thread drives two pipelined keep-alive connections. The
/// run is a series of cycles; each offers a ladder of rates (Poisson
/// arrivals from the seed) and drains. Each request is timed from when it
/// was DUE, so a stall also charges the requests queued behind it, and the
/// generator's own lateness is reported. A request that fails or is
/// refused (non-2xx, 503) counts as failed and as missing the latency
/// limit.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <map>

#include "core/keys.hpp"
#include "gateway/http_client.hpp"
#include "gateway/server.hpp"
#include "live.hpp"
#include "util/rng.hpp"

namespace pb {

namespace {

/// The ladder: offered rate (requests/s) and share of the measured time.
/// Rung 0 is the reference rate whose p50/p99 are the workload's latency
/// figures. It stays near a tenth of the capacity, so a machine running at
/// half speed does not yet queue it: at 1000 req/s the p50 grew sixfold
/// whenever the capacity fell to about 2000 req/s. The last rung offers more than the gateway serves, so its
/// completion rate is the gateway's capacity. The rate given here is the
/// last rung's floor: later cycles offer kOverloadFactor times the capacity
/// earlier cycles measured (nextLadder).
struct Rung {
  double rate;
  double share;
};
constexpr Rung kLadder[] = {
    {400, 0.4}, {1000, 0.15}, {2000, 0.15}, {3000, 0.15}, {6000, 0.15}};
constexpr usize kReferenceRung = 0;
constexpr double kOverloadFactor = 2;
/// The capacity figure is only valid while the gateway, not the offered
/// load, is the limit: it must stay below this share of the rate the
/// generator actually issued on the last rung.
constexpr double kMaxCapacityShare = 0.9;
/// Completions are counted per window of this length.
constexpr double kWindowSeconds = 0.05;
/// p99 limit a ladder rate must meet to count toward http_max_rps.
constexpr double kP99LimitUs = 20'000;
constexpr usize kConnections = 2;
constexpr double kDrainSeconds = 5;

enum class Kind : u8 { kSearch, kResolve, kPostTags };

/// The request stream, generated from the seed: Zipf search tags, corpus
/// resolves, trace-order tag POSTs, mixed 60/25/15 like
/// bench_gateway_throughput (docs/EXPERIMENTS.md).
struct RequestGen {
  const Inputs& in;
  Rng rng;
  usize readPos = 0;
  usize writePos = 0;

  RequestGen(const Inputs& inputs, u64 seed) : in(inputs), rng(seed) {}

  struct Req {
    Kind kind;
    std::string bytes;
    u32 res = 0;  ///< resolve target
  };

  Req next() {
    u64 dice = rng.uniform(100);
    Req r;
    if (dice < 60) {
      const auto& session = in.reads[(readPos / 3) % in.reads.size()];
      u32 rank = session[readPos % session.size()];
      ++readPos;
      r.kind = Kind::kSearch;
      r.bytes = "GET /search?tag=" + Inputs::tagName(in.tagsByRank[rank]) +
                " HTTP/1.1\r\nHost: bench\r\n\r\n";
    } else if (dice < 85) {
      r.kind = Kind::kResolve;
      r.res = in.resources[rng.uniform(in.resources.size())];
      r.bytes = "GET /resolve/" + Inputs::resName(r.res) +
                " HTTP/1.1\r\nHost: bench\r\n\r\n";
    } else {
      const wl::Annotation& a =
          in.writeTrace[writePos++ % in.writeTrace.size()];
      std::string body = Inputs::tagName(a.tag) + "\n";
      r.kind = Kind::kPostTags;
      r.bytes = "POST /resources/" + Inputs::resName(a.res) +
                "/tags HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body;
    }
    return r;
  }
};

struct Pending {
  Clock::time_point due;
  usize rung;
  Kind kind;
  u32 res;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<Pending> pending;
};

struct RungStats {
  double rate = 0;
  double seconds = 0;
  Samples lat;  ///< failed requests enter as +inf
  Samples late;  ///< how late the generator issued each request, us
  u64 sent = 0;
  u64 failed = 0;
  usize backlogAtEnd = 0;
};

struct LadderResult {
  std::vector<RungStats> rungs;
  std::vector<u32> completions;  ///< per kWindowSeconds since the start
  Samples lateness;
  u64 attempted = 0;
  u64 failed = 0;
  u64 non2xx = 0;
  double cpuSeconds = 0;
  std::vector<std::string> sentSample;  ///< request bytes for parse timing
  std::vector<std::string> problems;
};

int connectTo(u16 port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return fd;
}

/// Parses complete responses off \p c.in; calls \p done(status, body) per
/// response. Returns false on a malformed response.
template <typename F>
bool takeResponses(Conn& c, F&& done) {
  while (true) {
    usize hdrEnd = c.in.find("\r\n\r\n");
    if (hdrEnd == std::string::npos) return true;
    if (c.in.compare(0, 9, "HTTP/1.1 ") != 0) return false;
    u16 status = static_cast<u16>(std::atoi(c.in.c_str() + 9));
    usize len = 0;
    usize cl = c.in.find("Content-Length: ");
    if (cl != std::string::npos && cl < hdrEnd) {
      len = static_cast<usize>(std::atol(c.in.c_str() + cl + 16));
    }
    if (c.in.size() < hdrEnd + 4 + len) return true;
    std::string_view body(c.in.data() + hdrEnd + 4, len);
    if (status != 100) done(status, body);
    c.in.erase(0, hdrEnd + 4 + len);
  }
}

/// Drives the ladder \p rungs (the measured \p seconds split by share)
/// against the gateway on \p port. The generator is one thread; the call
/// returns when every request was answered or the drain deadline passed.
LadderResult runLadder(u16 port, const Inputs& in, u64 seed,
                       const std::vector<Rung>& rungs, double seconds) {
  LadderResult res;
  res.rungs.resize(rungs.size());
  std::vector<double> rates;
  std::vector<double> ends;
  double t = 0;
  for (usize i = 0; i < rungs.size(); ++i) {
    res.rungs[i].rate = rungs[i].rate;
    res.rungs[i].seconds = rungs[i].share * seconds;
    rates.push_back(rungs[i].rate);
    t += res.rungs[i].seconds;
    ends.push_back(t);
  }
  std::vector<Conn> conns(kConnections);
  auto closeAll = [&] {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
  };
  for (Conn& c : conns) {
    c.fd = connectTo(port);
    if (c.fd < 0) {
      res.problems.push_back("cannot connect to the gateway");
      closeAll();
      return res;
    }
  }
  RequestGen gen(in, seed);
  Rng arrivals(seed ^ 0xA5A5A5A5ULL);
  const double cpu0 = cpuSeconds();
  const Clock::time_point start = Clock::now();
  Clock::time_point due = start;
  usize rung = 0;
  auto rungEnd = [&](usize r) {
    return start + std::chrono::microseconds(static_cast<i64>(ends[r] * 1e6));
  };
  Clock::time_point drainDeadline{};
  bool generating = true;
  usize outstanding = 0;

  auto fail = [&](const Pending& p) {
    RungStats& rs = res.rungs[p.rung];
    ++rs.failed;
    ++res.failed;
    rs.lat.add(INFINITY);
  };

  bool broken = false;
  while (!broken) {
    Clock::time_point now = Clock::now();
    // Issue every request that is due.
    while (generating && due <= now) {
      while (rung < rates.size() && due >= rungEnd(rung)) {
        res.rungs[rung].backlogAtEnd = outstanding;
        ++rung;
      }
      if (rung == rates.size()) {
        generating = false;
        drainDeadline = now + std::chrono::microseconds(
                                  static_cast<i64>(kDrainSeconds * 1e6));
        break;
      }
      RequestGen::Req rq = gen.next();
      Conn* c = &conns[0];
      for (Conn& cc : conns) {
        if (cc.pending.size() < c->pending.size()) c = &cc;
      }
      c->out += rq.bytes;
      c->pending.push_back(Pending{due, rung, rq.kind, rq.res});
      if (res.sentSample.size() < 1000) res.sentSample.push_back(rq.bytes);
      const double lateUs =
          std::chrono::duration<double, std::micro>(now - due).count();
      res.lateness.add(lateUs);
      res.rungs[rung].late.add(lateUs);
      ++res.rungs[rung].sent;
      ++res.attempted;
      ++outstanding;
      due += std::chrono::microseconds(static_cast<i64>(
          arrivals.exponential(rates[rung]) * 1e6));
    }
    if (!generating && (outstanding == 0 || now >= drainDeadline)) break;

    // Flush, then wait for replies or the next due time.
    pollfd pfds[kConnections];
    for (usize i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      while (!c.out.empty()) {
        ssize_t w = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (w <= 0) break;
        c.out.erase(0, static_cast<usize>(w));
      }
      pfds[i] = pollfd{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    Clock::time_point wake = generating ? due : drainDeadline;
    i64 waitUs = std::chrono::duration_cast<std::chrono::microseconds>(
                     wake - Clock::now())
                     .count();
    timespec ts{static_cast<time_t>(std::max<i64>(0, waitUs) / 1'000'000),
                static_cast<long>(std::max<i64>(0, waitUs) % 1'000'000 * 1000)};
    if (::ppoll(pfds, conns.size(), &ts, nullptr) <= 0) continue;
    for (usize i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[65536];
      ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
      if (r <= 0) {
        if (r < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        res.problems.push_back("gateway closed a keep-alive connection");
        for (const Pending& p : c.pending) fail(p);
        outstanding -= c.pending.size();
        c.pending.clear();
        ::close(c.fd);
        c.fd = connectTo(port);
        if (c.fd < 0) {
          broken = true;
          break;
        }
        continue;
      }
      c.in.append(buf, static_cast<usize>(r));
      Clock::time_point at = Clock::now();
      const usize window = static_cast<usize>(
          std::chrono::duration<double>(at - start).count() / kWindowSeconds);
      bool ok = takeResponses(c, [&](u16 status, std::string_view body) {
        if (c.pending.empty()) return;
        Pending p = c.pending.front();
        c.pending.pop_front();
        --outstanding;
        if (status < 200 || status >= 300) {
          ++res.non2xx;
          fail(p);
          return;
        }
        if (p.kind == Kind::kResolve) {
          std::string want = "\"uri\":\"" + Inputs::uriOf(p.res) + "\"";
          if (body.find(want) == std::string_view::npos &&
              res.problems.size() < 10) {
            res.problems.push_back("GET /resolve/" + Inputs::resName(p.res) +
                                   " answered " + std::string(body));
          }
        }
        res.rungs[p.rung].lat.add(
            std::chrono::duration<double, std::micro>(at - p.due).count());
        if (res.completions.size() <= window) {
          res.completions.resize(window + 1, 0);
        }
        ++res.completions[window];
      });
      if (!ok) res.problems.push_back("malformed HTTP response");
    }
  }
  for (Conn& c : conns) {
    for (const Pending& p : c.pending) fail(p);
  }
  closeAll();
  res.cpuSeconds = cpuSeconds() - cpu0;
  return res;
}

/// Ladder cycles of one gateway, each run on fresh connections with its
/// own request stream. The run reports the least disturbed quartile of the
/// per-cycle figures: interference on a shared host comes in spells of
/// seconds, and with POSTs holding a connection for milliseconds, a spell
/// moved a cycle's capacity by up to a half.
struct CycleSet {
  std::vector<LadderResult> cycles;
  LadderResult merged;  ///< all cycles' rung samples together

  void add(LadderResult r) {
    LadderResult& m = merged;
    m.rungs.resize(r.rungs.size());
    for (usize i = 0; i < r.rungs.size(); ++i) {
      RungStats& mr = m.rungs[i];
      const RungStats& rr = r.rungs[i];
      mr.rate = rr.rate;
      mr.seconds += rr.seconds;
      mr.lat.merge(rr.lat);
      mr.late.merge(rr.late);
      mr.sent += rr.sent;
      mr.failed += rr.failed;
      mr.backlogAtEnd = std::max(mr.backlogAtEnd, rr.backlogAtEnd);
    }
    m.lateness.merge(r.lateness);
    m.attempted += r.attempted;
    m.failed += r.failed;
    m.non2xx += r.non2xx;
    m.cpuSeconds += r.cpuSeconds;
    if (m.sentSample.empty()) m.sentSample = r.sentSample;
    m.problems.insert(m.problems.end(), r.problems.begin(), r.problems.end());
    cycles.push_back(std::move(r));
  }

  void print() const {
    for (usize i = 0; i < merged.rungs.size(); ++i) {
      const RungStats& s = merged.rungs[i];
      std::printf("# rung %zu (last offered %.0f req/s): issued %.0f req/s, "
                  "sent %llu failed %llu p50 %.0f us p99 %.0f us backlog %zu "
                  "lateness p99 %.0f us\n",
                  i, s.rate, static_cast<double>(s.sent) / s.seconds,
                  static_cast<unsigned long long>(s.sent),
                  static_cast<unsigned long long>(s.failed), s.lat.pct(0.5),
                  s.lat.pct(0.99), s.backlogAtEnd, s.late.pct(0.99));
    }
  }
};

double cpuPerOp(const LadderResult& r) {
  const u64 done = r.attempted - r.failed;
  return done == 0 ? 0.0 : r.cpuSeconds * 1e6 / static_cast<double>(done);
}

/// Per-cycle figure \p f of every cycle.
template <typename F>
std::vector<double> perCycle(const CycleSet& s, F&& f) {
  std::vector<double> xs;
  for (const LadderResult& r : s.cycles) xs.push_back(f(r));
  return xs;
}

/// Requests/s the gateway completed while the last (overload) rung was
/// offered: the median over the rung's whole windows, skipping its first
/// fifth while the backlog builds.
double capacity(const LadderResult& r) {
  double begin = 0;
  for (usize i = 0; i + 1 < r.rungs.size(); ++i) begin += r.rungs[i].seconds;
  const double end = begin + r.rungs.back().seconds;
  begin += 0.2 * r.rungs.back().seconds;
  std::vector<double> rates;
  for (usize w = static_cast<usize>(std::ceil(begin / kWindowSeconds));
       w + 1 <= static_cast<usize>(end / kWindowSeconds) &&
       w < r.completions.size();
       ++w) {
    rates.push_back(r.completions[w] / kWindowSeconds);
  }
  return median(rates);
}

/// Requests/s the generator issued on the last rung.
double issuedOverload(const LadderResult& r) {
  const RungStats& s = r.rungs.back();
  return static_cast<double>(s.sent) / s.seconds;
}

/// The ladder for the next cycle of \p s: kLadder, with the last rung
/// offering kOverloadFactor times the capacity the earlier cycles measured
/// (never less than kLadder's rate), so the offered rate cannot cap the
/// capacity figure.
std::vector<Rung> nextLadder(const CycleSet& s) {
  std::vector<Rung> ladder(std::begin(kLadder), std::end(kLadder));
  if (!s.cycles.empty()) {
    ladder.back().rate = std::max(
        ladder.back().rate, kOverloadFactor * median(perCycle(s, capacity)));
  }
  return ladder;
}

/// The gateway's capacity over the cycles of \p s (upper quartile); fails
/// the run if the generator, not the gateway, was the limit.
double checkedCapacity(const CycleSet& s, Result& out) {
  const std::vector<double> caps = perCycle(s, capacity);
  std::printf("# cycle capacities (req/s):");
  for (double c : caps) std::printf(" %.0f", c);
  std::printf("\n");
  const double cap = quartile(caps, 3);
  const double issued = quartile(perCycle(s, issuedOverload), 1);
  std::printf("# capacity %.0f req/s; the last rung issued %.0f req/s\n", cap,
              issued);
  if (!(cap < kMaxCapacityShare * issued)) {
    out.fail("gateway capacity " + std::to_string(cap) +
             " req/s is not below " + std::to_string(kMaxCapacityShare) +
             " of the " + std::to_string(issued) +
             " req/s the generator issued: the load, not the gateway, "
             "was the limit");
  }
  return cap;
}

/// Highest offered rate whose p99 meets the limit with every lower rung
/// meeting it too, interpolated (log p99) between the last passing and the
/// first failing rung.
double maxRps(const LadderResult& r) {
  double prevRate = 0;
  double prevP99 = 0;
  for (const RungStats& s : r.rungs) {
    double p99 = s.lat.pct(0.99);
    if (!(p99 <= kP99LimitUs)) {
      if (prevRate == 0) return s.rate * kP99LimitUs / p99;
      if (!std::isfinite(p99)) return prevRate;
      double x = (std::log(kP99LimitUs) - std::log(prevP99)) /
                 (std::log(p99) - std::log(prevP99));
      return prevRate + x * (s.rate - prevRate);
    }
    prevRate = s.rate;
    prevP99 = std::max(p99, 1.0);
  }
  return prevRate;
}

/// Ordered (name, weight) pairs of a search answer body.
std::vector<std::pair<std::string, u64>> entriesOf(std::string_view body) {
  std::vector<std::pair<std::string, u64>> out;
  const std::string_view key = "{\"name\":\"";
  for (usize pos = body.find(key); pos != std::string_view::npos;
       pos = body.find(key, pos + 1)) {
    usize nameStart = pos + key.size();
    usize nameEnd = body.find('"', nameStart);
    usize w = body.find("\"weight\":", nameEnd);
    if (nameEnd == std::string_view::npos || w == std::string_view::npos) break;
    out.emplace_back(std::string(body.substr(nameStart, nameEnd - nameStart)),
                     std::strtoull(body.data() + w + 9, nullptr, 10));
  }
  return out;
}

/// A booted, preloaded cluster with the gateway in front of node 0.
struct GatewayStack {
  LiveCluster cluster;
  std::unique_ptr<core::DharmaClient> client;
  std::unique_ptr<gateway::GatewayServer> server;

  GatewayStack(const Sizing& sz, obs::MetricsRegistry* reg, bool tapped,
               u64 seed)
      : cluster(sz.nodes, sz.shards, reg, tapped, seed) {}
  ~GatewayStack() {
    // Drain the gateway first: its workers block through the runtime.
    if (server) server->stop();
  }
};

/// The freshest view of \p key: every replica's store, read on its node's
/// own loop, max-merged. Every answer a replica gave earlier is below it.
std::map<std::string, u64> mergedEntries(LiveCluster& c, const dht::NodeId& key) {
  std::map<std::string, u64> out;
  for (usize i = 0; i < c.size(); ++i) {
    std::optional<dht::BlockView> v;
    c.rtFor(i).awaitDone([&](std::function<void()> done) {
      v = c.node(i).store().query(key, dht::GetOptions{});
      done();
    });
    if (!v) continue;
    for (const dht::BlockEntry& e : v->entries) {
      out[e.name] = std::max(out[e.name], e.weight);
    }
  }
  return out;
}

/// Sampled HTTP answers checked against references the gateway's cache
/// cannot reach. A resolve must give the seeded URI, also through a direct
/// client with the cache off on another node. A search answer must be
/// non-empty and below the max-merge of every replica's t̂ and t̄ (blocks
/// only grow, and the gateway may serve a cached view up to its TTL old):
/// no entry the overlay does not hold, no weight above it. Answers equal
/// to the direct client's are counted as fresh.
void checkAnswers(GatewayStack& g, const Inputs& in, u64 seed, Result& out) {
  gateway::HttpClient http;
  if (!http.connect("127.0.0.1", g.server->port())) {
    out.fail("check: cannot connect to the gateway");
    return;
  }
  constexpr usize kRefNode = 1;
  core::DharmaClient direct(g.cluster.rtFor(kRefNode), g.cluster.node(kRefNode),
                            g.cluster.clientConfig(), seed + 300,
                            LiveCluster::opPolicy());
  usize fresh = 0;
  usize stale = 0;
  for (usize i = 0; i < std::min<usize>(16, in.tagsByRank.size()); ++i) {
    const std::string tag = Inputs::tagName(in.tagsByRank[i * 3 % in.tagsByRank.size()]);
    bool ok = false;
    std::string detail;
    // A replica that missed a STORE can answer one read low, and a lagging
    // replica can take a STORE between two reads; a defect survives a
    // second round.
    for (int round = 0; round < 2 && !ok; ++round) {
      auto resp = http.request("GET", "/search?tag=" + tag);
      auto ref = direct.searchSteps(tag, 1);
      if (!resp || resp->status != 200 || !ref.ok() || ref->hops.empty()) {
        detail = "request failed";
        continue;
      }
      const core::SearchStepResult& step = ref->hops[0].step;
      std::vector<std::pair<std::string, u64>> want;
      for (const auto& e : step.relatedTags) want.emplace_back(e.name, e.weight);
      for (const auto& e : step.resources) want.emplace_back(e.name, e.weight);
      const std::vector<std::pair<std::string, u64>> got =
          entriesOf(resp->body);
      if (got == want) {
        ok = true;
        ++fresh;
        break;
      }
      std::map<std::string, u64> bound = mergedEntries(
          g.cluster, core::blockKey(tag, core::BlockType::kTagNeighbors));
      bound.merge(mergedEntries(
          g.cluster, core::blockKey(tag, core::BlockType::kTagResources)));
      ok = !got.empty();
      detail = got.empty() ? "empty answer" : "";
      for (const auto& [name, weight] : got) {
        auto it = bound.find(name);
        if (it == bound.end() || it->second < weight) {
          ok = false;
          detail = name + "=" + std::to_string(weight) + " via HTTP, " +
                   (it == bound.end() ? "absent"
                                      : std::to_string(it->second)) +
                   " on every replica";
          break;
        }
      }
      if (ok) ++stale;
    }
    if (!ok) out.fail("GET /search?tag=" + tag + " vs client: " + detail);
  }
  std::printf("# sampled searches: %zu equal to the direct client's, %zu "
              "older\n",
              fresh, stale);
  for (usize i = 0; i < std::min<usize>(16, in.resources.size()); ++i) {
    const u32 r = in.resources[i * 7 % in.resources.size()];
    auto resp = http.request("GET", "/resolve/" + Inputs::resName(r));
    auto ref = direct.resolveUri(Inputs::resName(r));
    if (!resp || resp->status != 200 || !ref.ok() ||
        resp->body.find("\"uri\":\"" + *ref + "\"") == std::string::npos ||
        *ref != Inputs::uriOf(r)) {
      out.fail("GET /resolve/" + Inputs::resName(r) + " vs client differ");
    }
  }
}

}  // namespace

void runGateway(const RunParams& p, const Inputs& in, Result& out) {
  const Sizing sz = sizingFor(p.workload, p.nproc);
  std::vector<double> setupTimes;
  auto setUp = [&](obs::MetricsRegistry* reg) {
    Clock::time_point t0 = Clock::now();
    auto g = std::make_unique<GatewayStack>(sz, reg, p.trace, p.seed);
    g->cluster.boot();
    if (!g->cluster.preload(in)) out.fail("corpus preload failed");
    core::DharmaConfig cfg = g->cluster.clientConfig();
    cfg.cacheEnabled = true;
    g->client = std::make_unique<core::DharmaClient>(
        g->cluster.rtFor(0), g->cluster.node(0), cfg, p.seed,
        LiveCluster::opPolicy());
    gateway::GatewayServer::Deps deps;
    deps.client = g->client.get();
    deps.metrics = reg;
    g->server = std::make_unique<gateway::GatewayServer>(
        gateway::GatewayConfig{}, deps);
    if (g->server->start() != gateway::StartError::kNone) {
      out.fail("gateway start failed: " + g->server->startDetail());
    }
    setupTimes.push_back(secondsSince(t0));
    std::printf("# setup %zu: %.3f s, %llu RPC timeouts\n", setupTimes.size(),
                setupTimes.back(),
                static_cast<unsigned long long>(g->cluster.totals().timeouts));
    return g;
  };
  const std::vector<Rung> reference = {{kLadder[kReferenceRung].rate, 1.0}};
  auto account = [&](const LadderResult& r) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (const auto& pr : r.problems) out.fail(pr);
  };

  {
    auto warm = setUp(nullptr);
    runLadder(warm->server->port(), in, p.seed, reference, kWarmupSeconds);
  }
  const usize cycles = std::max<usize>(4, static_cast<usize>(p.seconds / 2));
  const double cycleSeconds = p.seconds / static_cast<double>(cycles);
  auto refP50 = [](const LadderResult& r) {
    return r.rungs[kReferenceRung].lat.pct(0.5);
  };
  if (!p.trace) {
    setUp(nullptr);  // set-up 2 is only timed
    auto g = setUp(nullptr);
    CycleSet r;
    for (usize c = 0; c < cycles; ++c) {
      r.add(runLadder(g->server->port(), in, p.seed * 131 + c, nextLadder(r),
                      cycleSeconds));
    }
    r.print();
    account(r.merged);
    checkAnswers(*g, in, p.seed, out);
    out.set("setup_s", median(setupTimes), "s");
    out.set("ops_per_s", checkedCapacity(r, out), "1/s");
    out.set("op_p50_us", quartile(perCycle(r, refP50), 1), "us");
    out.set("cpu_us_per_op", quartile(perCycle(r, cpuPerOp), 1), "us");
    return;
  }

  // Traced mode: an untraced and a traced gateway, cycles alternating
  // between them so both see the same spells of the machine.
  obs::MetricsRegistry reg;
  auto plainG = setUp(nullptr);
  auto g = setUp(&reg);
  LayerBaseline base = layerBaseline(g->cluster);
  CycleSet plain, tracedSet;
  double tracedSeconds = 0;
  const usize pairs = std::max<usize>(1, cycles / 2);
  const double pairCycleSeconds = p.seconds / static_cast<double>(2 * pairs);
  for (usize c = 0; c < pairs; ++c) {
    plain.add(runLadder(plainG->server->port(), in, p.seed * 131 + c,
                        nextLadder(plain), pairCycleSeconds));
    Clock::time_point t0 = Clock::now();
    tracedSet.add(runLadder(g->server->port(), in, p.seed * 131 + c,
                            nextLadder(tracedSet), pairCycleSeconds));
    tracedSeconds += secondsSince(t0);
  }
  tracedSet.print();
  account(plain.merged);
  const LadderResult& traced = tracedSet.merged;
  account(traced);
  checkAnswers(*g, in, p.seed, out);
  const gateway::GatewayCounters gc = g->server->counters();
  g->server->stop();
  g->cluster.stop();
  reportLiveLayers(g->cluster, base, traced.attempted, tracedSeconds,
                   tagKeys(in), out);

  out.set("obs.overhead_ratio",
          median(perCycle(tracedSet, cpuPerOp)) /
                  median(perCycle(plain, cpuPerOp)) -
              1.0,
          "ratio");
  const HistMap after = histMap(reg.snapshot());
  const HistMap before = histMap(base.reg);
  obs::HistogramSnapshot routesAll;
  for (const char* route : {"search", "resolve", "post_tags"}) {
    obs::HistogramSnapshot h =
        deltaOf(after, before, "dharma_gateway_route_latency_us",
                std::string("route=\"") + route + "\"");
    routesAll.merge(h);
    out.set(std::string("gateway.route_p50_us.") + route, h.quantile(0.5),
            "us");
    out.set(std::string("gateway.route_p99_us.") + route, h.quantile(0.99),
            "us");
  }
  const RungStats& tref = traced.rungs[kReferenceRung];
  out.set("gateway.edge_p50_us", tref.lat.pct(0.5) - routesAll.quantile(0.5),
          "us");
  out.set("gateway.parse_us", timeParse(traced.sentSample), "us");
  const double refused = static_cast<double>(gc.overloadRejected +
                                             gc.drainRejected);
  const double requests = static_cast<double>(gc.requestsDispatched) + refused;
  out.set("gateway.rejected_ratio", requests > 0 ? refused / requests : 0.0,
          "ratio");
  out.set("gateway.non2xx", static_cast<double>(traced.non2xx), "count");
  out.set("gateway.bytes_per_req",
          gc.responses == 0 ? 0.0
                            : static_cast<double>(gc.bytesIn + gc.bytesOut) /
                                  static_cast<double>(gc.responses),
          "B");
  out.set("gateway.lateness_p99_us", traced.lateness.pct(0.99), "us");
  const cache::CacheStats cs = g->client->cacheStats();
  out.set("cache.client_hit_ratio",
          cs.hits + cs.misses == 0
              ? 0.0
              : static_cast<double>(cs.hits) /
                    static_cast<double>(cs.hits + cs.misses),
          "ratio");
  const core::DharmaClient::Counters cc = g->client->counters();
  reportOpErrors(cc.byError, cc.retries, cc.ops, out);

  const RungStats& pref = plain.merged.rungs[kReferenceRung];
  out.set("http_p50_us", pref.lat.pct(0.50), "us");
  out.set("http_p99_us", pref.lat.pct(0.99), "us");
  out.set("http_max_rps", maxRps(plain.merged), "1/s");
}

}  // namespace pb
