// serve-warm and serve-mixed: an in-process compile Service on loopback
// TCP, driven closed-loop over two connections with two pinned workers.
// Every key of the request pool is prefilled during set-up; serve-mixed
// turns a fifth of the requests into never-seen keys that ask for the
// artifact. Traced runs add a single-threaded replay of the same request
// mix through the public functions the service calls.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <thread>

#include "apps/kernels.hpp"
#include "arch/arch_model.hpp"
#include "arch/factory.hpp"
#include "artifact/client.hpp"
#include "artifact/service.hpp"
#include "artifact/store.hpp"
#include "ctx/contexts.hpp"
#include "inputs.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/cse_pass.hpp"
#include "kir/passes/unroll_pass.hpp"
#include "sched/job_key.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace cgra;

namespace {

constexpr std::size_t kRoundRequests = 400;  ///< per round, both connections
/// Requests between two reference slices (a few milliseconds of traffic);
/// a multiple of ten keeps each fresh pair inside one chunk.
constexpr std::size_t kChunkRequests = 40;
constexpr double kZipfExponent = 1.1;
/// The compile service resolves bundled kernels from apps::allWorkloads()
/// with its default seed; the checks use the same inputs.
constexpr std::uint64_t kServiceKernelSeed = 42;

struct PoolEntry {
  std::size_t kernel;  ///< index into cases
  std::size_t comp;    ///< index into comps
  unsigned unroll;
  bool cse;
  std::string line;  ///< request line without id
  // From the prefill response:
  std::string key;
  std::string fingerprint;
  unsigned contexts = 0;
};

struct Request {
  std::size_t pool;
  bool fresh;        ///< never-seen key: maxContexts above the need
  std::size_t pair;  ///< fresh requests come in concurrent pairs
};

std::string requestLine(const PoolEntry& e, const std::string& compName,
                        const std::string& kernelName) {
  return "{\"comp\":\"" + compName + "\",\"kernel\":\"" + kernelName +
         "\",\"unroll\":" + std::to_string(e.unroll) +
         ",\"cse\":" + (e.cse ? "true" : "false");
}

std::string withId(const std::string& body, std::uint64_t id,
                   const std::string& extra = "") {
  return body + extra + ",\"id\":" + std::to_string(id) + "}";
}

/// Two client threads, one connection each, closed loop: send one line,
/// wait for its response. Appends per-request wall latency and the
/// responses in send order.
void driveClients(std::vector<artifact::JsonlClient>& clients,
                  const std::vector<std::string>& lines,
                  std::vector<double>& latOut, std::vector<std::string>& respOut) {
  std::vector<double> latUs(lines.size(), 0.0);
  std::vector<std::string> responses(lines.size());
  std::vector<std::string> errors(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c)
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = c; i < lines.size(); i += clients.size()) {
          const double t0 = wallUs();
          clients[c].sendLine(lines[i]);
          if (!clients[c].recvLine(responses[i])) throw std::runtime_error("connection closed");
          latUs[i] = wallUs() - t0;
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("client: " + e);
  latOut.insert(latOut.end(), latUs.begin(), latUs.end());
  for (std::string& r : responses) respOut.push_back(std::move(r));
}

struct Replayer {
  artifact::ArtifactStore store{artifact::StoreOptions{"", 0, 1u << 20}};

  /// The service's per-request path, through the same public functions.
  std::string handle(const std::string& line, Tracer& t) {
    Span op(t, "op");
    json::Value doc;
    {
      Span s(t, "json.parse");
      doc = json::parse(line);
    }
    const json::Object& o = doc.asObject();
    const std::string compName = o.at("comp").asString();
    const std::string kernel = o.at("kernel").asString();
    const auto unroll = static_cast<unsigned>(o.at("unroll").asInt());
    const bool cse = o.at("cse").asBool();
    const json::Value* mc = o.find("maxContexts");
    const json::Value* wantArt = o.find("artifact");
    Composition comp;
    Cdfg graph;
    {
      Span s(t, "artifact.resolve");
      comp = compName.rfind("mesh", 0) == 0
                 ? makeMesh(static_cast<unsigned>(std::stoul(compName.substr(4))))
                 : makeIrregular(compName[0]);
      kir::Function fn("");
      for (apps::Workload& w : apps::allWorkloads())
        if (w.name == kernel) {
          fn = std::move(w.fn);
          break;
        }
      {
        Span f(t, "kir.frontend");
        if (cse) fn = kir::eliminateCommonSubexpressions(fn);
        if (unroll >= 2) fn = kir::unrollLoops(fn, unroll, true);
      }
      Span l(t, "kir.lower");
      graph = kir::lowerToCdfg(fn).graph;
    }
    SchedulerOptions so;
    if (mc != nullptr) so.maxContexts = static_cast<unsigned>(mc->asInt());
    std::string key;
    {
      Span s(t, "sched.key");
      key = scheduleJobKey(comp, graph, so);
    }
    std::shared_ptr<const artifact::ScheduleArtifact> art;
    {
      Span s(t, "artifact.store_lookup");
      art = store.lookup(key);
    }
    const bool cached = art != nullptr;
    if (!cached) {
      {
        Span s(t, "arch.model_build");
        ArchModel::get(comp);
      }
      ScheduleReport rep;
      {
        Span s(t, "sched.schedule");
        ScheduleRequest rq(graph);
        rq.options = so;
        rep = Scheduler(comp, so).schedule(rq);
      }
      Span s(t, "artifact.store_insert");
      art = std::make_shared<const artifact::ScheduleArtifact>(
          artifact::ScheduleArtifact::fromReport(key, rep));
      store.insert(art);
    }
    json::Object resp;
    resp["v"] = artifact::kWireVersion;
    resp["id"] = o.at("id");
    resp["key"] = art->key;
    resp["ok"] = art->ok;
    resp["cached"] = cached;
    resp["contexts"] = static_cast<std::int64_t>(art->stats.contextsUsed);
    resp["fingerprint"] = std::to_string(art->schedule.fingerprint());
    if (wantArt != nullptr && wantArt->asBool()) {
      artifact::ScheduleArtifact withCtx = *art;
      {
        Span s(t, "ctx.contexts");
        withCtx.contexts = generateContexts(art->schedule, comp);
      }
      Span s(t, "ctx.serialize");
      resp["artifact"] = withCtx.toJson();
    }
    Span s(t, "json.dump");
    return json::Value(std::move(resp)).dump(0);
  }
};

}  // namespace

Outcome runServe(const Args& args, Tracer& tracer, bool mixed) {
  Outcome out;
  const auto comps = paperCompositions();
  const std::vector<KernelCase> cases = bundledCases(kServiceKernelSeed);

  // Pool: bundled kernels × compositions × unroll {1,2} × cse, lowered
  // the way the service resolves them (for validateSchedule).
  std::vector<PoolEntry> pool;
  std::map<std::tuple<std::size_t, unsigned, bool>, Lowered> lowered;
  for (std::size_t k = 0; k < cases.size(); ++k)
    for (unsigned unroll : {1u, 2u})
      for (bool cse : {false, true}) {
        kir::Function fn = cases[k].source;
        if (cse) fn = kir::eliminateCommonSubexpressions(fn);
        if (unroll >= 2) fn = kir::unrollLoops(fn, unroll, true);
        kir::LoweringResult low = kir::lowerToCdfg(fn);
        lowered[{k, unroll, cse}] = Lowered{std::move(low.graph), std::move(low.localToVar)};
        for (std::size_t c = 0; c < comps.size(); ++c) {
          PoolEntry e{k, c, unroll, cse, "", "", "", 0};
          e.line = requestLine(e, comps[c].first, cases[k].name);
          pool.push_back(std::move(e));
        }
      }

  // The round's request mix. Popularity is Zipf over a fixed ranking of
  // the pool, and each rank gets its expected share of the round
  // (largest-remainder quotas), so every seed sends the same multiset of
  // requests; the seed sets their order. Fresh pairs (serve-mixed) take the
  // hottest keys as bases and sit at positions 8 and 9 of every ten: those
  // go to different connections at the same slot, so the same never-seen
  // key arrives on both at about the same time and in-flight dedup runs.
  const std::size_t pairsPerRound = mixed ? kRoundRequests / 10 : 0;
  std::vector<std::size_t> rank(pool.size());
  for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  Rng fixedRng(0x5E7E);
  for (std::size_t i = rank.size(); i > 1; --i)
    std::swap(rank[i - 1], rank[static_cast<std::size_t>(fixedRng.range(0, static_cast<std::int64_t>(i) - 1))]);
  const std::size_t warmPerRound = kRoundRequests - 2 * pairsPerRound;
  std::vector<double> weight(pool.size());
  double total = 0;
  for (std::size_t r = 0; r < weight.size(); ++r)
    total += weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
  std::vector<std::size_t> quota(pool.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < weight.size(); ++r) {
    const double share = static_cast<double>(warmPerRound) * weight[r] / total;
    quota[r] = static_cast<std::size_t>(share);
    assigned += quota[r];
    remainders.emplace_back(-(share - static_cast<double>(quota[r])), r);
  }
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t i = 0; assigned < warmPerRound; ++i, ++assigned) ++quota[remainders[i].second];
  std::vector<std::size_t> warm, freshBases;
  for (std::size_t r = 0; r < quota.size(); ++r)
    warm.insert(warm.end(), quota[r], rank[r]);
  for (std::size_t j = 0; j < pairsPerRound; ++j) freshBases.push_back(rank[j]);
  Rng rng(deriveSeed(args.seed, 0x5E7E));
  auto shuffle = [&rng](std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(i) - 1))]);
  };
  shuffle(warm);
  shuffle(freshBases);
  std::vector<Request> mix;
  for (std::size_t p = 0, w = 0, f = 0; p < kRoundRequests; ++p) {
    if (mixed && p % 10 == 8) {
      mix.push_back(Request{freshBases[f], true, f});
      mix.push_back(Request{freshBases[f], true, f});
      ++f;
      ++p;
      continue;
    }
    mix.push_back(Request{warm[w++], false, 0});
  }

  // Service on a memory-only store with the default entry cap: the hot
  // keys stay resident, old fresh keys and never-requested pool keys are
  // evicted, so memory plateaus instead of growing with the run length.
  artifact::ArtifactStore store;
  artifact::ServiceOptions so;
  so.threads = 2;
  artifact::Service service(store, so);
  const std::uint16_t port = service.addTcpListener(0);
  service.start();
  std::vector<artifact::JsonlClient> clients;
  clients.push_back(artifact::JsonlClient::connectTcp(port));
  clients.push_back(artifact::JsonlClient::connectTcp(port));
  std::uint64_t nextId = 1;
  std::uint64_t linesSent = 0;

  // Store prefill through the service itself.
  {
    std::vector<std::string> lines;
    for (const PoolEntry& e : pool) lines.push_back(withId(e.line, nextId++));
    std::vector<double> lat;
    std::vector<std::string> resp;
    driveClients(clients, lines, lat, resp);
    linesSent += lines.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const json::Value doc = json::parse(resp[i]);
      const json::Object& o = doc.asObject();
      out.check(o.at("ok").asBool(), "prefill failed: " + resp[i].substr(0, 200));
      if (!o.at("ok").asBool()) continue;
      pool[i].key = o.at("key").asString();
      pool[i].fingerprint = o.at("fingerprint").asString();
      pool[i].contexts = static_cast<unsigned>(o.at("contexts").asInt());
    }
  }
  std::set<std::string> distinctKeys;
  for (const PoolEntry& e : pool) distinctKeys.insert(e.key);
  out.setupUs = scaledSetupUs();

  std::set<std::string> fps;  // distinct schedules received
  // Verification pass (untimed): every distinct pool schedule, served with
  // its artifact, simulates to the interpreter's result.
  {
    std::vector<std::string> lines;
    std::vector<std::size_t> which;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (seen.insert(pool[i].key).second) {
        lines.push_back(withId(pool[i].line, nextId++, ",\"artifact\":true"));
        which.push_back(i);
      }
    const artifact::ServiceStats before = service.stats();
    std::vector<double> lat;
    std::vector<std::string> resp;
    driveClients(clients, lines, lat, resp);
    for (std::size_t j = 0; j < lines.size(); ++j) {
      const PoolEntry& e = pool[which[j]];
      std::string fp;
      unsigned ctx = 0;
      const SimOutcome c = checkServedArtifact(cases[e.kernel], lowered.at({e.kernel, e.unroll, e.cse}),
                                               comps[e.comp].second, resp[j], &fp, &ctx);
      out.check(c.error.empty(), c.error);
      out.check(fp == e.fingerprint, "verification artifact differs from the prefill");
      if (fps.insert(fp).second) {
        out.simCycles += c.runCycles;
        out.contexts += ctx;
      }
    }
    const artifact::ServiceStats after = service.stats();
    out.check(after.requests - before.requests == lines.size() &&
                  after.scheduled == before.scheduled,
              "verification pass was not served from the store");
  }
  const artifact::ServiceStats s0 = service.stats();
  const artifact::StoreCounters c0 = store.counters();
  std::uint64_t freshCounter = 0;  // makes every fresh maxContexts unique
  std::uint64_t freshSent = 0, uncachedSeen = 0;
  std::map<std::string, unsigned> freshFingerprints;  // fingerprint -> contexts, each checked once
  std::map<std::string, std::uint64_t> freshCycles;  // new fingerprints only
  double bytesSum = 0, sockOps = 0;

  auto buildLines = [&](std::uint64_t& counter) {
    std::vector<std::string> lines;
    lines.reserve(mix.size());
    std::uint64_t pairBase = counter;
    for (const Request& r : mix) {
      const PoolEntry& e = pool[r.pool];
      if (!r.fresh) {
        lines.push_back(withId(e.line, nextId++));
        continue;
      }
      const unsigned budget = e.contexts + 1 + static_cast<unsigned>(pairBase + r.pair);
      lines.push_back(withId(e.line, nextId++,
                             ",\"maxContexts\":" + std::to_string(budget) +
                                 ",\"artifact\":true"));
    }
    counter += pairsPerRound;
    return lines;
  };

  // Checks one socket round's responses against the pool and the pairs.
  auto checkRound = [&](const std::vector<std::string>& resp) {
    std::map<std::size_t, std::pair<std::string, int>> pairs;  // pair -> key, uncached
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const Request& r = mix[i];
      const PoolEntry& e = pool[r.pool];
      json::Value doc;
      try {
        doc = json::parse(resp[i]);
      } catch (const std::exception& ex) {
        out.check(false, std::string("unparsable response: ") + ex.what());
        ++out.failed;
        continue;
      }
      const json::Object& o = doc.asObject();
      if (!o.at("ok").asBool()) {
        ++out.failed;
        out.check(false, "request failed: " + resp[i].substr(0, 200));
        continue;
      }
      const bool cached = o.at("cached").asBool();
      const std::string key = o.at("key").asString();
      const std::string fp = o.at("fingerprint").asString();
      const auto ctx = static_cast<unsigned>(o.at("contexts").asInt());
      if (!cached) ++uncachedSeen;
      if (!r.fresh) {
        out.check(cached && key == e.key && fp == e.fingerprint && ctx == e.contexts,
                  "warm response differs from the prefilled artifact: " + resp[i].substr(0, 200));
        continue;
      }
      out.check(key != e.key && o.find("artifact") != nullptr,
                "fresh request answered with the pool key or without artifact");
      auto& pr = pairs[r.pair];
      if (pr.first.empty()) pr.first = key;
      out.check(pr.first == key, "the two requests of a fresh pair got different keys");
      pr.second += cached ? 0 : 1;
      const auto known = freshFingerprints.find(fp);
      if (known == freshFingerprints.end()) {
        const SimOutcome c = checkServedArtifact(cases[e.kernel], lowered.at({e.kernel, e.unroll, e.cse}),
                                                 comps[e.comp].second, resp[i], nullptr, nullptr);
        out.check(c.error.empty(), c.error);
        freshFingerprints[fp] = ctx;
        if (fp != e.fingerprint) freshCycles[fp] = c.runCycles;
      } else {
        out.check(known->second == ctx, "same schedule fingerprint, different contexts");
      }
    }
    for (const auto& [pair, kc] : pairs)
      out.check(kc.second == 1, "a fresh key was scheduled " + std::to_string(kc.second) +
                                    " times instead of once");
  };

  const bool replayHalf = args.trace;
  const double socketSeconds = replayHalf ? args.seconds / 2 : args.seconds;
  std::vector<std::string> lastResponses;
  const auto rounds = runRounds(socketSeconds, 5, false, tracer,
                                [&](bool, RoundSample& s, Chunker& chunker) {
    const std::vector<std::string> lines = buildLines(freshCounter);
    lastResponses.clear();
    for (std::size_t first = 0; first < lines.size(); first += kChunkRequests) {
      const std::vector<std::string> chunk(
          lines.begin() + static_cast<std::ptrdiff_t>(first),
          lines.begin() + static_cast<std::ptrdiff_t>(std::min(first + kChunkRequests, lines.size())));
      const double t0 = wallUs();
      driveClients(clients, chunk, s.latUs, lastResponses);
      s.elapsedUs += wallUs() - t0;
      chunker.checkpoint();
    }
    linesSent += lines.size();
    freshSent += mixed ? pairsPerRound : 0;
    out.attempted += lines.size();
    for (const std::string& r : lastResponses) bytesSum += static_cast<double>(r.size());
    sockOps += static_cast<double>(lines.size());
    s.after = [&] { checkRound(lastResponses); };
  });
  out.time = summarize(rounds, false);
  const artifact::ServiceStats s1 = service.stats();
  const artifact::StoreCounters c1 = store.counters();

  // Server counters against the client's own tallies.
  out.check(s1.requests - s0.requests == linesSent - pool.size(),
            "service counted " + std::to_string(s1.requests - s0.requests) +
                " requests, client sent " + std::to_string(linesSent - pool.size()));
  out.check(s1.scheduled - s0.scheduled == freshSent,
            "service scheduled " + std::to_string(s1.scheduled - s0.scheduled) +
                " jobs, client sent " + std::to_string(freshSent) + " never-seen keys");
  out.check(c1.inserts - c0.inserts == freshSent, "store inserts differ from never-seen keys");
  out.check(uncachedSeen == freshSent, "uncached responses differ from never-seen keys");
  out.check(s1.parseErrors == s0.parseErrors, "service reported parse errors");
  out.check((s1.cacheHits - s0.cacheHits) + (s1.deduped - s0.deduped) +
                    (s1.scheduled - s0.scheduled) == s1.requests - s0.requests,
            "hits + deduped + scheduled != requests");

  for (const auto& [fp, cycles] : freshCycles)
    if (fps.insert(fp).second) {
      out.simCycles += cycles;
      out.contexts += freshFingerprints[fp];
    }
  out.distinctSchedules = fps.size();
  out.diag.push_back("pool=" + std::to_string(pool.size()) + " distinct_keys=" +
                     std::to_string(distinctKeys.size()) + " fresh_keys=" +
                     std::to_string(freshSent) + " deduped=" +
                     std::to_string(s1.deduped - s0.deduped));

  if (args.trace) {
    std::map<std::string, double> counts;
    const double ops = sockOps;
    counts["artifact.store_hits"] = static_cast<double>(c1.hits - c0.hits);
    counts["artifact.store_misses"] = static_cast<double>(c1.misses - c0.misses);
    counts["artifact.scheduled"] = static_cast<double>(s1.scheduled - s0.scheduled);
    counts["artifact.deduped"] = static_cast<double>(s1.deduped - s0.deduped);
    counts["json.response_bytes"] = bytesSum;
    double rttScaled = 0;
    for (const RoundStats& r : rounds) rttScaled += r.meanLat / static_cast<double>(rounds.size());
    // Replay: the same mix, single-threaded, through the service's calls.
    Replayer replay;
    for (const PoolEntry& e : pool) replay.handle(withId(e.line, 0), tracer);  // untraced prefill
    std::uint64_t replayCounter = 1u << 30;
    std::int64_t opId = 0;
    const std::uint64_t builds0 = ArchModel::buildsPerformed();
    double replayOps = 0;
    std::vector<std::string> replayLines;
    const auto replayRounds = runRounds(args.seconds / 2, 4, true, tracer,
                                        [&](bool, RoundSample& s, Chunker& chunker) {
      replayLines = buildLines(replayCounter);
      for (std::size_t i = 0; i < replayLines.size(); ++i) {
        const std::string& line = replayLines[i];
        if (i % 16 == 15) chunker.checkpoint();
        tracer.setOp(opId++);
        const double t0 = threadCpuUs();
        replay.handle(line, tracer);
        const double t1 = threadCpuUs();
        s.latUs.push_back(t1 - t0);
        s.elapsedUs += t1 - t0;
      }
      replayOps += static_cast<double>(replayLines.size());
    });
    const double builds = static_cast<double>(ArchModel::buildsPerformed() - builds0);
    finishTrace(out, replayRounds, counts, ops);
    out.layer["arch.model_builds"] = replayOps > 0 ? builds / replayOps : 0.0;
    out.layer["artifact.rtt_us"] = rttScaled;
  }
  for (artifact::JsonlClient& c : clients) c.close();
  service.stop();
  return out;
}

}  // namespace perfbench
