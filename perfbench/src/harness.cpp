#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

namespace {
double clockUs(clockid_t id) {
  timespec t{};
  clock_gettime(id, &t);
  return static_cast<double>(t.tv_sec) * 1e6 +
         static_cast<double>(t.tv_nsec) / 1e3;
}
std::atomic<std::uint64_t> gSink{0};

// A 4 MiB random cycle that every slice walks a little further: dependent
// loads that miss the caches, like the program's pointer-heavy IR walks.
struct Chase {
  std::vector<std::uint32_t> next;
  std::uint32_t at = 0;
  Chase() : next(1u << 20) {
    for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (std::size_t i = next.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next[i], next[(x >> 33) % i]);
    }
  }
};
}  // namespace

double processCpuUs() { return clockUs(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuUs() { return clockUs(CLOCK_THREAD_CPUTIME_ID); }
double wallUs() { return clockUs(CLOCK_MONOTONIC); }

double runReference() {
  // A fixed mix of what the program's hot paths do — ordered-map inserts,
  // sorting, string building, byte hashing and cache-missing pointer
  // chasing — so the machine's slow phases stretch it roughly as they
  // stretch the workloads.
  const double t0 = threadCpuUs();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(x >> 33);
  };
  std::uint64_t h = 1469598103934665603ull;
  std::map<std::uint32_t, std::uint32_t> m;
  for (int i = 0; i < 1000; ++i) m[next() & 0x3FFF] += static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> v(3000);
  for (auto& e : v) e = next();
  std::sort(v.begin(), v.end());
  std::string s;
  for (int i = 0; i < 300; ++i) s += std::to_string(next() % 100000) + ",";
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  for (const auto& [k, val] : m) h ^= k * 31u + val;
  h ^= v[v.size() / 2];
  static Chase chase;
  std::uint32_t p = chase.at;
  for (int i = 0; i < 2000; ++i) p = chase.next[p];
  chase.at = p;
  h ^= p;
  gSink.fetch_add(h, std::memory_order_relaxed);
  return threadCpuUs() - t0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- Tracer ---------------------------------------------------------------

namespace {
constexpr std::size_t kMaxKeptSpans = 400000;
}

std::uint32_t Tracer::nameId(const char* name) {
  auto [it, inserted] =
      nameIds_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  return it->second;
}

std::size_t Tracer::open(const char* name) {
  stack_.push_back(Frame{nameId(name), wallUs()});
  return stack_.size() - 1;
}

void Tracer::close(std::size_t frame) {
  const double end = wallUs();
  const Frame f = stack_[frame];
  stack_.resize(frame);
  const double dur = end - f.start;
  if (op_ >= 0) self_[names_[f.name]] += dur - f.childUs;
  if (!stack_.empty()) stack_.back().childUs += dur;
  if (spans_.size() < kMaxKeptSpans) {
    // Parent recorded as the parent's name id; spans of one op share `op`.
    const std::int64_t parentName =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back().name);
    spans_.push_back(SpanRec{f.name, parentName, op_, f.start, end});
  }
}

std::map<std::string, double> Tracer::takeSelfTimes() {
  std::map<std::string, double> out;
  out.swap(self_);
  return out;
}

void Tracer::write(const std::string& path) const {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream f(path);
  f << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const SpanRec& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                  "\"parent\":\"%s\"}}",
                  first ? "" : ",", names_[s.name].c_str(), s.start,
                  s.end - s.start, static_cast<long long>(s.op),
                  s.parent < 0 ? "" : names_[static_cast<std::size_t>(s.parent)].c_str());
    f << buf;
    first = false;
  }
  f << "\n]}\n";
}

// --- Rounds and the estimator ---------------------------------------------

Chunker::Chunker(RoundSample& s)
    : s_(s), refFirst_(runReference()), cpu0_(processCpuUs()) {}

void Chunker::checkpoint() {
  const double cpu = processCpuUs() - cpu0_;
  const double elapsed = s_.elapsedUs - elapsed0_;
  chunks_.push_back(Chunk{s_.latUs.size(), cpu, elapsed, runReference()});
  elapsed0_ = s_.elapsedUs;
  cpu0_ = processCpuUs();
}

std::vector<RoundStats> runRounds(
    double seconds, std::size_t minRounds, bool alternateTrace, Tracer& tracer,
    const std::function<void(bool, RoundSample&, Chunker&)>& round) {
  std::vector<RoundStats> out;
  const double deadline = wallUs() + seconds * 1e6;
  for (std::size_t r = 0; r < minRounds || wallUs() < deadline; ++r) {
    const bool traced = alternateTrace && r % 2 == 1;
    RoundSample s;
    Chunker chunker(s);
    tracer.setEnabled(traced);
    round(traced, s, chunker);
    tracer.setEnabled(false);
    chunker.checkpoint();
    if (s.after) s.after();
    const std::map<std::string, double> self = tracer.takeSelfTimes();

    RoundStats st;
    st.traced = traced;
    st.ops = s.latUs.size();
    st.rawP50 = quantile(s.latUs, 0.50);
    double cpu = 0, elapsed = 0, weighted = 0, prevRef = chunker.refFirst();
    std::size_t firstOp = 0;
    for (const Chunker::Chunk& c : chunker.chunks()) {
      const double f = kRefNominalUs / ((prevRef + c.refAfter) / 2.0);
      for (std::size_t i = firstOp; i < c.endOp; ++i) s.latUs[i] *= f;
      cpu += c.cpuUs * f;
      elapsed += c.elapsedUs * f;
      weighted += f * static_cast<double>(c.endOp - firstOp);
      firstOp = c.endOp;
      prevRef = c.refAfter;
    }
    st.factor = st.ops ? weighted / static_cast<double>(st.ops) : 1.0;
    st.p50 = quantile(s.latUs, 0.50);
    st.p90 = quantile(s.latUs, 0.90);
    st.p99 = quantile(s.latUs, 0.99);
    double sum = 0;
    for (double l : s.latUs) sum += l;
    st.meanLat = st.ops ? sum / static_cast<double>(st.ops) : 0.0;
    st.cpuPerOp = st.ops ? cpu / static_cast<double>(st.ops) : 0.0;
    st.opsPerS = elapsed > 0 ? static_cast<double>(st.ops) / (elapsed / 1e6) : 0.0;
    for (const auto& [k, v] : self) st.selfUs[k] = v * st.factor;
    out.push_back(std::move(st));
  }
  return out;
}

TimeMetrics summarize(const std::vector<RoundStats>& rounds, bool traced) {
  std::vector<double> p50, p90, p99, cpu, rate, factors;
  TimeMetrics m;
  for (const RoundStats& r : rounds) {
    if (r.traced != traced || r.ops == 0) continue;
    p50.push_back(r.p50);
    p90.push_back(r.p90);
    p99.push_back(r.p99);
    cpu.push_back(r.cpuPerOp);
    rate.push_back(r.opsPerS);
    factors.push_back(r.factor);
    m.ops += r.ops;
    ++m.rounds;
  }
  if (m.rounds == 0) return m;
  m.opP50 = quantile(p50, 0.25);
  m.opP90 = quantile(p90, 0.25);
  m.opP99 = quantile(p99, 0.25);
  m.cpuPerOp = quantile(cpu, 0.25);
  m.opsPerS = quantile(rate, 0.75);
  const double med = quantile(p50, 0.5);
  m.p50Spread = med > 0 ? (quantile(p50, 0.75) - quantile(p50, 0.25)) / med : 0;
  std::vector<double> raw;
  for (const RoundStats& r : rounds)
    if (r.traced == traced && r.ops > 0) raw.push_back(r.rawP50);
  const double rawMed = quantile(raw, 0.5);
  m.rawP50Spread = rawMed > 0 ? (quantile(raw, 0.75) - quantile(raw, 0.25)) / rawMed : 0;
  m.rawP50 = quantile(raw, 0.25);
  m.refUs = kRefNominalUs / quantile(factors, 0.5);
  m.factorMin = *std::min_element(factors.begin(), factors.end());
  m.factorMax = *std::max_element(factors.begin(), factors.end());
  return m;
}

std::map<std::string, double> layerMeans(const std::vector<RoundStats>& rounds) {
  std::map<std::string, double> total;
  std::size_t ops = 0;
  for (const RoundStats& r : rounds) {
    if (!r.traced) continue;
    ops += r.ops;
    for (const auto& [k, v] : r.selfUs) total[k] += v;
  }
  if (ops > 0)
    for (auto& [k, v] : total) v /= static_cast<double>(ops);
  return total;
}

double scaledSetupUs() {
  const double setup = processCpuUs();
  double ref = runReference();
  for (int i = 0; i < 4; ++i) ref = std::min(ref, runReference());
  return setup * kRefNominalUs / ref;
}

// --- Output ---------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"kir.frontend_us", "us"},         {"kir.lower_us", "us"},
      {"kir.cdfg_nodes", "count"},       {"sched.key_us", "us"},
      {"sched.schedule_us", "us"},       {"sched.placement_attempts", "count"},
      {"sched.probe_rejections", "count"}, {"sched.copies_inserted", "count"},
      {"arch.model_builds", "count"},    {"arch.model_build_us", "us"},
      {"ctx.regalloc_us", "us"},         {"ctx.contexts_us", "us"},
      {"ctx.serialize_us", "us"},        {"ctx.image_bytes", "B"},
      {"sim.run_us", "us"},              {"sim.cycles_per_ms", "cycles/ms"},
      {"json.parse_us", "us"},           {"json.dump_us", "us"},
      {"json.response_bytes", "B"},      {"artifact.resolve_us", "us"},
      {"artifact.store_lookup_us", "us"}, {"artifact.store_insert_us", "us"},
      {"artifact.store_hits", "count"},  {"artifact.store_misses", "count"},
      {"artifact.scheduled", "count"},   {"artifact.deduped", "count"},
      {"artifact.rtt_us", "us"},         {"explore.evaluations", "count"},
      {"explore.jobs", "count"},         {"explore.memo_hits", "count"},
      {"explore.search_us", "us"},       {"trace.op_p50_us", "us"},
      {"trace.overhead_us", "us"},
  };
  return units;
}

namespace {

std::string cpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

unsigned affinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric(const std::string& name, double value,
                   const std::string& unit) {
  return "\"" + name + "\": {\"value\": " + num(value) + ", \"unit\": \"" +
         unit + "\"}";
}

}  // namespace

void report(const Args& args, const Outcome& out, unsigned threadsUsed) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peakMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  std::fprintf(stderr,
               "machine: nproc=%u affinity=%u cpu=\"%s\" compiler=\"g++ %s\" "
               "build=%s threads_used=%u\n",
               std::thread::hardware_concurrency(), affinityCpus(),
               cpuModel().c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
               threadsUsed);
  const TimeMetrics& t = out.time;
  std::fprintf(stderr,
               "rounds=%zu ops=%zu p50_spread_over_rounds=%.4f "
               "raw_p50_spread_over_rounds=%.4f raw_op_p50_us=%.2f ref_us=%.1f "
               "speed_factor=[%.3f, %.3f] op_p99_us=%.2f distinct_schedules=%zu\n",
               t.rounds, t.ops, t.p50Spread, t.rawP50Spread, t.rawP50, t.refUs,
               t.factorMin, t.factorMax, t.opP99, out.distinctSchedules);
  for (const std::string& d : out.diag) std::fprintf(stderr, "%s\n", d.c_str());
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::string metrics;
  auto add = [&metrics](const std::string& m) {
    if (!metrics.empty()) metrics += ", ";
    metrics += m;
  };
  if (!args.trace) {
    add(metric("setup_s", out.setupUs / 1e6, "s"));
    add(metric("ops_per_s", t.opsPerS, "op/s"));
    add(metric("op_p50_us", t.opP50, "us"));
    add(metric("op_p90_us", t.opP90, "us"));
    add(metric("cpu_us_per_op", t.cpuPerOp, "us"));
    add(metric("sim_cycles", static_cast<double>(out.simCycles), "cycles"));
    add(metric("contexts", static_cast<double>(out.contexts), "contexts"));
    add(metric("peak_rss_mb", peakMb, "MiB"));
  } else {
    for (const auto& [name, unit] : layerMetricUnits()) {
      const auto it = out.layer.find(name);
      add(metric(name, it == out.layer.end() ? 0.0 : it->second, unit));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
