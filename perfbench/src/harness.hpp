// Measurement core shared by every workload: clocks, the benchmark-owned
// reference computation, span tracing, the round loop and the drift-proof
// estimator, and the one-line JSON result.
//
// Estimator (README "Timing method"): a run is split into many short rounds
// of identical work. Between rounds the harness times a fixed reference
// computation; each round's times are scaled by
// kRefNominalUs / (mean of the reference times around it), which cancels the
// machine's slow phases to first order. A metric is then a low quantile over
// rounds of the scaled per-round statistic, in microseconds at the
// reference's nominal speed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`; throws on
/// anything else.
Args parseArgs(int argc, char** argv);

double processCpuUs();  ///< CPU time of every thread since process start
double threadCpuUs();   ///< CPU time of the calling thread
double wallUs();        ///< steady clock

/// The reference slice's nominal CPU time: its lower quartile on the
/// machine recorded in the README. Every reported time is expressed at
/// this speed.
inline constexpr double kRefNominalUs = 600.0;

/// Runs one slice of the benchmark-owned reference computation and returns
/// its thread CPU time in µs. The work is fixed (no input, no program code).
double runReference();

/// Nearest-rank-interpolated quantile `q` in [0, 1] of `v` (copied).
double quantile(std::vector<double> v, double q);

/// In-memory spans around the calls into the program's layers. A span's
/// self time is its duration minus the time covered by its child spans.
class Tracer {
public:
  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }
  void setOp(std::int64_t op) { op_ = op; }
  std::size_t open(const char* name);
  void close(std::size_t frame);

  /// Self time (µs) per span name of the spans closed since the last call.
  std::map<std::string, double> takeSelfTimes();

  /// Writes every kept span as one JSON document (Chrome trace events).
  void write(const std::string& path) const;

private:
  struct Frame {
    std::uint32_t name;
    double start;
    double childUs = 0.0;
  };
  struct SpanRec {
    std::uint32_t name;
    std::int64_t parent;
    std::int64_t op;
    double start;
    double end;
  };
  std::uint32_t nameId(const char* name);

  bool enabled_ = false;
  std::int64_t op_ = -1;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> nameIds_;
  std::vector<Frame> stack_;
  std::vector<SpanRec> spans_;
  std::map<std::string, double> self_;
};

/// RAII span; free when the tracer is disabled.
class Span {
public:
  Span(Tracer& t, const char* name)
      : t_(t), frame_(t.enabled() ? t.open(name) : 0) {}
  ~Span() {
    if (t_.enabled()) t_.close(frame_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Tracer& t_;
  std::size_t frame_;
};

/// What one round of a workload reports back to the loop.
struct RoundSample {
  std::vector<double> latUs;  ///< raw per-op latency (µs)
  double elapsedUs = 0.0;     ///< raw round time on the workload's clock
  /// Output checks of the round, run after its CPU time is read.
  std::function<void()> after;
};

/// Splits a round into chunks of a few milliseconds and times a reference
/// slice between them. Slow phases of the machine come and go within a
/// round, so each chunk's ops, CPU and elapsed time are scaled by the
/// slices on either side of that chunk.
class Chunker {
public:
  explicit Chunker(RoundSample& s);
  /// Closes the current chunk (ops pushed so far) and opens the next.
  void checkpoint();

  struct Chunk {
    std::size_t endOp;
    double cpuUs;
    double elapsedUs;
    double refAfter;
  };
  double refFirst() const { return refFirst_; }
  const std::vector<Chunk>& chunks() const { return chunks_; }

private:
  RoundSample& s_;
  double refFirst_;
  double cpu0_;
  double elapsed0_ = 0.0;
  std::vector<Chunk> chunks_;
};

/// Per-round statistics after scaling to the reference's nominal speed.
struct RoundStats {
  bool traced = false;
  double factor = 1.0;  ///< op-weighted mean scale of the round
  std::size_t ops = 0;
  double p50 = 0, p90 = 0, p99 = 0;  ///< scaled op latency (µs)
  double cpuPerOp = 0;               ///< scaled process CPU per op (µs)
  double opsPerS = 0;                ///< ops per scaled second
  double meanLat = 0;
  double rawP50 = 0;                     ///< unscaled p50 (diagnostic)
  std::map<std::string, double> selfUs;  ///< scaled span self time (traced)
};

/// Runs rounds until `seconds` have passed (at least `minRounds`). `round`
/// performs one round of identical work, pushing each op's latency into
/// the sample and calling Chunker::checkpoint() every few milliseconds;
/// `traced` alternates when `alternateTrace` is set (odd rounds traced).
std::vector<RoundStats> runRounds(
    double seconds, std::size_t minRounds, bool alternateTrace, Tracer& tracer,
    const std::function<void(bool traced, RoundSample&, Chunker&)>& round);

/// End-to-end time metrics from a set of rounds: lower quartile over rounds
/// of p50/p90/CPU per op, upper quartile of throughput.
struct TimeMetrics {
  double opP50 = 0, opP90 = 0, opP99 = 0, cpuPerOp = 0, opsPerS = 0;
  std::size_t rounds = 0, ops = 0;
  double p50Spread = 0;  ///< IQR / median of the per-round p50 (diagnostic)
  double rawP50Spread = 0, rawP50 = 0;  ///< the same without the scaling
  double refUs = 0;                     ///< median reference time
  double factorMin = 0, factorMax = 0;
};
TimeMetrics summarize(const std::vector<RoundStats>& rounds, bool traced);

/// Mean scaled self time per op of each span name over traced rounds.
std::map<std::string, double> layerMeans(const std::vector<RoundStats>& rounds);

/// Everything a workload run hands back to main().
struct Outcome {
  std::vector<std::string> errors;  ///< failed output checks (empty = correct)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setupUs = 0;  ///< scaled process CPU from start to first timed op
  TimeMetrics time;
  std::uint64_t simCycles = 0;
  std::uint64_t contexts = 0;
  std::size_t distinctSchedules = 0;
  std::map<std::string, double> layer;  ///< per-layer metrics (--trace 1)
  std::vector<std::string> diag;        ///< extra diagnostic lines

  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 20) errors.push_back(what);
    if (!ok && errors.size() == 20) errors.push_back("(more errors elided)");
  }
};

/// Scales the process CPU time consumed so far (the cold set-up) to the
/// reference speed measured right after it.
double scaledSetupUs();

/// Prints the machine block and run diagnostics to stderr and the result
/// JSON as the last line of stdout.
void report(const Args& args, const Outcome& out, unsigned threadsUsed);

/// Per-layer metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>>& layerMetricUnits();

}  // namespace perfbench
