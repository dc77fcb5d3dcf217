// perfbench: runs one workload by name with a seed and prints its metrics.
//   perfbench --workload compile-cold|serve-warm|serve-mixed|explore
//             --seed N --seconds S --trace 0|1
// Normally started through run.py, which builds it first.
#include <cstdio>
#include <exception>

#include "workloads.hpp"

namespace perfbench {

void finishTrace(Outcome& out, const std::vector<RoundStats>& rounds,
                 const std::map<std::string, double>& counts, double ops) {
  for (const auto& [span, us] : layerMeans(rounds))
    if (span != "op") out.layer[span + "_us"] = us;
  for (const auto& [name, total] : counts) out.layer[name] = ops > 0 ? total / ops : 0.0;
  const auto cycles = out.layer.find("sim.cycles");
  const auto simUs = out.layer.find("sim.run_us");
  if (cycles != out.layer.end() && simUs != out.layer.end() && simUs->second > 0)
    out.layer["sim.cycles_per_ms"] = cycles->second / (simUs->second / 1000.0);
  const TimeMetrics traced = summarize(rounds, true);
  const TimeMetrics plain = summarize(rounds, false);
  out.layer["trace.op_p50_us"] = traced.opP50;
  out.layer["trace.overhead_us"] = traced.opP50 - plain.opP50;
  out.diag.push_back("trace: traced_rounds=" + std::to_string(traced.rounds) +
                     " untraced_rounds=" + std::to_string(plain.rounds) +
                     " untraced_op_p50_us=" + std::to_string(plain.opP50));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parseArgs(argc, argv);
    Tracer tracer;
    Outcome out;
    unsigned threads = 1;
    if (args.workload == "compile-cold") {
      out = runCompileCold(args, tracer);
    } else if (args.workload == "serve-warm" || args.workload == "serve-mixed") {
      out = runServe(args, tracer, args.workload == "serve-mixed");
      threads = 4;  // 2 client connections + 2 service workers
    } else if (args.workload == "explore") {
      out = runExplore(args, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    if (args.trace)
      tracer.write(".bench_out/spans-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".json");
    report(args, out, threads);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
