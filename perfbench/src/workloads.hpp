// The four workloads. Each builds its seeded inputs (the set-up), runs
// whole rounds of identical ops for the requested time, checks every
// output against the golden model and fills an Outcome.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Per-layer metrics shared by the traced runs: span self times become
/// "<span>_us", `counts` are divided by `ops`, and the traced/untraced
/// p50 pair gives the tracing overhead.
void finishTrace(Outcome& out, const std::vector<RoundStats>& rounds,
                 const std::map<std::string, double>& counts, double ops);

Outcome runCompileCold(const Args& args, Tracer& tracer);
Outcome runServe(const Args& args, Tracer& tracer, bool mixed);
Outcome runExplore(const Args& args, Tracer& tracer);

}  // namespace perfbench
