// Output checks, computed apart from the code under test: the reference
// kir::Interpreter (run during set-up) is the golden model for every
// schedule, whether compiled in-process, served over the wire or picked by
// a design-space search. Every check returns an error string; empty means
// the output is correct. The negative controls in tests/ feed each check a
// deliberately wrong output and require a non-empty error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/composition.hpp"
#include "cdfg/cdfg.hpp"
#include "ctx/contexts.hpp"
#include "explore/explorer.hpp"
#include "host/memory.hpp"
#include "kir/kir.hpp"
#include "sched/schedule.hpp"

namespace perfbench {

/// One kernel with its inputs, its lowered graph and its golden result.
struct KernelCase {
  std::string name;
  cgra::kir::Function source;  ///< as written (irregular constructs kept)
  std::vector<std::int32_t> initialLocals;
  cgra::HostMemory heap;
  // Filled by prepare():
  cgra::HostMemory goldenHeap;
  std::vector<std::int32_t> goldenLocals;
};

/// Runs the reference interpreter on the source function.
void prepareGolden(KernelCase& k);

/// Lowered graph plus the local → variable map of one compiled variant.
struct Lowered {
  cgra::Cdfg graph;
  std::vector<cgra::VarId> localToVar;
};

/// Simulated result of one schedule.
struct SimOutcome {
  std::string error;
  std::uint64_t runCycles = 0;
};

/// Compares a simulated run with the golden model: the whole heap, and
/// every live-out that belongs to a source-level local.
std::string compareWithGolden(const KernelCase& k, const Lowered& low,
                              const cgra::HostMemory& heap,
                              const std::map<cgra::VarId, std::int32_t>& liveOuts);

/// Simulates `sched` on the case's inputs and compares with the golden.
SimOutcome simulateAndCompare(const KernelCase& k, const Lowered& low,
                              const cgra::Composition& comp,
                              const cgra::Schedule& sched);

/// The full check of one schedule: validateSchedule finds no violation,
/// the schedule simulates to the golden, and so does the schedule decoded
/// back from `serializedImages` (the JSON text of its context images).
SimOutcome checkSchedule(const KernelCase& k, const Lowered& low,
                         const cgra::Composition& comp,
                         const cgra::Schedule& sched,
                         const std::string& serializedImages);

/// Checks one served response line that carries `"artifact": true`: the
/// artifact's schedule has the fingerprint and length the response claims
/// and passes checkSchedule() through its own context images.
SimOutcome checkServedArtifact(const KernelCase& k, const Lowered& low,
                               const cgra::Composition& comp,
                               const std::string& responseLine,
                               std::string* fingerprintOut,
                               unsigned* contextsOut);

/// One kernel of a design-space search, for checkExploreFront().
struct FrontKernel {
  const KernelCase* kernel = nullptr;
  const Lowered* lowered = nullptr;
  double weight = 1.0;
};

/// Verified schedule of one (front genotype, kernel) pair.
struct FrontSchedule {
  unsigned contexts = 0;
  std::uint64_t runCycles = 0;
};

/// Checks a search's Pareto front: every member feasible, Σ weight·contexts
/// recomputed from its per-kernel contexts, no member dominating another
/// (dominance recomputed from area and Σ weight·contexts), and each
/// member's per-kernel contexts equal to a fresh Scheduler run on
/// Genotype::materialize() whose schedule simulates to the golden. Pairs
/// already in `verified` are compared with the recorded contexts only.
std::string checkExploreFront(const cgra::explore::ExploreReport& report,
                              const std::vector<FrontKernel>& kernels,
                              std::map<std::string, FrontSchedule>& verified);

}  // namespace perfbench
