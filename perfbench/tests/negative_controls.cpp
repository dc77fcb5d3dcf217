// Negative controls for the benchmark's output checks: each check must
// accept the program's real output and reject a deliberately wrong one.
//   python3 perfbench/run.py --selftest      (from the repository root)
#include <cstdio>
#include <sstream>
#include <string>

#include "arch/factory.hpp"
#include "artifact/artifact.hpp"
#include "artifact/service.hpp"
#include "inputs.hpp"
#include "json/json.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/pipeline.hpp"
#include "oracle.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

using namespace cgra;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

KernelCase findCase(std::vector<KernelCase> cases, const std::string& name) {
  for (KernelCase& k : cases)
    if (k.name == name) return std::move(k);
  throw Error("no kernel case " + name);
}

Lowered lowerCase(const KernelCase& k) {
  kir::LoweringResult low = kir::lowerToCdfg(kir::runFrontendPipeline(k.source).fn);
  return Lowered{std::move(low.graph), std::move(low.localToVar)};
}

// compile-cold: one heap word flipped after simulation.
void heapWordFlipped() {
  const KernelCase k = findCase(suiteCases(7), "insertion_sort");
  const Lowered low = lowerCase(k);
  const Composition comp = makeMesh(9);
  const ScheduleReport rep = Scheduler(comp).schedule(ScheduleRequest(low.graph));
  std::map<VarId, std::int32_t> liveIns;
  for (std::size_t l = 0; l < low.localToVar.size() && l < k.initialLocals.size(); ++l)
    liveIns[low.localToVar[l]] = k.initialLocals[l];
  HostMemory heap = k.heap;
  const SimResult r = Simulator(comp, rep.schedule).run(liveIns, heap);
  expect(rep.ok && compareWithGolden(k, low, heap, r.liveOuts).empty(),
         "compile: the real simulated heap matches the interpreter");
  heap.array(0)[3] ^= 1;
  expect(!compareWithGolden(k, low, heap, r.liveOuts).empty(),
         "compile: a heap with one word flipped is rejected");
}

// serve: one served artifact altered (an ADD turned into a SUB, the
// fingerprints updated so the document stays self-consistent).
void servedArtifactAltered() {
  const KernelCase k = findCase(bundledCases(42), "fir");
  kir::LoweringResult lr = kir::lowerToCdfg(k.source);
  const Lowered low{std::move(lr.graph), std::move(lr.localToVar)};
  const Composition comp = makeMesh(9);
  artifact::ArtifactStore store;
  artifact::Service service(store, artifact::ServiceOptions{});
  std::istringstream in(
      "{\"id\":1,\"comp\":\"mesh9\",\"kernel\":\"fir\",\"artifact\":true}\n");
  std::ostringstream outStream;
  service.serveStream(in, outStream);
  const std::string line = outStream.str().substr(0, outStream.str().find('\n'));
  expect(checkServedArtifact(k, low, comp, line, nullptr, nullptr).error.empty(),
         "serve: the real served artifact passes");

  json::Value doc = json::parse(line);
  json::Object& o = doc.asObject();
  artifact::ScheduleArtifact art = artifact::ScheduleArtifact::fromJson(o.at("artifact"));
  bool altered = false;
  for (ScheduledOp& op : art.schedule.ops)
    if (!altered && op.op == Op::IADD) {
      op.op = Op::ISUB;
      altered = true;
    }
  art.fingerprint = art.schedule.fingerprint();
  o["fingerprint"] = std::to_string(art.fingerprint);
  o["artifact"] = art.toJson();
  expect(altered, "serve: the artifact has an IADD to alter");
  expect(!checkServedArtifact(k, low, comp, doc.dump(0), nullptr, nullptr).error.empty(),
         "serve: an altered served artifact is rejected");
}

// explore: one front point's contexts perturbed (Σ weight·contexts kept
// consistent, so only the fresh-scheduler comparison can catch it).
void frontContextsPerturbed() {
  const KernelCase k = findCase(bundledCases(42), "gcd");
  kir::LoweringResult lr = kir::lowerToCdfg(k.source);
  const Lowered low{std::move(lr.graph), std::move(lr.localToVar)};
  explore::ExploreOptions opts;
  opts.budget = 8;
  opts.population = 4;
  opts.sweep.threads = 1;
  artifact::ArtifactStore store;
  explore::ExploreReport rep =
      explore::Explorer(explore::CompositionSpace{},
                        {explore::ExploreKernel{k.name, &low.graph, 1.0}}, opts, &store)
          .run();
  const std::vector<FrontKernel> kernels{FrontKernel{&k, &low, 1.0}};
  std::map<std::string, FrontSchedule> verified;
  expect(checkExploreFront(rep, kernels, verified).empty(),
         "explore: the real front passes");
  rep.front[0].kernels[0].contexts += 1;
  rep.front[0].weightedLength += 1.0;
  std::map<std::string, FrontSchedule> fresh;
  expect(!checkExploreFront(rep, kernels, fresh).empty(),
         "explore: a front point with perturbed contexts is rejected");
}

}  // namespace

int main() {
  try {
    heapWordFlipped();
    servedArtifactAltered();
    frontContextsPerturbed();
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", failures == 0 ? "all negative controls pass" : "negative controls FAILED");
  return failures == 0 ? 0 : 1;
}
