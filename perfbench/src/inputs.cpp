#include "inputs.hpp"

#include <map>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/parser.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace cgra;

std::vector<std::pair<std::string, Composition>> paperCompositions() {
  std::vector<std::pair<std::string, Composition>> out;
  for (unsigned n : meshSizes()) out.emplace_back("mesh" + std::to_string(n), makeMesh(n));
  for (char c : irregularLabels()) out.emplace_back(std::string(1, c), makeIrregular(c));
  return out;
}

std::vector<KernelCase> bundledCases(std::uint64_t seed) {
  std::vector<KernelCase> out;
  for (apps::Workload& w : apps::allWorkloads(seed)) {
    KernelCase k{w.name, std::move(w.fn), std::move(w.initialLocals),
                 std::move(w.heap), {}, {}};
    prepareGolden(k);
    out.push_back(std::move(k));
  }
  return out;
}

namespace {

struct SuiteInput {
  std::map<std::string, std::vector<std::int32_t>> arrays;
  std::map<std::string, std::int32_t> scalars;
};

// Fixed shapes, seeded contents. Value ranges keep every kernel in bounds
// and terminating, and keep data-dependent trip counts the same on every
// seed, so the summed simulated cycles barely move with the seed
// (vm_accumulate never sees its halt opcode 5).
SuiteInput suiteInput(const std::string& name, Rng& rng) {
  auto arr = [&rng](std::size_t n, std::int64_t lo, std::int64_t hi) {
    std::vector<std::int32_t> v(n);
    for (auto& e : v) e = static_cast<std::int32_t>(rng.range(lo, hi));
    return v;
  };
  const std::vector<std::int32_t> zeros8(8, 0);
  // Values in [512, 1023] keep the bit loop at ten trips whatever the seed.
  if (name == "popcount_sum") return {{{"data", arr(8, 512, 1023)}}, {{"n", 8}}};
  if (name == "saturating_diff")
    return {{{"a", arr(6, -50, 50)}, {"b", arr(6, -50, 50)}, {"out", zeros8}},
            {{"n", 6}, {"limit", 25}}};
  if (name == "fir")
    return {{{"x", arr(10, -20, 20)}, {"coeff", arr(3, -3, 3)}, {"out", zeros8}},
            {{"n", 8}, {"taps", 3}}};
  if (name == "iir")
    return {{{"x", arr(8, -400, 400)}, {"y", zeros8}},
            {{"n", 8}, {"a", 200}, {"b", 120}, {"limit", 180}}};
  if (name == "crc32") return {{{"data", arr(6, 0, 255)}, {"out", {0}}}, {{"n", 6}}};
  if (name == "insertion_sort") {
    // Distinct values in descending order: every seed sorts the worst case.
    std::vector<std::int32_t> a;
    for (std::int32_t base = 100; a.size() < 8; base -= 20)
      a.push_back(base - static_cast<std::int32_t>(rng.range(0, 19)));
    return {{{"a", a}}, {{"n", 8}}};
  }
  if (name == "matmul")
    return {{{"a", arr(6, -9, 9)}, {"b", arr(6, -9, 9)}, {"c", {0, 0, 0, 0}}},
            {{"n", 2}, {"m", 3}, {"p", 2}}};
  if (name == "string_search")
  {
    // The needle starts with a symbol the haystack never holds: the search
    // scans all of it on every seed.
    std::vector<std::int32_t> needle{4, static_cast<std::int32_t>(rng.range(1, 3))};
    return {{{"haystack", arr(10, 1, 3)}, {"needle", needle}}, {{"n", 10}, {"m", 2}}};
  }
  if (name == "vm_accumulate") {
    std::vector<std::int32_t> ops;
    for (int i = 0; i < 6; ++i) {
      static const std::int32_t kOps[] = {0, 1, 3, 4};  // no multiply: acc stays small
      ops.push_back(kOps[rng.range(0, 3)]);
      ops.push_back(static_cast<std::int32_t>(rng.range(0, 9)));
    }
    return {{{"ops", ops}, {"out", std::vector<std::int32_t>(7, 0)}}, {{"n", 6}}};
  }
  throw Error("perfbench: no input recipe for suite kernel " + name);
}

}  // namespace

std::vector<KernelCase> suiteCases(std::uint64_t seed) {
  static const char* const kNames[] = {
      "crc32", "fir", "iir", "insertion_sort", "matmul",
      "popcount_sum", "saturating_diff", "string_search", "vm_accumulate"};
  Rng rng(deriveSeed(seed, 0x5017E));
  std::vector<KernelCase> out;
  for (const char* name : kNames) {
    KernelCase k;
    k.name = name;
    k.source = kir::parseKernelFile(std::string("examples/kernels/") + name + ".kir");
    const SuiteInput in = suiteInput(name, rng);
    k.initialLocals.assign(k.source.numLocals(), 0);
    for (kir::LocalId l = 0; l < k.source.numLocals(); ++l) {
      if (!k.source.local(l).isParameter) continue;
      const std::string& param = k.source.local(l).name;
      if (auto it = in.arrays.find(param); it != in.arrays.end())
        k.initialLocals[l] = k.heap.alloc(it->second);
      else
        k.initialLocals[l] = in.scalars.at(param);
    }
    prepareGolden(k);
    out.push_back(std::move(k));
  }
  return out;
}

}  // namespace perfbench
