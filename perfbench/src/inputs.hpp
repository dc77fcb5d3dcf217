// Seeded inputs shared by the workloads: the paper's compositions and the
// kernel cases (bundled apps kernels and the examples/kernels suite), each
// with its golden result from the interpreter.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/composition.hpp"
#include "oracle.hpp"

namespace perfbench {

/// The 12 paper compositions (Fig. 13 meshes, Fig. 14 A–F) with the names
/// the compile service resolves: mesh4 … mesh16, A … F.
std::vector<std::pair<std::string, cgra::Composition>> paperCompositions();

/// apps::allWorkloads(seed): the 12 bundled kernels with seeded inputs.
std::vector<KernelCase> bundledCases(std::uint64_t seed);

/// The nine examples/kernels/*.kir kernels, parsed from the checkout, with
/// seeded array contents (shapes are fixed per kernel).
std::vector<KernelCase> suiteCases(std::uint64_t seed);

}  // namespace perfbench
