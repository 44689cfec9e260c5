// Output checks of the benchmark.  Each returns an empty string when the
// check passes and a description of the first violation otherwise; the
// benchmark counts every failed check as a failed operation.  They are plain
// scans written independently of the library code they check, and run
// outside every timed region.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/sparse.h"

namespace perfbench {

/// `selection` must be an upper set of `gradient` by magnitude: canonical
/// (strictly increasing in-range indices, dense_dim == gradient.size()),
/// every value bit-identical to the gradient at its index, and no unselected
/// element larger in magnitude than any selected one.
std::string check_upper_set(std::span<const float> gradient,
                            const sidco::tensor::SparseGradient& selection);

/// Selected-count contract per scheme family: exact k (`exact`), at most k
/// (`at_most`), or k-hat / k within [lo, hi] (`ratio`).
enum class CountRule { kExact, kAtMost, kRatio };
std::string check_count(CountRule rule, std::size_t selected, std::size_t k,
                        double lo = 0.0, double hi = 0.0);

/// Dense allgather wire total: every push is a 24-byte header plus fp32
/// values, once per worker per iteration.
std::string check_dense_wire_total(std::size_t total_bytes,
                                   std::size_t iterations, std::size_t workers,
                                   std::size_t dimension);

/// Bit-for-bit equality of two float or double sequences (sizes included).
std::string check_bitwise_equal(std::span<const float> got,
                                std::span<const float> want,
                                const std::string& what);
std::string check_bitwise_equal(std::span<const double> got,
                                std::span<const double> want,
                                const std::string& what);

/// Decoding `payload` must return `original` bit for bit (sparse payloads),
/// or `original` scattered to dense (dense payloads).
std::string check_roundtrip(std::span<const std::uint8_t> payload,
                            const sidco::tensor::SparseGradient& original);

/// `accumulated` must equal the worker-order fp32 sum
/// dense[i] += scale * v over `parts`, computed here from scratch.
/// `scratch` is a reusable dense buffer.
std::string check_mean(std::span<const sidco::tensor::SparseGradient> parts,
                       float scale, std::span<const float> accumulated,
                       std::vector<float>& scratch);

}  // namespace perfbench
