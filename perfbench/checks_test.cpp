// Shows that each of the benchmark's checks can fail: every case below is a
// small output with one planted fault, and the check must report it (and
// must pass the same output without the fault).  Exit code 0 = all cases
// behave; the failing cases are printed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checks.h"
#include "comm/aggregate.h"
#include "comm/codec.h"
#include "tensor/sparse.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  } else {
    std::printf("ok:   %s\n", what);
  }
}

sidco::tensor::SparseGradient selection(std::vector<std::uint32_t> idx,
                                        const std::vector<float>& g) {
  sidco::tensor::SparseGradient s;
  s.dense_dim = g.size();
  for (const std::uint32_t i : idx) {
    s.indices.push_back(i);
    s.values.push_back(g[i]);
  }
  return s;
}

}  // namespace

int main() {
  using perfbench::CountRule;
  const std::vector<float> g = {0.1F, -3.0F, 0.2F, 2.5F, -0.4F, 1.0F};

  // Upper set by magnitude: {1, 3} are the two largest; {1, 5} leaves the
  // larger element 3 unselected.
  expect(perfbench::check_upper_set(g, selection({1, 3}, g)).empty(),
         "upper set passes on the top-2 selection");
  expect(!perfbench::check_upper_set(g, selection({1, 5}, g)).empty(),
         "upper set fails with one larger unselected element");
  sidco::tensor::SparseGradient tampered = selection({1, 3}, g);
  tampered.values[1] = 2.4F;
  expect(!perfbench::check_upper_set(g, tampered).empty(),
         "upper set fails when a selected value differs from the gradient");
  expect(!perfbench::check_upper_set(g, selection({3, 1}, g)).empty(),
         "upper set fails on decreasing indices");

  // Selected counts.
  expect(perfbench::check_count(CountRule::kExact, 5, 5).empty() &&
             !perfbench::check_count(CountRule::kExact, 4, 5).empty(),
         "exact-k count fails one short");
  expect(perfbench::check_count(CountRule::kAtMost, 5, 5).empty() &&
             !perfbench::check_count(CountRule::kAtMost, 6, 5).empty(),
         "at-most-k count fails one over");
  expect(perfbench::check_count(CountRule::kRatio, 10, 10, 0.5, 2.0).empty() &&
             !perfbench::check_count(CountRule::kRatio, 21, 10, 0.5, 2.0)
                  .empty(),
         "k-hat/k ratio fails outside its bound");

  // Dense allgather byte total: 20 iterations x 3 workers x (24 + 4 d).
  const std::size_t d = 1396850;
  const std::size_t want = 20 * 3 * (24 + 4 * d);
  expect(perfbench::check_dense_wire_total(want, 20, 3, d).empty(),
         "wire total passes on the formula");
  expect(!perfbench::check_dense_wire_total(want + 1, 20, 3, d).empty() &&
             !perfbench::check_dense_wire_total(want - 1, 20, 3, d).empty(),
         "wire total fails off by one byte");

  // Parameters and losses bit for bit.
  std::vector<float> params = {0.5F, -1.25F, 3.0F};
  std::vector<float> flipped = params;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &flipped[1], sizeof bits);
  bits ^= 1U;  // lowest mantissa bit
  std::memcpy(&flipped[1], &bits, sizeof bits);
  expect(perfbench::check_bitwise_equal(std::span<const float>(params), params,
                                        "p")
             .empty(),
         "parameters pass against themselves");
  expect(!perfbench::check_bitwise_equal(std::span<const float>(flipped),
                                         params, "p")
              .empty(),
         "parameters fail with one flipped bit");
  const std::vector<double> losses = {2.30, 2.10};
  const std::vector<double> off = {2.30, std::nextafter(2.10, 3.0)};
  expect(!perfbench::check_bitwise_equal(std::span<const double>(off), losses,
                                         "l")
              .empty(),
         "losses fail one ulp apart");

  // Codec round trip: a payload whose last value byte is flipped decodes
  // to a different value.
  const sidco::tensor::SparseGradient sel = selection({1, 3}, g);
  std::vector<std::uint8_t> payload;
  sidco::comm::encode_gradient(sel, sidco::comm::ValueMode::kFp32, payload);
  expect(perfbench::check_roundtrip(payload, sel).empty(),
         "round trip passes on an intact payload");
  std::vector<std::uint8_t> corrupt = payload;
  corrupt.back() ^= 0x01U;
  expect(!perfbench::check_roundtrip(corrupt, sel).empty(),
         "round trip fails on a payload with one flipped bit");

  // Accumulated mean against the benchmark's own worker-order sum.
  const std::vector<sidco::tensor::SparseGradient> parts = {
      selection({1, 3}, g), selection({0, 3}, g), selection({5}, g)};
  sidco::comm::SparseAccumulator acc;
  acc.reset(g.size());
  for (const auto& p : parts) acc.accumulate(p, 1.0F / 3.0F);
  std::vector<float> scratch;
  expect(perfbench::check_mean(parts, 1.0F / 3.0F, acc.dense(), scratch)
             .empty(),
         "mean passes on the accumulator's output");
  std::vector<float> wrong(acc.dense().begin(), acc.dense().end());
  wrong[3] = std::nextafter(wrong[3], 10.0F);
  expect(!perfbench::check_mean(parts, 1.0F / 3.0F, wrong, scratch).empty(),
         "mean fails one ulp off in one element");

  std::printf("%s\n", failures == 0 ? "all checks behave" : "FAILED");
  return failures == 0 ? 0 : 1;
}
