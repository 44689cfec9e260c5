#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>

#include "comm/codec.h"

namespace perfbench {

namespace {

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
std::string bitwise_equal(std::span<const T> got, std::span<const T> want,
                          const std::string& what) {
  if (got.size() != want.size()) {
    return what + ": size " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got[i], want[i])) {
      return what + ": element " + std::to_string(i) + " differs";
    }
  }
  return {};
}

}  // namespace

std::string check_upper_set(std::span<const float> gradient,
                            const sidco::tensor::SparseGradient& selection) {
  if (selection.dense_dim != gradient.size()) return "dense_dim mismatch";
  if (selection.indices.size() != selection.values.size()) {
    return "index/value count mismatch";
  }
  float min_selected = INFINITY;
  float max_unselected = 0.0F;
  std::size_t j = 0;
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    const float mag = std::fabs(gradient[i]);
    if (j < selection.indices.size() && selection.indices[j] == i) {
      if (!same_bits(selection.values[j], gradient[i])) {
        return "selected value differs from the gradient at index " +
               std::to_string(i);
      }
      min_selected = std::min(min_selected, mag);
      ++j;
    } else {
      max_unselected = std::max(max_unselected, mag);
    }
  }
  if (j != selection.indices.size()) {
    return "indices not strictly increasing or out of range";
  }
  if (!selection.indices.empty() && max_unselected > min_selected) {
    return "an unselected element is larger than a selected one";
  }
  return {};
}

std::string check_count(CountRule rule, std::size_t selected, std::size_t k,
                        double lo, double hi) {
  switch (rule) {
    case CountRule::kExact:
      if (selected != k) {
        return "selected " + std::to_string(selected) + " != k " +
               std::to_string(k);
      }
      return {};
    case CountRule::kAtMost:
      if (selected > k) {
        return "selected " + std::to_string(selected) + " > k " +
               std::to_string(k);
      }
      return {};
    case CountRule::kRatio: {
      const double r =
          static_cast<double>(selected) / static_cast<double>(k);
      if (!(r >= lo && r <= hi)) {
        return "k-hat/k " + std::to_string(r) + " outside [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]";
      }
      return {};
    }
  }
  return "unknown count rule";
}

std::string check_dense_wire_total(std::size_t total_bytes,
                                   std::size_t iterations, std::size_t workers,
                                   std::size_t dimension) {
  const std::size_t want = iterations * workers * (24 + 4 * dimension);
  if (total_bytes != want) {
    return "wire bytes " + std::to_string(total_bytes) + " != " +
           std::to_string(want);
  }
  return {};
}

std::string check_bitwise_equal(std::span<const float> got,
                                std::span<const float> want,
                                const std::string& what) {
  return bitwise_equal(got, want, what);
}

std::string check_bitwise_equal(std::span<const double> got,
                                std::span<const double> want,
                                const std::string& what) {
  return bitwise_equal(got, want, what);
}

std::string check_roundtrip(std::span<const std::uint8_t> payload,
                            const sidco::tensor::SparseGradient& original) {
  namespace comm = sidco::comm;
  try {
    if (comm::peek_header(payload).kind == comm::PayloadKind::kDense) {
      std::vector<float> dense;
      comm::decode_dense(payload, dense);
      return bitwise_equal<float>(dense, original.to_dense(),
                                  "dense round trip");
    }
    sidco::tensor::SparseGradient decoded;
    comm::decode_sparse(payload, decoded);
    if (decoded.dense_dim != original.dense_dim) {
      return "round trip: dense_dim differs";
    }
    if (decoded.indices != original.indices) {
      return "round trip: indices differ";
    }
    return bitwise_equal<float>(decoded.values, original.values,
                                "round trip values");
  } catch (const std::exception& e) {
    return std::string("round trip: decode failed: ") + e.what();
  }
}

std::string check_mean(std::span<const sidco::tensor::SparseGradient> parts,
                       float scale, std::span<const float> accumulated,
                       std::vector<float>& scratch) {
  scratch.assign(accumulated.size(), 0.0F);
  for (const sidco::tensor::SparseGradient& part : parts) {
    if (part.dense_dim != accumulated.size()) return "mean: dimension mismatch";
    for (std::size_t j = 0; j < part.indices.size(); ++j) {
      if (part.indices[j] >= scratch.size()) return "mean: index out of range";
      scratch[part.indices[j]] += scale * part.values[j];
    }
  }
  return bitwise_equal<float>(accumulated, scratch, "accumulated mean");
}

}  // namespace perfbench
