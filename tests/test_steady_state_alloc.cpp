// Steady-state allocation contract: once a compressor's output object and
// internal scratch (tensor::Workspace, sample/exceedance buffers) have
// reached their high-water capacity, repeated compress_into() calls must
// perform ZERO heap allocations — and so must a model's forward + backward
// pass after one warm-up step.  Verified two ways:
//   1. a counting global operator new/delete (this TU overrides the global
//      allocation functions, so every heap allocation in the process is
//      observed), and
//   2. buffer-pointer stability of the reused output across calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "compressors/compressor.h"
#include "core/factory.h"
#include "core/sidco_compressor.h"
#include "nn/model.h"
#include "nn/zoo.h"
#include "stats/distributions.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The replacement operator new allocates with std::malloc, so releasing with
// std::free in the replacement deletes below is well matched; GCC cannot see
// the pairing across the custom definitions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sidco {
namespace {

std::vector<float> laplace_gradient(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const stats::Laplace dist(0.001);
  std::vector<float> g(n);
  for (float& x : g) x = static_cast<float>(dist.sample(rng));
  return g;
}

/// Multi-block so the parallel two-pass selection kernels are exercised.
constexpr std::size_t kDim = 200000;
// The adaptive stage controller re-plans every 5 iterations and tops out at
// 8 stages, so 60 calls (12 adaptations) guarantee every stage-dependent
// buffer has seen its high-water mark before measurement starts.
constexpr int kWarmupCalls = 60;
constexpr int kMeasuredCalls = 8;

std::size_t allocations_during_repeated_calls(compressors::Compressor& c) {
  const std::vector<float> g = laplace_gradient(kDim, 42);
  compressors::CompressResult out;
  // Warm-up: grow every buffer to its high-water mark (SIDCo's adaptive
  // controller re-plans stages every 5 iterations, so run well past that).
  for (int i = 0; i < kWarmupCalls; ++i) c.compress_into(g, out);
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < kMeasuredCalls; ++i) c.compress_into(g, out);
  return g_allocations.load() - before;
}

class SteadyStateAlloc : public ::testing::TestWithParam<core::Scheme> {};

TEST_P(SteadyStateAlloc, RepeatedCompressIntoAllocatesNothing) {
  auto compressor = core::make_compressor(GetParam(), 0.01, 7);
  EXPECT_EQ(allocations_during_repeated_calls(*compressor), 0U)
      << "scheme " << core::scheme_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    HotSchemes, SteadyStateAlloc,
    ::testing::Values(core::Scheme::kTopK, core::Scheme::kDgc,
                      core::Scheme::kRedSync, core::Scheme::kGaussianKSgd,
                      core::Scheme::kRandomK, core::Scheme::kSidcoExponential,
                      core::Scheme::kSidcoGammaPareto,
                      core::Scheme::kSidcoPareto));

TEST(SteadyStateAlloc, MultiStageSidcoWithFixedStagesAllocatesNothing) {
  // Freeze the controller at 4 stages so the full multi-stage filter chain
  // (stage-2 extraction + stage-3/4 buffer filtering) runs every call.
  core::SidcoConfig config;
  config.sid = core::Sid::kExponential;
  config.target_ratio = 0.001;
  config.controller.initial_stages = 4;
  config.controller.period = 1U << 30;  // never adapt
  core::SidcoCompressor compressor(config);
  EXPECT_EQ(allocations_during_repeated_calls(compressor), 0U);
}

TEST(SteadyStateAlloc, MultiThreadedKernelsAllocateNothing) {
  util::ThreadPool::instance().set_threads(4);
  core::SidcoConfig config;
  config.target_ratio = 0.001;
  config.controller.initial_stages = 4;
  config.controller.period = 1U << 30;
  core::SidcoCompressor compressor(config);
  const std::size_t allocs = allocations_during_repeated_calls(compressor);
  util::ThreadPool::instance().set_threads(1);
  EXPECT_EQ(allocs, 0U);
}

TEST(SteadyStateAlloc, OutputBuffersAreReusedAcrossCalls) {
  auto compressor = core::make_compressor(core::Scheme::kSidcoExponential,
                                          0.01, 3);
  const std::vector<float> g = laplace_gradient(kDim, 5);
  compressors::CompressResult out;
  for (int i = 0; i < kWarmupCalls; ++i) compressor->compress_into(g, out);
  const std::uint32_t* indices_data = out.sparse.indices.data();
  const float* values_data = out.sparse.values.data();
  const std::size_t indices_cap = out.sparse.indices.capacity();
  const std::size_t values_cap = out.sparse.values.capacity();
  for (int i = 0; i < kMeasuredCalls; ++i) compressor->compress_into(g, out);
  EXPECT_EQ(out.sparse.indices.data(), indices_data);
  EXPECT_EQ(out.sparse.values.data(), values_data);
  EXPECT_EQ(out.sparse.indices.capacity(), indices_cap);
  EXPECT_EQ(out.sparse.values.capacity(), values_cap);
}

/// A batch of the benchmark's own input shape: token ids for the language
/// model, standard-normal pixels otherwise.
std::vector<float> model_input(nn::Benchmark benchmark, std::size_t size) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(benchmark);
  util::Rng rng(11);
  std::vector<float> input(size);
  for (float& x : input) {
    x = benchmark == nn::Benchmark::kLstmPtb
            ? static_cast<float>(rng.uniform_index(spec.classes))
            : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return input;
}

// The NN layers keep their scratch (im2col, residual-block gradients, LSTM
// carries) across calls, so once a model has run one step at its batch
// size, further forward + backward passes allocate nothing.
TEST(SteadyStateAlloc, ModelForwardBackwardAllocatesNothingAfterWarmup) {
  for (const nn::Benchmark benchmark :
       {nn::Benchmark::kResNet20, nn::Benchmark::kVgg19,
        nn::Benchmark::kLstmPtb}) {
    const nn::BenchmarkSpec& spec = nn::benchmark_spec(benchmark);
    nn::Model model = nn::make_model(benchmark, 5);
    const std::size_t batch = spec.batch_size;
    const std::vector<float> input =
        model_input(benchmark, batch * model.in_features());
    std::vector<float> grad_logits(batch * model.out_features(), 0.01F);
    const auto step = [&] {
      model.zero_gradients();
      (void)model.forward(input, batch);
      model.backward(grad_logits);
    };
    step();  // warm-up
    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 3; ++i) step();
    EXPECT_EQ(g_allocations.load() - before, 0U) << spec.name;
  }
}

}  // namespace
}  // namespace sidco
