#include "dist/worker.h"

#include <algorithm>
#include <utility>

#include "data/factory.h"
#include "dist/session_detail.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sidco::dist {

Worker::Worker(nn::Benchmark benchmark, std::uint64_t model_seed,
               std::uint64_t stream_seed, core::Scheme scheme,
               double target_ratio, bool error_feedback)
    : benchmark_(benchmark),
      model_(nn::make_model(benchmark, model_seed)),
      // All workers see the same data distribution; only the sampling
      // stream below differs per worker.
      dataset_(data::make_dataset(benchmark, model_seed ^ 0xd474ULL)),
      compressor_(core::make_compressor(scheme, target_ratio, stream_seed)),
      optimizer_(nn::benchmark_spec(benchmark).optimizer),
      rng_(stream_seed),
      error_feedback_(error_feedback),
      memory_(model_.parameter_count(), 0.0F),
      ec_gradient_(model_.parameter_count(), 0.0F) {}

void Worker::enable_autotune(const core::AutotuneConfig& config,
                             const WorkerAutotuneModel& model) {
  core::validate_autotune_config(config);
  if (!config.enabled() || model.scheme == core::Scheme::kNone) return;
  autotune_.emplace(config, compressor_->target_ratio());
  autotune_model_.emplace(model);
  if (config.wants_gof()) {
    compressor_->enable_fit_diagnostics(config.gof_sample_cap);
  }
  // The controller clamps the starting ratio into its bounds; pin the
  // compressor to it so even the first step honors them.
  if (autotune_->ratio() != compressor_->target_ratio()) {
    compressor_->set_target_ratio(autotune_->ratio());
  }
}

WorkerStepResult Worker::step(std::size_t batch_size) {
  util::check(batch_size >= 1, "batch size must be >= 1");
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(benchmark_);

  const data::Batch batch = dataset_->sample(batch_size, rng_);
  model_.zero_gradients();
  const std::span<const float> logits = model_.forward(batch.inputs, batch_size);
  dlogits_.resize(logits.size());
  const nn::LossResult loss = nn::softmax_cross_entropy(
      logits, batch.labels, spec.classes, dlogits_);
  model_.backward(dlogits_);

  const std::span<const float> grad = model_.gradients();
  for (std::size_t i = 0; i < grad.size(); ++i) {
    ec_gradient_[i] = grad[i] + (error_feedback_ ? memory_[i] : 0.0F);
  }

  // Validate outside the timed window so measured latency reflects only the
  // scheme's own selection work.  The result object is a reused member, so
  // the timed region exercises the steady-state allocation-free path, and
  // the SerialScope keeps kernels inline on this thread: parallel sessions
  // run several workers concurrently, and contending on the shared kernel
  // pool inside the timed window would let one worker's wait on another's
  // job inflate its single-device latency.
  compressors::Compressor::validate_gradient(ec_gradient_);
  util::Timer timer;
  {
    util::ThreadPool::SerialScope single_device;
    compressor_->compress_into_unchecked(ec_gradient_, compressed_);
  }
  const double measured = timer.seconds();

  if (error_feedback_) {
    // Residual = corrected gradient off the selected support (Algorithm 2).
    // A swap, not a copy: ec_gradient_ is rewritten in full next step.
    std::swap(memory_, ec_gradient_);
    for (std::size_t j = 0; j < compressed_.sparse.nnz(); ++j) {
      memory_[compressed_.sparse.indices[j]] = 0.0F;
    }
  }

  // Serialize the payload as it would travel (outside the timed window, so
  // measured compression latency stays a pure selection cost).
  comm::encode_gradient(compressed_.sparse, comm::ValueMode::kFp32, encoded_);

  if (autotune_) {
    // Price this step's observables with the deterministic models only —
    // measured CPU seconds never feed the controller, so the decision
    // sequence is a pure function of the numerics every engine shares.
    const WorkerAutotuneModel& m = *autotune_model_;
    const std::size_t bytes = detail::payload_timing_bytes(
        encoded_.size(), model_.parameter_count(), m.timing_dim);
    const double comm = m.collective ? m.network.sparse_allgather_seconds(bytes)
                                     : m.network.link_transfer_seconds(bytes);
    const double compression =
        m.device.gpu_seconds(m.scheme, m.timing_dim,
                             compressor_->target_ratio(),
                             compressed_.stages_used);
    const double compute = m.scale * (m.base_compute + compression);
    const double next = autotune_->observe({.comm_seconds = comm,
                                            .compute_seconds = compute,
                                            .fit_ks = compressed_.fit_ks});
    if (next != compressor_->target_ratio()) {
      compressor_->set_target_ratio(next);
    }
  }

  WorkerStepResult result;
  result.sparse = compressed_.sparse;  // copy: compressed_ keeps its capacity
  result.encoded = encoded_;           // copy: encoded_ keeps its capacity
  result.wire_bytes = encoded_.size();
  result.selected = result.sparse.nnz();
  result.train_loss = loss.loss;
  result.train_accuracy = loss.accuracy;
  result.threshold = compressed_.threshold;
  result.stages_used = compressed_.stages_used;
  result.measured_compression_seconds = measured;
  return result;
}

void Worker::overwrite_parameters(std::span<const float> params) {
  util::check(params.size() == model_.parameter_count(),
              "pulled parameter dimension mismatch");
  std::copy(params.begin(), params.end(), model_.parameters().begin());
}

void Worker::adopt_replica_state(const Worker& source) {
  util::check(source.gradient_dimension() == model_.parameter_count(),
              "replica handoff dimension mismatch");
  overwrite_parameters(source.parameters());
  optimizer_.overwrite_velocity(source.optimizer_.velocity());
}

void Worker::overwrite_error_memory(std::span<const float> residual) {
  util::check(residual.size() == memory_.size(),
              "residual handoff dimension mismatch");
  std::copy(residual.begin(), residual.end(), memory_.begin());
}

void Worker::apply_update(std::span<const float> aggregated_gradient) {
  util::check(aggregated_gradient.size() == model_.parameter_count(),
              "aggregated gradient dimension mismatch");
  optimizer_.step(model_.parameters(), aggregated_gradient);
}

nn::LossResult Worker::evaluate(std::size_t batch_size, std::size_t batches) {
  util::check(batches >= 1, "evaluation needs >= 1 batch");
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(benchmark_);
  double loss = 0.0;
  double accuracy = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    const data::Batch batch = dataset_->eval_batch(batch_size, b);
    const std::span<const float> logits =
        model_.forward(batch.inputs, batch_size);
    const nn::LossResult r =
        nn::softmax_cross_entropy_eval(logits, batch.labels, spec.classes);
    loss += r.loss;
    accuracy += r.accuracy;
  }
  const auto n = static_cast<double>(batches);
  return {.loss = loss / n, .accuracy = accuracy / n};
}

}  // namespace sidco::dist
