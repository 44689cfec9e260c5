// perfbench: the end-to-end benchmark of the SIDCo system (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--scheme <name>]
//
// Runs one workload for about `seconds`, checks every output outside the
// timed regions, and prints one JSON object as the last line of stdout:
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload untraced for half the
// time (the engine's own measured seconds) and replays one worker's
// iteration under the span recorder for the other half, reporting the
// per-layer metrics and writing the spans as Chrome trace-event JSON.
// --scheme replaces a training workload's compressor (README reference
// figures); the gated workloads never pass it.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "comm/aggregate.h"
#include "comm/codec.h"
#include "compressors/compressor.h"
#include "core/factory.h"
#include "data/factory.h"
#include "dist/session.h"
#include "dist/worker.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/zoo.h"
#include "runtime/socket_transport.h"
#include "runtime/transport.h"
#include "tensor/vector_ops.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace sidco;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main(): the reference point of
// setup_s, so the cold set-up is timed from (close to) process start.
const Clock::time_point kProcessStart = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr std::size_t kWorkers = 3;
// The three selection schemes every workload times: fitted threshold, exact
// k-th element, sampled threshold.
constexpr std::array<core::Scheme, 3> kSchemes = {
    core::Scheme::kSidcoExponential, core::Scheme::kTopK, core::Scheme::kDgc};
constexpr std::array<const char*, 3> kSchemeKeys = {"sidco", "topk", "dgc"};
// Bound on SIDCo-E's k-hat / k per call on the paper-scale stream, from
// the compressor's (kSidcoWarmupCalls + 1)-th call on: three adaptation
// periods of its stage controller (README "Checks").
constexpr double kSidcoRatioLo = 0.5;
constexpr double kSidcoRatioHi = 2.0;
constexpr std::size_t kSidcoWarmupCalls = 15;

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records `ops` failed operations with the reason on stderr.
  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
};

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Peak resident memory in MB of this process or of its largest waited-for
/// child (the sockets engine's worker processes), whichever is larger.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// --------------------------------------------------------------- workloads

struct TrainingSpec {
  const char* name;
  nn::Benchmark benchmark;
  core::Scheme scheme;
  double ratio;
  dist::Engine engine;
  dist::Topology topology;
  std::size_t iterations;  ///< per session
};

// Sessions last 1-3 s, so a run holds several and reports their median.
constexpr std::array<TrainingSpec, 3> kTraining = {{
    {"resnet20-allgather-threads", nn::Benchmark::kResNet20,
     core::Scheme::kSidcoExponential, 0.01, dist::Engine::kThreads,
     dist::Topology::kAllreduce, 15},
    {"vgg19-dense-sockets", nn::Benchmark::kVgg19, core::Scheme::kNone, 1.0,
     dist::Engine::kSockets, dist::Topology::kAllreduce, 20},
    {"lstm-ps-threads", nn::Benchmark::kLstmPtb, core::Scheme::kTopK, 0.01,
     dist::Engine::kThreads, dist::Topology::kParameterServer, 40},
}};

constexpr const char* kPaperScaleName = "compress-paper-scale";
// Ratio of the traced compression calls on training workloads (the
// workloads' own training ratio) and on the paper-scale stream (Fig. 1).
constexpr double kTrainingCompressRatio = 0.01;
constexpr double kPaperRatio = 0.001;

dist::SessionConfig make_config(const TrainingSpec& spec, std::uint64_t seed) {
  dist::SessionConfig c;
  c.benchmark = spec.benchmark;
  c.scheme = spec.scheme;
  c.target_ratio = spec.ratio;
  c.workers = kWorkers;
  c.iterations = spec.iterations;
  c.seed = seed;
  c.error_feedback = true;
  c.engine = spec.engine;
  c.topology = spec.topology;
  c.staleness_bound = 0;
  return c;
}

// ------------------------------------------------------- compression calls

/// One scheme's compressor plus reusable output/encode buffers.
struct SchemeSlot {
  std::unique_ptr<compressors::Compressor> compressor;
  compressors::CompressResult result;
  std::vector<std::uint8_t> payload;
  std::size_t calls = 0;
};

std::array<SchemeSlot, 3> make_slots(double ratio, std::uint64_t seed) {
  std::array<SchemeSlot, 3> slots;
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    slots[s].compressor = core::make_compressor(kSchemes[s], ratio, seed + s);
  }
  return slots;
}

/// Every per-call check of a scheme's selection: upper set, count rule,
/// decode round trip of its payload.  SIDCo-E's k-hat / k is bounded only
/// with `bound_sidco` (the paper-scale stream) and after its warm-up.
/// Returns the first violation.
std::string check_call(std::size_t scheme, std::span<const float> gradient,
                       SchemeSlot& slot, bool bound_sidco) {
  ++slot.calls;
  std::string why = perfbench::check_upper_set(gradient, slot.result.sparse);
  if (!why.empty()) return why;
  const std::size_t k = slot.compressor->target_k(gradient.size());
  const std::size_t selected = slot.result.sparse.nnz();
  switch (kSchemes[scheme]) {
    case core::Scheme::kTopK:
      why = perfbench::check_count(perfbench::CountRule::kExact, selected, k);
      break;
    case core::Scheme::kDgc:
      why = perfbench::check_count(perfbench::CountRule::kAtMost, selected, k);
      break;
    default:
      if (bound_sidco && slot.calls > kSidcoWarmupCalls) {
        why = perfbench::check_count(perfbench::CountRule::kRatio, selected, k,
                                     kSidcoRatioLo, kSidcoRatioHi);
      }
  }
  if (!why.empty()) return why;
  return perfbench::check_roundtrip(slot.payload, slot.result.sparse);
}

// ---------------------------------------------------- model-side gradients

/// A replica of worker 0 of a session (same model, dataset and sampling
/// seeds as the engines derive), driven through the public nn/data calls.
struct Replica {
  nn::Benchmark benchmark;
  std::size_t batch;
  nn::Model model;
  std::unique_ptr<data::Dataset> dataset;
  util::Rng rng;
  std::vector<float> dlogits;

  Replica(nn::Benchmark b, std::uint64_t seed)
      : benchmark(b),
        batch(nn::benchmark_spec(b).batch_size),
        model(nn::make_model(b, seed)),
        dataset(data::make_dataset(b, seed ^ 0xd474ULL)),
        rng(seed * 0x10001ULL + 1) {}

  /// Sample, forward, loss, backward; spans around each layer call.
  void gradient_step(perfbench::Tracer& tracer) {
    data::Batch batch_data;
    {
      perfbench::Tracer::Scope s(tracer, "data.sample");
      batch_data = dataset->sample(batch, rng);
    }
    model.zero_gradients();
    std::span<const float> logits;
    {
      perfbench::Tracer::Scope s(tracer, "nn.forward");
      logits = model.forward(batch_data.inputs, batch);
    }
    dlogits.resize(logits.size());
    {
      perfbench::Tracer::Scope s(tracer, "nn.loss");
      nn::softmax_cross_entropy(logits, batch_data.labels,
                                nn::benchmark_spec(benchmark).classes,
                                dlogits);
    }
    perfbench::Tracer::Scope s(tracer, "nn.backward");
    model.backward(dlogits);
  }
};

// ------------------------------------------------------- training sessions

struct SessionLoop {
  std::vector<dist::SessionResult> results;
  std::vector<double> call_seconds;
  Clock::time_point first_call;
};

/// Runs whole sessions until `seconds` have elapsed (at least one).  A
/// session that throws counts all its iterations as failed.
SessionLoop run_sessions(const dist::SessionConfig& config, double seconds,
                         Outcome& out) {
  SessionLoop loop;
  loop.first_call = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    out.attempted += config.iterations;
    try {
      loop.results.push_back(dist::run_session(config));
      loop.call_seconds.push_back(seconds_between(t0, Clock::now()));
    } catch (const std::exception& e) {
      out.fail(config.iterations, std::string("session failed: ") + e.what());
    }
  } while (seconds_between(loop.first_call, Clock::now()) < seconds);
  return loop;
}

/// Cross-engine contract: every session equals the simulated engine's run of
/// the same config bit for bit (per-iteration losses, final parameters, wire
/// bytes); the dense allgather also matches the documented byte formula.
/// A failed session-level check fails all of the session's iterations.
void check_sessions(const dist::SessionConfig& config,
                    const std::vector<dist::SessionResult>& results,
                    Outcome& out) {
  dist::SessionConfig sim = config;
  sim.engine = dist::Engine::kSimulated;
  // Numerically identical to the serial path; only allreduce supports it.
  sim.parallel_workers = config.topology == dist::Topology::kAllreduce;
  const dist::SessionResult ref = dist::run_session(sim);
  const std::vector<double> ref_losses = ref.loss_series();
  for (const dist::SessionResult& r : results) {
    std::string why = perfbench::check_bitwise_equal(
        std::span<const float>(r.final_parameters), ref.final_parameters,
        "final parameters");
    if (why.empty() && r.total_wire_bytes != ref.total_wire_bytes) {
      why = "wire bytes differ from the simulated engine";
    }
    if (why.empty() && config.scheme == core::Scheme::kNone &&
        config.topology == dist::Topology::kAllreduce) {
      why = perfbench::check_dense_wire_total(
          r.total_wire_bytes, config.iterations, config.workers,
          r.gradient_dimension);
    }
    if (!why.empty()) {
      out.fail(config.iterations, why);
      continue;
    }
    const std::vector<double> losses = r.loss_series();
    std::size_t bad = 0;
    for (std::size_t i = 0; i < config.iterations; ++i) {
      const bool same = i < losses.size() && i < ref_losses.size() &&
                        perfbench::check_bitwise_equal(
                            std::span<const double>(&losses[i], 1),
                            std::span<const double>(&ref_losses[i], 1), "loss")
                            .empty();
      bad += same ? 0 : 1;
    }
    if (bad > 0) out.fail(bad, "per-iteration losses differ from simulated");
  }
}

/// setup_s of a session loop: process start to the first call, plus the
/// first session's work outside the engine's wall clock (worker replicas,
/// transport rendezvous set-up, result assembly).
double session_setup_seconds(const SessionLoop& loop) {
  double s = seconds_between(kProcessStart, loop.first_call);
  if (!loop.results.empty()) {
    s += loop.call_seconds.front() - loop.results.front().measured_wall_seconds;
  }
  return s;
}

// ------------------------------------------------- paper-scale gradients

/// Seeded stream of paper-scale gradients.  Two base vectors are drawn
/// once, both with random signs: exponential magnitudes (the SID SIDCo-E
/// fits) and squared-normal magnitudes (gamma shape 1/2: a sparser body
/// with a tail of the same exponential family).  Gradient (iteration,
/// worker) mixes the two, each rotated by a random offset, with a gamma
/// weight that sweeps [0.1, 0.9] over 24 iterations, times a per-worker
/// scale on a log-normal random walk.  The body drifts between gradients,
/// so a single-stage fit over-selects (up to ~6x) and SIDCo's stage
/// adaptation has to settle at 2-3 stages as on the proxies' real
/// gradients; the scale moves ~10% per step, so speculative extraction
/// mostly hits and now and then misses.
class PaperStream {
 public:
  PaperStream(std::size_t dim, std::uint64_t seed)
      : dim_(dim), rng_(seed ^ 0x9a9e5ca1eULL), log_scale_(kWorkers) {
    util::Rng draw(seed);
    for (std::size_t b = 0; b < bases_.size(); ++b) {
      std::vector<float>& v = bases_[b];
      v.resize(dim);
      for (float& x : v) {
        const float sign = (draw() & 1U) != 0U ? 1.0F : -1.0F;
        double u = draw.uniform();
        while (u <= 0.0) u = draw.uniform();
        double mag = -std::log(u);
        if (b == 1) {
          const double z = draw.normal();
          mag = z * z;
        }
        x = sign * static_cast<float>(mag);
      }
    }
    phase_ = rng_.uniform(0.0, 24.0);
    for (double& l : log_scale_) l = std::log(1e-3) + rng_.uniform(-1.0, 1.0);
  }

  [[nodiscard]] std::size_t dim() const { return dim_; }

  /// Writes gradient (iteration, worker) into `out`.  Call in iteration
  /// order, workers 0..2 within an iteration.
  void next(std::size_t iteration, std::size_t worker, std::vector<float>& out) {
    const double pi = std::acos(-1.0);
    const double weight =
        0.5 + 0.4 * std::sin(2.0 * pi *
                             (static_cast<double>(iteration) + phase_) / 24.0);
    log_scale_[worker] += 0.1 * rng_.normal();
    const double scale = std::exp(log_scale_[worker]);
    const auto a = static_cast<float>(scale * (1.0 - weight));
    const auto b = static_cast<float>(scale * weight);
    std::size_t i0 = rng_.uniform_index(dim_);
    std::size_t i1 = rng_.uniform_index(dim_);
    out.resize(dim_);
    for (float& x : out) {
      x = a * bases_[0][i0] + b * bases_[1][i1];
      if (++i0 == dim_) i0 = 0;
      if (++i1 == dim_) i1 = 0;
    }
  }

 private:
  std::size_t dim_;
  util::Rng rng_;
  std::array<std::vector<float>, 2> bases_;
  double phase_ = 0.0;
  std::vector<double> log_scale_;
};

/// Per-iteration timings of the paper-scale pipeline.
struct PaperIteration {
  std::array<std::vector<double>, 3> compress_ms;  // per scheme, per worker
  double compress_s = 0.0;
  double codec_s = 0.0;  ///< encode + decode-and-accumulate
  std::size_t wire_bytes = 0;
};

/// One iteration: each worker's gradient through every scheme's
/// compress_into and encode_gradient, then per scheme the three payloads
/// decoded and accumulated in worker order.  One compressor per scheme
/// serves the three workers in turn, so SIDCo's stage controller sees three
/// calls per iteration.  Checks run untimed.
class PaperPipeline {
 public:
  PaperPipeline(std::size_t dim, std::uint64_t seed)
      : stream_(dim, seed), slots_(make_slots(kPaperRatio, seed)) {}

  PaperIteration run(std::size_t iteration, Outcome& out) {
    PaperIteration it;
    std::array<std::array<tensor::SparseGradient, kWorkers>, 3> parts;
    std::array<std::array<std::vector<std::uint8_t>, kWorkers>, 3> payloads;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      stream_.next(iteration, w, gradient_);
      for (std::size_t s = 0; s < kSchemes.size(); ++s) {
        SchemeSlot& slot = slots_[s];
        const Clock::time_point t0 = Clock::now();
        slot.compressor->compress_into(gradient_, slot.result);
        const Clock::time_point t1 = Clock::now();
        comm::encode_gradient(slot.result.sparse, comm::ValueMode::kFp32,
                              slot.payload);
        const Clock::time_point t2 = Clock::now();
        it.compress_ms[s].push_back(seconds_between(t0, t1) * 1e3);
        it.compress_s += seconds_between(t0, t1);
        it.codec_s += seconds_between(t1, t2);
        it.wire_bytes += slot.payload.size();
        ++out.attempted;
        const std::string why = check_call(s, gradient_, slot, true);
        if (!why.empty()) {
          out.fail(1, std::string(kSchemeKeys[s]) + ": " + why);
        }
        parts[s][w] = slot.result.sparse;
        payloads[s][w] = slot.payload;
      }
    }
    const auto scale = static_cast<float>(1.0 / static_cast<double>(kWorkers));
    for (std::size_t s = 0; s < kSchemes.size(); ++s) {
      const Clock::time_point t0 = Clock::now();
      accumulator_.reset(stream_.dim());
      for (std::size_t w = 0; w < kWorkers; ++w) {
        accumulator_.accumulate_encoded(payloads[s][w], scale);
      }
      it.codec_s += seconds_between(t0, Clock::now());
      const std::string why = perfbench::check_mean(
          parts[s], scale, accumulator_.dense(), mean_scratch_);
      if (!why.empty()) {
        out.fail(kWorkers, std::string(kSchemeKeys[s]) + ": " + why);
      }
    }
    return it;
  }

  PaperStream& stream() { return stream_; }

 private:
  PaperStream stream_;
  std::array<SchemeSlot, 3> slots_;
  std::vector<float> gradient_;
  comm::SparseAccumulator accumulator_;
  std::vector<float> mean_scratch_;
};

struct PaperLoop {
  std::array<std::vector<double>, 3> compress_ms;
  std::vector<double> iter_s;
  double compress_s = 0.0;
  double codec_s = 0.0;
  std::size_t wire_bytes = 0;
  std::size_t iterations = 0;
};

/// Whole pipeline iterations until `seconds` of loop time have elapsed.
PaperLoop run_paper(PaperPipeline& pipeline, std::size_t first_iteration,
                    double seconds, Outcome& out) {
  PaperLoop loop;
  const Clock::time_point start = Clock::now();
  do {
    PaperIteration it = pipeline.run(first_iteration + loop.iterations, out);
    for (std::size_t s = 0; s < 3; ++s) {
      loop.compress_ms[s].insert(loop.compress_ms[s].end(),
                                 it.compress_ms[s].begin(),
                                 it.compress_ms[s].end());
    }
    loop.iter_s.push_back(it.compress_s + it.codec_s);
    loop.compress_s += it.compress_s;
    loop.codec_s += it.codec_s;
    loop.wire_bytes += it.wire_bytes;
    ++loop.iterations;
  } while (seconds_between(start, Clock::now()) < seconds);
  return loop;
}

// ------------------------------------------------------------ trace replay

/// Payload echo over one endpoint pair: the peer thread answers every
/// payload with an empty ack, so send-to-ack times one payload crossing.
/// An error on the peer thread shuts the transport down, so the waiting
/// round() sees end of stream and reports a lost ack.
class EchoPair {
 public:
  explicit EchoPair(bool sockets) {
    if (sockets) {
      sockets_ = std::make_unique<runtime::SocketTransport>(2, 8);
      transport_ = sockets_.get();
      std::exception_ptr error;
      std::thread peer([&] {
        try {
          peer_ = &sockets_->establish(1);
        } catch (...) {
          error = std::current_exception();
        }
      });
      self_ = &sockets_->establish(0);
      peer.join();
      if (error) std::rethrow_exception(error);
    } else {
      memory_ = std::make_unique<runtime::InMemoryTransport>(2, 8);
      transport_ = memory_.get();
      self_ = &memory_->endpoint(0);
      peer_ = &memory_->endpoint(1);
    }
    thread_ = std::thread([this] {
      try {
        for (;;) {
          std::optional<runtime::TransportMessage> m = peer_->recv();
          if (!m || m->kind == kStop) break;
          peer_->send(0, {.kind = kAck, .from = 1, .seq = m->seq, .payload = {}});
        }
        peer_->flush();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: echo peer failed: %s\n", e.what());
        transport_->shutdown();
      }
    });
  }

  ~EchoPair() {
    self_->send(1, {.kind = kStop, .from = 0, .seq = 0, .payload = {}});
    self_->flush();
    thread_.join();
  }

  EchoPair(const EchoPair&) = delete;
  EchoPair& operator=(const EchoPair&) = delete;

  /// Sends `payload` and waits for its ack; false if the ack never came.
  bool round(const std::shared_ptr<const std::vector<std::uint8_t>>& payload,
             std::uint64_t seq) {
    if (!self_->send(1, {.kind = kData, .from = 0, .seq = seq,
                         .payload = payload})) {
      return false;
    }
    const std::optional<runtime::TransportMessage> ack = self_->recv();
    return ack && ack->kind == kAck && ack->seq == seq;
  }

 private:
  static constexpr std::uint8_t kData = 1;
  static constexpr std::uint8_t kAck = 2;
  static constexpr std::uint8_t kStop = 3;
  std::unique_ptr<runtime::InMemoryTransport> memory_;
  std::unique_ptr<runtime::SocketTransport> sockets_;
  runtime::Transport* transport_ = nullptr;
  runtime::Endpoint* self_ = nullptr;
  runtime::Endpoint* peer_ = nullptr;
  std::thread thread_;
};

/// Replays one worker's iteration through the public calls of every layer,
/// one span per call.  The model side (data, nn, dist) runs the workload's
/// model; the selection side (core, tensor) and the push (comm, runtime)
/// run on `gradient` at `ratio`.
class Replay {
 public:
  Replay(nn::Benchmark model, core::Scheme push_scheme, double push_ratio,
         double ratio, std::uint64_t seed)
      : replica_(model, seed),
        worker_(model, seed, seed * 0x10001ULL + 1, push_scheme, push_ratio,
                /*error_feedback=*/true),
        slots_(make_slots(ratio, seed)),
        inmem_(false),
        sockets_(true) {}

  /// One replayed iteration.  An empty `stream` selects on the replica's
  /// own gradient (training workloads).  Checks run outside the spans.
  void iteration(perfbench::Tracer& tracer, std::span<const float> stream,
                 std::uint64_t seq, Outcome& out) {
    perfbench::Tracer::Scope whole(tracer, "replay.iteration");
    replica_.gradient_step(tracer);
    const std::span<const float> gradient =
        stream.empty() ? std::as_const(replica_.model).gradients() : stream;

    dist::WorkerStepResult step;
    {
      perfbench::Tracer::Scope s(tracer, "dist.worker_step");
      step = worker_.step(replica_.batch);
    }

    for (std::size_t s = 0; s < kSchemes.size(); ++s) {
      SchemeSlot& slot = slots_[s];
      {
        perfbench::Tracer::Scope span(
            tracer, std::string("core.compress_serial.") + kSchemeKeys[s]);
        util::ThreadPool::SerialScope serial;
        slot.compressor->compress_into(gradient, slot.result);
      }
      {
        perfbench::Tracer::Scope span(
            tracer, std::string("core.compress.") + kSchemeKeys[s]);
        slot.compressor->compress_into(gradient, slot.result);
      }
      comm::encode_gradient(slot.result.sparse, comm::ValueMode::kFp32,
                            slot.payload);
      const std::string why = check_call(s, gradient, slot, false);
      if (!why.empty()) out.fail(1, std::string(kSchemeKeys[s]) + ": " + why);
    }

    const std::size_t k = slots_[1].compressor->target_k(gradient.size());
    {
      perfbench::Tracer::Scope s(tracer, "tensor.abs_moments");
      moments_ = tensor::abs_moments(gradient, INFINITY, false, &workspace_);
    }
    float kth = 0.0F;
    {
      perfbench::Tracer::Scope s(tracer, "tensor.top_k");
      kth = tensor::top_k(gradient, k, workspace_, topk_);
    }
    {
      perfbench::Tracer::Scope s(tracer, "tensor.extract_at_least");
      tensor::extract_at_least(gradient, kth, workspace_, extracted_);
    }
    if (topk_.nnz() != k || extracted_.nnz() < k) {
      out.fail(1, "tensor kernels: top_k/extract_at_least count");
    }

    // The push: the worker's step output on training workloads, SIDCo-E's
    // selection of the stream gradient on the paper-scale one.
    const tensor::SparseGradient& push =
        stream.empty() ? step.sparse : slots_[0].result.sparse;
    {
      perfbench::Tracer::Scope s(tracer, "comm.encode");
      comm::encode_gradient(push, comm::ValueMode::kFp32, encoded_);
    }
    const std::string why = perfbench::check_roundtrip(encoded_, push);
    if (!why.empty()) out.fail(1, "push: " + why);
    push_bytes_.push_back(static_cast<double>(encoded_.size()));
    auto frozen = std::make_shared<const std::vector<std::uint8_t>>(encoded_);
    {
      perfbench::Tracer::Scope s(tracer, "runtime.inmem_send_recv");
      if (!inmem_.round(frozen, seq)) out.fail(1, "in-memory echo lost");
    }
    {
      perfbench::Tracer::Scope s(tracer, "runtime.socket_send_recv");
      if (!sockets_.round(frozen, seq)) out.fail(1, "socket echo lost");
    }

    // This and the two previous pushes stand in for the three workers'.
    window_.push_back(frozen);
    window_parts_.push_back(push);
    while (window_.size() < kWorkers) {
      window_.push_back(frozen);
      window_parts_.push_back(push);
    }
    while (window_.size() > kWorkers) {
      window_.pop_front();
      window_parts_.pop_front();
    }
    const auto scale = static_cast<float>(1.0 / static_cast<double>(kWorkers));
    {
      perfbench::Tracer::Scope s(tracer, "comm.accumulate");
      accumulator_.reset(push.dense_dim);
      for (const auto& payload : window_) {
        accumulator_.accumulate_encoded(*payload, scale);
      }
    }
    const std::vector<tensor::SparseGradient> parts(window_parts_.begin(),
                                                    window_parts_.end());
    const std::string mean_why = perfbench::check_mean(
        parts, scale, accumulator_.dense(), mean_scratch_);
    if (!mean_why.empty()) out.fail(1, "accumulate: " + mean_why);

    // The update has the worker's dimension: the accumulated mean on
    // training workloads, the replica's gradient on the paper-scale one.
    const std::span<const float> update =
        accumulator_.dense().size() == worker_.gradient_dimension()
            ? accumulator_.dense()
            : replica_.model.gradients();
    perfbench::Tracer::Scope s(tracer, "dist.apply_update");
    worker_.apply_update(update);
  }

  [[nodiscard]] double median_push_bytes() const { return median(push_bytes_); }

 private:
  Replica replica_;
  dist::Worker worker_;
  std::array<SchemeSlot, 3> slots_;
  tensor::Workspace workspace_;
  tensor::AbsMoments moments_;
  tensor::SparseGradient topk_;
  tensor::SparseGradient extracted_;
  std::vector<std::uint8_t> encoded_;
  std::vector<double> push_bytes_;
  EchoPair inmem_;
  EchoPair sockets_;
  std::deque<std::shared_ptr<const std::vector<std::uint8_t>>> window_;
  std::deque<tensor::SparseGradient> window_parts_;
  comm::SparseAccumulator accumulator_;
  std::vector<float> mean_scratch_;
};

struct ReplayLoop {
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
};

/// Alternates traced and untraced replayed iterations until `seconds`
/// elapse (at least two of each); the untraced ones measure the tracing
/// overhead.  `next_stream` fills the paper-scale gradient, or is empty.
template <typename NextStream>
ReplayLoop run_replay(Replay& replay, perfbench::Tracer& tracer,
                      double seconds, NextStream&& next_stream,
                      Outcome& out) {
  ReplayLoop loop;
  const Clock::time_point start = Clock::now();
  std::vector<float> stream;
  for (std::uint64_t i = 0;
       i < 4 || seconds_between(start, Clock::now()) < seconds; ++i) {
    next_stream(i, stream);
    const bool traced = i % 2 == 0;
    tracer.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    replay.iteration(tracer, stream, i, out);
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    (traced ? loop.traced_ms : loop.untraced_ms).push_back(ms);
    ++out.attempted;
  }
  tracer.set_enabled(false);
  return loop;
}

void add_replay_metrics(const perfbench::Tracer& tracer, const Replay& replay,
                        const ReplayLoop& loop, Outcome& out) {
  // Metric "<span>_ms" is the median duration of span "<span>".
  for (const char* span :
       {"nn.forward", "nn.backward", "data.sample", "dist.worker_step",
        "dist.apply_update", "tensor.abs_moments", "tensor.extract_at_least",
        "tensor.top_k", "comm.encode", "comm.accumulate",
        "runtime.inmem_send_recv", "runtime.socket_send_recv"}) {
    out.add(std::string(span) + "_ms", median(tracer.durations_ms(span)), "ms");
  }
  for (const char* key : kSchemeKeys) {
    out.add(std::string("core.compress_ms.") + key,
            median(tracer.durations_ms(std::string("core.compress.") + key)),
            "ms");
    out.add(std::string("core.compress_ms_serial.") + key,
            median(tracer.durations_ms(std::string("core.compress_serial.") +
                                       key)),
            "ms");
  }
  out.add("comm.push_bytes", replay.median_push_bytes(), "bytes");
  const double traced = median(loop.traced_ms);
  const double untraced = median(loop.untraced_ms);
  std::fprintf(stderr,
               "perfbench: replayed iteration %.3f ms traced, %.3f ms "
               "untraced (tracing overhead %+.3f ms, %+.2f%%)\n",
               traced, untraced, traced - untraced,
               100.0 * (traced - untraced) / untraced);
}

// ------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string scheme;
};

Outcome run_training(const TrainingSpec& spec, const Args& args,
                     perfbench::Tracer& tracer) {
  Outcome out;
  dist::SessionConfig config = make_config(spec, args.seed);
  if (!args.scheme.empty()) {
    for (const core::Scheme s : core::all_schemes()) {
      if (core::scheme_name(s) == args.scheme) config.scheme = s;
    }
    config.target_ratio =
        config.scheme == core::Scheme::kNone ? 1.0 : kTrainingCompressRatio;
  }
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const SessionLoop loop = run_sessions(config, loop_seconds, out);
  const double setup = session_setup_seconds(loop);

  std::vector<double> iter_per_s;
  double wire = 0.0;
  double compute = 0.0;
  double comm_s = 0.0;
  double modeled = 0.0;
  std::size_t pull = 0;
  for (const dist::SessionResult& r : loop.results) {
    const auto iters = static_cast<double>(config.iterations);
    iter_per_s.push_back(iters / r.measured_wall_seconds);
    wire += static_cast<double>(r.total_wire_bytes) / iters;
    compute += r.measured_compute_seconds / iters;
    comm_s += r.measured_comm_seconds / iters;
    modeled += r.total_modeled_seconds / iters;
    std::size_t push = 0;
    for (const dist::IterationRecord& it : r.iterations) push += it.wire_bytes;
    pull += r.total_wire_bytes - push;
  }
  const auto sessions = static_cast<double>(std::max<std::size_t>(
      loop.results.size(), 1));
  const double samples_per_iter = static_cast<double>(
      kWorkers * nn::benchmark_spec(spec.benchmark).batch_size);
  std::fprintf(stderr,
               "perfbench: %s: %zu sessions x %zu iterations; %.2f iter/s "
               "= %.1f samples/s; measured %.4f s/iter vs modeled %.4f s/iter\n",
               spec.name, loop.results.size(), config.iterations,
               median(iter_per_s), median(iter_per_s) * samples_per_iter,
               1.0 / median(iter_per_s), modeled / sessions);

  if (!args.trace) {
    check_sessions(config, loop.results, out);
    out.add("iter_per_s", median(iter_per_s), "1/s");
    out.add("setup_s", setup, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  Replay replay(spec.benchmark, config.scheme, config.target_ratio,
                kTrainingCompressRatio, args.seed);
  const ReplayLoop rl = run_replay(
      replay, tracer, args.seconds / 2,
      [](std::uint64_t, std::vector<float>&) {}, out);
  check_sessions(config, loop.results, out);
  add_replay_metrics(tracer, replay, rl, out);
  out.add("runtime.wire_bytes_per_iter", wire / sessions, "bytes");
  out.add("runtime.compute_s_per_iter", compute / sessions, "s");
  out.add("runtime.comm_s_per_iter", comm_s / sessions, "s");
  out.add("runtime.pull_bytes_per_iter",
          static_cast<double>(pull) / sessions /
              static_cast<double>(config.iterations),
          "bytes");
  return out;
}

Outcome run_paper_scale(const Args& args, perfbench::Tracer& tracer) {
  Outcome out;
  const std::size_t dim =
      nn::benchmark_spec(nn::Benchmark::kVgg16).paper_parameters;
  PaperPipeline pipeline(dim, args.seed);
  const Clock::time_point first_call = Clock::now();
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const PaperLoop loop = run_paper(pipeline, 0, loop_seconds, out);
  const auto iters = static_cast<double>(loop.iterations);

  const std::array<double, 3> medians = {median(loop.compress_ms[0]),
                                         median(loop.compress_ms[1]),
                                         median(loop.compress_ms[2])};
  std::fprintf(stderr,
               "perfbench: %s: %zu iterations; SIDCo-E speed-up %.2fx over "
               "Topk, %.2fx over DGC\n",
               kPaperScaleName, loop.iterations, medians[1] / medians[0],
               medians[2] / medians[0]);

  if (!args.trace) {
    out.add("iter_per_s", 1.0 / median(loop.iter_s), "1/s");
    out.add("setup_s", seconds_between(kProcessStart, first_call), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // The model side of the replay runs VGG16's proxy, the model whose
  // Table 1 gradient size the stream has.
  Replay replay(nn::Benchmark::kVgg16, core::Scheme::kSidcoExponential,
                kPaperRatio, kPaperRatio, args.seed);
  PaperStream& stream = pipeline.stream();
  const std::size_t first = loop.iterations;
  const ReplayLoop rl = run_replay(
      replay, tracer, args.seconds / 2,
      [&](std::uint64_t i, std::vector<float>& g) {
        stream.next(first + i, 0, g);
      },
      out);
  add_replay_metrics(tracer, replay, rl, out);
  out.add("runtime.wire_bytes_per_iter",
          static_cast<double>(loop.wire_bytes) / iters, "bytes");
  out.add("runtime.compute_s_per_iter", loop.compress_s / iters, "s");
  out.add("runtime.comm_s_per_iter", loop.codec_s / iters, "s");
  out.add("runtime.pull_bytes_per_iter", 0.0, "bytes");
  return out;
}

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--scheme") {
      args.scheme = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--scheme <name>]\n");
    return 2;
  }
  if (args.trace_out.empty()) {
    args.trace_out = "trace-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".json";
  }
  perfbench::Tracer tracer(false);
  try {
    std::optional<Outcome> out;
    for (const TrainingSpec& spec : kTraining) {
      if (args.workload == spec.name) out = run_training(spec, args, tracer);
    }
    if (args.workload == kPaperScaleName) out = run_paper_scale(args, tracer);
    if (!out) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    if (args.trace) {
      if (!tracer.write_chrome_json(args.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n",
                   tracer.spans().size(), args.trace_out.c_str());
    }
    print_result(*out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
