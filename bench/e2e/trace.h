// Outside-in tracing for the end-to-end benchmark.
//
// Spans are recorded only around calls the benchmark itself makes into the
// program's public interfaces, or that the program makes into an object the
// benchmark hands it: InferenceEngine::Submit and request completion on the
// client threads, and every core::Method call the engine makes, through the
// TracedMethod decorator. Nothing inside the program is instrumented.
// Spans are kept in memory and written as Chrome trace-event JSON at exit.

#ifndef ADAPTRAJ_BENCH_E2E_TRACE_H_
#define ADAPTRAJ_BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/method.h"

namespace adaptraj {
namespace e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the benchmark process started.
int64_t NowNs();

/// Small dense id of the calling thread (0 = first thread that asked).
int ThreadIndex();

enum class SpanKind : uint8_t {
  kSubmit,      // InferenceEngine::Submit on the generator thread
  kRequest,     // one request, from its due time to its observed completion
  kPredict,     // Method::Predict
  kEncode,      // Method::PredictEncode
  kDecode,      // Method::PredictDecode
  kEncodeWidth, // Method::predict_encode_width: the engine asks it once per
                // cached batch, before keying its rows
};

struct Span {
  SpanKind kind = SpanKind::kSubmit;
  int thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Request index for kSubmit/kRequest; batch rows for core calls.
  int64_t arg = 0;
  /// Buffer-pool acquires and pool hits on the calling thread during the
  /// call (core calls only).
  int64_t pool_acquires = 0;
  int64_t pool_hits = 0;
};

/// Thread-safe in-memory span store.
class SpanLog {
 public:
  void Record(const Span& span);
  /// Every span recorded so far. Call only once no thread records any more.
  const std::vector<Span>& spans() const;
  /// Writes every span as Chrome trace-event JSON; returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// core::Method decorator that records a span around every call the serving
/// engine makes into the method. Clones made for a replica pool are traced
/// into the same log.
class TracedMethod : public core::Method {
 public:
  TracedMethod(const core::Method* inner, SpanLog* log);
  TracedMethod(std::unique_ptr<core::Method> owned, SpanLog* log);

  std::string name() const override { return inner_->name(); }
  void Train(const data::DomainGeneralizationData& dgd,
             const core::TrainConfig& config) override;
  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override;
  int64_t predict_encode_width() const override;
  bool encode_reads_neighbors() const override {
    return inner_->encode_reads_neighbors();
  }
  Tensor PredictEncode(const data::Batch& batch) const override;
  Tensor PredictDecode(const data::Batch& batch, const Tensor& enc_rows, Rng* rng,
                       bool sample) const override;
  bool reentrant_predict() const override { return inner_->reentrant_predict(); }
  std::unique_ptr<core::Method> CloneForServing() const override;

 private:
  template <typename Fn>
  Tensor Traced(SpanKind kind, int64_t rows, Fn&& fn) const;

  std::unique_ptr<core::Method> owned_;
  const core::Method* inner_;
  SpanLog* log_;
};

}  // namespace e2e
}  // namespace adaptraj

#endif  // ADAPTRAJ_BENCH_E2E_TRACE_H_
