#include "trace.h"

#include <atomic>
#include <cstdio>
#include <utility>

#include "tensor/buffer_pool.h"

namespace adaptraj {
namespace e2e {

namespace {

const Clock::time_point g_epoch = Clock::now();

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSubmit: return "serve.Submit";
    case SpanKind::kRequest: return "request";
    case SpanKind::kPredict: return "core.Predict";
    case SpanKind::kEncode: return "core.PredictEncode";
    case SpanKind::kDecode: return "core.PredictDecode";
    case SpanKind::kEncodeWidth: return "core.predict_encode_width";
  }
  return "?";
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count();
}

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

void SpanLog::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

const std::vector<Span>& SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans()) {
    const bool request = s.kind == SpanKind::kSubmit || s.kind == SpanKind::kRequest;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                 first ? "" : ",\n", SpanKindName(s.kind), s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    if (request) {
      std::fprintf(out, "\"request\":%lld}}", static_cast<long long>(s.arg));
    } else {
      std::fprintf(out, "\"rows\":%lld,\"pool_acquires\":%lld,\"pool_hits\":%lld}}",
                   static_cast<long long>(s.arg),
                   static_cast<long long>(s.pool_acquires),
                   static_cast<long long>(s.pool_hits));
    }
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

TracedMethod::TracedMethod(const core::Method* inner, SpanLog* log)
    : inner_(inner), log_(log) {}

TracedMethod::TracedMethod(std::unique_ptr<core::Method> owned, SpanLog* log)
    : owned_(std::move(owned)), inner_(owned_.get()), log_(log) {}

void TracedMethod::Train(const data::DomainGeneralizationData& dgd,
                         const core::TrainConfig& config) {
  (void)dgd;
  (void)config;
  ADAPTRAJ_CHECK_MSG(false, "TracedMethod only serves; train the inner method");
}

template <typename Fn>
Tensor TracedMethod::Traced(SpanKind kind, int64_t rows, Fn&& fn) const {
  const internal::BufferPoolStats pool0 = internal::GetBufferPoolStats();
  const int64_t t0 = NowNs();
  Tensor result = fn();
  const int64_t t1 = NowNs();
  const internal::BufferPoolStats pool1 = internal::GetBufferPoolStats();
  Span span;
  span.kind = kind;
  span.thread = ThreadIndex();
  span.start_ns = t0;
  span.end_ns = t1;
  span.arg = rows;
  span.pool_acquires = pool1.acquires - pool0.acquires;
  span.pool_hits = pool1.hits() - pool0.hits();
  log_->Record(span);
  return result;
}

Tensor TracedMethod::Predict(const data::Batch& batch, Rng* rng, bool sample) const {
  return Traced(SpanKind::kPredict, batch.batch_size,
                [&] { return inner_->Predict(batch, rng, sample); });
}

int64_t TracedMethod::predict_encode_width() const {
  Span span;
  span.kind = SpanKind::kEncodeWidth;
  span.thread = ThreadIndex();
  span.start_ns = NowNs();
  const int64_t width = inner_->predict_encode_width();
  span.end_ns = NowNs();
  log_->Record(span);
  return width;
}

Tensor TracedMethod::PredictEncode(const data::Batch& batch) const {
  return Traced(SpanKind::kEncode, batch.batch_size,
                [&] { return inner_->PredictEncode(batch); });
}

Tensor TracedMethod::PredictDecode(const data::Batch& batch, const Tensor& enc_rows,
                                   Rng* rng, bool sample) const {
  return Traced(SpanKind::kDecode, batch.batch_size,
                [&] { return inner_->PredictDecode(batch, enc_rows, rng, sample); });
}

std::unique_ptr<core::Method> TracedMethod::CloneForServing() const {
  std::unique_ptr<core::Method> clone = inner_->CloneForServing();
  if (clone == nullptr) return nullptr;
  return std::make_unique<TracedMethod>(std::move(clone), log_);
}

}  // namespace e2e
}  // namespace adaptraj
