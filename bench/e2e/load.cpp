#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <thread>
#include <utility>

namespace adaptraj {
namespace e2e {

namespace {

/// Nonce increment on the first observed x position (meters). Far above a
/// float ulp at any simulated world coordinate, so every nonce step changes
/// the encoder input bytes; small enough not to move the prediction much.
constexpr float kNonceStep = 1e-3f;

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

bool IsFiniteRow(const Tensor& t, int pred_floats) {
  if (t.dim() != 2 || t.size(0) != 1 || t.size(1) != pred_floats) return false;
  const float* p = t.data();
  for (int i = 0; i < pred_floats; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

RequestStream::RequestStream(std::vector<data::TrajectorySequence> pool,
                             double repeat_share, uint64_t seed)
    : pool_(std::move(pool)), repeat_share_(repeat_share), rng_(seed) {
  ADAPTRAJ_CHECK_MSG(!pool_.empty(), "request pool is empty");
  base_x0_.reserve(pool_.size());
  for (const auto& scene : pool_) base_x0_.push_back(scene.focal[0].x);
  recent_.reserve(kRepeatWindow);
}

const data::TrajectorySequence& RequestStream::Next() {
  Fresh pick{0, 0};
  if (repeat_share_ > 0.0 && !recent_.empty() &&
      rng_.Uniform(0.0f, 1.0f) < static_cast<float>(repeat_share_)) {
    pick = recent_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(recent_.size())))];
    ++repeats_;
  } else {
    const int64_t n = static_cast<int64_t>(pool_.size());
    pick = Fresh{fresh_ % n, fresh_ / n + 1};
    if (recent_.size() < static_cast<size_t>(kRepeatWindow)) {
      recent_.push_back(pick);
    } else {
      recent_[static_cast<size_t>(fresh_ % kRepeatWindow)] = pick;
    }
    ++fresh_;
  }
  ++drawn_;
  data::TrajectorySequence& scene = pool_[static_cast<size_t>(pick.pool_index)];
  scene.focal[0].x = base_x0_[static_cast<size_t>(pick.pool_index)] +
                     kNonceStep * static_cast<float>(pick.nonce);
  return scene;
}

PhaseResult RunPhase(serve::InferenceEngine* engine, RequestStream* stream,
                     const PhaseSpec& spec, int pred_floats, SpanLog* log) {
  struct InFlight {
    std::future<Tensor> future;
    int64_t due_ns;
    int64_t index;
  };

  // Sleeps must wake on time at tens of thousands of arrivals per second;
  // the default 50 us timer slack would bunch them.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  PhaseResult result;
  // Reserved so that the completion thread never reallocates under the lock;
  // the closed loop is sized for well above today's capacity.
  const size_t expected = static_cast<size_t>(
      (spec.closed_loop ? 200000.0 : spec.rate_per_s) * spec.seconds * 1.2) + 1024;
  std::vector<double> latency_ms;   // due -> completion, successful requests
  std::vector<double> gen_late_ms;  // due -> Submit call, open loop
  latency_ms.reserve(expected);
  if (!spec.closed_loop) gen_late_ms.reserve(expected);

  std::mutex mu;
  std::condition_variable items_cv;  // generator -> completion thread
  std::condition_variable space_cv;  // completion thread -> closed-loop generator
  std::deque<InFlight> queue;
  bool done = false;
  int64_t outstanding = 0;
  int64_t last_completion_ns = 0;

  std::thread completion([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        items_cv.wait(lock, [&] { return !queue.empty() || done; });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      item.future.wait();
      const int64_t t = NowNs();
      bool ok = false;
      try {
        ok = IsFiniteRow(item.future.get(), pred_floats);
      } catch (...) {
        ok = false;
      }
      if (log != nullptr) {
        Span span;
        span.kind = SpanKind::kRequest;
        span.thread = ThreadIndex();
        span.start_ns = item.due_ns;
        span.end_ns = t;
        span.arg = item.index;
        log->Record(span);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (ok) {
          ++result.completed;
          latency_ms.push_back(static_cast<double>(t - item.due_ns) * 1e-6);
        } else {
          ++result.failed;
        }
        --outstanding;
        last_completion_ns = t;
      }
      space_cv.notify_one();
    }
  });

  auto submit = [&](const data::TrajectorySequence& scene, int64_t due_ns) {
    const int64_t t0 = NowNs();
    std::future<Tensor> future = engine->Submit(scene);
    const int64_t t1 = NowNs();
    const int64_t index = result.attempted++;
    if (log != nullptr) {
      Span span;
      span.kind = SpanKind::kSubmit;
      span.thread = ThreadIndex();
      span.start_ns = t0;
      span.end_ns = t1;
      span.arg = index;
      log->Record(span);
    }
    if (!spec.closed_loop) {
      gen_late_ms.push_back(static_cast<double>(t0 - due_ns) * 1e-6);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(InFlight{std::move(future), due_ns, index});
      ++outstanding;
      result.peak_outstanding = std::max(result.peak_outstanding, outstanding);
    }
    items_cv.notify_one();
  };

  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(spec.seconds * 1e9);
  if (spec.closed_loop) {
    while (NowNs() < end_ns) {
      {
        std::unique_lock<std::mutex> lock(mu);
        space_cv.wait(lock, [&] { return outstanding < spec.outstanding; });
      }
      const data::TrajectorySequence& scene = stream->Next();
      submit(scene, NowNs());
    }
  } else {
    std::mt19937_64 arrivals(spec.seed);
    std::exponential_distribution<double> gap_s(spec.rate_per_s);
    int64_t due_ns = start_ns;
    for (;;) {
      due_ns += static_cast<int64_t>(gap_s(arrivals) * 1e9);
      if (due_ns >= end_ns) break;
      const data::TrajectorySequence& scene = stream->Next();
      SleepUntilNs(due_ns);
      submit(scene, due_ns);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  items_cv.notify_one();
  completion.join();

  result.start_ns = start_ns;
  result.end_ns = std::max(last_completion_ns, start_ns + 1);
  result.wall_s = static_cast<double>(result.end_ns - start_ns) * 1e-9;
  result.p50_ms = Quantile(latency_ms, 0.50);
  result.p90_ms = Quantile(latency_ms, 0.90);
  result.p99_ms = Quantile(latency_ms, 0.99);
  result.max_ms = Quantile(latency_ms, 1.0);
  result.gen_late_p99_ms = Quantile(gen_late_ms, 0.99);
  return result;
}

}  // namespace e2e
}  // namespace adaptraj
