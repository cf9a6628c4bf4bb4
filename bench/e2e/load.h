// Request streams and the load generator of the end-to-end benchmark.
//
// Load comes from two client threads: a generator that submits requests on
// a schedule, and a completion thread that blocks on each future in
// submission order, checks the result and timestamps it. Neither spins.
// Latency runs from the request's due time (its scheduled send time in an
// open loop, the moment a slot frees in a closed loop) to the observed
// completion, so a stalled generator is charged to the requests it delayed.

#ifndef ADAPTRAJ_BENCH_E2E_LOAD_H_
#define ADAPTRAJ_BENCH_E2E_LOAD_H_

#include <cstdint>
#include <vector>

#include "serve/inference_engine.h"
#include "trace.h"

namespace adaptraj {
namespace e2e {

/// Deterministic request content. Fresh request f is pool scene f % N with
/// (f / N + 1) nonce steps added to its first observed x position, so no two
/// fresh requests of a run are byte-equal. With repeat_share > 0 each
/// request is, by a seeded coin, a byte-exact resend of one of the last
/// kRepeatWindow fresh requests.
class RequestStream {
 public:
  static constexpr int kRepeatWindow = 256;

  RequestStream(std::vector<data::TrajectorySequence> pool, double repeat_share,
                uint64_t seed);

  /// The next request's scene. The reference stays valid until the next call.
  const data::TrajectorySequence& Next();

  int64_t drawn() const { return drawn_; }
  int64_t repeats() const { return repeats_; }

 private:
  struct Fresh {
    int64_t pool_index;
    int64_t nonce;
  };

  std::vector<data::TrajectorySequence> pool_;
  std::vector<float> base_x0_;
  double repeat_share_;
  Rng rng_;
  std::vector<Fresh> recent_;  // ring of the last kRepeatWindow fresh requests
  int64_t fresh_ = 0;
  int64_t drawn_ = 0;
  int64_t repeats_ = 0;
};

/// One load phase.
struct PhaseSpec {
  /// Closed loop with `outstanding` requests in flight; otherwise Poisson
  /// arrivals at `rate_per_s`.
  bool closed_loop = false;
  int outstanding = 32;
  double rate_per_s = 0.0;
  double seconds = 1.0;
  uint64_t seed = 0;
};

/// What the client observed during one phase. The raw samples are released
/// before RunPhase returns, so they never count in the engine's memory.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t completed = 0;
  /// Requests whose future threw, or whose result was not a finite [1, 24].
  int64_t failed = 0;
  /// From the phase start to the last completion.
  double wall_s = 0.0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Latency from due time to completion over successful requests.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// How late the generator called Submit, past the due time (open loop).
  double gen_late_p99_ms = 0.0;
  int64_t peak_outstanding = 0;

  double rate_per_s() const { return static_cast<double>(completed) / wall_s; }
};

/// Linear-interpolated quantile (numpy's default) of unsorted samples.
double Quantile(std::vector<double> v, double q);

/// Drives `engine` through one phase with requests drawn from `stream`.
/// With `log` set, records a kSubmit span per Submit and a kRequest span per
/// completed request.
PhaseResult RunPhase(serve::InferenceEngine* engine, RequestStream* stream,
                     const PhaseSpec& spec, int pred_floats, SpanLog* log);

}  // namespace e2e
}  // namespace adaptraj

#endif  // ADAPTRAJ_BENCH_E2E_LOAD_H_
