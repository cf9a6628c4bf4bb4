// Test-only fault injection for the serving engine's chaos suite.
//
// FaultInjectingMethod wraps any core::Method and misbehaves on scheduled
// Predict calls: it throws (a FaultInjectedError the engine must deliver to
// exactly the faulted batch's futures), sleeps (a wedged batch the watchdog
// must detect and queued deadlines must survive), or overwrites the result
// with quiet NaNs (a value fault that must not poison neighbouring
// batches). Every other call forwards to the wrapped method untouched, so
// non-faulted results stay byte-identical to a fault-free run.
//
// Determinism: the schedule maps GLOBAL Predict call indices (0-based,
// shared across the wrapper and all of its serving clones via an atomic
// counter) to fault specs. Which engine batch receives call index k is
// deterministic whenever the engine has a single serving worker
// (num_replicas = 1, or force_serialized below) — that worker then runs
// batches one at a time in slot order, so call index == batch index. With a
// replica pool, concurrent workers race for call indices; chaos tests that
// pin "batch b faults" use one worker, tests that only need "exactly one
// batch faulted somewhere" may keep the pool. MakeSeededFaultSchedule
// derives a schedule from a seed (splitmix64), so a chaos run is
// reproducible from (seed, rate) alone.
//
// This lives in src/serve (not tests/) so the chaos tests, the stress CI
// job, and the overload bench share one audited implementation; it has no
// overhead for engines that do not use it.

#ifndef ADAPTRAJ_SERVE_FAULT_INJECTION_H_
#define ADAPTRAJ_SERVE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/method.h"

namespace adaptraj {
namespace serve {

/// What a scheduled fault does to its Predict call.
enum class FaultKind {
  kThrow,  // throw FaultInjectedError instead of predicting
  kSleep,  // sleep sleep_ms, then predict normally (a slow/wedged batch)
  kNaN,    // predict normally, then overwrite the result with quiet NaNs
};

/// One scheduled fault.
struct FaultSpec {
  FaultKind kind = FaultKind::kThrow;
  int sleep_ms = 50;  // kSleep only
};

/// Global Predict call index -> fault to inject on that call.
using FaultSchedule = std::map<int64_t, FaultSpec>;

/// The error a kThrow fault raises; distinct from serve::ServeError because
/// it plays the role of an APPLICATION failure crossing the engine's
/// exception channel, not an engine-originated condition.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Seeded-deterministic schedule: each call index in [0, num_calls) faults
/// independently with probability `rate` (splitmix64 of seed + index — the
/// same (seed, num_calls, rate, kind) always yields the same schedule).
FaultSchedule MakeSeededFaultSchedule(uint64_t seed, int64_t num_calls,
                                      double rate, FaultKind kind,
                                      int sleep_ms = 50);

/// Method decorator injecting the scheduled faults; see the file comment.
class FaultInjectingMethod : public core::Method {
 public:
  /// Wraps `inner` (not owned; must outlive the wrapper and every clone).
  /// `force_serialized` reports the wrapper non-reentrant and unclonable, so
  /// the engine gets one serving worker, runs one batch at a time, and call
  /// index == batch index.
  FaultInjectingMethod(const core::Method* inner, FaultSchedule schedule,
                       bool force_serialized = true);

  std::string name() const override;
  void Train(const data::DomainGeneralizationData& dgd,
             const core::TrainConfig& config) override;
  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override;
  bool reentrant_predict() const override;
  /// Clones wrap CloneForServing copies of the inner method and SHARE the
  /// call counter and schedule, so a replica pool over this wrapper still
  /// faults on the scheduled global call indices.
  std::unique_ptr<core::Method> CloneForServing() const override;

  /// Predict calls started so far across the wrapper and all clones.
  int64_t calls() const;
  /// Faults injected so far (any kind).
  int64_t faults_injected() const;

 private:
  /// Counter + schedule shared between a wrapper and its serving clones.
  /// Thread-safety contract (no mutex, so nothing for the Clang
  /// thread-safety analysis to check — deliberately): the two counters are
  /// lock-free atomics (fetch_add claims a call index uniquely even across
  /// concurrent serving workers), and `schedule` is written only by the constructor
  /// before any Predict can run, then read-only for the wrapper's lifetime.
  /// Atomics ordering stays the TSan legs' job — the analysis treats
  /// std::atomic as unguarded by design (see support/thread_annotations.h).
  struct SharedState {
    std::atomic<int64_t> next_call{0};
    std::atomic<int64_t> faults{0};
    FaultSchedule schedule;  // immutable after construction
  };

  FaultInjectingMethod(const core::Method* inner,
                       std::unique_ptr<core::Method> owned_inner,
                       std::shared_ptr<SharedState> state, bool force_serialized);

  const core::Method* inner_;
  std::unique_ptr<core::Method> owned_inner_;  // set on clones only
  std::shared_ptr<SharedState> state_;
  bool force_serialized_;
};

}  // namespace serve
}  // namespace adaptraj

#endif  // ADAPTRAJ_SERVE_FAULT_INJECTION_H_
