// Test-only: a real VanillaMethod that declares itself non-reentrant.
//
// No built-in method is non-reentrant, but Method::reentrant_predict()
// stays a public contract: the engine serves any method that declares it
// through a ReplicaPool, one private clone per serving worker. The serve
// suites use this wrapper to keep that path covered with real model
// arithmetic (bit-identity across replicas, pool rebuild on swap, faulted
// replicas reused, plan stats summed across slots).

#ifndef ADAPTRAJ_TESTS_SERVE_NON_REENTRANT_METHOD_H_
#define ADAPTRAJ_TESTS_SERVE_NON_REENTRANT_METHOD_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "core/baselines.h"

namespace adaptraj {
namespace serve {

/// VanillaMethod over `kind` that reports reentrant_predict() == false and
/// clones into instances of itself.
class NonReentrantMethod : public core::VanillaMethod {
 public:
  NonReentrantMethod(models::BackboneKind kind, const models::BackboneConfig& config,
                     uint64_t init_seed)
      : VanillaMethod(kind, config, init_seed),
        kind_(kind),
        config_(config),
        init_seed_(init_seed) {}

  bool reentrant_predict() const override { return false; }

  std::unique_ptr<core::Method> CloneForServing() const override {
    auto clone = std::make_unique<NonReentrantMethod>(kind_, config_, init_seed_);
    clone->backbone().CopyParametersFrom(backbone());
    clone->rendezvous_ = rendezvous_;
    return clone;
  }

  /// From now on (clones made afterwards included), every combined Predict
  /// waits until `peers` Predict calls have started across all instances,
  /// bounded at 2 s. With `peers` batches in flight on `peers` workers this
  /// pins one batch to each worker's replica.
  void set_rendezvous(int peers) {
    rendezvous_ = std::make_shared<Rendezvous>();
    rendezvous_->peers = peers;
  }

  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override {
    if (rendezvous_ != nullptr) {
      Rendezvous& r = *rendezvous_;
      std::unique_lock<std::mutex> lock(r.mu);
      ++r.entered;
      r.cv.notify_all();
      r.cv.wait_for(lock, std::chrono::seconds(2), [&r] { return r.entered >= r.peers; });
    }
    return VanillaMethod::Predict(batch, rng, sample);
  }

 private:
  struct Rendezvous {
    std::mutex mu;
    std::condition_variable cv;
    int entered = 0;
    int peers = 0;
  };

  models::BackboneKind kind_;
  models::BackboneConfig config_;
  uint64_t init_seed_;
  std::shared_ptr<Rendezvous> rendezvous_;
};

}  // namespace serve
}  // namespace adaptraj

#endif  // ADAPTRAJ_TESTS_SERVE_NON_REENTRANT_METHOD_H_
