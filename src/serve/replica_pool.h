// Slot-pinned pool of serving replicas for non-reentrant methods.
//
// A method whose Predict writes shared state (Method::reentrant_predict()
// == false) cannot run two batches concurrently on one instance. No
// built-in method does so any more — LBEBM's Langevin sampler, the one that
// used to write gradient buffers, now evaluates its energy gradient in
// closed form — but the contract stays public for external methods. Without
// this pool the engine's only safe schedule for such a method would be one
// batch at a time. A ReplicaPool removes the bottleneck the same way
// core::ParallelTrainer does on the training path: independent model
// copies, one per concurrency slot.
//
//   - Slot 0 is always the served master (no copy); slots 1..R-1 are built
//     with core::Method::CloneForServing — same construction path as a
//     training replica, then Module::CopyParametersFrom overwrites the fresh
//     initialization with the master's weights.
//   - The engine runs one serving worker per slot, and worker w always
//     executes on slot w. Ownership is part of the engine's determinism
//     story only in the trivial sense: since every replica holds
//     byte-identical parameters and every kernel is bit-deterministic, which
//     slot executes a batch cannot change its bytes. What ownership actually
//     buys is that a worker runs one batch at a time, so a non-reentrant
//     Predict never runs concurrently on one instance.
//   - Predict never changes parameter values (gradient buffers only), so
//     replicas are copied once at pool construction and stay valid for the
//     pool's lifetime; there is no per-batch broadcast.
//
// A method whose CloneForServing returns nullptr caps the pool at the master
// alone (size() == 1); the engine then has one worker and runs one batch at
// a time.

#ifndef ADAPTRAJ_SERVE_REPLICA_POOL_H_
#define ADAPTRAJ_SERVE_REPLICA_POOL_H_

#include <memory>
#include <vector>

#include "core/method.h"

namespace adaptraj {
namespace serve {

/// Fixed set of interchangeable serving replicas; see the file comment.
///
/// Thread-safety contract (no mutex, so nothing for the Clang thread-safety
/// analysis to check — deliberately): `master_` and `clones_` are written
/// only by the constructor and read-only afterwards, and every accessor is
/// const. Concurrent method() calls from the serving workers are safe
/// because they never mutate the pool; exclusive use of each REPLICA is the
/// engine's ownership rule (worker w -> slot w, one batch at a time), a
/// protocol the analysis cannot express and TSan verifies instead.
class ReplicaPool {
 public:
  /// Builds up to `target_slots` slots (>= 1). Slot 0 aliases `master`
  /// (which must outlive the pool); further slots are CloneForServing
  /// copies. If the method is not clonable the pool holds only the master.
  ReplicaPool(const core::Method* master, int target_slots);

  /// Number of usable slots (1 when the method could not be cloned).
  int size() const { return static_cast<int>(1 + clones_.size()); }

  /// The instance at `slot` (0 = the master).
  const core::Method* method(int slot) const;

 private:
  const core::Method* master_;
  std::vector<std::unique_ptr<core::Method>> clones_;
};

}  // namespace serve
}  // namespace adaptraj

#endif  // ADAPTRAJ_SERVE_REPLICA_POOL_H_
