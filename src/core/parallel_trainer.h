// Scene-parallel training driver with deterministic gradient reduction.
//
// Alg. 1 (and every baseline) used to run one optimizer step per batch, one
// batch at a time: at the model sizes of the paper's tables (H = 32..128,
// B = 32) the per-batch graphs are too small to saturate cores from inside a
// single GEMM, so the thread pool under the kernels mostly idles. The
// ParallelTrainer moves the parallelism up one level — across scenes —
// without giving up reproducibility:
//
//   - Each optimizer step consumes a GROUP of `accum_steps` micro-batches.
//     Micro-batch i of a group always runs on replica slot i: slot 0 is the
//     master model the optimizer owns, slots 1..A-1 are structurally
//     identical replicas whose parameters are overwritten from the master
//     after every step (read-only within a step).
//   - The group's tasks execute concurrently on the training-worker pool
//     (parallel::RunTaskGroup, ADAPTRAJ_TRAIN_WORKERS). Each task builds its
//     own autograd graph on its own replica and backpropagates into that
//     replica's gradient buffers (thread-local buffer pool, no sharing).
//   - Gradients are then reduced into the master in FIXED SLOT ORDER
//     (kernels::ReduceGradSum: g = (g_0 + g_1) + g_2 ... scaled by 1/group),
//     clipped, and applied by one optimizer step.
//
// Determinism: which micro-batch lands in which group position depends only
// on the data-loader order, and the reduction order depends only on those
// positions — never on which worker executed what or how execution
// interleaved. Combined with the bit-deterministic kernels (see parallel.h),
// loss curves and final weights are bit-identical for any
// ADAPTRAJ_TRAIN_WORKERS value at a fixed seed and fixed accum_steps.
//
// RNG discipline: a shared sequential Rng cannot be consumed from concurrent
// tasks, so stochastic task bodies draw from their own Rng seeded by
// TaskSeed(base_seed, task_index) — the task index is a main-thread counter,
// making every stream worker-count independent.

#ifndef ADAPTRAJ_CORE_PARALLEL_TRAINER_H_
#define ADAPTRAJ_CORE_PARALLEL_TRAINER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/optimizer.h"
#include "tensor/tensor.h"

namespace adaptraj {
namespace core {

/// Deterministic per-task RNG seed: splitmix64 of a base seed and a
/// monotonically increasing task index assigned on the main thread.
inline uint64_t TaskSeed(uint64_t base, uint64_t task_index) {
  uint64_t z = base + 0x9E3779B97F4A7C15ull * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Drives data-parallel training steps for one optimizer. See the file
/// comment for the execution and determinism model.
class ParallelTrainer {
 public:
  struct Options {
    /// Micro-batches per optimizer step (the number of replica slots).
    int accum_steps = 4;
    /// Max global grad-norm applied to the reduced gradient before stepping.
    float grad_clip = 5.0f;
  };

  /// `slot_params[s]` is the full parameter list of replica s; all lists
  /// must be parallel (same order and shapes). Slot 0 is the master: the
  /// optimizer must have been built over (groups of) exactly these tensors.
  /// The constructor broadcasts the master's values into every replica.
  ParallelTrainer(nn::Optimizer* opt,
                  std::vector<std::vector<Tensor>> slot_params,
                  const Options& options);

  /// Number of replica slots (== accum_steps).
  int num_slots() const { return static_cast<int>(slots_.size()); }

  /// Queues one micro-batch. `task(slot)` must build the loss on replica
  /// `slot`'s modules and call Backward() on it; it runs on an arbitrary
  /// training worker, so it must touch nothing but that replica (and
  /// read-only shared inputs). Automatically flushes a full group.
  void Submit(std::function<void(int slot)> task);

  /// Runs any pending partial group (scaled by 1/pending). Call at epoch
  /// boundaries and before reading or changing optimizer state (e.g. the
  /// Alg.-1 learning-rate phase scales).
  void Flush();

  /// Optimizer steps taken so far.
  int64_t steps() const { return steps_; }

 private:
  void RunGroup();
  /// Copies the master's parameter values into every replica slot.
  void Broadcast();

  nn::Optimizer* opt_;
  std::vector<std::vector<Tensor>> slots_;
  Options options_;
  std::vector<std::function<void(int slot)>> pending_;
  int64_t steps_ = 0;
};

}  // namespace core
}  // namespace adaptraj

#endif  // ADAPTRAJ_CORE_PARALLEL_TRAINER_H_
