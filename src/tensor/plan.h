// Shape-specialized execution plans: capture-and-replay for no-grad Predict.
//
// Eager no-grad inference still pays per-call graph construction: every op
// allocates a TensorImpl, runs shape inference and checks, and threads its
// output through shared_ptr handles. At serving shapes the op sequence is
// IDENTICAL on every call, so this layer records it once and replays the
// recorded kernels directly.
//
// Lifecycle (driven by PredictSession inside each core::Method::Predict):
//
//   1. First call for a (method, batch-shape, sample) key: the session
//      installs a thread-local recorder, the eager body runs unchanged, and
//      every op appends one structured step (kind + extents + slot ids).
//      Tensors resolve to slots by impl identity: registered batch fields
//      become rebind-per-call inputs, anything else first seen as a step
//      input becomes a retained external constant (parameters, eval-mode
//      masks, Zeros/Full/FromVector leaves), and op outputs become arena
//      slots. The capture then compiles: elementwise chains fuse
//      (MulScalar∘[MaskedFill∘]Softmax, LayerNorm's normalize chain,
//      LstmCellC+H, Affine/LinearGates/MatMul + bias/activation epilogues
//      with pre-packed weights), dead steps drop, and a liveness pass
//      pre-assigns every intermediate an offset in one pooled arena buffer.
//   2. Later calls with the same key replay: resolve the input pointers,
//      acquire the arena, run the fused kernels in order. Zero GradNodes,
//      zero shape inference, zero per-op allocation.
//
// Determinism contract: a replayed Predict is bit-identical to the eager
// no-grad call. Fused kernels replicate the eager per-element arithmetic
// exactly (ascending-k register accumulation, bias-after-full-sum, the
// active SIMD-or-scalar transcendental path — see kernels.h "Planned
// execution"), and rng-drawing steps (Tensor::Randn/Rand) replay their
// draws in the eager element order so the stream state advances
// identically.
//
// Safety: capture aborts to permanent eager fallback for the key when the
// body is not a pure traced forward — a grad-mode op (e.g. under
// ForcedGradModeGuard), a Backward() call, or any op without a recording hook (detected
// by an op-output/step count mismatch, so new ops degrade gracefully). The
// ADAPTRAJ_PLAN env var is the kill-switch (unset/"1"/"on" = on, "0"/"off"
// = off, "verify" = replay AND run eager, then compare bit-exactly);
// SetMode overrides it programmatically for tests and benchmarks.
//
// Weight rebinding: plans hold parameter storage as retained impls and
// re-read them on every replay, so in-place parameter updates
// (Module::CopyParametersFrom) are picked up — EXCEPT weights pre-packed
// into fused GEMM steps, which are copied at capture. Any code that
// mutates parameters of a method that already served planned calls must
// call PlanCache::Invalidate (Train does; serve::InferenceEngine::
// SwapWeights is safe by construction — it flips to a freshly cloned
// method whose cache starts empty).

#ifndef ADAPTRAJ_TENSOR_PLAN_H_
#define ADAPTRAJ_TENSOR_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace adaptraj {
namespace plan {

// --- Mode resolution ---------------------------------------------------------

enum class Mode {
  kAuto = 0,  // follow the ADAPTRAJ_PLAN environment variable (the default)
  kOn,        // capture and replay
  kOff,       // always eager
  kVerify,    // replay AND run eager, compare bit-exactly (tests)
};

/// Overrides the env-resolved mode; kAuto restores it. Takes effect for
/// subsequent Predict calls (tests and benchmarks only).
void SetMode(Mode mode);

/// The resolved mode (never kAuto).
Mode EffectiveMode();

// --- Telemetry ---------------------------------------------------------------

/// Counters for one PlanCache (style of internal::BufferPoolStats).
struct CacheStats {
  int64_t plans = 0;           // live compiled plans
  int64_t hits = 0;            // calls served by replay
  int64_t misses = 0;          // eager calls (capture in flight / unplannable)
  int64_t captures = 0;        // successful compilations
  int64_t aborted = 0;         // capture attempts that bailed to eager
  int64_t fused_steps = 0;     // steps removed by fusion, live plans
  int64_t eliminated_steps = 0;  // steps removed as dead code, live plans
  int64_t arena_bytes = 0;     // planned intermediate bytes, live plans
  int64_t constant_bytes = 0;  // packed weight/constant bytes, live plans

  CacheStats& operator+=(const CacheStats& o);
};

// --- Cache + session ---------------------------------------------------------

namespace internal_plan {
struct CacheState;
struct SessionState;
}  // namespace internal_plan

/// Per-Method plan store keyed by caller-provided strings (batch shape +
/// sample flag). Thread-safe: concurrent Predicts replay the same plan
/// lock-free after an initial mutex-guarded lookup, and only one thread
/// captures a given key while the rest fall back to eager.
class PlanCache {
 public:
  PlanCache();
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  CacheStats stats() const;

  /// Drops every plan (and unplannable marker). Must be called after any
  /// in-place parameter mutation of the owning method (Train, checkpoint
  /// load into a live method).
  void Invalidate();

 private:
  friend class PredictSession;
  std::unique_ptr<internal_plan::CacheState> state_;
};

/// RAII capture/replay scope for one Predict call. Usage inside a method:
///
///   plan::PredictSession session(&plan_cache_, key, inputs, rng);
///   if (session.CanReplay()) return session.Replay();
///   ... eager body (recorded when the session is capturing) ...
///   return session.Finish(result);
///
/// `inputs` are the batch-field tensors in a fixed enumeration order; their
/// impls rebind on every replay. `rng` may be null when the body draws no
/// samples. The session is inert (pure eager) when planning is off, the key
/// is marked unplannable, or another thread holds the capture.
class PredictSession {
 public:
  PredictSession(PlanCache* cache, std::string key,
                 std::vector<const Tensor*> inputs, Rng* rng);
  ~PredictSession();
  PredictSession(const PredictSession&) = delete;
  PredictSession& operator=(const PredictSession&) = delete;

  /// True when a compiled plan exists for the key and mode is kOn.
  bool CanReplay() const;

  /// Executes the recorded plan. Only valid when CanReplay().
  Tensor Replay();

  /// Ends the session around the eager result: finishes a capture
  /// (compiling the plan), or — in kVerify with a live plan — replays and
  /// checks the result bytes and rng stream against the eager run.
  Tensor Finish(Tensor eager_result);

 private:
  std::unique_ptr<internal_plan::SessionState> state_;
};

// --- Recording hooks (called by ops.cpp / tensor.cpp) ------------------------
//
// Every hook is a cheap no-op unless the calling thread is inside a
// capturing PredictSession. Ops hooks (RecordXxx called at the tail of an
// ops:: function) additionally count toward the op-output balance that
// detects unhooked ops; factory hooks (Randn/Rand/Detach) do not.

/// True when the calling thread is capturing (tests).
bool Recording();

enum class Un : int {
  kAddScalar = 0, kMulScalar, kRelu, kTanh, kSigmoid, kExp, kSquare, kSqrt,
  kAbs, kClamp, kLogClamped,
};
enum class Bin : int { kAdd = 0, kSub, kMul, kDiv };

void RecordUnary(Un op, const Tensor& a, const Tensor& out, float p0 = 0.0f,
                 float p1 = 0.0f);
void RecordBinary(Bin op, const Tensor& a, const Tensor& b, const Tensor& out);
void RecordBroadcast(Bin op, const Tensor& a, const Tensor& b,
                     const Tensor& out);
void RecordMatMul(const Tensor& a, const Tensor& b, const Tensor& out);
void RecordBatchMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                       bool trans_b, const Tensor& out);
void RecordAffine(const Tensor& a, const Tensor& w, const Tensor& bias,
                  const Tensor& out);
/// AddMatMul (bias == nullptr) and LinearGates (bias set).
void RecordDualMatMul(const Tensor& a, const Tensor& wa, const Tensor& b,
                      const Tensor& wb, const Tensor* bias, const Tensor& out);
void RecordLstmCellC(const Tensor& gates, const Tensor& c_prev,
                     const Tensor& out);
void RecordLstmCellH(const Tensor& gates, const Tensor& c_next,
                     const Tensor& out);
void RecordTranspose(const Tensor& a, const Tensor& out);
void RecordSoftmax(const Tensor& a, const Tensor& out);
void RecordReduceAxis(bool mean, int64_t outer, int64_t extent, int64_t inner,
                      const Tensor& a, const Tensor& out);
void RecordMaxAxis(int64_t outer, int64_t extent, int64_t inner,
                   const Tensor& a, const Tensor& out);
void RecordMaskedFill(const Tensor& a, const Tensor& mask, float value,
                      const Tensor& out);
/// Reshape / GradReverse: element-preserving copies.
void RecordCopy(const Tensor& a, const Tensor& out);
void RecordConcat(const std::vector<Tensor>& parts, int64_t outer,
                  int64_t inner, const std::vector<int64_t>& extents,
                  const Tensor& out);
void RecordSlice(const Tensor& a, int64_t outer, int64_t inner,
                 int64_t in_extent, int64_t out_extent, int64_t start,
                 const Tensor& out);
void RecordStack(const std::vector<Tensor>& parts, const Tensor& out);

/// Factory hooks (tensor.cpp). Randn/Rand record rng-drawing steps that
/// replay their draws in the eager element order; Detach records a copy.
void RecordRandn(const Tensor& out, float stddev);
void RecordRand(const Tensor& out, float lo, float hi);
void RecordDetach(const Tensor& a, const Tensor& out);

/// Called by MakeOutputCore for every op output. Counts toward the
/// hook-balance check and aborts the capture when a tracked op runs with
/// GradMode enabled (the body is not a pure no-grad forward).
void NoteOpOutput(bool track);

/// Called by Tensor::Backward: a capture containing a backward pass aborts.
void NoteBackwardCall();

}  // namespace plan
}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_PLAN_H_
