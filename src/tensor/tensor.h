// Dense float tensor with reverse-mode automatic differentiation.
//
// Tensor is a value-semantics handle to shared storage (TensorImpl). Ops in
// ops.h build a dynamic computation graph of GradNode closures; calling
// Backward() on a scalar output traverses the graph in reverse topological
// order and accumulates gradients into every tensor that requires them.
//
// The engine is deliberately small: dense row-major float32 storage, the op
// set needed by the AdapTraj models (matmul, elementwise, reductions,
// softmax, concat/slice/stack, gradient reversal), and nothing else.

#ifndef ADAPTRAJ_TENSOR_TENSOR_H_
#define ADAPTRAJ_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/aligned_buffer.h"
#include "tensor/rng.h"
#include "tensor/status.h"

namespace adaptraj {

/// Tensor shape: one extent per dimension, row-major layout.
using Shape = std::vector<int64_t>;

/// Product of the extents (the element count for that shape).
int64_t NumElements(const Shape& shape);

/// Renders a shape as "[2, 3]".
std::string ShapeToString(const Shape& shape);

// --- Grad mode ---------------------------------------------------------------
//
// Inference does not need the reverse-mode graph: under no-grad every op is
// pure forward computation — zero GradNode allocations, and intermediates
// return to the buffer pool as soon as their handle dies instead of being
// pinned until graph teardown. The flag is thread-local so serving workers
// and a training thread can coexist in one process.

/// Thread-local switch consulted at the single point where ops attach a
/// grad_fn (ops.cpp MakeOutput). Enabled by default.
class GradMode {
 public:
  /// True when ops should record the reverse-mode graph on this thread.
  static bool IsEnabled();
  /// Sets the thread-local mode; returns the previous value. Prefer the RAII
  /// guards below.
  static bool SetEnabled(bool enabled);
  /// Test/bench override: while forced, IsEnabled() returns true even inside
  /// NoGradGuard scopes. This exists so the grad-mode baseline of
  /// Method::Predict (whose body installs a NoGradGuard) can still be
  /// measured and compared bit-for-bit. Returns the previous value.
  static bool SetForced(bool forced);
};

/// RAII scope disabling gradient recording on this thread. Ops called inside
/// return plain forward results (needs_grad() false, no grad_fn); calling
/// Backward() on such a result is a checked error.
class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::SetEnabled(false)) {}
  ~NoGradGuard() { GradMode::SetEnabled(prev_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// RAII form of GradMode::SetForced — see its comment. Test/bench only.
class ForcedGradModeGuard {
 public:
  ForcedGradModeGuard() : prev_(GradMode::SetForced(true)) {}
  ~ForcedGradModeGuard() { GradMode::SetForced(prev_); }
  ForcedGradModeGuard(const ForcedGradModeGuard&) = delete;
  ForcedGradModeGuard& operator=(const ForcedGradModeGuard&) = delete;

 private:
  bool prev_;
};

namespace internal {

struct GradNode;

/// GradNode allocations on the calling thread since start-up. The no-grad
/// tests assert this stays flat across an entire Predict() call.
int64_t GradNodesCreated();

/// Shared tensor storage plus autograd bookkeeping.
struct TensorImpl {
  Shape shape;
  internal::FloatBuffer data;   // 64B-aligned (see aligned_buffer.h)
  internal::FloatBuffer grad;   // empty until first accumulation
  bool requires_grad = false;
  /// Set on op results whose graph was suppressed by a NoGradGuard; makes a
  /// later Backward() a checked error instead of a silent zero-grad no-op.
  bool no_grad_result = false;
  std::shared_ptr<GradNode> grad_fn;  // null for leaves / pure-forward results

  TensorImpl() = default;
  /// Returns data/grad capacity to the thread-local buffer pool.
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  int64_t size() const { return static_cast<int64_t>(data.size()); }
  /// Allocates (zero-filled) gradient storage if not already present.
  void EnsureGrad();
  /// Adds n values from g into this impl's gradient buffer.
  void AccumulateGrad(const float* g, int64_t n);
};

/// A node in the reverse-mode graph. Owned by the op output's TensorImpl.
struct GradNode {
  GradNode();  // counts the allocation (see GradNodesCreated)
  /// Parents (op inputs) whose gradients this node populates.
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  /// Debug name of the producing op.
  const char* op_name = "";
  /// Accumulates input gradients given the output impl (out.grad is final).
  std::function<void(TensorImpl& out)> backward;
};

}  // namespace internal

/// Value-semantics handle to a (possibly autograd-tracked) float tensor.
class Tensor {
 public:
  /// Null tensor; defined() is false.
  Tensor() = default;

  // --- Factories -----------------------------------------------------------

  /// Zero-filled tensor of the given shape.
  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  /// Constant-filled tensor of the given shape.
  static Tensor Full(const Shape& shape, float value, bool requires_grad = false);
  /// Tensor adopting the given row-major values (size must match shape).
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);
  /// Scalar tensor of shape [1].
  static Tensor Scalar(float value, bool requires_grad = false);
  /// I.i.d. normal entries with the given stddev.
  static Tensor Randn(const Shape& shape, Rng* rng, float stddev = 1.0f,
                      bool requires_grad = false);
  /// Uniform entries in [lo, hi).
  static Tensor Rand(const Shape& shape, Rng* rng, float lo, float hi,
                     bool requires_grad = false);

  // --- Introspection -------------------------------------------------------

  /// True when this handle points at storage.
  bool defined() const { return impl_ != nullptr; }
  /// The shape (must be defined).
  const Shape& shape() const;
  /// Number of dimensions.
  int dim() const { return static_cast<int>(shape().size()); }
  /// Total element count.
  int64_t size() const;
  /// Extent of dimension d (negative d counts from the end).
  int64_t size(int d) const;
  /// Mutable pointer to row-major data.
  float* data();
  /// Const pointer to row-major data.
  const float* data() const;
  /// Value of a single-element tensor.
  float item() const;
  /// Element at flat index i.
  float flat(int64_t i) const;
  /// Renders shape and (for small tensors) the values.
  std::string ToString() const;

  // --- Autograd ------------------------------------------------------------

  /// True when gradients are requested for this tensor (leaf flag).
  bool requires_grad() const;
  /// Marks this tensor as a differentiable leaf (e.g. a parameter).
  Tensor& set_requires_grad(bool value);
  /// True when this tensor participates in gradient flow (leaf or op output).
  bool needs_grad() const;
  /// The accumulated gradient as a (non-tracked) tensor; zeros if untouched.
  Tensor grad() const;
  /// Clears the accumulated gradient.
  void ZeroGrad();
  /// Runs reverse-mode differentiation from this scalar tensor.
  void Backward();
  /// Returns a view sharing data but detached from the autograd graph.
  Tensor Detach() const;
  /// Deep copy of data (not tracked).
  Tensor Clone() const;

  /// Internal handle (used by ops).
  const std::shared_ptr<internal::TensorImpl>& impl() const { return impl_; }

  /// Wraps an existing impl.
  static Tensor FromImpl(std::shared_ptr<internal::TensorImpl> impl);

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

/// Row-major flat index for the given multi-dimensional index.
int64_t FlatIndex(const Shape& shape, const std::vector<int64_t>& index);

}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_TENSOR_H_
