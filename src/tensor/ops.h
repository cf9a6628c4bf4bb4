// Differentiable tensor operations.
//
// Every function returns a fresh tensor. When any input participates in
// gradient flow the result carries a GradNode so Tensor::Backward() can
// propagate through it; otherwise the op is pure forward computation.
//
// No-grad contract: inside a NoGradGuard scope (tensor.h) every op is pure
// forward computation regardless of its inputs — zero GradNode allocations,
// identical forward arithmetic (bit-for-bit equal outputs to the grad-mode
// path), and intermediates are not retained by any graph, so they return to
// the thread-local buffer pool as soon as their handle goes out of scope.
// Calling Backward() on a result produced under no-grad is a checked error;
// a gradient a no-grad call needs is computed in closed form from no-grad
// ops (as LBEBM's Langevin sampler does).
//
// Shape conventions: MatMul/Transpose are 2-D and BatchMatMul is 3-D;
// elementwise ops require equal shapes; the Broadcast* variants accept a
// second operand whose extents are equal to the first's or 1 (same rank);
// reductions and softmax document their axis handling individually.

#ifndef ADAPTRAJ_TENSOR_OPS_H_
#define ADAPTRAJ_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace adaptraj {
namespace ops {

// --- Elementwise binary ------------------------------------------------------

/// Elementwise a + b (equal shapes).
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise a - b (equal shapes).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise a * b (equal shapes).
Tensor Mul(const Tensor& a, const Tensor& b);
/// Elementwise a / b (equal shapes); b must be nonzero.
Tensor Div(const Tensor& a, const Tensor& b);
/// a + b where b broadcasts against a (same rank, extents equal or 1).
Tensor BroadcastAdd(const Tensor& a, const Tensor& b);
/// a * b where b broadcasts against a (same rank, extents equal or 1).
Tensor BroadcastMul(const Tensor& a, const Tensor& b);

// --- Scalar ------------------------------------------------------------------

/// a + s.
Tensor AddScalar(const Tensor& a, float s);
/// a * s.
Tensor MulScalar(const Tensor& a, float s);
/// -a.
Tensor Neg(const Tensor& a);

// --- Linear algebra ----------------------------------------------------------

/// 2-D matrix product [M,K] x [K,N] -> [M,N].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Batched 3-D matrix product [B,M,K] x [B,K,N] -> [B,M,N]: one graph node
/// and one kernel launch for all B slices. The transpose flags interpret the
/// per-slice operands like BLAS: trans_a means `a` is stored [B,K,M],
/// trans_b means `b` is stored [B,N,K] — no Transpose op (and no copy) is
/// needed for attention's q·kᵀ. B == 0 is handled natively (empty result,
/// no-op backward).
Tensor BatchMatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
                   bool trans_b = false);
/// 2-D transpose [M,N] -> [N,M].
Tensor Transpose(const Tensor& a);

// --- Fused linear algebra ----------------------------------------------------
//
// These collapse common multi-op chains into one kernel + one GradNode each.
// They are exactly equivalent to the composed ops (verified by gradcheck and
// reference tests) but skip the intermediate tensors and graph nodes.

/// a·w + bias for a [B,K], w [K,N], bias [1,N] broadcast over rows -> [B,N].
/// The whole affine layer in one node (nn::Linear's forward): exactly
/// equivalent to BroadcastAdd(MatMul(a, w), bias) with half the graph nodes
/// and the bias applied by the vectorized row kernel.
Tensor Affine(const Tensor& a, const Tensor& w, const Tensor& bias);
/// a·wa + b·wb for a [B,Da], wa [Da,N], b [B,Db], wb [Db,N] -> [B,N].
Tensor AddMatMul(const Tensor& a, const Tensor& wa, const Tensor& b,
                 const Tensor& wb);
/// x·w_x + h·w_h + bias for bias [1,N] broadcast over rows -> [B,N].
/// The pre-activation "gates" of recurrent cells in a single node.
Tensor LinearGates(const Tensor& x, const Tensor& w_x, const Tensor& h,
                   const Tensor& w_h, const Tensor& bias);

// --- Fused LSTM cell ---------------------------------------------------------
//
// gates is the pre-activation buffer [B, 4H] in gate order i, f, g, o
// (typically produced by LinearGates). Together these two ops replace the
// slice/sigmoid/tanh/mul/add chain of a standard LSTM step.

/// c_next = sigmoid(f)*c_prev + sigmoid(i)*tanh(g) -> [B, H].
Tensor LstmCellC(const Tensor& gates, const Tensor& c_prev);
/// h_next = sigmoid(o)*tanh(c_next) -> [B, H].
Tensor LstmCellH(const Tensor& gates, const Tensor& c_next);

// --- Unary -------------------------------------------------------------------

/// max(a, 0).
Tensor Relu(const Tensor& a);
/// Hyperbolic tangent.
Tensor Tanh(const Tensor& a);
/// Logistic sigmoid.
Tensor Sigmoid(const Tensor& a);
/// Exponential.
Tensor Exp(const Tensor& a);
/// Natural log of max(a, eps); gradient uses the clamped value.
Tensor LogClamped(const Tensor& a, float eps = 1e-12f);
/// Elementwise square.
Tensor Square(const Tensor& a);
/// Elementwise square root of max(a, 0) with epsilon-guarded gradient.
Tensor Sqrt(const Tensor& a, float eps = 1e-12f);
/// Elementwise absolute value (subgradient 0 at 0).
Tensor Abs(const Tensor& a);
/// Clamps into [lo, hi]; gradient is zero where clamped.
Tensor Clamp(const Tensor& a, float lo, float hi);

// --- Reductions ----------------------------------------------------------------

/// Sum of all elements -> shape [1].
Tensor Sum(const Tensor& a);
/// Mean of all elements -> shape [1].
Tensor Mean(const Tensor& a);
/// Sum over one axis. keepdim keeps the axis with extent 1.
Tensor SumAxis(const Tensor& a, int axis, bool keepdim = false);
/// Mean over one axis. keepdim keeps the axis with extent 1.
Tensor MeanAxis(const Tensor& a, int axis, bool keepdim = false);
/// Max over one axis; the gradient routes to the (first) argmax element.
Tensor MaxAxis(const Tensor& a, int axis, bool keepdim = false);

// --- Normalization -------------------------------------------------------------

/// Numerically stable softmax along the last axis. Works at any rank — a
/// [B,T,T] attention-score tensor normalizes each key row independently, so
/// batched attention needs no per-slice loop.
Tensor Softmax(const Tensor& a);
/// Numerically stable log-softmax along the last axis.
Tensor LogSoftmax(const Tensor& a);

// --- Structure -------------------------------------------------------------------

/// Concatenates along `axis`; inputs agree on all other extents.
Tensor Concat(const std::vector<Tensor>& parts, int axis);
/// Sub-range [start, end) of `axis`.
Tensor Slice(const Tensor& a, int axis, int64_t start, int64_t end);
/// Stacks equal-shape tensors along a new leading axis.
Tensor Stack(const std::vector<Tensor>& parts);
/// Same data, new shape (element counts must match).
Tensor Reshape(const Tensor& a, const Shape& shape);

// --- Special -----------------------------------------------------------------

/// Identity forward; multiplies the gradient by -lambda on the way back.
/// Used for the domain-adversarial similarity loss.
Tensor GradReverse(const Tensor& a, float lambda = 1.0f);
/// out = a where mask==0, `value` where mask!=0. No gradient flows into
/// masked positions (mask itself is never differentiated).
Tensor MaskedFill(const Tensor& a, const Tensor& mask, float value);
/// Mean over the batch of -log_probs[b, labels[b]]; log_probs is [B, C].
Tensor NllLoss(const Tensor& log_probs, const std::vector<int>& labels);

// --- Operator sugar -------------------------------------------------------------

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
inline Tensor operator*(float s, const Tensor& a) { return MulScalar(a, s); }
inline Tensor operator-(const Tensor& a) { return Neg(a); }

}  // namespace ops
}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_OPS_H_
