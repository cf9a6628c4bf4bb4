#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "tensor/buffer_pool.h"
#include "tensor/plan.h"

namespace adaptraj {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    ADAPTRAJ_CHECK_MSG(d >= 0, "negative dimension in shape " << ShapeToString(shape));
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream oss;
  oss << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << shape[i];
  }
  oss << "]";
  return oss.str();
}

int64_t FlatIndex(const Shape& shape, const std::vector<int64_t>& index) {
  ADAPTRAJ_CHECK_EQ(shape.size(), index.size());
  int64_t flat = 0;
  for (size_t d = 0; d < shape.size(); ++d) {
    ADAPTRAJ_CHECK_MSG(index[d] >= 0 && index[d] < shape[d],
                       "index " << index[d] << " out of range for dim " << d << " of "
                                << ShapeToString(shape));
    flat = flat * shape[d] + index[d];
  }
  return flat;
}

namespace {

// Thread-local so a no-grad serving worker never perturbs a training thread.
thread_local bool g_grad_enabled = true;
thread_local bool g_grad_forced = false;

}  // namespace

bool GradMode::IsEnabled() { return g_grad_enabled || g_grad_forced; }

bool GradMode::SetEnabled(bool enabled) {
  const bool prev = g_grad_enabled;
  g_grad_enabled = enabled;
  return prev;
}

bool GradMode::SetForced(bool forced) {
  const bool prev = g_grad_forced;
  g_grad_forced = forced;
  return prev;
}

namespace internal {

namespace {

thread_local int64_t g_grad_nodes_created = 0;

}  // namespace

int64_t GradNodesCreated() { return g_grad_nodes_created; }

GradNode::GradNode() { ++g_grad_nodes_created; }

TensorImpl::~TensorImpl() {
  ReleaseBuffer(std::move(data));
  ReleaseBuffer(std::move(grad));
}

void TensorImpl::EnsureGrad() {
  if (grad.empty()) grad = AcquireZeroedBuffer(size());
}

void TensorImpl::AccumulateGrad(const float* g, int64_t n) {
  ADAPTRAJ_CHECK_EQ(n, size());
  EnsureGrad();
  for (int64_t i = 0; i < n; ++i) grad[i] += g[i];
}

}  // namespace internal

namespace {

/// `zero` selects a zero-filled pool buffer; factories that overwrite every
/// element pass false and skip the redundant fill.
std::shared_ptr<internal::TensorImpl> MakeImpl(const Shape& shape, bool requires_grad,
                                               bool zero) {
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = shape;
  impl->data = zero ? internal::AcquireZeroedBuffer(NumElements(shape))
                    : internal::AcquireBuffer(NumElements(shape));
  impl->requires_grad = requires_grad;
  return impl;
}

}  // namespace

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return FromImpl(MakeImpl(shape, requires_grad, /*zero=*/true));
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  auto impl = MakeImpl(shape, requires_grad, /*zero=*/false);
  std::fill(impl->data.begin(), impl->data.end(), value);
  return FromImpl(std::move(impl));
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  ADAPTRAJ_CHECK_MSG(NumElements(shape) == static_cast<int64_t>(values.size()),
                     "shape " << ShapeToString(shape) << " does not match value count "
                              << values.size());
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = shape;
  // Copy into pooled (64B-aligned) storage: adopting the caller's vector
  // would hand the kernels — and eventually the buffer pool — an allocation
  // with only alignof(float) guaranteed.
  impl->data = internal::AcquireBuffer(static_cast<int64_t>(values.size()));
  std::copy(values.begin(), values.end(), impl->data.begin());
  impl->requires_grad = requires_grad;
  return FromImpl(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({1}, {value}, requires_grad);
}

Tensor Tensor::Randn(const Shape& shape, Rng* rng, float stddev, bool requires_grad) {
  ADAPTRAJ_CHECK(rng != nullptr);
  auto impl = MakeImpl(shape, requires_grad, /*zero=*/false);
  for (auto& v : impl->data) v = rng->Normal(0.0f, stddev);
  Tensor out = FromImpl(std::move(impl));
  // Rng draws are a recorded side effect: replay re-draws in the same
  // element order so the stream advances identically to eager.
  plan::RecordRandn(out, stddev);
  return out;
}

Tensor Tensor::Rand(const Shape& shape, Rng* rng, float lo, float hi,
                    bool requires_grad) {
  ADAPTRAJ_CHECK(rng != nullptr);
  auto impl = MakeImpl(shape, requires_grad, /*zero=*/false);
  for (auto& v : impl->data) v = rng->Uniform(lo, hi);
  Tensor out = FromImpl(std::move(impl));
  plan::RecordRand(out, lo, hi);
  return out;
}

Tensor Tensor::FromImpl(std::shared_ptr<internal::TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

const Shape& Tensor::shape() const {
  ADAPTRAJ_CHECK_MSG(defined(), "shape() on null tensor");
  return impl_->shape;
}

int64_t Tensor::size() const {
  ADAPTRAJ_CHECK_MSG(defined(), "size() on null tensor");
  return impl_->size();
}

int64_t Tensor::size(int d) const {
  const Shape& s = shape();
  int nd = static_cast<int>(s.size());
  if (d < 0) d += nd;
  ADAPTRAJ_CHECK_MSG(d >= 0 && d < nd, "dim " << d << " out of range for " << ShapeToString(s));
  return s[d];
}

float* Tensor::data() {
  ADAPTRAJ_CHECK(defined());
  return impl_->data.data();
}

const float* Tensor::data() const {
  ADAPTRAJ_CHECK(defined());
  return impl_->data.data();
}

float Tensor::item() const {
  ADAPTRAJ_CHECK_MSG(size() == 1, "item() on tensor of shape " << ShapeToString(shape()));
  return impl_->data[0];
}

float Tensor::flat(int64_t i) const {
  ADAPTRAJ_CHECK_MSG(i >= 0 && i < size(), "flat index " << i << " out of range");
  return impl_->data[i];
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(null)";
  std::ostringstream oss;
  oss << "Tensor" << ShapeToString(shape());
  if (size() <= 16) {
    oss << " {";
    for (int64_t i = 0; i < size(); ++i) {
      if (i > 0) oss << ", ";
      oss << impl_->data[i];
    }
    oss << "}";
  }
  return oss.str();
}

bool Tensor::requires_grad() const { return defined() && impl_->requires_grad; }

Tensor& Tensor::set_requires_grad(bool value) {
  ADAPTRAJ_CHECK(defined());
  impl_->requires_grad = value;
  return *this;
}

bool Tensor::needs_grad() const {
  return defined() && (impl_->requires_grad || impl_->grad_fn != nullptr);
}

Tensor Tensor::grad() const {
  ADAPTRAJ_CHECK(defined());
  Tensor g = Tensor::Zeros(impl_->shape);
  if (!impl_->grad.empty()) {
    std::copy(impl_->grad.begin(), impl_->grad.end(), g.data());
  }
  return g;
}

void Tensor::ZeroGrad() {
  ADAPTRAJ_CHECK(defined());
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

Tensor Tensor::Detach() const {
  ADAPTRAJ_CHECK(defined());
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = impl_->shape;
  impl->data = impl_->data;  // copy keeps semantics simple and safe
  impl->requires_grad = false;
  Tensor out = FromImpl(std::move(impl));
  plan::RecordDetach(*this, out);
  return out;
}

Tensor Tensor::Clone() const { return Detach(); }

void Tensor::Backward() {
  plan::NoteBackwardCall();
  ADAPTRAJ_CHECK_MSG(defined(), "Backward() on null tensor");
  ADAPTRAJ_CHECK_MSG(size() == 1,
                     "Backward() requires a scalar; got " << ShapeToString(shape()));
  ADAPTRAJ_CHECK_MSG(!impl_->no_grad_result,
                     "Backward() on a result computed under NoGradGuard; the graph "
                     "was never recorded. Run the forward pass in grad mode if you "
                     "need gradients.");

  // Iterative post-order DFS over the graph to get a topological order.
  std::vector<internal::TensorImpl*> topo;
  std::unordered_set<internal::TensorImpl*> visited;
  struct Frame {
    internal::TensorImpl* impl;
    size_t next_child;
  };
  std::vector<Frame> stack;
  if (impl_->grad_fn) stack.push_back({impl_.get(), 0});
  visited.insert(impl_.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    auto& node = f.impl->grad_fn;
    if (node && f.next_child < node->inputs.size()) {
      internal::TensorImpl* child = node->inputs[f.next_child++].get();
      if (child->grad_fn && !visited.count(child)) {
        visited.insert(child);
        stack.push_back({child, 0});
      }
    } else {
      topo.push_back(f.impl);
      stack.pop_back();
    }
  }

  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;

  // topo is post-order (children before parents), so iterate in reverse.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    internal::TensorImpl* impl = *it;
    if (impl->grad_fn && impl->grad_fn->backward) {
      impl->EnsureGrad();
      impl->grad_fn->backward(*impl);
    }
  }
}

}  // namespace adaptraj
