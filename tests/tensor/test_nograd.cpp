// Tests for the forward-only execution mode: GradMode / NoGradGuard
// semantics, zero GradNode allocation, bit-identical forward values, eager
// buffer recycling, and the Backward()-on-no-grad check.

#include <cstring>

#include <gtest/gtest.h>

#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace adaptraj {
namespace {

/// A small representative graph: two GEMMs, a fused LSTM-style gate chain,
/// softmax, reductions.
Tensor SmallForward(const Tensor& x, const Tensor& w1, const Tensor& w2) {
  Tensor h = ops::Tanh(ops::MatMul(x, w1));
  Tensor logits = ops::MatMul(h, w2);
  Tensor probs = ops::Softmax(logits);
  return ops::Sum(ops::Square(probs));
}

TEST(GradModeTest, EnabledByDefaultAndGuardRestores) {
  EXPECT_TRUE(GradMode::IsEnabled());
  {
    NoGradGuard guard;
    EXPECT_FALSE(GradMode::IsEnabled());
    {
      NoGradGuard nested;
      EXPECT_FALSE(GradMode::IsEnabled());
    }
    EXPECT_FALSE(GradMode::IsEnabled());
  }
  EXPECT_TRUE(GradMode::IsEnabled());
}

TEST(GradModeTest, ForcedGradOverridesNoGradGuard) {
  ForcedGradModeGuard forced;
  NoGradGuard no_grad;
  EXPECT_TRUE(GradMode::IsEnabled());
  Tensor x = Tensor::Full({2}, 3.0f, /*requires_grad=*/true);
  Tensor y = ops::Sum(x);
  EXPECT_TRUE(y.needs_grad());
}

TEST(NoGradTest, OpsAllocateZeroGradNodes) {
  Rng rng(1);
  Tensor x = Tensor::Randn({8, 16}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w1 = Tensor::Randn({16, 16}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor w2 = Tensor::Randn({16, 4}, &rng, 0.5f, /*requires_grad=*/true);

  const int64_t before = internal::GradNodesCreated();
  Tensor grad_mode = SmallForward(x, w1, w2);
  EXPECT_GT(internal::GradNodesCreated(), before);

  const int64_t mid = internal::GradNodesCreated();
  Tensor no_grad;
  {
    NoGradGuard guard;
    no_grad = SmallForward(x, w1, w2);
  }
  EXPECT_EQ(internal::GradNodesCreated(), mid);
  EXPECT_FALSE(no_grad.needs_grad());
  EXPECT_TRUE(grad_mode.needs_grad());
}

TEST(NoGradTest, ForwardValuesBitIdenticalToGradMode) {
  Rng rng(7);
  Tensor x = Tensor::Randn({16, 32}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w1 = Tensor::Randn({32, 32}, &rng, 0.3f, /*requires_grad=*/true);
  Tensor w2 = Tensor::Randn({32, 8}, &rng, 0.3f, /*requires_grad=*/true);

  Tensor h_grad = ops::Softmax(ops::MatMul(ops::Tanh(ops::MatMul(x, w1)), w2));
  Tensor h_nograd;
  {
    NoGradGuard guard;
    h_nograd = ops::Softmax(ops::MatMul(ops::Tanh(ops::MatMul(x, w1)), w2));
  }
  ASSERT_EQ(h_grad.size(), h_nograd.size());
  EXPECT_EQ(std::memcmp(h_grad.data(), h_nograd.data(),
                        static_cast<size_t>(h_grad.size()) * sizeof(float)),
            0);
}

TEST(NoGradTest, FusedLstmOpsBitIdentical) {
  Rng rng(9);
  const int64_t b = 8, h = 16;
  Tensor x = Tensor::Randn({b, h}, &rng, 0.5f, /*requires_grad=*/true);
  Tensor w_ih = Tensor::Randn({h, 4 * h}, &rng, 0.3f, /*requires_grad=*/true);
  Tensor w_hh = Tensor::Randn({h, 4 * h}, &rng, 0.3f, /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({1, 4 * h}, &rng, 0.1f, /*requires_grad=*/true);
  Tensor h0 = Tensor::Randn({b, h}, &rng, 0.5f);
  Tensor c0 = Tensor::Randn({b, h}, &rng, 0.5f);

  auto step = [&] {
    Tensor gates = ops::LinearGates(x, w_ih, h0, w_hh, bias);
    Tensor c = ops::LstmCellC(gates, c0);
    return ops::LstmCellH(gates, c);
  };
  Tensor with_grad = step();
  Tensor without;
  {
    NoGradGuard guard;
    without = step();
  }
  EXPECT_EQ(std::memcmp(with_grad.data(), without.data(),
                        static_cast<size_t>(with_grad.size()) * sizeof(float)),
            0);
}

TEST(NoGradTest, BackwardOnNoGradResultDies) {
  Tensor x = Tensor::Full({2}, 1.0f, /*requires_grad=*/true);
  Tensor y;
  {
    NoGradGuard guard;
    y = ops::Sum(x);
  }
  EXPECT_FALSE(y.needs_grad());
  EXPECT_DEATH(y.Backward(), "NoGradGuard");
}

TEST(NoGradTest, BackwardOnGradModeResultStillWorks) {
  Tensor x = Tensor::Full({3}, 2.0f, /*requires_grad=*/true);
  Tensor y = ops::Sum(ops::Square(x));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().flat(0), 4.0f);
}

// Under no-grad, intermediates are not pinned by a graph: each temporary's
// storage returns to the pool as soon as its handle dies, so a repeated
// forward pass reuses far more aggressively than the grad-mode pass whose
// graph holds every intermediate until teardown.
TEST(NoGradTest, EagerReleaseRaisesPoolReuse) {
  Rng rng(3);
  Tensor x = Tensor::Randn({32, 64}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w1 = Tensor::Randn({64, 64}, &rng, 0.3f, /*requires_grad=*/true);
  Tensor w2 = Tensor::Randn({64, 64}, &rng, 0.3f, /*requires_grad=*/true);

  auto chain = [&] {
    // A deep elementwise chain: every op output is a same-shaped temporary.
    Tensor h = ops::MatMul(x, w1);
    for (int i = 0; i < 8; ++i) h = ops::Tanh(ops::MulScalar(h, 0.9f));
    return ops::MatMul(h, w2);
  };

  // One cold pass from an empty pool: grad mode keeps every intermediate
  // alive until graph teardown, so nothing can be recycled within the pass;
  // no-grad frees each temporary immediately, so later ops hit the pool.
  auto reuse_rate = [&](auto body) {
    internal::ClearBufferPool();
    body();
    const auto stats = internal::GetBufferPoolStats();
    return static_cast<double>(stats.hits()) /
           static_cast<double>(stats.acquires);
  };

  const double grad_rate = reuse_rate([&] { (void)chain(); });
  const double nograd_rate = reuse_rate([&] {
    NoGradGuard guard;
    (void)chain();
  });
  EXPECT_GT(nograd_rate, grad_rate);
}

}  // namespace
}  // namespace adaptraj
