// Tensor-engine microbenchmarks: MatMul forward/backward (legacy seed kernel
// vs. the blocked/packed kernels.h path), the fused LSTM step vs. the
// composed-op formulation it replaced (plus a scalar-libm-activation pin for
// the SIMD transcendental ratio), attention forward+backward as the old
// per-batch-slice loop vs. the batched 3-D GEMM path, raw BatchGemm vs a
// Gemm-per-slice loop, transcendental kernel throughput, and Softmax at
// model shapes.
//
// The Legacy*/*Loop/*ScalarAct fixtures replicate the replaced formulations
// exactly — including the per-scalar zero-skip branches, the column-strided
// dA accumulation, the per-scene Slice/Transpose/Concat graph, and the
// scalar std::exp/std::tanh gate loops — so every before/after ratio is
// measured inside one binary.
//
// Emit the perf trajectory with:
//   bench_tensor_ops --benchmark_out=BENCH_tensor_ops.json \
//                    --benchmark_out_format=json

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/adaptraj_method.h"
#include "core/baselines.h"
#include "data/multi_domain.h"
#include "eval/experiment.h"
#include "serve/inference_engine.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/plan.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace adaptraj {
namespace {

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng->Normal(0.0f, 1.0f);
  return v;
}

// --- Legacy seed kernels (verbatim algorithmics of the pre-change ops.cpp) ---

void LegacyMatMulForward(const float* pa, const float* pb, float* po, int64_t m,
                         int64_t k, int64_t n) {
  for (int64_t i = 0; i < m * n; ++i) po[i] = 0.0f;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      float av = pa[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = &pb[p * n];
      float* orow = &po[i * n];
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void LegacyMatMulBackward(const float* pa, const float* pb, const float* gy,
                          float* ga_out, float* gb_out, int64_t m, int64_t k,
                          int64_t n) {
  {
    // dA[m,k] = sum_n dY[m,n] * B[k,n] — note the column-strided B access.
    std::vector<float> ga(m * k, 0.0f);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float g = gy[i * n + j];
        if (g == 0.0f) continue;
        const float* brow = &pb[0];
        for (int64_t p = 0; p < k; ++p) ga[i * k + p] += g * brow[p * n + j];
      }
    }
    for (int64_t i = 0; i < m * k; ++i) ga_out[i] += ga[i];
  }
  {
    // dB[k,n] = sum_m A[m,k] * dY[m,n].
    std::vector<float> gb(k * n, 0.0f);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        float av = pa[i * k + p];
        if (av == 0.0f) continue;
        for (int64_t j = 0; j < n; ++j) gb[p * n + j] += av * gy[i * n + j];
      }
    }
    for (int64_t i = 0; i < k * n; ++i) gb_out[i] += gb[i];
  }
}

// --- MatMul forward+backward: legacy vs kernels::Gemm ------------------------

void BM_MatMulFwdBwd_Legacy(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(42);
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> gy = RandomVec(m * n, &rng);
  std::vector<float> y(m * n), ga(m * k, 0.0f), gb(k * n, 0.0f);
  for (auto _ : state) {
    LegacyMatMulForward(a.data(), b.data(), y.data(), m, k, n);
    LegacyMatMulBackward(a.data(), b.data(), gy.data(), ga.data(), gb.data(), m, k, n);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(ga.data());
    benchmark::DoNotOptimize(gb.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * 2 * m * n * k);
}

void BM_MatMulFwdBwd_Fast(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(42);
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> gy = RandomVec(m * n, &rng);
  std::vector<float> y(m * n), ga(m * k, 0.0f), gb(k * n, 0.0f);
  for (auto _ : state) {
    kernels::Gemm(false, false, m, n, k, a.data(), b.data(), y.data(), false);
    kernels::Gemm(false, true, m, k, n, gy.data(), b.data(), ga.data(), true);
    kernels::Gemm(true, false, k, n, m, a.data(), gy.data(), gb.data(), true);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(ga.data());
    benchmark::DoNotOptimize(gb.data());
  }
  state.SetItemsProcessed(state.iterations() * 3 * 2 * m * n * k);
}

// End-to-end autograd MatMul: graph build + forward + full Backward().
void BM_OpsMatMulTrainStep(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(42);
  Tensor a = Tensor::Randn({m, k}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({k, n}, &rng, 1.0f, /*requires_grad=*/true);
  for (auto _ : state) {
    Tensor loss = ops::Sum(ops::Square(ops::MatMul(a, b)));
    loss.Backward();
    a.ZeroGrad();
    b.ZeroGrad();
    benchmark::DoNotOptimize(loss.item());
  }
}

// --- LSTM step: composed ops (pre-fusion) vs fused ops -----------------------

struct LstmFixture {
  Tensor x, h0, c0, w_ih, w_hh, bias;
  LstmFixture(int64_t batch, int64_t input, int64_t hidden) {
    Rng rng(7);
    x = Tensor::Randn({batch, input}, &rng, 0.5f, true);
    h0 = Tensor::Randn({batch, hidden}, &rng, 0.5f);
    c0 = Tensor::Randn({batch, hidden}, &rng, 0.5f);
    w_ih = Tensor::Randn({input, 4 * hidden}, &rng, 0.3f, true);
    w_hh = Tensor::Randn({hidden, 4 * hidden}, &rng, 0.3f, true);
    bias = Tensor::Randn({1, 4 * hidden}, &rng, 0.1f, true);
  }
  void ZeroGrads() {
    x.ZeroGrad();
    w_ih.ZeroGrad();
    w_hh.ZeroGrad();
    bias.ZeroGrad();
  }
};

void BM_LstmStepComposed(benchmark::State& state) {
  const int64_t batch = 32, hidden = state.range(0);
  LstmFixture f(batch, hidden, hidden);
  using namespace ops;  // NOLINT(build/namespaces)
  for (auto _ : state) {
    Tensor gates =
        BroadcastAdd(Add(MatMul(f.x, f.w_ih), MatMul(f.h0, f.w_hh)), f.bias);
    Tensor i_gate = Sigmoid(Slice(gates, 1, 0, hidden));
    Tensor f_gate = Sigmoid(Slice(gates, 1, hidden, 2 * hidden));
    Tensor g_gate = Tanh(Slice(gates, 1, 2 * hidden, 3 * hidden));
    Tensor o_gate = Sigmoid(Slice(gates, 1, 3 * hidden, 4 * hidden));
    Tensor c_next = Add(Mul(f_gate, f.c0), Mul(i_gate, g_gate));
    Tensor h_next = Mul(o_gate, Tanh(c_next));
    Tensor loss = Sum(Square(h_next));
    loss.Backward();
    f.ZeroGrads();
    benchmark::DoNotOptimize(loss.item());
  }
}

void BM_LstmStepFused(benchmark::State& state) {
  const int64_t hidden = state.range(0);
  LstmFixture f(32, hidden, hidden);
  using namespace ops;  // NOLINT(build/namespaces)
  for (auto _ : state) {
    Tensor gates = LinearGates(f.x, f.w_ih, f.h0, f.w_hh, f.bias);
    Tensor c_next = LstmCellC(gates, f.c0);
    Tensor h_next = LstmCellH(gates, c_next);
    Tensor loss = Sum(Square(h_next));
    loss.Backward();
    f.ZeroGrads();
    benchmark::DoNotOptimize(loss.item());
  }
}

// The fused LSTM step with the gate activations pinned to scalar libm: the
// in-binary baseline for the SIMD transcendental speedup (everything else —
// GEMMs, graph, buffer pool — is identical to BM_LstmStepFused).
void BM_LstmStepFusedScalarAct(benchmark::State& state) {
  const int64_t hidden = state.range(0);
  LstmFixture f(32, hidden, hidden);
  using namespace ops;  // NOLINT(build/namespaces)
  kernels::SetTranscendentalPath(kernels::TranscendentalPath::kScalar);
  for (auto _ : state) {
    Tensor gates = LinearGates(f.x, f.w_ih, f.h0, f.w_hh, f.bias);
    Tensor c_next = LstmCellC(gates, f.c0);
    Tensor h_next = LstmCellH(gates, c_next);
    Tensor loss = Sum(Square(h_next));
    loss.Backward();
    f.ZeroGrads();
    benchmark::DoNotOptimize(loss.item());
  }
  kernels::SetTranscendentalPath(kernels::TranscendentalPath::kAuto);
}

// --- Raw transcendental throughput: SIMD vs scalar ---------------------------

void BM_ExpKernel(benchmark::State& state) {
  const bool simd = state.range(0) != 0;
  const int64_t n = 32 * 256;
  Rng rng(23);
  std::vector<float> x = RandomVec(n, &rng);
  std::vector<float> y(n);
  kernels::SetTranscendentalPath(simd ? kernels::TranscendentalPath::kSimd
                                      : kernels::TranscendentalPath::kScalar);
  for (auto _ : state) {
    kernels::ExpForward(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  kernels::SetTranscendentalPath(kernels::TranscendentalPath::kAuto);
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_TanhKernel(benchmark::State& state) {
  const bool simd = state.range(0) != 0;
  const int64_t n = 32 * 256;
  Rng rng(23);
  std::vector<float> x = RandomVec(n, &rng);
  std::vector<float> y(n);
  kernels::SetTranscendentalPath(simd ? kernels::TranscendentalPath::kSimd
                                      : kernels::TranscendentalPath::kScalar);
  for (auto _ : state) {
    kernels::TanhForward(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  kernels::SetTranscendentalPath(kernels::TranscendentalPath::kAuto);
  state.SetItemsProcessed(state.iterations() * n);
}

// --- Attention: per-batch-slice loop (PR-1 path) vs batched 3-D GEMM ---------
//
// The Loop fixture replicates the pre-BatchMatMul TransformerBlock attention
// exactly: B iterations of Slice/MatMul(Transpose)/Softmax/MatMul stitched
// back together with Concat (~6 graph nodes per scene). The Batched fixture
// is the current path: two BatchMatMul nodes and one 3-D softmax for the
// whole batch.

struct AttentionFixture {
  Tensor q, k, v;  // [B*T, D] leaves, as produced by the q/k/v projections
  int64_t b, t, d;
  AttentionFixture(int64_t b_, int64_t t_, int64_t d_) : b(b_), t(t_), d(d_) {
    Rng rng(17);
    q = Tensor::Randn({b * t, d}, &rng, 0.5f, /*requires_grad=*/true);
    k = Tensor::Randn({b * t, d}, &rng, 0.5f, /*requires_grad=*/true);
    v = Tensor::Randn({b * t, d}, &rng, 0.5f, /*requires_grad=*/true);
  }
  void ZeroGrads() {
    q.ZeroGrad();
    k.ZeroGrad();
    v.ZeroGrad();
  }
};

void BM_AttentionFwdBwd_Loop(benchmark::State& state) {
  AttentionFixture f(state.range(0), state.range(1), state.range(2));
  using namespace ops;  // NOLINT(build/namespaces)
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(f.d));
  for (auto _ : state) {
    std::vector<Tensor> attended_rows;
    attended_rows.reserve(f.b);
    for (int64_t i = 0; i < f.b; ++i) {
      Tensor q_b = Slice(f.q, 0, i * f.t, (i + 1) * f.t);  // [T, D]
      Tensor k_b = Slice(f.k, 0, i * f.t, (i + 1) * f.t);
      Tensor v_b = Slice(f.v, 0, i * f.t, (i + 1) * f.t);
      Tensor scores = MulScalar(MatMul(q_b, Transpose(k_b)), inv_sqrt_d);
      attended_rows.push_back(MatMul(Softmax(scores), v_b));
    }
    Tensor attended = Concat(attended_rows, 0);  // [B*T, D]
    Tensor loss = Sum(Square(attended));
    loss.Backward();
    f.ZeroGrads();
    benchmark::DoNotOptimize(loss.item());
  }
}

void BM_AttentionFwdBwd_Batched(benchmark::State& state) {
  AttentionFixture f(state.range(0), state.range(1), state.range(2));
  using namespace ops;  // NOLINT(build/namespaces)
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(f.d));
  for (auto _ : state) {
    Tensor q3 = Reshape(f.q, {f.b, f.t, f.d});
    Tensor k3 = Reshape(f.k, {f.b, f.t, f.d});
    Tensor v3 = Reshape(f.v, {f.b, f.t, f.d});
    Tensor scores = MulScalar(BatchMatMul(q3, k3, false, true), inv_sqrt_d);
    Tensor attended = BatchMatMul(Softmax(scores), v3);  // [B, T, D]
    Tensor loss = Sum(Square(attended));
    loss.Backward();
    f.ZeroGrads();
    benchmark::DoNotOptimize(loss.item());
  }
}

// --- Raw kernel: single GEMM at model shapes, per dispatch path --------------

/// FLOP-rate counter shared by the GEMM kernel benches: 2*m*n*k flops per
/// product, reported as GFLOP/s so kernel changes are comparable across
/// shapes.
void SetGemmCounters(benchmark::State& state, int64_t products_per_iter,
                     int64_t m, int64_t n, int64_t k) {
  const double flops = 2.0 * static_cast<double>(products_per_iter) *
                       static_cast<double>(m * n * k);
  state.counters["GFLOP/s"] =
      benchmark::Counter(flops, benchmark::Counter::kIsIterationInvariantRate,
                         benchmark::Counter::kIs1000);
  state.SetItemsProcessed(state.iterations() * products_per_iter * 2 * m * n *
                          k);
}

/// The eager Gemm entry at the model's own shapes; runs on whichever path the
/// dispatcher resolves to (AVX-512 where available, else portable).
void BM_GemmKernel(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(19);
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    kernels::Gemm(false, false, m, n, k, a.data(), b.data(), c.data(), false);
    benchmark::DoNotOptimize(c.data());
  }
  SetGemmCounters(state, 1, m, n, k);
}

/// Same shapes with the portable 4x16 kernel forced, so one bench run shows
/// the micro-kernel speedup in-binary (compare against BM_GemmKernel).
void BM_GemmKernelPortable(benchmark::State& state) {
  const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(19);
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> c(m * n);
  kernels::SetGemmPath(kernels::GemmPath::kPortable);
  for (auto _ : state) {
    kernels::Gemm(false, false, m, n, k, a.data(), b.data(), c.data(), false);
    benchmark::DoNotOptimize(c.data());
  }
  kernels::SetGemmPath(kernels::GemmPath::kAuto);
  SetGemmCounters(state, 1, m, n, k);
}

// --- Raw kernel: BatchGemm vs a loop of Gemm calls ---------------------------

void BM_BatchGemmKernel(benchmark::State& state) {
  const int64_t batch = state.range(0), m = state.range(1), k = state.range(2),
                n = state.range(3);
  Rng rng(19);
  std::vector<float> a = RandomVec(batch * m * k, &rng);
  std::vector<float> b = RandomVec(batch * k * n, &rng);
  std::vector<float> c(batch * m * n);
  for (auto _ : state) {
    kernels::BatchGemm(false, true, batch, m, n, k, a.data(), b.data(), c.data(),
                       false);
    benchmark::DoNotOptimize(c.data());
  }
  SetGemmCounters(state, batch, m, n, k);
}

void BM_GemmSliceLoopKernel(benchmark::State& state) {
  const int64_t batch = state.range(0), m = state.range(1), k = state.range(2),
                n = state.range(3);
  Rng rng(19);
  std::vector<float> a = RandomVec(batch * m * k, &rng);
  std::vector<float> b = RandomVec(batch * k * n, &rng);
  std::vector<float> c(batch * m * n);
  for (auto _ : state) {
    for (int64_t bi = 0; bi < batch; ++bi) {
      kernels::Gemm(false, true, m, n, k, a.data() + bi * m * k,
                    b.data() + bi * k * n, c.data() + bi * m * n, false);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * m * n * k);
}

// --- Adam update: legacy scalar loop vs kernels::AdamUpdate ------------------

/// Verbatim algorithmics of the pre-change Adam::Step inner loop.
void LegacyAdamUpdate(float* param, const float* grad, float* m, float* v,
                      int64_t n, float lr, float beta1, float beta2, float eps,
                      float weight_decay, float bc1, float bc2) {
  for (int64_t i = 0; i < n; ++i) {
    float g = grad[i];
    if (weight_decay != 0.0f) g += weight_decay * param[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * g;
    v[i] = beta2 * v[i] + (1.0f - beta2) * g * g;
    const float m_hat = m[i] / bc1;
    const float v_hat = v[i] / bc2;
    param[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

struct AdamFixture {
  std::vector<float> param, grad, m, v;
  explicit AdamFixture(int64_t n) : m(n, 0.0f), v(n, 0.0f) {
    Rng rng(3);
    param = RandomVec(n, &rng);
    grad = RandomVec(n, &rng);
  }
};

void BM_AdamUpdate_Legacy(benchmark::State& state) {
  const int64_t n = state.range(0);
  AdamFixture f(n);
  for (auto _ : state) {
    LegacyAdamUpdate(f.param.data(), f.grad.data(), f.m.data(), f.v.data(), n,
                     1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f, 0.1f, 0.001f);
    benchmark::DoNotOptimize(f.param.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_AdamUpdate_Fast(benchmark::State& state) {
  const int64_t n = state.range(0);
  AdamFixture f(n);
  for (auto _ : state) {
    kernels::AdamUpdate(f.param.data(), f.grad.data(), f.m.data(), f.v.data(), n,
                        1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f, 0.1f, 0.001f);
    benchmark::DoNotOptimize(f.param.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// --- Training epoch: scene-parallel driver at the table-4 workload -----------
//
// One iteration = one epoch of AdapTraj (and the vanilla baseline) training
// at the table-4 shape (H=32, B=32, 3 source domains, 12 batches/epoch cap)
// through core::ParallelTrainer with accum_steps=4. The Arg is the
// ADAPTRAJ_TRAIN_WORKERS count: trained weights are bit-identical across
// Args (the determinism suite asserts this); only wall-clock may differ.
// Real time is the headline (cpu_time is whole-process CPU, i.e. total work
// — flat across worker counts). Wall-clock speedup requires
// >= `workers` physical cores; on a single-core host all Args coincide.

const data::DomainGeneralizationData& TrainBenchData() {
  static const data::DomainGeneralizationData* dgd = [] {
    data::CorpusConfig cfg;
    cfg.num_scenes = 2;
    cfg.steps_per_scene = 45;
    cfg.seed = 20240612;
    auto* d = new data::DomainGeneralizationData(
        data::BuildDomainGeneralizationData(
            {sim::Domain::kEthUcy, sim::Domain::kLcas, sim::Domain::kSyi},
            sim::Domain::kSdd, cfg));
    return d;
  }();
  return *dgd;
}

core::TrainConfig TrainBenchConfig() {
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 32;
  tc.max_batches_per_epoch = 12;
  tc.lr = 3e-3f;
  tc.accum_steps = 4;
  tc.seed = 20240612 + 13;
  return tc;
}

models::BackboneConfig TrainBenchBackbone() {
  models::BackboneConfig bb;
  bb.hidden_dim = 32;
  bb.social_dim = 32;
  bb.embed_dim = 16;
  bb.latent_dim = 8;
  return bb;
}

void BM_TrainEpoch_AdapTraj(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto& dgd = TrainBenchData();
  core::AdapTrajConfig acfg;
  acfg.num_source_domains = static_cast<int>(dgd.sources.size());
  core::AdapTrajMethod method(models::BackboneKind::kSeq2Seq, TrainBenchBackbone(),
                              acfg, 99);
  parallel::ConfigureTrainWorkers(workers);
  for (auto _ : state) {
    method.Train(dgd, TrainBenchConfig());
  }
  parallel::ConfigureTrainWorkers(1);
}

void BM_TrainEpoch_Vanilla(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const auto& dgd = TrainBenchData();
  core::VanillaMethod method(models::BackboneKind::kSeq2Seq, TrainBenchBackbone(), 99);
  parallel::ConfigureTrainWorkers(workers);
  for (auto _ : state) {
    method.Train(dgd, TrainBenchConfig());
  }
  parallel::ConfigureTrainWorkers(1);
}

// --- Inference: grad-mode vs no-grad Predict, and the serving engine ---------
//
// Method::Predict runs forward-only (NoGradGuard in its body); the GradMode
// fixture forces tape recording so the EXECUTION-MODE delta is measured
// inside one binary at the table-8 batch shape (the 32-scene probe batch).
// Note what this pair does and does not measure: both fixtures run on the
// PR's optimized substrate (fused Affine, bucketed pool, template
// ParallelFor), where Predict is ~92% kernel time — so the mode delta alone
// is ~1.2-1.35x CPU (load-dependent). The full Predict improvement of the
// inference-runtime work vs the pre-change grad path was 1.40 -> 0.62-0.66
// ms CPU (~2.1x) at this shape; the substrate share of that also speeds
// training (see BM_TrainEpoch_*). Each fixture reports the buffer-pool
// reuse rate over its own loop; the structural eager-release advantage of
// no-grad is sharpest from a cold pool (see
// tests/tensor/test_nograd.cpp:EagerReleaseRaisesPoolReuse).

struct PredictFixture {
  core::AdapTrajMethod method;
  data::Batch batch;
  PredictFixture()
      : method(models::BackboneKind::kSeq2Seq, TrainBenchBackbone(),
               [] {
                 core::AdapTrajConfig acfg;
                 acfg.num_source_domains =
                     static_cast<int>(TrainBenchData().sources.size());
                 return acfg;
               }(),
               99) {
    const auto& dgd = TrainBenchData();
    data::SequenceConfig seq_cfg;
    const int64_t probe = std::min<int64_t>(32, dgd.target.test.size());
    std::vector<const data::TrajectorySequence*> seqs;
    for (int64_t i = 0; i < probe; ++i) {
      seqs.push_back(&dgd.target.test.sequences[i]);
    }
    batch = data::MakeBatch(seqs, seq_cfg);
  }
};

void ReportPoolReuse(benchmark::State& state,
                     const internal::BufferPoolStats& before) {
  const auto after = internal::GetBufferPoolStats();
  const int64_t acquires = after.acquires - before.acquires;
  const int64_t hits = after.hits() - before.hits();
  state.counters["pool_reuse_pct"] =
      acquires > 0 ? 100.0 * static_cast<double>(hits) /
                         static_cast<double>(acquires)
                   : 0.0;
}

void BM_PredictGradMode(benchmark::State& state) {
  PredictFixture f;
  Rng rng(1);
  ForcedGradModeGuard forced;  // legacy path: record (and discard) the tape
  const auto before = internal::GetBufferPoolStats();
  for (auto _ : state) {
    Tensor pred = f.method.Predict(f.batch, &rng, /*sample=*/true);
    benchmark::DoNotOptimize(pred.data());
  }
  ReportPoolReuse(state, before);
}

void ReportPlanStats(benchmark::State& state, const plan::CacheStats& s) {
  state.counters["plan_hits"] = static_cast<double>(s.hits);
  state.counters["plan_misses"] = static_cast<double>(s.misses);
  state.counters["plan_fused"] = static_cast<double>(s.fused_steps);
  state.counters["plan_arena_bytes"] = static_cast<double>(s.arena_bytes);
}

// Runs in the default plan mode (ADAPTRAJ_PLAN unset = on): iteration 1
// captures the execution plan, the rest replay it — the served steady state.
// The delta vs BM_PredictEager is the capture-and-replay win; the tracked
// history crosses the introduction of plans, so this number also carries
// the eager->planned transition.
void BM_PredictNoGrad(benchmark::State& state) {
  PredictFixture f;
  Rng rng(1);
  const auto before = internal::GetBufferPoolStats();
  for (auto _ : state) {
    Tensor pred = f.method.Predict(f.batch, &rng, /*sample=*/true);
    benchmark::DoNotOptimize(pred.data());
  }
  ReportPoolReuse(state, before);
  ReportPlanStats(state, f.method.plan_stats());
}

// Plans forced off: the per-call graph-construction cost that capture-and-
// replay removes, at the same batch shape.
void BM_PredictEager(benchmark::State& state) {
  plan::SetMode(plan::Mode::kOff);
  PredictFixture f;
  Rng rng(1);
  for (auto _ : state) {
    Tensor pred = f.method.Predict(f.batch, &rng, /*sample=*/true);
    benchmark::DoNotOptimize(pred.data());
  }
  plan::SetMode(plan::Mode::kAuto);
}

// Pure replay: the plan is captured before the timing loop, so every timed
// call resolves inputs, runs the fused kernels over the planned arena, and
// never touches the graph layer. plan_hits == iterations when healthy.
void BM_PredictPlanned(benchmark::State& state) {
  plan::SetMode(plan::Mode::kOn);
  PredictFixture f;
  Rng rng(1);
  {
    Tensor warm = f.method.Predict(f.batch, &rng, /*sample=*/true);  // capture
    benchmark::DoNotOptimize(warm.data());
  }
  for (auto _ : state) {
    Tensor pred = f.method.Predict(f.batch, &rng, /*sample=*/true);
    benchmark::DoNotOptimize(pred.data());
  }
  ReportPlanStats(state, f.method.plan_stats());
  plan::SetMode(plan::Mode::kAuto);
}

// Serving path: 32 scenes per iteration submitted to an InferenceEngine that
// coalesces Arg(0)-scene batches. items/sec is scenes/sec — the throughput
// metric at batch in {1, 8, 32}.
void BM_InferenceEngine(benchmark::State& state) {
  PredictFixture f;
  const auto& dgd = TrainBenchData();
  const int64_t scenes = std::min<int64_t>(32, dgd.target.test.size());
  serve::InferenceEngineOptions options;
  options.batch_size = static_cast<int>(state.range(0));
  options.seed = 1;
  for (auto _ : state) {
    serve::InferenceEngine engine(&f.method, options);
    std::vector<std::future<Tensor>> futures;
    futures.reserve(static_cast<size_t>(scenes));
    for (int64_t i = 0; i < scenes; ++i) {
      futures.push_back(engine.Submit(dgd.target.test.sequences[i]));
    }
    engine.Drain();
    for (auto& fut : futures) benchmark::DoNotOptimize(fut.get().data());
  }
  state.SetItemsProcessed(state.iterations() * scenes);
}

// Serving throughput with a pre-warmed plan cache: one untimed pass captures
// the full-batch (and padded-tail) plans on the fixture method, then every
// timed batch replays. The delta vs BM_InferenceEngine/8 isolates the
// steady-state serving win; the plan counters come from the method's cache,
// which every per-iteration engine shares.
void BM_InferenceEnginePlanned(benchmark::State& state) {
  plan::SetMode(plan::Mode::kOn);
  PredictFixture f;
  const auto& dgd = TrainBenchData();
  const int64_t scenes = std::min<int64_t>(32, dgd.target.test.size());
  serve::InferenceEngineOptions options;
  options.batch_size = 8;
  options.seed = 1;
  auto run_pass = [&] {
    serve::InferenceEngine engine(&f.method, options);
    std::vector<std::future<Tensor>> futures;
    futures.reserve(static_cast<size_t>(scenes));
    for (int64_t i = 0; i < scenes; ++i) {
      futures.push_back(engine.Submit(dgd.target.test.sequences[i]));
    }
    engine.Drain();
    for (auto& fut : futures) benchmark::DoNotOptimize(fut.get().data());
  };
  run_pass();  // untimed capture pass
  for (auto _ : state) run_pass();
  state.SetItemsProcessed(state.iterations() * scenes);
  ReportPlanStats(state, f.method.plan_stats());
  plan::SetMode(plan::Mode::kAuto);
}

// Async serving path under producer concurrency: Arg(0) producer threads
// submit 32 scenes per iteration with explicit slot ids (scene i at slot i,
// so the computed bytes match the single-producer run), then one Drain
// flushes the padded tail. items/sec is scenes/sec; the delta vs
// BM_InferenceEngine/8 is the cost (or win) of contended Submit plus the
// worker handoff at the same batch shape.
void BM_InferenceEngineAsync(benchmark::State& state) {
  PredictFixture f;
  const auto& dgd = TrainBenchData();
  const int64_t scenes = std::min<int64_t>(32, dgd.target.test.size());
  const int producers = static_cast<int>(state.range(0));
  serve::InferenceEngineOptions options;
  options.batch_size = 8;
  options.seed = 1;
  for (auto _ : state) {
    serve::InferenceEngine engine(&f.method, options);
    std::vector<std::future<Tensor>> futures;
    eval::SubmitScenesConcurrently(&engine, dgd.target.test.sequences, scenes,
                                   producers, &futures);
    engine.Drain();
    for (auto& fut : futures) benchmark::DoNotOptimize(fut.get().data());
  }
  state.SetItemsProcessed(state.iterations() * scenes);
}

// Repeat-heavy serving traffic vs the cross-request encoder cache. Arg(0) is
// the repeat percentage of a seeded 32-request schedule (request i resubmits
// a uniformly chosen earlier scene with that probability, else advances to a
// fresh scene); Arg(1) pins the cache on or off. The schedule is fixed per
// case, so the on/off pair serves byte-identical traffic and their
// scenes/sec ratio isolates the cache win; hit_pct reports the realized
// cross-batch hit rate (within-batch duplicates are deduplicated before the
// cache is consulted and do not count as hits).
void BM_EngineRepeatTraffic(benchmark::State& state) {
  PredictFixture f;
  // A dedicated pool with more distinct scenes than the schedule needs:
  // TrainBenchData's 19-scene test split would wrap the fresh stream and
  // manufacture hits at repeat=0.
  static const data::Dataset* scene_pool = [] {
    data::CorpusConfig cfg;
    cfg.num_scenes = 28;
    cfg.steps_per_scene = 45;
    cfg.seed = 20240612;
    auto d = data::BuildDomainGeneralizationData(
        {sim::Domain::kEthUcy, sim::Domain::kLcas, sim::Domain::kSyi},
        sim::Domain::kSdd, cfg);
    return new data::Dataset(std::move(d.target.test));
  }();
  const double repeat = static_cast<double>(state.range(0)) / 100.0;
  const bool cached = state.range(1) != 0;
  // Long enough that per-iteration fixed cost (engine construction, thread
  // spawn) is amortized and the measurement is steady-state serving.
  constexpr int64_t kRequests = 256;
  const int64_t pool =
      std::min<int64_t>(kRequests, static_cast<int64_t>(scene_pool->size()));
  std::vector<int64_t> schedule;
  schedule.reserve(kRequests);
  {
    Rng coin(1234);
    int64_t fresh = 0;
    for (int64_t i = 0; i < kRequests; ++i) {
      const bool resubmit =
          fresh > 0 &&
          static_cast<double>(coin.Uniform(0.0f, 1.0f)) < repeat;
      if (resubmit) {
        const int64_t j = std::min<int64_t>(
            fresh - 1, static_cast<int64_t>(
                           static_cast<double>(coin.Uniform(0.0f, 1.0f)) *
                           static_cast<double>(fresh)));
        schedule.push_back(j % pool);
      } else {
        schedule.push_back(fresh++ % pool);
      }
    }
  }
  serve::InferenceEngineOptions options;
  options.batch_size = 8;
  options.seed = 1;
  options.encode_cache =
      cached ? serve::EncodeCacheMode::kOn : serve::EncodeCacheMode::kOff;
  int64_t hits = 0, lookups = 0;
  for (auto _ : state) {
    serve::InferenceEngine engine(&f.method, options);
    std::vector<std::future<Tensor>> futures;
    futures.reserve(static_cast<size_t>(kRequests));
    for (int64_t idx : schedule) {
      futures.push_back(engine.Submit(scene_pool->sequences[static_cast<size_t>(idx)]));
    }
    engine.Drain();
    for (auto& fut : futures) benchmark::DoNotOptimize(fut.get().data());
    const auto cache_stats = engine.stats().encode_cache;
    hits += cache_stats.hits;
    lookups += cache_stats.lookups;
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
  state.counters["hit_pct"] =
      lookups > 0 ? 100.0 * static_cast<double>(hits) /
                        static_cast<double>(lookups)
                  : 0.0;
}

// Open-loop Poisson overload at ~2x the engine's measured capacity, with
// admission control shedding. What it gates: the total CPU spent per
// iteration on the overload path — queue management at the bound, shed
// fast-path, deadline-free histogram recording — not the latency of the
// fulfilled requests (Poisson sleeps dominate real_time by design; cpu_time
// with MeasureProcessCPUTime is the meaningful axis). Counters report the
// disposition split and the p99 queue wait from the engine histograms.
void BM_EngineOverload(benchmark::State& state) {
  PredictFixture f;
  const auto& dgd = TrainBenchData();
  data::SequenceConfig seq_cfg;
  // Calibrate capacity once: scenes/sec through the drain-paced engine at
  // batch 8. The offered rate is 2x that — sustained overload.
  static const double capacity = eval::MeasureEngineThroughput(
      f.method, dgd.target.test, seq_cfg, /*batch_size=*/8,
      /*num_scenes=*/32, /*repeats=*/1, /*seed=*/1);
  eval::PoissonLoadOptions load;
  load.arrivals_per_sec = std::max(100.0, 2.0 * capacity);
  load.num_requests = 64;
  load.batch_size = 8;
  load.max_batch_delay_ms = 2;
  load.max_queued_requests = 16;  // kShed: memory bounded, excess shed
  load.seed = 1;

  int64_t fulfilled = 0, shed = 0, expired = 0;
  double p99_wait_ms = 0.0;
  for (auto _ : state) {
    const auto report =
        eval::MeasureEnginePoissonLoad(f.method, dgd.target.test, seq_cfg, load);
    fulfilled += report.fulfilled;
    shed += report.shed;
    expired += report.expired;
    p99_wait_ms = report.queue_wait_p99_ms;
    benchmark::DoNotOptimize(report.achieved_per_sec);
  }
  state.SetItemsProcessed(state.iterations() * load.num_requests);
  const double iters = static_cast<double>(state.iterations());
  state.counters["offered_per_sec"] = load.arrivals_per_sec;
  state.counters["fulfilled"] = static_cast<double>(fulfilled) / iters;
  state.counters["shed"] = static_cast<double>(shed) / iters;
  state.counters["expired"] = static_cast<double>(expired) / iters;
  state.counters["p99_wait_ms"] = p99_wait_ms;
}

// --- Softmax -----------------------------------------------------------------

void BM_SoftmaxFwdBwd(benchmark::State& state) {
  const int64_t rows = 32, cols = state.range(0);
  Rng rng(5);
  Tensor x = Tensor::Randn({rows, cols}, &rng, 1.0f, /*requires_grad=*/true);
  for (auto _ : state) {
    Tensor loss = ops::Sum(ops::Square(ops::Softmax(x)));
    loss.Backward();
    x.ZeroGrad();
    benchmark::DoNotOptimize(loss.item());
  }
}

// Acceptance shape [128,64]x[64,128] plus the model shapes (B=32, h in
// {32,64,128} with square-ish weight matrices).
BENCHMARK(BM_MatMulFwdBwd_Legacy)
    ->Args({128, 64, 128})
    ->Args({32, 32, 32})
    ->Args({32, 64, 64})
    ->Args({32, 128, 128});
BENCHMARK(BM_MatMulFwdBwd_Fast)
    ->Args({128, 64, 128})
    ->Args({32, 32, 32})
    ->Args({32, 64, 64})
    ->Args({32, 128, 128});
BENCHMARK(BM_OpsMatMulTrainStep)->Args({128, 64, 128})->Args({32, 64, 64});
BENCHMARK(BM_LstmStepComposed)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_LstmStepFused)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_LstmStepFusedScalarAct)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_SoftmaxFwdBwd)->Arg(32)->Arg(64)->Arg(128);
// Attention at model shapes {B, T, D}: acceptance shape plus a larger scene.
BENCHMARK(BM_AttentionFwdBwd_Loop)->Args({32, 8, 64})->Args({64, 12, 64});
BENCHMARK(BM_AttentionFwdBwd_Batched)->Args({32, 8, 64})->Args({64, 12, 64});
BENCHMARK(BM_GemmKernel)
    ->Args({32, 64, 64})
    ->Args({32, 128, 128})
    ->Args({128, 64, 128});
BENCHMARK(BM_GemmKernelPortable)
    ->Args({32, 64, 64})
    ->Args({32, 128, 128})
    ->Args({128, 64, 128});
BENCHMARK(BM_BatchGemmKernel)->Args({32, 8, 64, 8})->Args({32, 8, 8, 64});
BENCHMARK(BM_GemmSliceLoopKernel)->Args({32, 8, 64, 8})->Args({32, 8, 8, 64});
// Transcendental throughput: Arg(1) = SIMD path, Arg(0) = scalar libm.
BENCHMARK(BM_ExpKernel)->Arg(1)->Arg(0);
BENCHMARK(BM_TanhKernel)->Arg(1)->Arg(0);
// Optimizer update at model-stack parameter counts.
BENCHMARK(BM_AdamUpdate_Legacy)->Arg(1 << 16);
BENCHMARK(BM_AdamUpdate_Fast)->Arg(1 << 16);
// Forward-only inference at the table-8 batch shape: the GradMode fixture is
// the in-binary baseline for the no-grad speedup; pool_reuse_pct shows the
// eager-release delta. BM_InferenceEngine is scenes/sec through the serving
// path at batch in {1, 8, 32}.
BENCHMARK(BM_PredictGradMode)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictNoGrad)->Unit(benchmark::kMillisecond);
// Plans forced off vs. forced on (warm cache): the Eager/Planned pair
// brackets BM_PredictNoGrad and isolates the capture-and-replay win from
// machine noise; plan_* counters report cache telemetry.
BENCHMARK(BM_PredictEager)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PredictPlanned)->Unit(benchmark::kMillisecond);
// Engine benches gate on whole-process CPU: with the async engine, batch
// execution happens on the engine's serving workers, so main-thread
// cpu_time would measure only Submit/Drain bookkeeping.
BENCHMARK(BM_InferenceEngine)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
// Batch-8 serving with a pre-warmed plan cache (replay-only steady state).
BENCHMARK(BM_InferenceEnginePlanned)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
// Async engine at batch 8 with Arg(0) concurrent producer threads.
BENCHMARK(BM_InferenceEngineAsync)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
// Repeat-heavy traffic A/B over the encoder cache: repeat% in {0, 50, 90},
// cache off/on per repeat level. The 90/1-vs-90/0 scenes/sec ratio is the
// tracked cache win at high hit rate.
BENCHMARK(BM_EngineRepeatTraffic)
    ->ArgNames({"repeat", "cache"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({90, 0})
    ->Args({90, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
// SLO-guarded overload: open-loop Poisson at 2x capacity with shedding.
// real_time is dominated by the offered schedule's sleeps; cpu_time (whole
// process) is the gated cost of serving + shedding under overload.
BENCHMARK(BM_EngineOverload)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime();
// Scene-parallel training epochs; Arg = ADAPTRAJ_TRAIN_WORKERS. real_time is
// the wall-clock headline; cpu_time is whole-process CPU (total work).
BENCHMARK(BM_TrainEpoch_AdapTraj)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainEpoch_Vanilla)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace adaptraj

// Custom main: ADAPTRAJ_BENCH_SCALE=fast (the repo-wide bench knob) shortens
// each measurement unless the caller already passed --benchmark_min_time.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_min_time = false;
  for (char* a : args) {
    if (std::strncmp(a, "--benchmark_min_time", 20) == 0) has_min_time = true;
  }
  static char fast_min_time[] = "--benchmark_min_time=0.05";
  const char* scale = std::getenv("ADAPTRAJ_BENCH_SCALE");
  if (scale != nullptr && std::strcmp(scale, "fast") == 0 && !has_min_time) {
    args.push_back(fast_min_time);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // Buffer-pool telemetry over the whole run: reuse rate is the fraction of
  // op-output allocations served from recycled capacity. Stats are per
  // thread and this reads the MAIN thread's pool only: kernel-pool workers
  // write through raw pointers and never allocate, but training-pool
  // workers (BM_TrainEpoch_* with Arg > 1) run whole micro-batch graphs and
  // allocate from their own thread-local pools, which this summary excludes.
  // Tune caps against single-worker runs (e.g. BM_TrainEpoch_AdapTraj/1),
  // where every allocation is on the main thread — that is how the
  // kMaxEntries sweep in buffer_pool.cpp was measured.
  const auto stats = adaptraj::internal::GetBufferPoolStats();
  const double rate = stats.acquires > 0
                          ? 100.0 * static_cast<double>(stats.hits()) /
                                static_cast<double>(stats.acquires)
                          : 0.0;
  std::fprintf(stderr,
               "buffer-pool: hits=%lld misses=%lld releases=%lld "
               "bytes_recycled=%lld reuse=%.1f%%\n",
               static_cast<long long>(stats.hits()),
               static_cast<long long>(stats.misses()),
               static_cast<long long>(stats.releases),
               static_cast<long long>(stats.bytes_recycled), rate);
  benchmark::Shutdown();
  return 0;
}
