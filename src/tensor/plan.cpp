// Capture, compilation, and replay of shape-specialized execution plans.
// See plan.h for the lifecycle and the determinism contract.
//
// Structure:
//   - a thread-local Recorder that the ops-layer hooks append structured
//     steps to (tensors resolve to slots by impl identity; every impl seen
//     during a capture is retained so heap-address reuse cannot alias slots),
//   - a compiler that rewrites the step list (LayerNorm chain, scaled/masked
//     softmax, LstmC+H, GEMM bias/activation epilogues with pre-packed
//     weights), sweeps dead steps, and assigns every intermediate an offset
//     in one pooled arena via a last-use liveness scan,
//   - per-step runner functions that replicate the eager forward loops
//     exactly (same kernels, same chunk grains, same accumulation orders),
//   - the PlanCache / PredictSession pair that methods drive.

#include "tensor/plan.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>

#include "support/sync.h"
#include "support/thread_annotations.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"

namespace adaptraj {
namespace plan {

namespace {

using internal::TensorImpl;
using Impl = std::shared_ptr<TensorImpl>;

/// Mirrors ops.cpp: elementwise loops below this run inline.
constexpr int64_t kElementwiseGrain = 1 << 14;

/// Max compiled plans per cache before LRU eviction.
constexpr size_t kMaxPlans = 32;

// --- Mode --------------------------------------------------------------------

std::atomic<int> g_mode_override{static_cast<int>(Mode::kAuto)};

Mode EnvMode() {
  static const Mode resolved = [] {
    const char* env = std::getenv("ADAPTRAJ_PLAN");
    if (env == nullptr) return Mode::kOn;
    std::string v(env);
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    if (v == "0" || v == "off" || v == "false") return Mode::kOff;
    if (v == "verify") return Mode::kVerify;
    return Mode::kOn;
  }();
  return resolved;
}

// --- Step / slot model -------------------------------------------------------

enum class K : int {
  kUnary, kBinary, kBroadcast, kMatMul, kBatchMatMul, kAffine, kDualMatMul,
  kLstmC, kLstmH, kTranspose, kSoftmax, kReduce, kMaxAxis, kMaskedFill,
  kCopy, kConcat, kSlice, kRandn, kRand,
  // Created by the compiler:
  kPlanGemm, kLstmCH, kScaledSoftmax, kLayerNorm,
};

struct Step;

struct ReplayCtx {
  float* const* p;      // per-slot base pointers
  const float* consts;  // packed-constant pool
  Rng* rng;
};

struct Step {
  K kind;
  std::vector<int> in;
  int out = -1;
  int out2 = -1;
  int64_t m = 0, n = 0, k = 0, k2 = 0;
  int64_t outer = 0, inner = 0, extent = 0, start = 0;
  int iop = 0;                   // Un / Bin code; kernels::PlanAct for kPlanGemm
  bool flag_a = false, flag_b = false;
  float f0 = 0.0f, f1 = 0.0f;
  Shape b_shape, out_shape;      // broadcast operand / output shapes
  std::vector<int64_t> extents;  // concat part extents
  int64_t c0 = -1, c1 = -1, c2 = -1;  // constants offsets (W, W2, bias)
  /// kPlanGemm: the kernel path the packed constants were laid out for at
  /// capture time. Replay always uses this path, so flipping the global GEMM
  /// path between capture and replay cannot misread the packing.
  kernels::GemmPath gpath = kernels::GemmPath::kPortable;
  void (*run)(ReplayCtx&, const Step&) = nullptr;
};

struct SlotDef {
  enum Kind { kInput, kExternal, kArena, kResult } kind = kArena;
  int64_t elems = 0;
  int input_index = -1;   // kInput
  Impl external;          // kExternal: retained, re-read every replay
  int64_t arena_off = -1; // kArena
};

struct CompiledPlan {
  std::vector<SlotDef> slots;
  std::vector<Step> steps;
  internal::FloatBuffer constants;
  int64_t arena_elems = 0;
  int result_slot = -1;
  Shape result_shape;
  size_t n_inputs = 0;
  int64_t fused_steps = 0;
  int64_t eliminated_steps = 0;

  Tensor Execute(const std::vector<const Tensor*>& inputs, Rng* rng) const;
};

Tensor CompiledPlan::Execute(const std::vector<const Tensor*>& inputs,
                             Rng* rng) const {
  ADAPTRAJ_CHECK_MSG(inputs.size() == n_inputs,
                     "plan replay: input count " << inputs.size() << " != "
                                                 << n_inputs);
  internal::FloatBuffer arena = internal::AcquireBuffer(arena_elems);
  auto rimpl = std::make_shared<TensorImpl>();
  rimpl->shape = result_shape;
  rimpl->data = internal::AcquireBuffer(NumElements(result_shape));
  std::vector<float*> p(slots.size(), nullptr);
  for (size_t i = 0; i < slots.size(); ++i) {
    const SlotDef& s = slots[i];
    switch (s.kind) {
      case SlotDef::kInput: {
        const Tensor* t = inputs[s.input_index];
        ADAPTRAJ_CHECK_MSG(t != nullptr && t->defined() && t->size() == s.elems,
                           "plan replay: input " << s.input_index
                                                 << " shape changed under a "
                                                    "cached plan key");
        p[i] = const_cast<float*>(t->data());
        break;
      }
      case SlotDef::kExternal:
        p[i] = s.external->data.data();
        break;
      case SlotDef::kArena:
        // A slot whose producing step was fused away or eliminated is never
        // placed (arena_off < 0) and never read; it keeps its null pointer
        // rather than pointing before the arena.
        if (s.arena_off >= 0) p[i] = arena.data() + s.arena_off;
        break;
      case SlotDef::kResult:
        p[i] = rimpl->data.data();
        break;
    }
  }
  ReplayCtx ctx{p.data(), constants.data(), rng};
  for (const Step& s : steps) s.run(ctx, s);
  internal::ReleaseBuffer(std::move(arena));
  return Tensor::FromImpl(std::move(rimpl));
}

// --- Recorder ----------------------------------------------------------------

struct Recorder {
  std::vector<SlotDef> slots;
  std::vector<Step> steps;
  std::unordered_map<const TensorImpl*, int> by_impl;
  /// Every impl seen during the capture, retained so no freed impl's heap
  /// address can be reused and aliased to a stale slot.
  std::vector<Impl> retain;
  int64_t op_outputs = 0;
  int64_t op_steps = 0;
  bool aborted = false;
  std::string abort_reason;

  void Abort(const std::string& why) {
    if (!aborted) {
      aborted = true;
      abort_reason = why;
    }
  }

  int SlotOfValue(const Tensor& t) {
    const TensorImpl* key = t.impl().get();
    auto it = by_impl.find(key);
    if (it != by_impl.end()) return it->second;
    // First sighting as a step input: a constant from outside the capture
    // (parameter, eval-mask, Zeros/Full/FromVector leaf). Retain and re-read
    // it on every replay.
    const int id = static_cast<int>(slots.size());
    SlotDef def;
    def.kind = SlotDef::kExternal;
    def.elems = t.size();
    def.external = t.impl();
    slots.push_back(std::move(def));
    by_impl.emplace(key, id);
    retain.push_back(t.impl());
    return id;
  }

  int SlotOfOutput(const Tensor& t) {
    const TensorImpl* key = t.impl().get();
    if (by_impl.count(key) != 0) {
      Abort("op output aliases an existing slot");
      return by_impl[key];
    }
    const int id = static_cast<int>(slots.size());
    SlotDef def;
    def.kind = SlotDef::kArena;
    def.elems = t.size();
    slots.push_back(std::move(def));
    by_impl.emplace(key, id);
    retain.push_back(t.impl());
    return id;
  }
};

thread_local Recorder* g_recorder = nullptr;

Recorder* ActiveRecorder() {
  Recorder* r = g_recorder;
  return (r != nullptr && !r->aborted) ? r : nullptr;
}

// --- Runners -----------------------------------------------------------------
//
// Each replicates the corresponding eager forward pass exactly: same
// kernels, same ParallelFor grains (chunking never affects bits — every op
// here is lane-independent or serial), same accumulation orders.

template <typename F>
void RunElementwise1(ReplayCtx& ctx, const Step& s, F f) {
  const float* x = ctx.p[s.in[0]];
  float* y = ctx.p[s.out];
  parallel::ParallelFor(0, s.n, kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) y[i] = f(x[i]);
  });
}

void RunAddScalar(ReplayCtx& c, const Step& s) {
  const float v = s.f0;
  RunElementwise1(c, s, [v](float x) { return x + v; });
}
void RunMulScalar(ReplayCtx& c, const Step& s) {
  const float v = s.f0;
  RunElementwise1(c, s, [v](float x) { return x * v; });
}
void RunRelu(ReplayCtx& c, const Step& s) {
  RunElementwise1(c, s, [](float x) { return x > 0.0f ? x : 0.0f; });
}
void RunSquare(ReplayCtx& c, const Step& s) {
  RunElementwise1(c, s, [](float x) { return x * x; });
}
void RunSqrt(ReplayCtx& c, const Step& s) {
  RunElementwise1(c, s, [](float x) { return std::sqrt(std::max(x, 0.0f)); });
}
void RunAbs(ReplayCtx& c, const Step& s) {
  RunElementwise1(c, s, [](float x) { return std::fabs(x); });
}
void RunClamp(ReplayCtx& c, const Step& s) {
  const float lo = s.f0, hi = s.f1;
  RunElementwise1(c, s, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}
void RunLogClamped(ReplayCtx& c, const Step& s) {
  const float eps = s.f0;
  RunElementwise1(c, s, [eps](float x) { return std::log(std::max(x, eps)); });
}

template <void (*Bulk)(const float*, float*, int64_t)>
void RunTranscendental(ReplayCtx& ctx, const Step& s) {
  const float* x = ctx.p[s.in[0]];
  float* y = ctx.p[s.out];
  // Per-chunk bulk call, exactly like ElementwiseUnaryBulk.
  parallel::ParallelFor(0, s.n, kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    Bulk(x + lo, y + lo, hi - lo);
  });
}

template <typename F>
void RunElementwise2(ReplayCtx& ctx, const Step& s, F f) {
  const float* a = ctx.p[s.in[0]];
  const float* b = ctx.p[s.in[1]];
  float* y = ctx.p[s.out];
  parallel::ParallelFor(0, s.n, kElementwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) y[i] = f(a[i], b[i]);
  });
}

void RunAdd(ReplayCtx& c, const Step& s) {
  RunElementwise2(c, s, [](float x, float y) { return x + y; });
}
void RunSub(ReplayCtx& c, const Step& s) {
  RunElementwise2(c, s, [](float x, float y) { return x - y; });
}
void RunMul(ReplayCtx& c, const Step& s) {
  RunElementwise2(c, s, [](float x, float y) { return x * y; });
}
void RunDiv(ReplayCtx& c, const Step& s) {
  RunElementwise2(c, s, [](float x, float y) { return x / y; });
}

/// ops.cpp's BroadcastCursor, replicated: odometer walk over the output
/// shape with zero strides on broadcast dims.
class BroadcastCursor {
 public:
  BroadcastCursor(const Shape& out_shape, const Shape& b_shape)
      : rank_(static_cast<int>(out_shape.size())),
        extent_(out_shape),
        index_(out_shape.size(), 0),
        stride_(out_shape.size(), 0) {
    int64_t s = 1;
    for (int d = rank_ - 1; d >= 0; --d) {
      stride_[d] = b_shape[d] == 1 ? 0 : s;
      s *= b_shape[d];
    }
  }
  int64_t offset() const { return offset_; }
  void Advance() {
    for (int d = rank_ - 1; d >= 0; --d) {
      offset_ += stride_[d];
      if (++index_[d] < extent_[d]) return;
      index_[d] = 0;
      offset_ -= stride_[d] * extent_[d];
    }
  }

 private:
  int rank_;
  Shape extent_;
  std::vector<int64_t> index_;
  std::vector<int64_t> stride_;
  int64_t offset_ = 0;
};

template <typename F>
void RunBroadcastImpl(ReplayCtx& ctx, const Step& s, F f) {
  const float* a = ctx.p[s.in[0]];
  const float* b = ctx.p[s.in[1]];
  float* y = ctx.p[s.out];
  BroadcastCursor cur(s.out_shape, s.b_shape);
  for (int64_t i = 0; i < s.n; ++i, cur.Advance()) {
    y[i] = f(a[i], b[cur.offset()]);
  }
}

void RunBroadcastAdd(ReplayCtx& c, const Step& s) {
  RunBroadcastImpl(c, s, [](float x, float y) { return x + y; });
}
void RunBroadcastMul(ReplayCtx& c, const Step& s) {
  RunBroadcastImpl(c, s, [](float x, float y) { return x * y; });
}

void RunMatMul(ReplayCtx& c, const Step& s) {
  kernels::Gemm(false, false, s.m, s.n, s.k, c.p[s.in[0]], c.p[s.in[1]],
                c.p[s.out], false);
}

void RunBatchMatMul(ReplayCtx& c, const Step& s) {
  kernels::BatchGemm(s.flag_a, s.flag_b, s.outer, s.m, s.n, s.k, c.p[s.in[0]],
                     c.p[s.in[1]], c.p[s.out], false);
}

void RunAffineGeneric(ReplayCtx& c, const Step& s) {
  kernels::Gemm(false, false, s.m, s.n, s.k, c.p[s.in[0]], c.p[s.in[1]],
                c.p[s.out], false);
  kernels::AddRowBias(c.p[s.out], c.p[s.in[2]], s.m, s.n);
}

void RunDualGeneric(ReplayCtx& c, const Step& s) {
  kernels::Gemm(false, false, s.m, s.n, s.k, c.p[s.in[0]], c.p[s.in[1]],
                c.p[s.out], false);
  kernels::Gemm(false, false, s.m, s.n, s.k2, c.p[s.in[2]], c.p[s.in[3]],
                c.p[s.out], true);
  if (s.in.size() > 4) kernels::AddRowBias(c.p[s.out], c.p[s.in[4]], s.m, s.n);
}

void RunLstmC(ReplayCtx& c, const Step& s) {
  kernels::LstmCellForwardC(c.p[s.in[0]], c.p[s.in[1]], s.m, s.n, c.p[s.out]);
}
void RunLstmH(ReplayCtx& c, const Step& s) {
  kernels::LstmCellForwardH(c.p[s.in[0]], c.p[s.in[1]], s.m, s.n, c.p[s.out]);
}
void RunLstmCH(ReplayCtx& c, const Step& s) {
  kernels::LstmCellForwardCH(c.p[s.in[0]], c.p[s.in[1]], s.m, s.n, c.p[s.out],
                             c.p[s.out2]);
}

void RunTranspose(ReplayCtx& c, const Step& s) {
  const float* a = c.p[s.in[0]];
  float* y = c.p[s.out];
  for (int64_t i = 0; i < s.m; ++i) {
    for (int64_t j = 0; j < s.n; ++j) y[j * s.m + i] = a[i * s.n + j];
  }
}

void RunSoftmax(ReplayCtx& c, const Step& s) {
  const float* x = c.p[s.in[0]];
  float* y = c.p[s.out];
  const int64_t cols = s.n;
  parallel::ParallelFor(0, s.m, /*grain=*/64, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      kernels::SoftmaxRow(&x[r * cols], &y[r * cols], cols);
    }
  });
}

void RunReduce(ReplayCtx& c, const Step& s) {
  const float* a = c.p[s.in[0]];
  float* y = c.p[s.out];
  const float scale = s.f0;
  for (int64_t ou = 0; ou < s.outer; ++ou) {
    for (int64_t iin = 0; iin < s.inner; ++iin) {
      double acc = 0.0;
      for (int64_t e = 0; e < s.extent; ++e) {
        acc += a[(ou * s.extent + e) * s.inner + iin];
      }
      y[ou * s.inner + iin] = static_cast<float>(acc) * scale;
    }
  }
}

void RunMaxAxis(ReplayCtx& c, const Step& s) {
  const float* a = c.p[s.in[0]];
  float* y = c.p[s.out];
  for (int64_t ou = 0; ou < s.outer; ++ou) {
    for (int64_t iin = 0; iin < s.inner; ++iin) {
      float best = a[(ou * s.extent) * s.inner + iin];
      for (int64_t e = 1; e < s.extent; ++e) {
        const float v = a[(ou * s.extent + e) * s.inner + iin];
        if (v > best) best = v;
      }
      y[ou * s.inner + iin] = best;
    }
  }
}

void RunMaskedFill(ReplayCtx& c, const Step& s) {
  const float* a = c.p[s.in[0]];
  const float* m = c.p[s.in[1]];
  float* y = c.p[s.out];
  const float value = s.f0;
  for (int64_t i = 0; i < s.n; ++i) y[i] = (m[i] != 0.0f) ? value : a[i];
}

void RunCopy(ReplayCtx& c, const Step& s) {
  // copy_n, not memcpy: an empty batch replays with null buffers.
  std::copy_n(c.p[s.in[0]], s.n, c.p[s.out]);
}

void RunConcat(ReplayCtx& c, const Step& s) {
  float* y = c.p[s.out];
  int64_t offset = 0;
  for (size_t part = 0; part < s.in.size(); ++part) {
    const float* src = c.p[s.in[part]];
    const int64_t ext = s.extents[part];
    for (int64_t ou = 0; ou < s.outer; ++ou) {
      std::copy(&src[ou * ext * s.inner], &src[(ou + 1) * ext * s.inner],
                &y[(ou * s.extent + offset) * s.inner]);
    }
    offset += ext;
  }
}

void RunSlice(ReplayCtx& c, const Step& s) {
  const float* a = c.p[s.in[0]];
  float* y = c.p[s.out];
  for (int64_t ou = 0; ou < s.outer; ++ou) {
    const float* src = &a[(ou * s.extent + s.start) * s.inner];
    std::copy(src, src + s.m * s.inner, &y[ou * s.m * s.inner]);
  }
}

void RunRandn(ReplayCtx& c, const Step& s) {
  float* y = c.p[s.out];
  for (int64_t i = 0; i < s.n; ++i) y[i] = c.rng->Normal(0.0f, s.f0);
}

void RunRand(ReplayCtx& c, const Step& s) {
  float* y = c.p[s.out];
  for (int64_t i = 0; i < s.n; ++i) y[i] = c.rng->Uniform(s.f0, s.f1);
}

void RunPlanGemm(ReplayCtx& c, const Step& s) {
  const float* a2 = s.in.size() > 1 ? c.p[s.in[1]] : nullptr;
  kernels::PlanGemm(s.m, s.n, s.k, c.p[s.in[0]], c.consts + s.c0, s.k2, a2,
                    s.c1 >= 0 ? c.consts + s.c1 : nullptr,
                    s.c2 >= 0 ? c.consts + s.c2 : nullptr,
                    static_cast<kernels::PlanAct>(s.iop), c.p[s.out], s.gpath);
}

void RunScaledSoftmax(ReplayCtx& c, const Step& s) {
  const float* mask = s.in.size() > 1 ? c.p[s.in[1]] : nullptr;
  kernels::ScaledMaskedSoftmaxRows(c.p[s.in[0]], mask, s.f0, s.f1, s.m, s.n,
                                   c.p[s.out]);
}

void RunLayerNorm(ReplayCtx& c, const Step& s) {
  kernels::LayerNormRows(c.p[s.in[0]], s.m, s.n, s.f0, c.p[s.out]);
}

void AssignRunner(Step& s) {
  switch (s.kind) {
    case K::kUnary:
      switch (static_cast<Un>(s.iop)) {
        case Un::kAddScalar: s.run = RunAddScalar; break;
        case Un::kMulScalar: s.run = RunMulScalar; break;
        case Un::kRelu: s.run = RunRelu; break;
        case Un::kTanh: s.run = RunTranscendental<kernels::TanhForward>; break;
        case Un::kSigmoid:
          s.run = RunTranscendental<kernels::SigmoidForward>;
          break;
        case Un::kExp: s.run = RunTranscendental<kernels::ExpForward>; break;
        case Un::kSquare: s.run = RunSquare; break;
        case Un::kSqrt: s.run = RunSqrt; break;
        case Un::kAbs: s.run = RunAbs; break;
        case Un::kClamp: s.run = RunClamp; break;
        case Un::kLogClamped: s.run = RunLogClamped; break;
      }
      break;
    case K::kBinary:
      switch (static_cast<Bin>(s.iop)) {
        case Bin::kAdd: s.run = RunAdd; break;
        case Bin::kSub: s.run = RunSub; break;
        case Bin::kMul: s.run = RunMul; break;
        case Bin::kDiv: s.run = RunDiv; break;
      }
      break;
    case K::kBroadcast:
      s.run = static_cast<Bin>(s.iop) == Bin::kAdd ? RunBroadcastAdd
                                                   : RunBroadcastMul;
      break;
    case K::kMatMul: s.run = RunMatMul; break;
    case K::kBatchMatMul: s.run = RunBatchMatMul; break;
    case K::kAffine: s.run = RunAffineGeneric; break;
    case K::kDualMatMul: s.run = RunDualGeneric; break;
    case K::kLstmC: s.run = RunLstmC; break;
    case K::kLstmH: s.run = RunLstmH; break;
    case K::kTranspose: s.run = RunTranspose; break;
    case K::kSoftmax: s.run = RunSoftmax; break;
    case K::kReduce: s.run = RunReduce; break;
    case K::kMaxAxis: s.run = RunMaxAxis; break;
    case K::kMaskedFill: s.run = RunMaskedFill; break;
    case K::kCopy: s.run = RunCopy; break;
    case K::kConcat: s.run = RunConcat; break;
    case K::kSlice: s.run = RunSlice; break;
    case K::kRandn: s.run = RunRandn; break;
    case K::kRand: s.run = RunRand; break;
    case K::kPlanGemm: s.run = RunPlanGemm; break;
    case K::kLstmCH: s.run = RunLstmCH; break;
    case K::kScaledSoftmax: s.run = RunScaledSoftmax; break;
    case K::kLayerNorm: s.run = RunLayerNorm; break;
  }
}

// --- Compiler ----------------------------------------------------------------

struct Analysis {
  std::vector<int> producer;    // slot -> step index (-1 = not produced)
  std::vector<int> consumers;   // slot -> number of consuming step inputs
};

Analysis Analyze(const std::vector<Step>& steps, size_t n_slots,
                 int result_slot) {
  Analysis a;
  a.producer.assign(n_slots, -1);
  a.consumers.assign(n_slots, 0);
  for (size_t i = 0; i < steps.size(); ++i) {
    for (int in : steps[i].in) a.consumers[in]++;
    if (steps[i].out >= 0) a.producer[steps[i].out] = static_cast<int>(i);
    if (steps[i].out2 >= 0) a.producer[steps[i].out2] = static_cast<int>(i);
  }
  if (result_slot >= 0) a.consumers[result_slot]++;
  return a;
}

bool IsUnary(const Step& s, Un op) {
  return s.kind == K::kUnary && static_cast<Un>(s.iop) == op;
}

/// True when b_shape broadcasts a per-row value over the last axis
/// (all leading dims equal, last dim 1).
bool RowBroadcast(const Shape& out_shape, const Shape& b_shape) {
  if (out_shape.empty() || out_shape.size() != b_shape.size()) return false;
  for (size_t d = 0; d + 1 < out_shape.size(); ++d) {
    if (b_shape[d] != out_shape[d]) return false;
  }
  return b_shape.back() == 1;
}

/// Fuses LstmCellC + LstmCellH over the same gates into one two-output step.
int64_t FuseLstmCH(std::vector<Step>& steps, std::vector<bool>& dead) {
  int64_t fused = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (dead[i] || steps[i].kind != K::kLstmC) continue;
    for (size_t j = i + 1; j < steps.size(); ++j) {
      if (dead[j] || steps[j].kind != K::kLstmH) continue;
      if (steps[j].in[0] != steps[i].in[0] || steps[j].in[1] != steps[i].out) {
        continue;
      }
      steps[i].kind = K::kLstmCH;
      steps[i].out2 = steps[j].out;
      dead[j] = true;
      ++fused;
      break;
    }
  }
  return fused;
}

/// Fuses MulScalar [∘ MaskedFill] ∘ Softmax into one kernel step.
int64_t FuseScaledSoftmax(std::vector<Step>& steps, std::vector<bool>& dead,
                          const std::vector<SlotDef>& slots, int result_slot) {
  int64_t fused = 0;
  Analysis a = Analyze(steps, slots.size(), result_slot);
  for (size_t i = 0; i < steps.size(); ++i) {
    if (dead[i] || steps[i].kind != K::kSoftmax) continue;
    Step& sm = steps[i];
    const int x = sm.in[0];
    int pd = a.producer[x];
    if (pd < 0 || dead[pd] || a.consumers[x] != 1) continue;
    int mask = -1;
    float fill = 0.0f;
    int scale_step = -1;
    if (steps[pd].kind == K::kMaskedFill) {
      const int y = steps[pd].in[0];
      mask = steps[pd].in[1];
      fill = steps[pd].f0;
      const int pm = a.producer[y];
      if (pm < 0 || dead[pm] || a.consumers[y] != 1 ||
          !IsUnary(steps[pm], Un::kMulScalar)) {
        continue;
      }
      scale_step = pm;
    } else if (IsUnary(steps[pd], Un::kMulScalar)) {
      scale_step = pd;
      pd = -1;
    } else {
      continue;
    }
    const int base = steps[scale_step].in[0];
    if (mask >= 0 && slots[mask].elems != slots[base].elems) continue;
    sm.kind = K::kScaledSoftmax;
    sm.in.clear();
    sm.in.push_back(base);
    if (mask >= 0) sm.in.push_back(mask);
    sm.f0 = steps[scale_step].f0;
    sm.f1 = fill;
    dead[scale_step] = true;
    ++fused;
    if (pd >= 0) {
      dead[pd] = true;
      ++fused;
    }
    a = Analyze(steps, slots.size(), result_slot);
  }
  return fused;
}

/// Fuses LayerNorm's 9-step normalize chain (MeanAxis → Neg → BroadcastAdd →
/// Square → MeanAxis → AddScalar(eps) → Sqrt → Div(ones, ·) → BroadcastMul)
/// into one kernel step.
int64_t FuseLayerNorm(std::vector<Step>& steps, std::vector<bool>& dead,
                      const std::vector<SlotDef>& slots, int result_slot) {
  int64_t fused = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (dead[i]) continue;
    Step& sbm = steps[i];
    if (sbm.kind != K::kBroadcast || static_cast<Bin>(sbm.iop) != Bin::kMul) {
      continue;
    }
    Analysis a = Analyze(steps, slots.size(), result_slot);
    const int centered = sbm.in[0];
    const int inv = sbm.in[1];
    const int pi = a.producer[inv];
    if (pi < 0 || dead[pi] || a.consumers[inv] != 1 ||
        steps[pi].kind != K::kBinary ||
        static_cast<Bin>(steps[pi].iop) != Bin::kDiv) {
      continue;
    }
    const int ones = steps[pi].in[0];
    const int sd = steps[pi].in[1];
    if (slots[ones].kind != SlotDef::kExternal) continue;
    {
      const internal::FloatBuffer& od = slots[ones].external->data;
      if (!std::all_of(od.begin(), od.end(),
                       [](float v) { return v == 1.0f; })) {
        continue;
      }
    }
    const int psd = a.producer[sd];
    if (psd < 0 || dead[psd] || a.consumers[sd] != 1 ||
        !IsUnary(steps[psd], Un::kSqrt)) {
      continue;
    }
    const int veps = steps[psd].in[0];
    const int pveps = a.producer[veps];
    if (pveps < 0 || dead[pveps] || a.consumers[veps] != 1 ||
        !IsUnary(steps[pveps], Un::kAddScalar)) {
      continue;
    }
    const float eps = steps[pveps].f0;
    const int var = steps[pveps].in[0];
    const int pvar = a.producer[var];
    if (pvar < 0 || dead[pvar] || a.consumers[var] != 1 ||
        steps[pvar].kind != K::kReduce || !steps[pvar].flag_a ||
        steps[pvar].inner != 1) {
      continue;
    }
    const int sq = steps[pvar].in[0];
    const int psq = a.producer[sq];
    if (psq < 0 || dead[psq] || a.consumers[sq] != 1 ||
        !IsUnary(steps[psq], Un::kSquare) || steps[psq].in[0] != centered) {
      continue;
    }
    const int pc = a.producer[centered];
    if (pc < 0 || dead[pc] || a.consumers[centered] != 2 ||
        steps[pc].kind != K::kBroadcast ||
        static_cast<Bin>(steps[pc].iop) != Bin::kAdd ||
        !RowBroadcast(steps[pc].out_shape, steps[pc].b_shape) ||
        !RowBroadcast(sbm.out_shape, sbm.b_shape)) {
      continue;
    }
    const int x = steps[pc].in[0];
    const int negmean = steps[pc].in[1];
    const int pneg = a.producer[negmean];
    if (pneg < 0 || dead[pneg] || a.consumers[negmean] != 1 ||
        !IsUnary(steps[pneg], Un::kMulScalar) || steps[pneg].f0 != -1.0f) {
      continue;
    }
    const int mean = steps[pneg].in[0];
    const int pmean = a.producer[mean];
    if (pmean < 0 || dead[pmean] || a.consumers[mean] != 1 ||
        steps[pmean].kind != K::kReduce || !steps[pmean].flag_a ||
        steps[pmean].inner != 1 || steps[pmean].in[0] != x) {
      continue;
    }
    const int64_t rows = steps[pmean].outer;
    const int64_t cols = steps[pmean].extent;
    if (steps[pvar].outer != rows || steps[pvar].extent != cols) continue;
    sbm.kind = K::kLayerNorm;
    sbm.in.clear();
    sbm.in.push_back(x);
    sbm.m = rows;
    sbm.n = cols;
    sbm.f0 = eps;
    for (int d : {pi, psd, pveps, pvar, psq, pc, pneg, pmean}) dead[d] = true;
    fused += 8;
  }
  return fused;
}

/// Converts Affine / DualMatMul / MatMul steps whose weights are external
/// into pre-packed PlanGemm steps, folding a single-consumer Relu / Tanh /
/// Sigmoid epilogue.
int64_t FuseGemmEpilogues(std::vector<Step>& steps, std::vector<bool>& dead,
                          std::vector<SlotDef>& slots, int result_slot,
                          internal::FloatBuffer& constants) {
  int64_t fused = 0;
  Analysis a = Analyze(steps, slots.size(), result_slot);
  // Weights pack into the layout of the GEMM path active at capture time —
  // resolved PER STEP via GemmPathForShape (sub-panel products pack for and
  // replay on the portable kernel; full-width ones for AVX-512). Each
  // kPlanGemm step records its path so replay reads the layout it was packed
  // for even if the global path is flipped afterwards.
  auto pack = [&constants](const SlotDef& slot, int64_t k, int64_t n,
                           kernels::GemmPath gpath) {
    const int64_t off = static_cast<int64_t>(constants.size());
    constants.resize(constants.size() +
                     static_cast<size_t>(kernels::PlanPackedSize(k, n, gpath)));
    kernels::PlanPackWeightFor(slot.external->data.data(), k, n, gpath,
                               constants.data() + off);
    return off;
  };
  auto pack_bias = [&constants](const SlotDef& slot, int64_t n,
                                kernels::GemmPath gpath) {
    const int64_t off = static_cast<int64_t>(constants.size());
    constants.resize(constants.size() +
                     static_cast<size_t>(kernels::PlanPackedBiasSize(n, gpath)));
    kernels::PlanPackBiasFor(slot.external->data.data(), n, gpath,
                             constants.data() + off);
    return off;
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    if (dead[i]) continue;
    Step& s = steps[i];
    const bool is_affine = s.kind == K::kAffine;
    const bool is_dual = s.kind == K::kDualMatMul;
    const bool is_matmul = s.kind == K::kMatMul;
    if (!is_affine && !is_dual && !is_matmul) continue;
    const int w1 = is_dual ? s.in[1] : s.in[1];
    if (slots[w1].kind != SlotDef::kExternal) continue;
    int w2 = -1, bias = -1;
    if (is_dual) {
      w2 = s.in[3];
      if (slots[w2].kind != SlotDef::kExternal) continue;
      if (s.in.size() > 4) bias = s.in[4];
    } else if (is_affine) {
      bias = s.in[2];
    }
    if (bias >= 0 && slots[bias].kind != SlotDef::kExternal) continue;
    // Fold a single-consumer activation into the epilogue.
    kernels::PlanAct act = kernels::PlanAct::kNone;
    if (s.out != result_slot && a.consumers[s.out] == 1) {
      for (size_t j = i + 1; j < steps.size(); ++j) {
        if (dead[j] || steps[j].kind != K::kUnary) continue;
        if (steps[j].in[0] != s.out) continue;
        const Un op = static_cast<Un>(steps[j].iop);
        if (op == Un::kRelu) act = kernels::PlanAct::kRelu;
        else if (op == Un::kTanh) act = kernels::PlanAct::kTanh;
        else if (op == Un::kSigmoid) act = kernels::PlanAct::kSigmoid;
        if (act != kernels::PlanAct::kNone) {
          s.out = steps[j].out;
          dead[j] = true;
          ++fused;
          a = Analyze(steps, slots.size(), result_slot);
        }
        break;
      }
    }
    const kernels::GemmPath gpath = kernels::GemmPathForShape(s.n);
    s.c0 = pack(slots[w1], s.k, s.n, gpath);
    if (w2 >= 0) s.c1 = pack(slots[w2], s.k2, s.n, gpath);
    if (bias >= 0) s.c2 = pack_bias(slots[bias], s.n, gpath);
    const int a1 = s.in[0];
    const int a2 = is_dual ? s.in[2] : -1;
    s.in.clear();
    s.in.push_back(a1);
    if (a2 >= 0) s.in.push_back(a2);
    s.kind = K::kPlanGemm;
    s.iop = static_cast<int>(act);
    s.gpath = gpath;
    if (!is_dual) s.k2 = 0;
    ++fused;  // the packed conversion itself removes the bias/pack traffic
  }
  return fused;
}

/// Reverse liveness sweep; rng-drawing steps are side-effecting and never
/// removed (they keep the replayed rng stream aligned with eager).
int64_t EliminateDeadSteps(std::vector<Step>& steps, std::vector<bool>& dead,
                           size_t n_slots, int result_slot) {
  std::vector<bool> needed(n_slots, false);
  if (result_slot >= 0) needed[result_slot] = true;
  int64_t eliminated = 0;
  for (size_t ri = steps.size(); ri-- > 0;) {
    if (dead[ri]) continue;
    Step& s = steps[ri];
    const bool side_effect = s.kind == K::kRandn || s.kind == K::kRand;
    const bool live = side_effect || (s.out >= 0 && needed[s.out]) ||
                      (s.out2 >= 0 && needed[s.out2]);
    if (!live) {
      dead[ri] = true;
      ++eliminated;
      continue;
    }
    for (int in : s.in) needed[in] = true;
  }
  return eliminated;
}

/// Pads a slot's element count so distinct arena blocks stay 64-byte
/// aligned relative to the arena base.
int64_t PadElems(int64_t elems) { return (elems + 15) & ~int64_t{15}; }

/// Last-use liveness scan assigning every arena slot an offset, reusing
/// freed blocks of the same padded size.
int64_t AssignArena(std::vector<Step>& steps, std::vector<SlotDef>& slots,
                    int result_slot) {
  const int n_slots = static_cast<int>(slots.size());
  std::vector<int> last_use(n_slots, -1);
  for (size_t i = 0; i < steps.size(); ++i) {
    for (int in : steps[i].in) last_use[in] = static_cast<int>(i);
    if (steps[i].out >= 0) {
      last_use[steps[i].out] =
          std::max(last_use[steps[i].out], static_cast<int>(i));
    }
    if (steps[i].out2 >= 0) {
      last_use[steps[i].out2] =
          std::max(last_use[steps[i].out2], static_cast<int>(i));
    }
  }
  if (result_slot >= 0) last_use[result_slot] = static_cast<int>(steps.size());
  std::map<int64_t, std::vector<int64_t>> free_by_size;
  int64_t watermark = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    for (int out : {steps[i].out, steps[i].out2}) {
      if (out < 0 || slots[out].kind != SlotDef::kArena) continue;
      const int64_t sz = PadElems(slots[out].elems);
      auto& freelist = free_by_size[sz];
      if (!freelist.empty()) {
        slots[out].arena_off = freelist.back();
        freelist.pop_back();
      } else {
        slots[out].arena_off = watermark;
        watermark += sz;
      }
    }
    // Free blocks whose last use is this step (inputs and never-read
    // outputs), after the step's own outputs are placed.
    std::vector<int> dying;
    for (int in : steps[i].in) {
      if (slots[in].kind == SlotDef::kArena &&
          last_use[in] == static_cast<int>(i)) {
        dying.push_back(in);
      }
    }
    for (int out : {steps[i].out, steps[i].out2}) {
      if (out >= 0 && slots[out].kind == SlotDef::kArena &&
          last_use[out] == static_cast<int>(i)) {
        dying.push_back(out);
      }
    }
    std::sort(dying.begin(), dying.end());
    dying.erase(std::unique(dying.begin(), dying.end()), dying.end());
    for (int slot : dying) {
      free_by_size[PadElems(slots[slot].elems)].push_back(
          slots[slot].arena_off);
    }
  }
  return watermark;
}

std::shared_ptr<const CompiledPlan> Compile(Recorder& rec,
                                            const Tensor& result,
                                            size_t n_inputs,
                                            std::string* error) {
  auto it = rec.by_impl.find(result.impl().get());
  if (it == rec.by_impl.end() ||
      rec.slots[it->second].kind != SlotDef::kArena) {
    *error = "result is not produced by a recorded step";
    return nullptr;
  }
  const int result_slot = it->second;

  auto plan = std::make_shared<CompiledPlan>();
  plan->slots = std::move(rec.slots);
  plan->steps = std::move(rec.steps);
  plan->result_slot = result_slot;
  plan->result_shape = result.shape();
  plan->n_inputs = n_inputs;

  std::vector<bool> dead(plan->steps.size(), false);
  plan->fused_steps += FuseLayerNorm(plan->steps, dead, plan->slots, result_slot);
  plan->fused_steps +=
      FuseScaledSoftmax(plan->steps, dead, plan->slots, result_slot);
  plan->fused_steps += FuseLstmCH(plan->steps, dead);
  plan->fused_steps += FuseGemmEpilogues(plan->steps, dead, plan->slots,
                                         result_slot, plan->constants);
  plan->eliminated_steps =
      EliminateDeadSteps(plan->steps, dead, plan->slots.size(), result_slot);

  std::vector<Step> live;
  live.reserve(plan->steps.size());
  for (size_t i = 0; i < plan->steps.size(); ++i) {
    if (!dead[i]) live.push_back(std::move(plan->steps[i]));
  }
  plan->steps = std::move(live);

  plan->slots[result_slot].kind = SlotDef::kResult;
  plan->arena_elems = AssignArena(plan->steps, plan->slots, result_slot);
  for (Step& s : plan->steps) AssignRunner(s);
  return plan;
}

}  // namespace

// --- CacheStats --------------------------------------------------------------

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  plans += o.plans;
  hits += o.hits;
  misses += o.misses;
  captures += o.captures;
  aborted += o.aborted;
  fused_steps += o.fused_steps;
  eliminated_steps += o.eliminated_steps;
  arena_bytes += o.arena_bytes;
  constant_bytes += o.constant_bytes;
  return *this;
}

// --- Mode --------------------------------------------------------------------

void SetMode(Mode mode) {
  g_mode_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

Mode EffectiveMode() {
  const Mode o =
      static_cast<Mode>(g_mode_override.load(std::memory_order_relaxed));
  return o == Mode::kAuto ? EnvMode() : o;
}

// --- PlanCache ---------------------------------------------------------------

namespace internal_plan {

struct CacheState {
  mutable support::Mutex mu;
  struct Entry {
    std::shared_ptr<const CompiledPlan> plan;
    bool unplannable = false;
    bool capturing = false;
    uint64_t last_used = 0;
  };
  std::map<std::string, Entry> entries ADAPTRAJ_GUARDED_BY(mu);
  uint64_t tick ADAPTRAJ_GUARDED_BY(mu) = 0;
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> captures{0};
  std::atomic<int64_t> aborted{0};
};

}  // namespace internal_plan

using internal_plan::CacheState;

PlanCache::PlanCache() : state_(std::make_unique<CacheState>()) {}
PlanCache::~PlanCache() = default;

CacheStats PlanCache::stats() const {
  CacheStats s;
  s.hits = state_->hits.load(std::memory_order_relaxed);
  s.misses = state_->misses.load(std::memory_order_relaxed);
  s.captures = state_->captures.load(std::memory_order_relaxed);
  s.aborted = state_->aborted.load(std::memory_order_relaxed);
  support::MutexLock lock(state_->mu);
  for (const auto& [key, entry] : state_->entries) {
    (void)key;
    if (entry.plan == nullptr) continue;
    s.plans++;
    s.fused_steps += entry.plan->fused_steps;
    s.eliminated_steps += entry.plan->eliminated_steps;
    s.arena_bytes += entry.plan->arena_elems * static_cast<int64_t>(sizeof(float));
    s.constant_bytes += static_cast<int64_t>(entry.plan->constants.size()) *
                        static_cast<int64_t>(sizeof(float));
  }
  return s;
}

void PlanCache::Invalidate() {
  support::MutexLock lock(state_->mu);
  // Entries mid-capture keep their marker; the capturing session's Finish
  // still runs and stores a plan compiled from post-mutation values, which
  // is exactly what the caller wants after an in-place update.
  for (auto it = state_->entries.begin(); it != state_->entries.end();) {
    if (it->second.capturing) {
      it->second.plan = nullptr;
      it->second.unplannable = false;
      ++it;
    } else {
      it = state_->entries.erase(it);
    }
  }
}

// --- PredictSession ----------------------------------------------------------

namespace internal_plan {

struct SessionState {
  PlanCache* cache = nullptr;
  std::string key;
  std::vector<const Tensor*> inputs;
  Rng* rng = nullptr;
  Mode mode = Mode::kOff;
  std::shared_ptr<const CompiledPlan> replay_plan;  // kOn fast path
  std::shared_ptr<const CompiledPlan> verify_plan;  // kVerify check path
  std::unique_ptr<Rng> verify_rng;  // snapshot taken before the eager body
  std::unique_ptr<Recorder> recorder;
  bool counted = false;
};

}  // namespace internal_plan

using internal_plan::SessionState;

PredictSession::PredictSession(PlanCache* cache, std::string key,
                               std::vector<const Tensor*> inputs, Rng* rng)
    : state_(std::make_unique<SessionState>()) {
  state_->cache = cache;
  state_->key = std::move(key);
  state_->inputs = std::move(inputs);
  state_->rng = rng;
  state_->mode = EffectiveMode();
  if (state_->mode == Mode::kOff || cache == nullptr) return;
  // Nested captures (a Predict called from inside a recorded Predict) stay
  // eager: the outer recording owns the thread.
  if (g_recorder != nullptr) return;
  // Two input positions sharing one impl would collapse to one slot and
  // rebind ambiguously on replay; such calls stay eager.
  {
    std::unordered_map<const TensorImpl*, int> seen;
    for (const Tensor* t : state_->inputs) {
      if (t == nullptr || !t->defined()) continue;
      if (++seen[t->impl().get()] > 1) return;
    }
  }

  CacheState* cs = cache->state_.get();
  support::MutexLock lock(cs->mu);
  auto& entry = cs->entries[state_->key];
  entry.last_used = ++cs->tick;
  if (entry.plan != nullptr) {
    if (state_->mode == Mode::kOn) {
      state_->replay_plan = entry.plan;
    } else {  // kVerify: run eager AND replay, then compare
      state_->verify_plan = entry.plan;
      if (rng != nullptr) state_->verify_rng = std::make_unique<Rng>(*rng);
    }
    return;
  }
  if (entry.unplannable || entry.capturing) {
    cs->misses.fetch_add(1, std::memory_order_relaxed);
    state_->counted = true;
    return;
  }
  entry.capturing = true;
  state_->recorder = std::make_unique<Recorder>();
  for (size_t i = 0; i < state_->inputs.size(); ++i) {
    const Tensor* t = state_->inputs[i];
    if (t == nullptr || !t->defined()) continue;
    SlotDef def;
    def.kind = SlotDef::kInput;
    def.elems = t->size();
    def.input_index = static_cast<int>(i);
    const int id = static_cast<int>(state_->recorder->slots.size());
    state_->recorder->slots.push_back(std::move(def));
    state_->recorder->by_impl.emplace(t->impl().get(), id);
    state_->recorder->retain.push_back(t->impl());
  }
  g_recorder = state_->recorder.get();
}

PredictSession::~PredictSession() {
  if (state_->recorder != nullptr &&
      g_recorder == state_->recorder.get()) {
    // Finish never ran (exception or early return): release the capture
    // marker so a later call can retry.
    g_recorder = nullptr;
    CacheState* cs = state_->cache->state_.get();
    support::MutexLock lock(cs->mu);
    auto it = cs->entries.find(state_->key);
    if (it != cs->entries.end()) it->second.capturing = false;
    cs->aborted.fetch_add(1, std::memory_order_relaxed);
  }
}

bool PredictSession::CanReplay() const {
  return state_->replay_plan != nullptr;
}

Tensor PredictSession::Replay() {
  ADAPTRAJ_CHECK_MSG(state_->replay_plan != nullptr,
                     "PredictSession::Replay without a plan");
  state_->cache->state_->hits.fetch_add(1, std::memory_order_relaxed);
  return state_->replay_plan->Execute(state_->inputs, state_->rng);
}

Tensor PredictSession::Finish(Tensor eager_result) {
  SessionState& st = *state_;
  if (st.recorder != nullptr && g_recorder == st.recorder.get()) {
    g_recorder = nullptr;
    Recorder& rec = *st.recorder;
    std::string error = rec.abort_reason;
    std::shared_ptr<const CompiledPlan> plan;
    if (!rec.aborted && rec.op_outputs != rec.op_steps) {
      error = "op without a recording hook ran during capture";
    } else if (!rec.aborted && eager_result.defined()) {
      plan = Compile(rec, eager_result, st.inputs.size(), &error);
    } else if (!rec.aborted) {
      error = "undefined result tensor";
    }
    CacheState* cs = st.cache->state_.get();
    support::MutexLock lock(cs->mu);
    auto& entry = cs->entries[st.key];
    entry.capturing = false;
    if (plan != nullptr) {
      entry.plan = std::move(plan);
      cs->captures.fetch_add(1, std::memory_order_relaxed);
      // LRU eviction beyond the cap (never entries mid-capture).
      while (cs->entries.size() > kMaxPlans) {
        auto victim = cs->entries.end();
        for (auto it = cs->entries.begin(); it != cs->entries.end(); ++it) {
          if (it->second.capturing || &it->second == &entry) continue;
          if (victim == cs->entries.end() ||
              it->second.last_used < victim->second.last_used) {
            victim = it;
          }
        }
        if (victim == cs->entries.end()) break;
        cs->entries.erase(victim);
      }
    } else {
      entry.unplannable = true;
      cs->aborted.fetch_add(1, std::memory_order_relaxed);
    }
    if (!st.counted) cs->misses.fetch_add(1, std::memory_order_relaxed);
    st.recorder.reset();
    return eager_result;
  }
  if (st.verify_plan != nullptr) {
    Tensor replayed = st.verify_plan->Execute(st.inputs, st.verify_rng.get());
    ADAPTRAJ_CHECK_MSG(
        replayed.defined() && eager_result.defined() &&
            replayed.size() == eager_result.size() &&
            std::memcmp(replayed.data(), eager_result.data(),
                        static_cast<size_t>(replayed.size()) *
                            sizeof(float)) == 0,
        "ADAPTRAJ_PLAN=verify: replayed Predict diverged from eager for key "
            << st.key);
    ADAPTRAJ_CHECK_MSG(
        st.rng == nullptr ||
            st.verify_rng->engine() == st.rng->engine(),
        "ADAPTRAJ_PLAN=verify: replayed rng stream diverged for key "
            << st.key);
    st.cache->state_->hits.fetch_add(1, std::memory_order_relaxed);
    return eager_result;
  }
  if (st.mode != Mode::kOff && st.cache != nullptr && !st.counted) {
    st.cache->state_->misses.fetch_add(1, std::memory_order_relaxed);
    st.counted = true;
  }
  return eager_result;
}

// --- Recording hooks ---------------------------------------------------------

bool Recording() { return ActiveRecorder() != nullptr; }

namespace {

/// Appends a step for an op output; returns null when not recording.
Recorder* BeginOpStep(const Tensor& out) {
  Recorder* r = ActiveRecorder();
  if (r == nullptr) return nullptr;
  if (!out.defined()) {
    r->Abort("op produced an undefined tensor");
    return nullptr;
  }
  r->op_steps++;
  return r;
}

}  // namespace

void RecordUnary(Un op, const Tensor& a, const Tensor& out, float p0,
                 float p1) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kUnary;
  s.iop = static_cast<int>(op);
  s.in.push_back(r->SlotOfValue(a));
  s.out = r->SlotOfOutput(out);
  s.n = out.size();
  s.f0 = p0;
  s.f1 = p1;
  r->steps.push_back(std::move(s));
}

void RecordBinary(Bin op, const Tensor& a, const Tensor& b,
                  const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kBinary;
  s.iop = static_cast<int>(op);
  s.in = {r->SlotOfValue(a), r->SlotOfValue(b)};
  s.out = r->SlotOfOutput(out);
  s.n = out.size();
  r->steps.push_back(std::move(s));
}

void RecordBroadcast(Bin op, const Tensor& a, const Tensor& b,
                     const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kBroadcast;
  s.iop = static_cast<int>(op);
  s.in = {r->SlotOfValue(a), r->SlotOfValue(b)};
  s.out = r->SlotOfOutput(out);
  s.n = out.size();
  s.out_shape = out.shape();
  s.b_shape = b.shape();
  r->steps.push_back(std::move(s));
}

void RecordMatMul(const Tensor& a, const Tensor& b, const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kMatMul;
  s.in = {r->SlotOfValue(a), r->SlotOfValue(b)};
  s.out = r->SlotOfOutput(out);
  s.m = a.shape()[0];
  s.k = a.shape()[1];
  s.n = b.shape()[1];
  r->steps.push_back(std::move(s));
}

void RecordBatchMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                       bool trans_b, const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kBatchMatMul;
  s.in = {r->SlotOfValue(a), r->SlotOfValue(b)};
  s.out = r->SlotOfOutput(out);
  s.outer = a.shape()[0];
  s.m = trans_a ? a.shape()[2] : a.shape()[1];
  s.k = trans_a ? a.shape()[1] : a.shape()[2];
  s.n = trans_b ? b.shape()[1] : b.shape()[2];
  s.flag_a = trans_a;
  s.flag_b = trans_b;
  r->steps.push_back(std::move(s));
}

void RecordAffine(const Tensor& a, const Tensor& w, const Tensor& bias,
                  const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kAffine;
  s.in = {r->SlotOfValue(a), r->SlotOfValue(w), r->SlotOfValue(bias)};
  s.out = r->SlotOfOutput(out);
  s.m = a.shape()[0];
  s.k = a.shape()[1];
  s.n = w.shape()[1];
  r->steps.push_back(std::move(s));
}

void RecordDualMatMul(const Tensor& a, const Tensor& wa, const Tensor& b,
                      const Tensor& wb, const Tensor* bias,
                      const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kDualMatMul;
  s.in = {r->SlotOfValue(a), r->SlotOfValue(wa), r->SlotOfValue(b),
          r->SlotOfValue(wb)};
  if (bias != nullptr) s.in.push_back(r->SlotOfValue(*bias));
  s.out = r->SlotOfOutput(out);
  s.m = a.shape()[0];
  s.k = a.shape()[1];
  s.k2 = b.shape()[1];
  s.n = wa.shape()[1];
  r->steps.push_back(std::move(s));
}

void RecordLstmCellC(const Tensor& gates, const Tensor& c_prev,
                     const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kLstmC;
  s.in = {r->SlotOfValue(gates), r->SlotOfValue(c_prev)};
  s.out = r->SlotOfOutput(out);
  s.m = gates.shape()[0];
  s.n = c_prev.shape()[1];
  r->steps.push_back(std::move(s));
}

void RecordLstmCellH(const Tensor& gates, const Tensor& c_next,
                     const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kLstmH;
  s.in = {r->SlotOfValue(gates), r->SlotOfValue(c_next)};
  s.out = r->SlotOfOutput(out);
  s.m = gates.shape()[0];
  s.n = c_next.shape()[1];
  r->steps.push_back(std::move(s));
}

void RecordTranspose(const Tensor& a, const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kTranspose;
  s.in = {r->SlotOfValue(a)};
  s.out = r->SlotOfOutput(out);
  s.m = a.shape()[0];
  s.n = a.shape()[1];
  r->steps.push_back(std::move(s));
}

void RecordSoftmax(const Tensor& a, const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kSoftmax;
  s.in = {r->SlotOfValue(a)};
  s.out = r->SlotOfOutput(out);
  s.n = a.shape().back();
  s.m = s.n == 0 ? 0 : a.size() / s.n;
  r->steps.push_back(std::move(s));
}

void RecordReduceAxis(bool mean, int64_t outer, int64_t extent, int64_t inner,
                      const Tensor& a, const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kReduce;
  s.in = {r->SlotOfValue(a)};
  s.out = r->SlotOfOutput(out);
  s.outer = outer;
  s.extent = extent;
  s.inner = inner;
  s.flag_a = mean;
  s.f0 = mean ? 1.0f / static_cast<float>(extent) : 1.0f;
  r->steps.push_back(std::move(s));
}

void RecordMaxAxis(int64_t outer, int64_t extent, int64_t inner,
                   const Tensor& a, const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kMaxAxis;
  s.in = {r->SlotOfValue(a)};
  s.out = r->SlotOfOutput(out);
  s.outer = outer;
  s.extent = extent;
  s.inner = inner;
  r->steps.push_back(std::move(s));
}

void RecordMaskedFill(const Tensor& a, const Tensor& mask, float value,
                      const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kMaskedFill;
  s.in = {r->SlotOfValue(a), r->SlotOfValue(mask)};
  s.out = r->SlotOfOutput(out);
  s.n = out.size();
  s.f0 = value;
  r->steps.push_back(std::move(s));
}

void RecordCopy(const Tensor& a, const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kCopy;
  s.in = {r->SlotOfValue(a)};
  s.out = r->SlotOfOutput(out);
  s.n = out.size();
  r->steps.push_back(std::move(s));
}

void RecordConcat(const std::vector<Tensor>& parts, int64_t outer,
                  int64_t inner, const std::vector<int64_t>& extents,
                  const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kConcat;
  for (const Tensor& t : parts) s.in.push_back(r->SlotOfValue(t));
  s.out = r->SlotOfOutput(out);
  s.outer = outer;
  s.inner = inner;
  s.extents = extents;
  s.extent = 0;
  for (int64_t e : extents) s.extent += e;
  r->steps.push_back(std::move(s));
}

void RecordSlice(const Tensor& a, int64_t outer, int64_t inner,
                 int64_t in_extent, int64_t out_extent, int64_t start,
                 const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  Step s;
  s.kind = K::kSlice;
  s.in = {r->SlotOfValue(a)};
  s.out = r->SlotOfOutput(out);
  s.outer = outer;
  s.inner = inner;
  s.extent = in_extent;
  s.m = out_extent;
  s.start = start;
  r->steps.push_back(std::move(s));
}

void RecordStack(const std::vector<Tensor>& parts, const Tensor& out) {
  Recorder* r = BeginOpStep(out);
  if (r == nullptr) return;
  // Stack is Concat along a new leading axis: outer == 1, unit extents.
  Step s;
  s.kind = K::kConcat;
  const int64_t block = parts.empty() ? 0 : parts[0].size();
  for (const Tensor& t : parts) {
    s.in.push_back(r->SlotOfValue(t));
    s.extents.push_back(1);
  }
  s.out = r->SlotOfOutput(out);
  s.outer = 1;
  s.inner = block;
  s.extent = static_cast<int64_t>(parts.size());
  r->steps.push_back(std::move(s));
}

void RecordRandn(const Tensor& out, float stddev) {
  Recorder* r = ActiveRecorder();
  if (r == nullptr) return;
  Step s;
  s.kind = K::kRandn;
  s.out = r->SlotOfOutput(out);
  s.n = out.size();
  s.f0 = stddev;
  r->steps.push_back(std::move(s));
}

void RecordRand(const Tensor& out, float lo, float hi) {
  Recorder* r = ActiveRecorder();
  if (r == nullptr) return;
  Step s;
  s.kind = K::kRand;
  s.out = r->SlotOfOutput(out);
  s.n = out.size();
  s.f0 = lo;
  s.f1 = hi;
  r->steps.push_back(std::move(s));
}

void RecordDetach(const Tensor& a, const Tensor& out) {
  Recorder* r = ActiveRecorder();
  if (r == nullptr) return;
  Step s;
  s.kind = K::kCopy;
  s.in = {r->SlotOfValue(a)};
  s.out = r->SlotOfOutput(out);
  s.n = out.size();
  r->steps.push_back(std::move(s));
}

void NoteOpOutput(bool track) {
  Recorder* r = ActiveRecorder();
  if (r == nullptr) return;
  r->op_outputs++;
  if (track && GradMode::IsEnabled()) {
    r->Abort("grad-mode op during capture");
  }
}

void NoteBackwardCall() {
  Recorder* r = ActiveRecorder();
  if (r == nullptr) return;
  r->Abort("Backward() during capture");
}

}  // namespace plan
}  // namespace adaptraj
