// Learning-method interface: a trained predictor the evaluation harness can
// query, plus the shared training configuration.

#ifndef ADAPTRAJ_CORE_METHOD_H_
#define ADAPTRAJ_CORE_METHOD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "data/batch.h"
#include "data/multi_domain.h"
#include "tensor/plan.h"

namespace adaptraj {
namespace core {

/// Optimization settings shared by every learning method.
struct TrainConfig {
  float lr = 3e-3f;
  int epochs = 24;
  int batch_size = 32;
  /// Caps batches per epoch (0 = full pass); keeps benches fast.
  int max_batches_per_epoch = 0;
  float grad_clip = 5.0f;
  uint64_t seed = 7;
  /// Micro-batches whose gradients are summed (in fixed micro-batch order)
  /// into one optimizer step by core::ParallelTrainer. This is the scene-
  /// level parallelism width: up to ADAPTRAJ_TRAIN_WORKERS of these
  /// micro-batches run concurrently, but the trained weights depend only on
  /// this value — never on the worker count. 1 reproduces the serial
  /// step-per-batch schedule.
  int accum_steps = 4;
};

/// A trained trajectory predictor. The built-in methods derive from
/// core::BackboneMethod (core/backbone_method.h), which wraps a backbone and
/// the method's recipe (e.g. Counter's counterfactual masking, AdapTraj's
/// feature extraction).
class Method {
 public:
  virtual ~Method() = default;

  /// Method name as printed in the paper's tables ("vanilla", "Counter",
  /// "CausalMotion", "AdapTraj").
  virtual std::string name() const = 0;

  /// Trains on the source domains of `dgd` (never touches the target).
  virtual void Train(const data::DomainGeneralizationData& dgd,
                     const TrainConfig& config) = 0;

  /// Predicts future displacements [B, pred_len*2] for an arbitrary batch.
  /// With `sample` set, draws one of the multi-modal futures.
  ///
  /// Inference contract: the body runs under NoGradGuard — no autograd graph
  /// is recorded and the outputs are bit-identical to a grad-mode forward
  /// pass (asserted by tests/core/test_inference_mode.cpp). Methods with the
  /// encode/decode split define it as the composition of the two halves.
  virtual Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const = 0;

  // --- Encode/decode split (cross-request encoder caching) -------------------
  //
  // Methods that split at the backbone's Encode seam expose the two halves
  // so serve::InferenceEngine's encoder cache (serve/encode_cache.h) can
  // gather cached encoder rows and run Encode only for the rows it has
  // never seen. Such a method's Predict is, for any batch and rng,
  //
  //   Predict(batch, rng, sample)
  //       == PredictDecode(batch, PredictEncode(batch), rng, sample)
  //
  // (BackboneMethod::Predict is literally that call), and PredictEncode is
  // rng-free with row r a pure function of row r's input bytes (at a fixed
  // neighbor-slot width M), so rows computed in different batches are
  // interchangeable. All rng draws happen in the decode half.

  /// Column count of PredictEncode's packed output (hidden_dim +
  /// social_dim for the built-in methods). 0 — the default — means the
  /// method does not support the split; callers must use Predict.
  virtual int64_t predict_encode_width() const { return 0; }

  /// False when the encoder ignores the batch's neighbor fields (Counter
  /// encodes the counterfactual scene), letting a content cache key on the
  /// focal history alone.
  virtual bool encode_reads_neighbors() const { return true; }

  /// Encoder half: packed per-scene rows [B, predict_encode_width()].
  virtual Tensor PredictEncode(const data::Batch& batch) const {
    (void)batch;
    ADAPTRAJ_CHECK_MSG(false, "PredictEncode on a method without the "
                              "encode/decode split (predict_encode_width() == 0)");
    return Tensor();
  }

  /// Decoder half over precomputed (possibly cache-gathered) encoder rows.
  virtual Tensor PredictDecode(const data::Batch& batch, const Tensor& enc_rows,
                               Rng* rng, bool sample) const {
    (void)batch;
    (void)enc_rows;
    (void)rng;
    (void)sample;
    ADAPTRAJ_CHECK_MSG(false, "PredictDecode on a method without the "
                              "encode/decode split (predict_encode_width() == 0)");
    return Tensor();
  }

  /// Monotone counter bumped by every Train(): lets a serving-side cache
  /// detect in-place weight mutation of a live method and drop entries
  /// computed under the old weights. Structural copies (CloneForServing)
  /// start at 0 — version values are comparable only on one instance.
  int64_t weights_version() const {
    return weights_version_.load(std::memory_order_acquire);
  }

  /// True when concurrent Predict() calls on this instance are safe. Every
  /// built-in method is: forward passes only read parameters and allocate
  /// from thread-local pools. The contract stays for external methods.
  /// serve::InferenceEngine runs non-reentrant methods on private replicas
  /// (CloneForServing) — or one batch at a time when the method is not
  /// clonable.
  virtual bool reentrant_predict() const { return true; }

  /// Builds an independent serving replica: a structurally identical model
  /// tree constructed from the same configuration, with this method's
  /// current parameter values copied in (Module::CopyParametersFrom) and
  /// left in inference mode. Replica predictions are bit-identical to the
  /// original's — construction seeds only decide initial weights, which the
  /// parameter copy overwrites — so serve::ReplicaPool can run a
  /// non-reentrant Predict on several batches concurrently, each on a
  /// private copy, and SwapWeights can build its standby. Returns nullptr
  /// when the method cannot be replicated; the built-in methods all can, the
  /// default covers external subclasses. Clones start with an empty plan
  /// cache, so a serving swap can never replay a plan holding the pre-swap
  /// weights.
  virtual std::unique_ptr<Method> CloneForServing() const { return nullptr; }

  /// Telemetry for this instance's execution-plan cache (tensor/plan.h).
  plan::CacheStats plan_stats() const { return plan_cache_.stats(); }

 protected:
  /// Per-instance plan store. The encode and decode halves drive it through
  /// plan::PredictSession (core/predict_plan.h keys it by half and shape);
  /// anything that mutates parameters in place — Train, a checkpoint load
  /// into a live method — must call plan_cache_.Invalidate(), because fused
  /// GEMM steps pack weight values into the compiled plan at capture time.
  /// Internally synchronized (its CacheState holds the annotated mutex —
  /// see tensor/plan.cpp), so no ADAPTRAJ_GUARDED_BY here: concurrent
  /// Predicts on a reentrant method share it safely.
  mutable plan::PlanCache plan_cache_;

  /// Called beside plan_cache_.Invalidate() wherever parameters mutate in
  /// place (BackboneMethod::Train): advances weights_version().
  void BumpWeightsVersion() {
    weights_version_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  /// Lock-free by design (read on every cached serving batch, written only
  /// by Train); the Clang thread-safety analysis treats std::atomic as
  /// unguarded, so there is deliberately no ADAPTRAJ_GUARDED_BY — the
  /// acquire/release pairing above is TSan-checked instead.
  std::atomic<int64_t> weights_version_{0};
};

}  // namespace core
}  // namespace adaptraj

#endif  // ADAPTRAJ_CORE_METHOD_H_
