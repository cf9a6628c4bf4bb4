// Baseline learning methods from the paper's evaluation:
//   vanilla      - the backbone trained on pooled source data (Eq. 8 only)
//   Counter      - counterfactual analysis removing external-factor
//                  dependence (Chen et al., ICCV 2021)
//   CausalMotion - single-source invariance-loss method (Liu et al., CVPR
//                  2022), reproduced with a V-REx-style cross-domain risk
//                  variance penalty (see DESIGN.md substitutions)

#ifndef ADAPTRAJ_CORE_BASELINES_H_
#define ADAPTRAJ_CORE_BASELINES_H_

#include <memory>
#include <vector>

#include "core/method.h"
#include "models/backbone.h"

namespace adaptraj {
namespace core {

/// Returns a copy of `batch` with every neighbor masked out (the
/// counterfactual scene in which external factors are absent).
data::Batch CounterfactualBatch(const data::Batch& batch);

/// Backbone trained on pooled multi-source data with its own loss.
class VanillaMethod : public Method {
 public:
  VanillaMethod(models::BackboneKind kind, const models::BackboneConfig& config,
                uint64_t init_seed);

  std::string name() const override { return "vanilla"; }
  void Train(const data::DomainGeneralizationData& dgd,
             const TrainConfig& config) override;
  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override;
  int64_t predict_encode_width() const override;
  Tensor PredictEncode(const data::Batch& batch) const override;
  Tensor PredictDecode(const data::Batch& batch, const Tensor& enc_rows, Rng* rng,
                       bool sample) const override;
  bool reentrant_predict() const override { return backbone_->reentrant_predict(); }
  std::unique_ptr<Method> CloneForServing() const override;

  models::Backbone& backbone() { return *backbone_; }
  const models::Backbone& backbone() const { return *backbone_; }

 private:
  models::BackboneKind kind_;
  models::BackboneConfig config_;
  uint64_t init_seed_;
  std::unique_ptr<models::Backbone> backbone_;
  /// Cached scene-parallel training replicas (see MakeBackboneSlots).
  std::vector<std::unique_ptr<models::Backbone>> train_replicas_;
};

/// Counterfactual baseline: both training and inference replace the scene
/// with its counterfactual (neighbors removed), so predictions depend only
/// on the focal agent's own history. This removes environment bias at the
/// cost of all legitimate interaction signal - the failure mode the paper
/// demonstrates in multi-source settings (Tabs. III-IV).
class CounterMethod : public Method {
 public:
  CounterMethod(models::BackboneKind kind, const models::BackboneConfig& config,
                uint64_t init_seed);

  std::string name() const override { return "Counter"; }
  void Train(const data::DomainGeneralizationData& dgd,
             const TrainConfig& config) override;
  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override;
  int64_t predict_encode_width() const override;
  /// Counter encodes the counterfactual scene (neighbors zeroed), so the
  /// encoder output never depends on the batch's neighbor fields: a content
  /// cache can key on the focal history alone.
  bool encode_reads_neighbors() const override { return false; }
  Tensor PredictEncode(const data::Batch& batch) const override;
  Tensor PredictDecode(const data::Batch& batch, const Tensor& enc_rows, Rng* rng,
                       bool sample) const override;
  bool reentrant_predict() const override { return backbone_->reentrant_predict(); }
  std::unique_ptr<Method> CloneForServing() const override;

 private:
  models::BackboneKind kind_;
  models::BackboneConfig config_;
  uint64_t init_seed_;
  std::unique_ptr<models::Backbone> backbone_;
  /// Cached scene-parallel training replicas (see MakeBackboneSlots).
  std::vector<std::unique_ptr<models::Backbone>> train_replicas_;
};

/// Invariance-loss baseline: per-domain empirical risks plus a strong
/// penalty on their variance across source domains. With a single source
/// the penalty vanishes; with several sources it suppresses domain-specific
/// signal and induces the negative-transfer degradation of Tab. III.
class CausalMotionMethod : public Method {
 public:
  CausalMotionMethod(models::BackboneKind kind, const models::BackboneConfig& config,
                     uint64_t init_seed, float invariance_weight = 10.0f);

  std::string name() const override { return "CausalMotion"; }
  void Train(const data::DomainGeneralizationData& dgd,
             const TrainConfig& config) override;
  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override;
  int64_t predict_encode_width() const override;
  Tensor PredictEncode(const data::Batch& batch) const override;
  Tensor PredictDecode(const data::Batch& batch, const Tensor& enc_rows, Rng* rng,
                       bool sample) const override;
  bool reentrant_predict() const override { return backbone_->reentrant_predict(); }
  std::unique_ptr<Method> CloneForServing() const override;

 private:
  models::BackboneKind kind_;
  models::BackboneConfig config_;
  uint64_t init_seed_;
  std::unique_ptr<models::Backbone> backbone_;
  /// Cached scene-parallel training replicas (see MakeBackboneSlots).
  std::vector<std::unique_ptr<models::Backbone>> train_replicas_;
  float invariance_weight_;
};

}  // namespace core
}  // namespace adaptraj

#endif  // ADAPTRAJ_CORE_BASELINES_H_
