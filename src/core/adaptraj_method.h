// AdapTraj learning method: the plug-and-play framework trained with the
// three-step procedure of Alg. 1.

#ifndef ADAPTRAJ_CORE_ADAPTRAJ_METHOD_H_
#define ADAPTRAJ_CORE_ADAPTRAJ_METHOD_H_

#include <memory>
#include <string>
#include <vector>

#include "core/adaptraj_model.h"
#include "core/backbone_method.h"

namespace adaptraj {
namespace core {

/// Ablation variants of Tab. VII.
enum class AdapTrajVariant {
  kFull,         // "ours"
  kNoSpecific,   // w/o specific: H^s zeroed
  kNoInvariant,  // w/o invariant: H^i zeroed
};

/// Printable variant name.
std::string AdapTrajVariantName(AdapTrajVariant v);

/// Alg.-1 schedule and loss weights on top of the shared TrainConfig.
struct AdapTrajTrainConfig {
  /// Fraction of epochs completing step 1 (e_start / e_total).
  float start_fraction = 0.5f;
  /// Fraction of epochs completing step 2 (e_end / e_total).
  float end_fraction = 0.75f;
  /// Aggregator ratio sigma: probability of masking a domain's label.
  float sigma = 0.5f;
  /// Learning-rate fractions for steps 2-3 (Alg. 1 lines 13-14, 25).
  float f_low = 0.5f;
  float f_high = 1.0f;
  /// Domain weights delta (step 1) and delta' (steps 2-3), Eqs. 23/25.
  float delta = 0.2f;
  float delta_prime = 0.1f;
};

/// The AdapTraj method: wraps AdapTrajModel and implements Alg. 1.
class AdapTrajMethod : public BackboneMethod {
 public:
  AdapTrajMethod(models::BackboneKind kind, const models::BackboneConfig& backbone_config,
                 const AdapTrajConfig& model_config, uint64_t init_seed,
                 AdapTrajVariant variant = AdapTrajVariant::kFull,
                 const AdapTrajTrainConfig& schedule = AdapTrajTrainConfig());

  std::string name() const override { return "AdapTraj"; }

  AdapTrajModel& model() { return static_cast<AdapTrajModel&>(root()); }
  const AdapTrajModel& model() const { return static_cast<const AdapTrajModel&>(root()); }
  const AdapTrajTrainConfig& schedule() const { return schedule_; }

 protected:
  /// Unseen domain: [H^i ; H^s] with every sequence routed through the
  /// aggregator (label -1). It mixes encoder rows through the aggregator,
  /// but always over the full batch, so the per-row purity requirement
  /// only binds on PredictEncode.
  Tensor Conditioning(const data::Batch& batch,
                      const models::EncodeResult& enc) const override;
  /// The Alg.-1 step loss L_base + delta * L_ours.
  Tensor MicroBatchLoss(const BackboneModel& model, const MicroBatch& mb,
                        Rng* rng) const override;
  /// Backbone + extractors, then the aggregator: Alg. 1 steers the two at
  /// different learning-rate fractions per step.
  std::vector<std::vector<Tensor>> ParamGroups() const override;
  /// The three Alg.-1 steps.
  void Schedule(const data::DomainGeneralizationData& dgd,
                TrainLoop* loop) const override;
  std::unique_ptr<BackboneMethod> NewInstance() const override;

 private:
  /// Extracted features with the ablation variant applied.
  AdapTrajFeatures Features(const AdapTrajModel& model, const models::EncodeResult& enc,
                            const std::vector<int>& labels) const;

  AdapTrajConfig model_config_;
  AdapTrajVariant variant_;
  AdapTrajTrainConfig schedule_;
};

}  // namespace core
}  // namespace adaptraj

#endif  // ADAPTRAJ_CORE_ADAPTRAJ_METHOD_H_
