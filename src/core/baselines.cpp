#include "core/baselines.h"

#include <utility>

namespace adaptraj {
namespace core {

using namespace ops;  // NOLINT(build/namespaces)

data::Batch CounterfactualBatch(const data::Batch& batch) {
  data::Batch cf = batch;  // tensors share storage; replace neighbor fields
  cf.nbr_mask = Tensor::Zeros(batch.nbr_mask.shape());
  cf.nbr_offsets = Tensor::Zeros(batch.nbr_offsets.shape());
  cf.nbr_steps.clear();
  for (const Tensor& step : batch.nbr_steps) {
    cf.nbr_steps.push_back(Tensor::Zeros(step.shape()));
  }
  return cf;
}

namespace {

/// A baseline's model tree: the bare backbone, without AdapTraj conditioning.
BackboneModelFactory BareBackbone(models::BackboneKind kind,
                                  models::BackboneConfig config) {
  config.extra_dim = 0;
  return [kind, config](Rng* rng) {
    std::unique_ptr<models::Backbone> backbone = models::MakeBackbone(kind, config, rng);
    BackboneModel model;
    model.backbone = backbone.get();
    model.root = std::move(backbone);
    return model;
  };
}

}  // namespace

VanillaMethod::VanillaMethod(models::BackboneKind kind,
                             const models::BackboneConfig& config, uint64_t init_seed)
    : BackboneMethod(kind, config, init_seed, BareBackbone(kind, config)) {}

std::unique_ptr<BackboneMethod> VanillaMethod::NewInstance() const {
  return std::make_unique<VanillaMethod>(kind_, config_, init_seed_);
}

CounterMethod::CounterMethod(models::BackboneKind kind,
                             const models::BackboneConfig& config, uint64_t init_seed)
    : BackboneMethod(kind, config, init_seed, BareBackbone(kind, config)) {}

std::unique_ptr<BackboneMethod> CounterMethod::NewInstance() const {
  return std::make_unique<CounterMethod>(kind_, config_, init_seed_);
}

CausalMotionMethod::CausalMotionMethod(models::BackboneKind kind,
                                       const models::BackboneConfig& config,
                                       uint64_t init_seed, float invariance_weight)
    : BackboneMethod(kind, config, init_seed, BareBackbone(kind, config)),
      invariance_weight_(invariance_weight) {}

void CausalMotionMethod::Schedule(const data::DomainGeneralizationData& dgd,
                                  TrainLoop* loop) const {
  // The invariance penalty needs per-domain risks within each micro-batch,
  // so one micro-batch carries one batch from each source domain.
  std::vector<data::BatchLoader> loaders;
  for (size_t k = 0; k < dgd.sources.size(); ++k) {
    loaders.push_back(loop->Loader(dgd.sources[k].train, k));
  }
  std::vector<data::BatchLoader*> all;
  for (data::BatchLoader& loader : loaders) all.push_back(&loader);
  for (int epoch = 0; epoch < loop->config().epochs; ++epoch) {
    loop->Pass(all);
    loop->Flush();
  }
}

Tensor CausalMotionMethod::MicroBatchLoss(const BackboneModel& model,
                                          const MicroBatch& mb, Rng* rng) const {
  std::vector<Tensor> risks;
  for (const data::Batch& batch : mb.batches) {
    risks.push_back(BackboneLoss(model, batch, rng));
  }
  // Mean risk + V-REx variance penalty across domains.
  Tensor mean_risk = risks[0];
  for (size_t i = 1; i < risks.size(); ++i) mean_risk = Add(mean_risk, risks[i]);
  mean_risk = MulScalar(mean_risk, 1.0f / static_cast<float>(risks.size()));
  Tensor loss = mean_risk;
  if (risks.size() > 1) {
    Tensor var = Tensor::Scalar(0.0f);
    for (const Tensor& r : risks) var = Add(var, Square(Sub(r, mean_risk)));
    var = MulScalar(var, 1.0f / static_cast<float>(risks.size()));
    loss = Add(loss, MulScalar(var, invariance_weight_));
  }
  return loss;
}

std::unique_ptr<BackboneMethod> CausalMotionMethod::NewInstance() const {
  return std::make_unique<CausalMotionMethod>(kind_, config_, init_seed_,
                                              invariance_weight_);
}

}  // namespace core
}  // namespace adaptraj
