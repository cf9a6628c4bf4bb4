#include "core/backbone_method.h"

#include <algorithm>
#include <utility>

#include "core/parallel_trainer.h"
#include "core/predict_plan.h"

namespace adaptraj {
namespace core {

data::BatchLoader TrainLoop::Loader(const data::Dataset& dataset,
                                      uint64_t seed_offset) const {
  return data::BatchLoader(&dataset, config_.batch_size, data::SequenceConfig(),
                           config_.seed + seed_offset, /*shuffle=*/true);
}

void TrainLoop::Pass(const std::vector<data::BatchLoader*>& loaders,
                       const MakeMicroBatch& make) {
  for (data::BatchLoader* loader : loaders) loader->Reset();
  const int cap = config_.max_batches_per_epoch;
  for (int n = 0; cap <= 0 || n < cap; ++n) {
    std::vector<data::Batch> group;
    data::Batch batch;
    for (data::BatchLoader* loader : loaders) {
      if (loader->Next(&batch)) group.push_back(batch);
    }
    if (group.empty()) return;
    MicroBatch mb;
    if (make) {
      mb = make(std::move(group));
    } else {
      mb.batches = std::move(group);
    }
    // The task index is a main-thread counter, so every loss's Rng stream is
    // independent of which worker runs it (see parallel_trainer.h).
    const uint64_t seed = TaskSeed(config_.seed, task_index_++);
    trainer_->Submit([this, mb = std::move(mb), seed](int slot) {
      Rng rng(seed);
      method_->MicroBatchLoss(*slots_[slot], mb, &rng).Backward();
    });
  }
}

void TrainLoop::Flush() { trainer_->Flush(); }

BackboneMethod::BackboneMethod(models::BackboneKind kind,
                               const models::BackboneConfig& config,
                               uint64_t init_seed, BackboneModelFactory make_model)
    : kind_(kind),
      config_(config),
      init_seed_(init_seed),
      make_model_(std::move(make_model)) {
  Rng rng(init_seed);
  model_ = make_model_(&rng);
  model_.root->eval();
}

void BackboneMethod::Train(const data::DomainGeneralizationData& dgd,
                           const TrainConfig& config) {
  nn::Adam opt(config.lr);
  for (std::vector<Tensor>& group : ParamGroups()) opt.AddGroup(std::move(group));

  // Slot 0 is the live model, slots 1..A-1 replicas built from the
  // construction arguments.
  const int slots = std::max(1, config.accum_steps);
  while (static_cast<int>(train_replicas_.size()) < slots - 1) {
    Rng rng(init_seed_);
    train_replicas_.push_back(make_model_(&rng));
  }
  std::vector<const BackboneModel*> models = {&model_};
  std::vector<std::vector<Tensor>> slot_params = {model_.root->Parameters()};
  for (int s = 1; s < slots; ++s) {
    models.push_back(&train_replicas_[s - 1]);
    slot_params.push_back(train_replicas_[s - 1].root->Parameters());
  }
  ParallelTrainer::Options options;
  options.accum_steps = slots;
  options.grad_clip = config.grad_clip;
  ParallelTrainer trainer(&opt, std::move(slot_params), options);

  for (const BackboneModel* m : models) m->root->train();
  TrainLoop loop(this, config, &opt, &trainer, models);
  Schedule(dgd, &loop);
  trainer.Flush();
  for (const BackboneModel* m : models) m->root->eval();
  plan_cache_.Invalidate();  // fused plans packed the pre-training weights
  BumpWeightsVersion();      // serving-side encoder caches must drop too
}

void BackboneMethod::Schedule(const data::DomainGeneralizationData& dgd,
                              TrainLoop* loop) const {
  data::BatchLoader pooled = loop->Loader(dgd.pooled_train, 1);
  for (int epoch = 0; epoch < loop->config().epochs; ++epoch) {
    loop->Pass({&pooled});
    loop->Flush();
  }
}

std::vector<std::vector<Tensor>> BackboneMethod::ParamGroups() const {
  return {model_.root->Parameters()};
}

Tensor BackboneMethod::BackboneLoss(const BackboneModel& model,
                                    const data::Batch& batch, Rng* rng) const {
  const data::Batch input = BackboneInput(batch);
  models::EncodeResult enc = model.backbone->Encode(input);
  return model.backbone->Loss(input, enc, Tensor(), rng);
}

Tensor BackboneMethod::MicroBatchLoss(const BackboneModel& model, const MicroBatch& mb,
                                      Rng* rng) const {
  return BackboneLoss(model, mb.batches[0], rng);
}

Tensor BackboneMethod::Predict(const data::Batch& batch, Rng* rng, bool sample) const {
  return PredictDecode(batch, PredictEncode(batch), rng, sample);
}

int64_t BackboneMethod::predict_encode_width() const {
  return backbone().config().hidden_dim + backbone().config().social_dim;
}

Tensor BackboneMethod::PredictEncode(const data::Batch& batch) const {
  NoGradGuard no_grad;
  plan::PredictSession session(&plan_cache_, EncodePlanKey(batch),
                               PredictPlanInputs(batch), /*rng=*/nullptr);
  if (session.CanReplay()) return session.Replay();
  return session.Finish(PackEncodeResult(backbone().Encode(BackboneInput(batch))));
}

Tensor BackboneMethod::PredictDecode(const data::Batch& batch, const Tensor& enc_rows,
                                     Rng* rng, bool sample) const {
  NoGradGuard no_grad;
  plan::PredictSession session(&plan_cache_, DecodePlanKey(batch, sample),
                               DecodePlanInputs(batch, enc_rows), rng);
  if (session.CanReplay()) return session.Replay();
  // A transformed input (Counter's zeroed neighbor fields) is fresh constant
  // tensors each call; a capture retains them as external constants, which
  // replays bit-identically because their contents never depend on the batch.
  const data::Batch input = BackboneInput(batch);
  models::EncodeResult enc = UnpackEncodeResult(enc_rows, backbone().config().hidden_dim);
  return session.Finish(
      backbone().Predict(input, enc, Conditioning(input, enc), rng, sample));
}

std::unique_ptr<Method> BackboneMethod::CloneForServing() const {
  // Same construction path as a training replica, then the served weights
  // overwrite the fresh initialization.
  std::unique_ptr<BackboneMethod> clone = NewInstance();
  clone->model_.root->CopyParametersFrom(*model_.root);
  return clone;
}

}  // namespace core
}  // namespace adaptraj
