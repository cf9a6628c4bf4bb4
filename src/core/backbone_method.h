// The skeleton every built-in learning method shares: one model tree around
// a backbone, one scene-parallel epoch loop, one encode/decode serving
// path. As in the authors' reference code, where one train() function runs
// every method, the methods differ only in the recipe they plug into it:
//
//   - the per-micro-batch loss   (vanilla/Counter: the backbone's Loss;
//                                 CausalMotion: V-REx over a per-domain
//                                 group; AdapTraj: L_base + delta * L_ours)
//   - the input transform        (Counter's counterfactual scene)
//   - the decoder conditioning   (AdapTraj's label -1 features)
//   - the schedule               (which loaders feed which micro-batches;
//                                 AdapTraj's three Alg.-1 phases)

#ifndef ADAPTRAJ_CORE_BACKBONE_METHOD_H_
#define ADAPTRAJ_CORE_BACKBONE_METHOD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/method.h"
#include "models/backbone.h"
#include "nn/optimizer.h"

namespace adaptraj {
namespace core {

class ParallelTrainer;

/// A trainable model tree: the root module whose Parameters() the optimizer
/// and the training replicas mirror, and the backbone inside it (the root
/// itself for the baselines, AdapTrajModel's backbone for AdapTraj).
struct BackboneModel {
  std::unique_ptr<nn::Module> root;
  models::Backbone* backbone = nullptr;
};

/// Builds a model tree, drawing its initial weights from `rng`.
using BackboneModelFactory = std::function<BackboneModel(Rng* rng)>;

/// The inputs of one micro-batch loss.
struct MicroBatch {
  /// One pooled batch, or one batch per source domain (CausalMotion).
  std::vector<data::Batch> batches;
  /// AdapTraj: per-sequence expert routing (-1 = the aggregator).
  std::vector<int> labels;
  /// AdapTraj: weight of L_ours in the current phase.
  float delta = 0.0f;
};

class BackboneMethod;

/// One Train call's scene-parallel training loop, as a schedule sees it.
class TrainLoop {
 public:
  /// Queued micro-batch tasks hold this loop's address.
  TrainLoop(const TrainLoop&) = delete;
  TrainLoop& operator=(const TrainLoop&) = delete;

  const TrainConfig& config() const { return config_; }

  /// A shuffled loader over `dataset` seeded config().seed + seed_offset.
  data::BatchLoader Loader(const data::Dataset& dataset, uint64_t seed_offset) const;

  /// Turns one loader group (a batch from each loader) into a micro-batch.
  using MakeMicroBatch = std::function<MicroBatch(std::vector<data::Batch> group)>;

  /// One epoch's pass: resets every loader, then queues one micro-batch per
  /// group of one batch from each loader that still has one, until all are
  /// exhausted or max_batches_per_epoch groups went out. Each micro-batch is
  /// `make(group)` — by default just the group — and its loss draws from
  /// the next TaskSeed stream.
  void Pass(const std::vector<data::BatchLoader*>& loaders,
            const MakeMicroBatch& make = nullptr);

  /// Steps on the pending partial group. Call at every epoch end (the phase
  /// scales may change there).
  void Flush();

  /// Learning-rate scale of a parameter group (BackboneMethod::ParamGroups
  /// order); takes effect from the next optimizer step.
  void SetGroupScale(int group, float scale) { opt_->SetGroupScale(group, scale); }

 private:
  friend class BackboneMethod;
  TrainLoop(const BackboneMethod* method, const TrainConfig& config,
              nn::Optimizer* opt, ParallelTrainer* trainer,
              std::vector<const BackboneModel*> slots)
      : method_(method),
        config_(config),
        opt_(opt),
        trainer_(trainer),
        slots_(std::move(slots)) {}

  const BackboneMethod* method_;
  const TrainConfig& config_;
  nn::Optimizer* opt_;
  ParallelTrainer* trainer_;
  /// slots_[s] is the model a micro-batch running at trainer slot s uses.
  std::vector<const BackboneModel*> slots_;
  uint64_t task_index_ = 0;
};

/// A learning method built on one backbone. Owns the model, its training
/// replicas and the plan-cached encode/decode halves; subclasses supply the
/// recipe hooks below.
class BackboneMethod : public Method {
 public:
  /// Builds the model tree from `make_model` with Rng(init_seed) and leaves
  /// it in inference mode — also for models restored via LoadParameters,
  /// which never pass through Train().
  BackboneMethod(models::BackboneKind kind, const models::BackboneConfig& config,
                 uint64_t init_seed, BackboneModelFactory make_model);

  /// Runs Schedule on a ParallelTrainer over the live model and cached
  /// replicas, then invalidates the plan cache and bumps weights_version().
  void Train(const data::DomainGeneralizationData& dgd,
             const TrainConfig& config) override;

  /// PredictDecode(batch, PredictEncode(batch), rng, sample).
  Tensor Predict(const data::Batch& batch, Rng* rng, bool sample) const override;
  int64_t predict_encode_width() const override;
  Tensor PredictEncode(const data::Batch& batch) const override;
  Tensor PredictDecode(const data::Batch& batch, const Tensor& enc_rows, Rng* rng,
                       bool sample) const override;
  std::unique_ptr<Method> CloneForServing() const override;

  models::Backbone& backbone() { return *model_.backbone; }
  const models::Backbone& backbone() const { return *model_.backbone; }

 protected:
  /// Root of the live model tree.
  nn::Module& root() { return *model_.root; }
  const nn::Module& root() const { return *model_.root; }

  // --- Recipe hooks ----------------------------------------------------------

  /// The batch as the backbone sees it, in training and serving alike.
  virtual data::Batch BackboneInput(const data::Batch& batch) const { return batch; }

  /// Serving-time decoder conditioning ([B, extra_dim]); a null Tensor means
  /// none. `enc` is the live model's encoding of BackboneInput(batch).
  virtual Tensor Conditioning(const data::Batch& batch,
                              const models::EncodeResult& enc) const {
    (void)batch;
    (void)enc;
    return Tensor();
  }

  /// Loss of one micro-batch on a training slot's model. Runs concurrently
  /// on distinct slots. Default: BackboneLoss of the single batch.
  virtual Tensor MicroBatchLoss(const BackboneModel& model, const MicroBatch& mb,
                                Rng* rng) const;

  /// Optimizer parameter groups, indexed in order. Default: one group.
  virtual std::vector<std::vector<Tensor>> ParamGroups() const;

  /// Queues every micro-batch of one Train call. Default: each epoch one
  /// pass over the pooled sources (loader seed + 1), one batch each.
  virtual void Schedule(const data::DomainGeneralizationData& dgd,
                        TrainLoop* loop) const;

  /// A fresh instance of the concrete method from its construction
  /// arguments; CloneForServing copies the weights into it.
  virtual std::unique_ptr<BackboneMethod> NewInstance() const = 0;

  /// The backbone's own loss on BackboneInput(batch) (Eq. 8 plus model
  /// terms).
  Tensor BackboneLoss(const BackboneModel& model, const data::Batch& batch,
                      Rng* rng) const;

  // Construction arguments, kept for replicas and serving clones.
  const models::BackboneKind kind_;
  const models::BackboneConfig config_;
  const uint64_t init_seed_;

 private:
  friend class TrainLoop;

  BackboneModelFactory make_model_;
  BackboneModel model_;
  /// Replicas for the scene-parallel trainer, grown to accum_steps-1 and
  /// reused across Train() calls (the trainer overwrites their weights from
  /// the live model before every group, so cached values never leak).
  std::vector<BackboneModel> train_replicas_;
};

}  // namespace core
}  // namespace adaptraj

#endif  // ADAPTRAJ_CORE_BACKBONE_METHOD_H_
