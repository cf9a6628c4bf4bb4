#include "core/adaptraj_method.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace adaptraj {
namespace core {

using namespace ops;  // NOLINT(build/namespaces)

std::string AdapTrajVariantName(AdapTrajVariant v) {
  switch (v) {
    case AdapTrajVariant::kFull: return "ours";
    case AdapTrajVariant::kNoSpecific: return "w/o specific";
    case AdapTrajVariant::kNoInvariant: return "w/o invariant";
  }
  ADAPTRAJ_CHECK_MSG(false, "unknown variant");
  return "";
}

namespace {

// Parameter groups, in ParamGroups order.
constexpr int kMainGroup = 0;
constexpr int kAggregatorGroup = 1;

}  // namespace

AdapTrajMethod::AdapTrajMethod(models::BackboneKind kind,
                               const models::BackboneConfig& backbone_config,
                               const AdapTrajConfig& model_config, uint64_t init_seed,
                               AdapTrajVariant variant,
                               const AdapTrajTrainConfig& schedule)
    : BackboneMethod(kind, backbone_config, init_seed,
                     [kind, backbone_config, model_config](Rng* rng) {
                       auto model = std::make_unique<AdapTrajModel>(
                           kind, backbone_config, model_config, rng);
                       BackboneModel tree;
                       tree.backbone = &model->backbone();
                       tree.root = std::move(model);
                       return tree;
                     }),
      model_config_(model_config),
      variant_(variant),
      schedule_(schedule) {}

AdapTrajFeatures AdapTrajMethod::Features(const AdapTrajModel& model,
                                          const models::EncodeResult& enc,
                                          const std::vector<int>& labels) const {
  AdapTrajFeatures f = model.ExtractFeatures(enc, labels);
  switch (variant_) {
    case AdapTrajVariant::kFull:
      break;
    case AdapTrajVariant::kNoSpecific:
      f.spec = Tensor::Zeros(f.spec.shape());
      break;
    case AdapTrajVariant::kNoInvariant:
      f.inv = Tensor::Zeros(f.inv.shape());
      break;
  }
  return f;
}

Tensor AdapTrajMethod::Conditioning(const data::Batch& batch,
                                    const models::EncodeResult& enc) const {
  return Features(model(), enc, std::vector<int>(batch.batch_size, -1)).Extra();
}

Tensor AdapTrajMethod::MicroBatchLoss(const BackboneModel& tree, const MicroBatch& mb,
                                      Rng* rng) const {
  const auto& model = static_cast<const AdapTrajModel&>(*tree.root);
  const data::Batch& batch = mb.batches[0];
  models::EncodeResult enc = tree.backbone->Encode(batch);
  AdapTrajFeatures f = Features(model, enc, mb.labels);
  Tensor base = tree.backbone->Loss(batch, enc, f.Extra(), rng);  // L_base
  return Add(base, MulScalar(model.OursLoss(batch, f, mb.labels), mb.delta));
}

std::vector<std::vector<Tensor>> AdapTrajMethod::ParamGroups() const {
  return {model().BackboneAndExtractorParams(), model().AggregatorParams()};
}

void AdapTrajMethod::Schedule(const data::DomainGeneralizationData& dgd,
                              TrainLoop* loop) const {
  const TrainConfig& config = loop->config();
  const int e_start =
      std::max(1, static_cast<int>(std::round(config.epochs * schedule_.start_fraction)));
  const int e_end = std::max(
      e_start + 1, static_cast<int>(std::round(config.epochs * schedule_.end_fraction)));

  // Step 1 iterates pooled batches; steps 2-3 iterate per-domain batches
  // (Alg. 1 lines 8 and 20) so masking hides one whole domain at a time.
  data::BatchLoader pooled = loop->Loader(dgd.pooled_train, 11);
  std::vector<data::BatchLoader> per_domain;
  for (size_t k = 0; k < dgd.sources.size(); ++k) {
    per_domain.push_back(loop->Loader(dgd.sources[k].train, 31 + k));
  }
  // The main-thread Rng drives the label-masking schedule; every micro-batch
  // loss draws from its own TaskSeed stream.
  Rng mask_rng(config.seed);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    if (epoch < e_start) {
      // Step 1: backbone + extractors, full lr; aggregator frozen.
      loop->SetGroupScale(kMainGroup, 1.0f);
      loop->SetGroupScale(kAggregatorGroup, 0.0f);
      loop->Pass({&pooled}, [&](std::vector<data::Batch> group) {
        std::vector<int> labels = group[0].domain_labels;
        return MicroBatch{std::move(group), std::move(labels), schedule_.delta};
      });
    } else {
      // Steps 2-3: per-domain iterations with stochastic label masking.
      const bool step2 = epoch < e_end;
      loop->SetGroupScale(kAggregatorGroup, step2 ? schedule_.f_high : schedule_.f_low);
      loop->SetGroupScale(kMainGroup, schedule_.f_low);
      for (data::BatchLoader& loader : per_domain) {
        loop->Pass({&loader}, [&](std::vector<data::Batch> group) {
          std::vector<int> labels = group[0].domain_labels;
          if (mask_rng.Bernoulli(schedule_.sigma)) {
            std::fill(labels.begin(), labels.end(), -1);  // D^k_S -> D^?_S
          }
          return MicroBatch{std::move(group), std::move(labels), schedule_.delta_prime};
        });
      }
    }
    loop->Flush();  // the phase scales may change at the epoch boundary
  }
}

std::unique_ptr<BackboneMethod> AdapTrajMethod::NewInstance() const {
  return std::make_unique<AdapTrajMethod>(kind_, config_, model_config_, init_seed_,
                                          variant_, schedule_);
}

}  // namespace core
}  // namespace adaptraj
