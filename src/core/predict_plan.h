// Helpers binding data::Batch to the execution-plan layer (tensor/plan.h).
//
// A plan records slot identities for the batch-field tensors it was captured
// with and rebinds them on every replay, so the enumeration order here is
// part of the plan format: PredictPlanInputs must list the fields in the same
// order at capture and at replay. The key namespace is per-method (each
// core::Method owns its own PlanCache), so keys only need to pin what makes
// the op sequence unique for one method instance: which half runs, every
// batch extent that shapes the graph, plus the sample flag (sampling toggles
// the latent-draw path in the decoders).

#ifndef ADAPTRAJ_CORE_PREDICT_PLAN_H_
#define ADAPTRAJ_CORE_PREDICT_PLAN_H_

#include <string>
#include <vector>

#include "data/batch.h"
#include "models/backbone.h"
#include "tensor/ops.h"
#include "tensor/plan.h"

namespace adaptraj {
namespace core {

/// Batch-field tensors in the fixed plan-input enumeration order. Fields a
/// Predict body never reads become unused input slots — harmless.
inline std::vector<const Tensor*> PredictPlanInputs(const data::Batch& batch) {
  std::vector<const Tensor*> inputs;
  inputs.reserve(batch.obs_steps.size() + batch.nbr_steps.size() +
                 batch.fut_steps.size() + 5);
  for (const Tensor& t : batch.obs_steps) inputs.push_back(&t);
  inputs.push_back(&batch.obs_flat);
  for (const Tensor& t : batch.nbr_steps) inputs.push_back(&t);
  inputs.push_back(&batch.nbr_offsets);
  inputs.push_back(&batch.nbr_mask);
  for (const Tensor& t : batch.fut_steps) inputs.push_back(&t);
  inputs.push_back(&batch.fut_flat);
  inputs.push_back(&batch.endpoint);
  return inputs;
}

// --- Plan keys ----------------------------------------------------------------
//
// Predict is the composition PredictDecode(PredictEncode(batch)), so every
// plan belongs to one half: "e:" keys the encoder, "d:" the decoder. A key
// pins every extent that shapes the op sequence; the encode key drops the
// sample flag (encoding never samples). The decode plan registers the packed
// encoder rows as an extra rebind-input so a replay picks up whatever mix of
// cached and fresh rows the caller gathered.

/// "<half>B<batch>:M<neighbors>:o<obs_len>:p<pred_len>:s<sample>".
inline std::string HalfPlanKey(const char* half, const data::Batch& batch,
                               bool sample) {
  std::string key;
  key.reserve(48);
  key += half;
  key += "B";
  key += std::to_string(batch.batch_size);
  key += ":M";
  key += std::to_string(batch.max_neighbors);
  key += ":o";
  key += std::to_string(batch.obs_len);
  key += ":p";
  key += std::to_string(batch.pred_len);
  key += sample ? ":s1" : ":s0";
  return key;
}

/// Plan key of the encoder half.
inline std::string EncodePlanKey(const data::Batch& batch) {
  return HalfPlanKey("e:", batch, /*sample=*/false);
}

/// Plan key of the decoder half.
inline std::string DecodePlanKey(const data::Batch& batch, bool sample) {
  return HalfPlanKey("d:", batch, sample);
}

/// Decode-plan inputs: the batch fields plus the packed encoder rows.
inline std::vector<const Tensor*> DecodePlanInputs(const data::Batch& batch,
                                                   const Tensor& enc_rows) {
  std::vector<const Tensor*> inputs = PredictPlanInputs(batch);
  inputs.push_back(&enc_rows);
  return inputs;
}

/// Packs an EncodeResult into the cache transport format: one row-contiguous
/// [B, hidden_dim + social_dim] tensor.
inline Tensor PackEncodeResult(const models::EncodeResult& enc) {
  return ops::Concat({enc.h_focal, enc.pooled}, 1);
}

/// Inverse of PackEncodeResult. Slice copies reproduce the packed bytes
/// exactly, so the decoder consumes values bit-identical to a direct Encode.
inline models::EncodeResult UnpackEncodeResult(const Tensor& enc_rows,
                                               int64_t hidden_dim) {
  models::EncodeResult enc;
  enc.h_focal = ops::Slice(enc_rows, 1, 0, hidden_dim);
  enc.pooled = ops::Slice(enc_rows, 1, hidden_dim, enc_rows.size(1));
  return enc;
}

}  // namespace core
}  // namespace adaptraj

#endif  // ADAPTRAJ_CORE_PREDICT_PLAN_H_
