#include "models/lbebm.h"

#include <cmath>

#include "nn/losses.h"

namespace adaptraj {
namespace models {

using namespace ops;  // NOLINT(build/namespaces)

namespace {

/// The closed-form dE/dz of the two-layer ReLU energy (see
/// LbebmBackbone::EnergyGradZ), with its z-independent factors built once so
/// each Langevin step runs only the ops that depend on z. Mirrors what
/// autograd computes, op for op: Relu's derivative is 1{pre > 0} (0 for a
/// NaN pre-activation), the output layer's backward is w2ᵀ, and the input
/// layer's backward is a GEMM against W1ᵀ whose first `latent` columns are
/// the z block.
class EnergyGrad {
 public:
  EnergyGrad(const nn::Mlp& energy, int64_t batch, int64_t latent)
      : fc0_(energy.layer(0)),
        w1z_t_(Transpose(Slice(fc0_.weight(), 0, 0, latent))),
        w2_row_(Transpose(energy.layer(1).weight())),
        zeros_(Tensor::Zeros({batch, fc0_.out_features()})) {}

  Tensor operator()(const Tensor& z, const Tensor& context) const {
    Tensor pre = fc0_.Forward(Concat({z, context}, 1));
    Tensor active = MaskedFill(zeros_, Relu(pre), 1.0f);  // exactly 1{pre > 0}
    return MatMul(BroadcastMul(active, w2_row_), w1z_t_);
  }

 private:
  const nn::Linear& fc0_;
  Tensor w1z_t_;   // W1[0:latent]ᵀ, [H, latent]
  Tensor w2_row_;  // w2ᵀ, [1, H]
  Tensor zeros_;   // [B, H]
};

}  // namespace

LbebmBackbone::LbebmBackbone(const BackboneConfig& config, Rng* rng)
    : Backbone(config),
      step_embed_({2, config.embed_dim}, rng, nn::Activation::kRelu,
                  nn::Activation::kRelu),
      encoder_(config.embed_dim, config.hidden_dim, rng),
      interaction_(config.embed_dim, config.hidden_dim, config.social_dim, rng,
                   config.interaction),
      posterior_({config.pred_len * 2 + config.hidden_dim + config.social_dim,
                  config.hidden_dim, 2 * config.latent_dim},
                 rng, nn::Activation::kRelu, nn::Activation::kNone),
      energy_({config.latent_dim + config.hidden_dim + config.social_dim,
               config.hidden_dim, 1},
              rng, nn::Activation::kRelu, nn::Activation::kNone),
      decoder_({config.hidden_dim + config.social_dim + config.latent_dim +
                    config.extra_dim,
                config.hidden_dim, config.hidden_dim, config.pred_len * 2},
               rng, nn::Activation::kRelu, nn::Activation::kNone) {
  RegisterModule("step_embed", &step_embed_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("interaction", &interaction_);
  RegisterModule("posterior", &posterior_);
  RegisterModule("energy", &energy_);
  RegisterModule("decoder", &decoder_);
}

EncodeResult LbebmBackbone::Encode(const data::Batch& batch) const {
  std::vector<Tensor> embedded;
  embedded.reserve(batch.obs_steps.size());
  for (const Tensor& step : batch.obs_steps) {
    embedded.push_back(step_embed_.Forward(step));
  }
  EncodeResult enc;
  enc.h_focal = encoder_.Forward(embedded).h;
  enc.pooled = interaction_.Pool(batch, enc.h_focal);
  return enc;
}

Tensor LbebmBackbone::Context(const EncodeResult& enc) const {
  return Concat({enc.h_focal, enc.pooled}, 1);
}

Tensor LbebmBackbone::Energy(const Tensor& z, const Tensor& context) const {
  return energy_.Forward(Concat({z, context}, 1));  // [B, 1]
}

Tensor LbebmBackbone::EnergyGradZ(const Tensor& z, const Tensor& context) const {
  NoGradGuard no_grad;
  return EnergyGrad(energy_, z.shape()[0], config_.latent_dim)(z, context);
}

Tensor LbebmBackbone::SampleLangevin(const Tensor& context, Rng* rng) const {
  // The gradient is closed-form, so the sampler is plain forward computation
  // in training (Loss's negative sample) and serving alike: no tape, no
  // gradient buffers, and every draw is a recorded Randn that plan replay
  // re-draws.
  NoGradGuard no_grad;
  const Shape shape = {context.shape()[0], config_.latent_dim};
  const EnergyGrad grad_z(energy_, shape[0], config_.latent_dim);
  const float half_step = 0.5f * config_.langevin_step_size;
  const float noise_scale = std::sqrt(config_.langevin_step_size);
  Tensor z = Tensor::Randn(shape, rng);
  for (int k = 0; k < config_.langevin_steps; ++k) {
    // U(z) = E(z, ctx) + 0.5 ||z||^2  (EBM-tilted standard normal prior).
    Tensor drift = MulScalar(Add(grad_z(z, context), z), half_step);
    z = Add(Sub(z, drift), Tensor::Randn(shape, rng, noise_scale));
  }
  return z;
}

Tensor LbebmBackbone::Decode(const EncodeResult& enc, const Tensor& z,
                             const Tensor& extra) const {
  Tensor in = Concat({enc.h_focal, enc.pooled, z}, 1);
  in = WithExtra(in, extra);
  return decoder_.Forward(in);
}

Tensor LbebmBackbone::Predict(const data::Batch& batch, const EncodeResult& enc,
                              const Tensor& extra, Rng* rng, bool sample) const {
  const int64_t b = batch.batch_size;
  Tensor z = sample ? SampleLangevin(Context(enc), rng)
                    : Tensor::Zeros({b, config_.latent_dim});
  return Decode(enc, z, extra);
}

Tensor LbebmBackbone::Loss(const data::Batch& batch, const EncodeResult& enc,
                           const Tensor& extra, Rng* rng) const {
  const int64_t b = batch.batch_size;
  // The negative (prior) sample is drawn first: that fixes the rng stream
  // order (Langevin draws, then the posterior's reparameterization noise).
  Tensor z_neg = SampleLangevin(Context(enc), rng);

  // CVAE posterior over latent plans.
  Tensor stats = posterior_.Forward(Concat({batch.fut_flat, Context(enc)}, 1));
  Tensor mu = Slice(stats, 1, 0, config_.latent_dim);
  Tensor logvar = Clamp(Slice(stats, 1, config_.latent_dim, 2 * config_.latent_dim),
                        -6.0f, 6.0f);
  Tensor eps = Tensor::Randn({b, config_.latent_dim}, rng);
  Tensor z_pos = Add(mu, Mul(Exp(MulScalar(logvar, 0.5f)), eps));

  Tensor recon = nn::MseLoss(Decode(enc, z_pos, extra), batch.fut_flat);
  Tensor kl = nn::KlStandardNormal(mu, logvar);

  // Contrastive energy shaping: pull posterior-plan energy down, Langevin
  // (prior) sample energy up. Latents are detached so this trains E only.
  Tensor ctx_det = Context(enc).Detach();
  Tensor e_pos = Mean(Energy(z_pos.Detach(), ctx_det));
  Tensor e_neg = Mean(Energy(z_neg, ctx_det));
  Tensor ebm = Sub(e_pos, e_neg);

  return Add(Add(recon, MulScalar(kl, kl_weight_)), MulScalar(ebm, ebm_weight_));
}

}  // namespace models
}  // namespace adaptraj
