// LBEBM-style backbone: latent-belief trajectory prediction with an
// energy-based prior (Pang et al., CVPR 2021), reimplemented at reduced width.
//
// A CVAE-style posterior encodes the future into a latent plan; the prior
// over plans is an energy network sampled with short-run Langevin dynamics.
// The energy is trained contrastively (posterior samples low, prior samples
// high). The energy is a two-layer ReLU MLP, so the Langevin gradient dE/dz
// has a closed form that the sampler evaluates with ordinary no-grad ops:
// Predict records no autograd graph, touches no gradient buffer, and is
// therefore reentrant and capturable as an execution plan.

#ifndef ADAPTRAJ_MODELS_LBEBM_H_
#define ADAPTRAJ_MODELS_LBEBM_H_

#include "models/backbone.h"
#include "models/interaction.h"

namespace adaptraj {
namespace models {

/// Energy-based latent-plan backbone.
class LbebmBackbone : public Backbone {
 public:
  LbebmBackbone(const BackboneConfig& config, Rng* rng);

  EncodeResult Encode(const data::Batch& batch) const override;
  Tensor Predict(const data::Batch& batch, const EncodeResult& enc, const Tensor& extra,
                 Rng* rng, bool sample) const override;
  Tensor Loss(const data::Batch& batch, const EncodeResult& enc, const Tensor& extra,
              Rng* rng) const override;
  BackboneKind kind() const override { return BackboneKind::kLbebm; }

  /// Energy of latent plans z [B, latent] under context [B, ctx]: returns
  /// [B, 1]. Exposed for tests.
  Tensor Energy(const Tensor& z, const Tensor& context) const;

  /// dE/dz of Sum(Energy(z, context)) in closed form, [B, latent]: for
  /// E = relu([z ; ctx]·W1 + b1)·w2 + b2,
  /// dE/dz = (1{pre > 0} ⊙ w2ᵀ)·W1[0:latent]ᵀ. Bitwise equal to the
  /// autograd gradient; records no graph. Exposed for tests.
  Tensor EnergyGradZ(const Tensor& z, const Tensor& context) const;

  /// Short-run Langevin sampling from the energy-based prior
  /// p(z|ctx) ~ exp(-E(z,ctx)) N(z; 0, I). Returns a no-grad [B, latent]
  /// sample. Exposed for tests.
  Tensor SampleLangevin(const Tensor& context, Rng* rng) const;

 private:
  Tensor Context(const EncodeResult& enc) const;
  Tensor Decode(const EncodeResult& enc, const Tensor& z, const Tensor& extra) const;

  nn::Mlp step_embed_;
  nn::Lstm encoder_;
  InteractionPooling interaction_;
  nn::Mlp posterior_;  // q(z | future, ctx) -> [mu ; logvar]
  nn::Mlp energy_;     // E(z, ctx) -> scalar
  nn::Mlp decoder_;    // (ctx, z, extra) -> future displacements
  float kl_weight_ = 0.05f;
  float ebm_weight_ = 0.1f;
};

}  // namespace models
}  // namespace adaptraj

#endif  // ADAPTRAJ_MODELS_LBEBM_H_
