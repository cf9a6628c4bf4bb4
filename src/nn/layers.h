// Core trainable layers: Linear, Mlp, Dropout, LstmCell, Lstm.

#ifndef ADAPTRAJ_NN_LAYERS_H_
#define ADAPTRAJ_NN_LAYERS_H_

#include <memory>
#include <utility>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"

namespace adaptraj {
namespace nn {

/// Activation applied between Mlp layers (and optionally after the last).
enum class Activation { kNone, kRelu, kTanh, kSigmoid };

/// Applies the given activation.
Tensor Activate(const Tensor& x, Activation act);

/// Affine layer y = x W + b for x of shape [B, in].
class Linear : public Module {
 public:
  /// Creates a layer with Xavier-initialized weights and zero bias.
  Linear(int64_t in_features, int64_t out_features, Rng* rng);

  /// Forward pass; x must be [B, in_features].
  Tensor Forward(const Tensor& x) const;

  int64_t in_features() const { return weight_.shape()[0]; }
  int64_t out_features() const { return weight_.shape()[1]; }
  /// The [in, out] weight parameter.
  const Tensor& weight() const { return weight_; }

 private:
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [1, out]
};

/// Multi-layer perceptron with a hidden activation (ReLU by default).
class Mlp : public Module {
 public:
  /// `dims` gives layer widths including input and output, e.g. {16, 64, 2}.
  Mlp(const std::vector<int64_t>& dims, Rng* rng,
      Activation hidden = Activation::kRelu, Activation output = Activation::kNone);

  /// Forward pass; x must be [B, dims.front()].
  Tensor Forward(const Tensor& x) const;

  int64_t out_features() const;

  /// The i-th affine layer.
  const Linear& layer(size_t i) const { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation hidden_;
  Activation output_;
};

/// Inverted dropout, gated by the Module training mode (module.h): in
/// training mode each element is zeroed with probability `rate` and the
/// survivors are scaled by 1/(1-rate); in inference mode (after eval()) the
/// layer is the identity, so no rng draw is consumed and eval outputs are
/// deterministic. The expectation of the output matches the input either way.
class Dropout : public Module {
 public:
  /// `rate` is the drop probability in [0, 1).
  explicit Dropout(float rate);

  /// Applies dropout to x; `rng` is only consumed in training mode with a
  /// positive rate.
  Tensor Forward(const Tensor& x, Rng* rng) const;

  float rate() const { return rate_; }

 private:
  float rate_;
};

/// Single LSTM step (standard gates, forget-gate bias initialized to 1).
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng);

  /// State pair (hidden, cell), each [B, H].
  struct State {
    Tensor h;
    Tensor c;
  };

  /// Zero state for the given batch size.
  State InitialState(int64_t batch) const;

  /// One step: x is [B, input_size]; returns the next state.
  State Forward(const Tensor& x, const State& state) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t hidden_size_;
  Tensor w_ih_;  // [input, 4H] gate order: i, f, g, o
  Tensor w_hh_;  // [H, 4H]
  Tensor bias_;  // [1, 4H]
};

/// LSTM unrolled over a sequence of per-step inputs.
class Lstm : public Module {
 public:
  Lstm(int64_t input_size, int64_t hidden_size, Rng* rng);

  /// Runs the cell over `steps` ([T] tensors of [B, input]); returns the
  /// final state and optionally (when outputs != nullptr) every hidden state.
  LstmCell::State Forward(const std::vector<Tensor>& steps,
                          std::vector<Tensor>* outputs = nullptr) const;

  const LstmCell& cell() const { return cell_; }
  int64_t hidden_size() const { return cell_.hidden_size(); }

 private:
  LstmCell cell_;
};

}  // namespace nn
}  // namespace adaptraj

#endif  // ADAPTRAJ_NN_LAYERS_H_
