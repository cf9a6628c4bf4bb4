// Seeded random number generator used by every stochastic component.
//
// All simulators, initializers and samplers take an Rng so that experiments
// are reproducible run-to-run (see DESIGN.md "Determinism").

#ifndef ADAPTRAJ_TENSOR_RNG_H_
#define ADAPTRAJ_TENSOR_RNG_H_

#include <cstdint>
#include <random>

namespace adaptraj {

/// Deterministic pseudo-random source wrapping std::mt19937_64.
class Rng {
 public:
  /// Creates a generator with the given seed.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  float Uniform(float lo, float hi) {
    std::uniform_real_distribution<float> dist(lo, hi);
    return dist(engine_);
  }

  /// Normal sample with the given mean and standard deviation. A zero
  /// stddev returns `mean` without drawing: std::normal_distribution
  /// requires stddev > 0.
  float Normal(float mean = 0.0f, float stddev = 1.0f) {
    if (stddev == 0.0f) return mean;
    std::normal_distribution<float> dist(mean, stddev);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi - 1);
    return dist(engine_);
  }

  /// Bernoulli trial returning true with probability p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Underlying engine, for use with standard algorithms (e.g. shuffle).
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace adaptraj

#endif  // ADAPTRAJ_TENSOR_RNG_H_
