// Deterministic random number facade. Every stochastic decision in the
// emulator draws from an Rng created from the experiment seed, so runs are
// reproducible and variance across seeds is a first-class experimental
// variable.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/contracts.hpp"

namespace eona::sim {

/// SplitMix64's state increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ull;

/// SplitMix64's output mixer, a bijection on 64-bit words.
constexpr std::uint64_t splitmix64_mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// SplitMix64 output for state `x`: add the gamma, then mix. A stateless
/// 64-bit hash (seed derivation, hash-style picks); a stream is successive
/// calls with the state advanced by kSplitMix64Gamma per draw.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return splitmix64_mix(x + kSplitMix64Gamma);
}

/// Seeded pseudo-random generator with the distributions the workloads need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Derive an independent child stream; used to give each subsystem its own
  /// stream so adding draws in one place does not perturb another.
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Derive a child stream keyed by `salt` WITHOUT consuming state from this
  /// stream. Fault injection uses this: a channel's fault stream must be
  /// reproducible from (seed, salt) alone, and enabling faults must not
  /// advance -- and thereby perturb -- the workload's entropy stream.
  [[nodiscard]] Rng fork_salted(std::uint64_t salt) const {
    return Rng(splitmix64_mix(seed_ ^ (salt + kSplitMix64Gamma)));
  }

  /// The seed this stream was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    EONA_EXPECTS(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    EONA_EXPECTS(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// True with probability p.
  bool bernoulli(double p) {
    EONA_EXPECTS(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponential with the given mean (inter-arrival times).
  double exponential(double mean) {
    EONA_EXPECTS(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normal; sigma may be zero (returns mu).
  double normal(double mu, double sigma) {
    EONA_EXPECTS(sigma >= 0.0);
    if (sigma == 0.0) return mu;
    return std::normal_distribution<double>(mu, sigma)(engine_);
  }

  /// Log-normal parameterised by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    EONA_EXPECTS(sigma >= 0.0);
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy-tailed sizes).
  double pareto(double xm, double alpha) {
    EONA_EXPECTS(xm > 0.0 && alpha > 0.0);
    double u = uniform(0.0, 1.0);
    // Guard the u == 0 corner (would divide by zero).
    if (u <= 0.0) u = 1e-12;
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Poisson count with the given mean.
  std::int64_t poisson(double mean) {
    EONA_EXPECTS(mean >= 0.0);
    if (mean == 0.0) return 0;
    return std::poisson_distribution<std::int64_t>(mean)(engine_);
  }

  /// Index drawn from a discrete distribution proportional to weights.
  std::size_t weighted_index(const std::vector<double>& weights) {
    EONA_EXPECTS(!weights.empty());
    return std::discrete_distribution<std::size_t>(weights.begin(),
                                                   weights.end())(engine_);
  }

  /// Raw 64-bit draw (used by fork and hashing-style consumers).
  std::uint64_t next_u64() { return engine_(); }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// Precomputed Zipf(s) sampler over ranks [0, n): rank r has probability
/// proportional to 1/(r+1)^s. Content popularity in CDN workloads is
/// classically Zipf-distributed.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : weights_(n) {
    EONA_EXPECTS(n > 0);
    EONA_EXPECTS(s >= 0.0);
    for (std::size_t r = 0; r < n; ++r)
      weights_[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    dist_ = std::discrete_distribution<std::size_t>(weights_.begin(),
                                                    weights_.end());
  }

  [[nodiscard]] std::size_t size() const { return weights_.size(); }

  std::size_t sample(Rng& rng) const {
    // discrete_distribution needs an engine; route through Rng's raw draws
    // via a thin adaptor to keep all entropy in one stream.
    struct Adaptor {
      Rng& rng;
      using result_type = std::uint64_t;
      static constexpr result_type min() { return 0; }
      static constexpr result_type max() { return ~result_type{0}; }
      result_type operator()() { return rng.next_u64(); }
    } adaptor{rng};
    return dist_(adaptor);
  }

  /// Probability mass of a given rank (for analytic checks in tests).
  [[nodiscard]] double probability(std::size_t rank) const {
    EONA_EXPECTS(rank < weights_.size());
    double total = 0.0;
    for (double w : weights_) total += w;
    return weights_[rank] / total;
  }

 private:
  std::vector<double> weights_;
  mutable std::discrete_distribution<std::size_t> dist_;
};

}  // namespace eona::sim
