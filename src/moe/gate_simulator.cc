#include "src/moe/gate_simulator.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>

#include "src/util/logging.h"
#include "src/util/math.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

int Gcd(int a, int b) { return b == 0 ? a : Gcd(b, a % b); }

// Stateless 64-bit mix of up to four keys; the basis of all deterministic noise here.
uint64_t MixKeys(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  uint64_t state = a * 0x9e3779b97f4a7c15ULL;
  state ^= b + 0xbf58476d1ce4e5b9ULL + (state << 6) + (state >> 2);
  state ^= c + 0x94d049bb133111ebULL + (state << 6) + (state >> 2);
  state ^= d + 0x2545f4914f6cdd1dULL + (state << 6) + (state >> 2);
  return SplitMix64(state);
}

// Deterministic standard Gaussian from a hash key (Box-Muller over two derived uniforms).
double HashedGaussian(uint64_t key) {
  uint64_t s = key;
  const uint64_t u1_bits = SplitMix64(s);
  const uint64_t u2_bits = SplitMix64(s);
  double u1 = static_cast<double>(u1_bits >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(u2_bits >> 11) * 0x1.0p-53;
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace

GateSimulator::GateSimulator(const ModelConfig& config, const GateProfile& profile,
                             uint64_t seed)
    : config_(config), profile_(profile), seed_(seed) {
  FMOE_CHECK(config.num_layers > 0 && config.experts_per_layer > 0);
  FMOE_CHECK(config.top_k >= 1 && config.top_k <= config.experts_per_layer);
  FMOE_CHECK(profile.num_clusters > 0);

  const int L = config_.num_layers;
  const int J = config_.experts_per_layer;

  // Static affinity texture: for every (cluster, layer), a peaked logit profile with a
  // primary, secondary, and tertiary expert plus low-amplitude jitter on the rest.
  Rng rng(seed);
  base_logits_.resize(static_cast<size_t>(profile_.num_clusters));
  for (int c = 0; c < profile_.num_clusters; ++c) {
    auto& cluster_logits = base_logits_[static_cast<size_t>(c)];
    cluster_logits.assign(static_cast<size_t>(L) * static_cast<size_t>(J), 0.0);
    for (int l = 0; l < L; ++l) {
      const int primary = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(J)));
      int secondary = primary;
      int tertiary = primary;
      if (J > 1) {
        secondary = (primary + 1 +
                     static_cast<int>(rng.NextBounded(static_cast<uint64_t>(J - 1)))) % J;
        do {
          tertiary = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(J)));
        } while (tertiary == primary);
      }
      for (int j = 0; j < J; ++j) {
        double logit = profile_.base_logit_jitter * rng.NextDouble();
        if (j == primary) {
          logit += profile_.primary_logit;
        } else if (j == secondary) {
          logit += profile_.secondary_logit;
        } else if (j == tertiary) {
          logit += profile_.tertiary_logit;
        }
        cluster_logits[static_cast<size_t>(l) * static_cast<size_t>(J) +
                       static_cast<size_t>(j)] = logit;
      }
    }
  }

  // Rotation strides: coprime with J so the primary expert cycles through all J experts over
  // iterations, giving the load-balanced request-level aggregate of Fig. 3.
  layer_strides_.resize(static_cast<size_t>(L));
  for (int l = 0; l < L; ++l) {
    if (J == 1) {
      layer_strides_[static_cast<size_t>(l)] = 0;
      continue;
    }
    int stride = 1 + (l % (J - 1));
    while (Gcd(stride, J) != 1) {
      stride = (stride % (J - 1)) + 1;
    }
    layer_strides_[static_cast<size_t>(l)] = stride;
  }
}

int GateSimulator::RotationOffset(int iteration, int layer) const {
  const int J = config_.experts_per_layer;
  if (J <= 1) {
    return 0;
  }
  const int phase = iteration / std::max(profile_.phase_period, 1);
  return (phase * layer_strides_[static_cast<size_t>(layer)]) % J;
}

const double& GateSimulator::BaseLogit(int cluster, int layer, int expert) const {
  return base_logits_[static_cast<size_t>(cluster)]
                     [static_cast<size_t>(layer) * static_cast<size_t>(config_.experts_per_layer) +
                      static_cast<size_t>(expert)];
}

std::vector<double> GateSimulator::Logits(const RequestRouting& routing, int iteration,
                                          int layer, uint64_t token_salt) const {
  std::vector<double> logits;
  LogitsInto(routing, iteration, layer, token_salt, &logits);
  return logits;
}

void GateSimulator::LogitsInto(const RequestRouting& routing, int iteration, int layer,
                               uint64_t token_salt, std::vector<double>* out) const {
  const int J = config_.experts_per_layer;
  const int rot = RotationOffset(iteration, layer);
  const int c0 = routing.cluster % profile_.num_clusters;
  const int c1 = routing.blend_cluster % profile_.num_clusters;
  const double w = Clip(routing.blend_weight, 0.0, 0.9);

  std::vector<double>& logits = *out;
  logits.resize(static_cast<size_t>(J));
  for (int j = 0; j < J; ++j) {
    // The profile is indexed at (j - rot) mod J: the whole affinity pattern shifts by `rot`
    // experts at this iteration.
    const int src = ((j - rot) % J + J) % J;
    const double base = (1.0 - w) * BaseLogit(c0, layer, src) + w * BaseLogit(c1, layer, src);
    const uint64_t key =
        MixKeys(routing.seed ^ seed_,
                (static_cast<uint64_t>(static_cast<uint32_t>(iteration)) << 32) |
                    static_cast<uint64_t>(static_cast<uint32_t>(layer)),
                static_cast<uint64_t>(j), token_salt);
    const double noise =
        profile_.noise_scale * routing.noise_multiplier * HashedGaussian(key);
    logits[static_cast<size_t>(j)] = base + noise;
  }
}

std::vector<double> GateSimulator::TokenDistribution(const RequestRouting& routing,
                                                     int iteration, int layer,
                                                     uint64_t token_salt) const {
  std::vector<double> logits = Logits(routing, iteration, layer, token_salt);
  SoftmaxInPlace(logits, profile_.temperature);
  return logits;
}

std::vector<double> GateSimulator::Distribution(const RequestRouting& routing, int iteration,
                                                int layer) const {
  std::vector<double> out;
  DistributionInto(routing, iteration, layer, &out);
  return out;
}

void GateSimulator::DistributionInto(const RequestRouting& routing, int iteration, int layer,
                                     std::vector<double>* out) const {
  FMOE_CHECK(layer >= 0 && layer < config_.num_layers);
  FMOE_CHECK(iteration >= 0);
  if (iteration > 0) {
    LogitsInto(routing, iteration, layer, /*token_salt=*/0, out);
    SoftmaxInPlace(*out, profile_.temperature);
    return;
  }
  // Prefill: the recorded map entry is the mean gate output over sampled prompt tokens.
  const int samples = std::max(1, profile_.prefill_token_samples);
  out->assign(static_cast<size_t>(config_.experts_per_layer), 0.0);
  for (int t = 0; t < samples; ++t) {
    const std::vector<double> p =
        TokenDistribution(routing, iteration, layer, static_cast<uint64_t>(t) + 1);
    AddInPlace(*out, p);
  }
  NormalizeInPlace(*out);
}

std::vector<int> GateSimulator::ActivatedExperts(const RequestRouting& routing, int iteration,
                                                 int layer, int prompt_tokens) const {
  const size_t k = static_cast<size_t>(config_.top_k);
  if (iteration > 0) {
    const std::vector<double> p = TokenDistribution(routing, iteration, layer, 0);
    const std::vector<size_t> top = TopKIndices(p, k);
    std::vector<int> out(top.begin(), top.end());
    std::sort(out.begin(), out.end());
    return out;
  }
  // Prefill: union of top-K over representative tokens.
  const int samples =
      std::max(1, std::min(profile_.prefill_token_samples, std::max(prompt_tokens, 1)));
  std::vector<bool> active(static_cast<size_t>(config_.experts_per_layer), false);
  for (int t = 0; t < samples; ++t) {
    const std::vector<double> p =
        TokenDistribution(routing, iteration, layer, static_cast<uint64_t>(t) + 1);
    for (size_t idx : TopKIndices(p, k)) {
      active[idx] = true;
    }
  }
  std::vector<int> out;
  for (int j = 0; j < config_.experts_per_layer; ++j) {
    if (active[static_cast<size_t>(j)]) {
      out.push_back(j);
    }
  }
  return out;
}

std::vector<double> GateSimulator::SpeculativeDistribution(const RequestRouting& routing,
                                                           int iteration, int layer,
                                                           int distance) const {
  if (distance <= 0) {
    return Distribution(routing, iteration, layer);
  }
  // Logit-space corruption growing as sqrt(distance): predicting further ahead is harder (a
  // deeper stack of residual updates separates the predictor's input from the target gate).
  // The corruption is keyed by the routing *phase*, not the iteration, so a predictor's errors
  // are stable across consecutive tokens — real speculative predictors see near-identical
  // hidden states token-to-token and repeat their mistakes rather than redrawing them.
  const int J = config_.experts_per_layer;
  const int phase = iteration / std::max(profile_.phase_period, 1);
  const double sigma =
      profile_.speculative_sigma * std::sqrt(static_cast<double>(distance));
  std::vector<double> logits = Logits(routing, iteration, layer, /*token_salt=*/0);
  for (int j = 0; j < J; ++j) {
    const uint64_t key = MixKeys(routing.seed ^ seed_ ^ 0xabcdef1234567890ULL,
                                 static_cast<uint64_t>(static_cast<uint32_t>(phase)),
                                 (static_cast<uint64_t>(static_cast<uint32_t>(layer)) << 8) |
                                     static_cast<uint64_t>(static_cast<uint32_t>(distance)),
                                 static_cast<uint64_t>(j));
    logits[static_cast<size_t>(j)] += sigma * HashedGaussian(key);
  }
  SoftmaxInPlace(logits, profile_.temperature);
  return logits;
}

}  // namespace fmoe
