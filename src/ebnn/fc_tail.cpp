#include "ebnn/fc_tail.hpp"

#include <cstring>

#include "common/error.hpp"
#include "nn/layers.hpp"

namespace pimdnn::ebnn {

namespace {

/// Four float lanes. GCC and Clang apply each operator lane by lane with
/// scalar float semantics, so every lane rounds as the scalar sum would.
using Lanes4 [[gnu::vector_size(16)]] = float;

} // namespace

FcTail::FcTail(std::span<const float> fc, int classes, std::size_t features)
    : classes_(classes),
      features_(features),
      groups_((static_cast<std::size_t>(classes) + kGroupLanes - 1) /
              kGroupLanes) {
  require(classes > 0 && features > 0, "FcTail: empty FC layer");
  require(fc.size() == static_cast<std::size_t>(classes) * features,
          "FcTail: FC weights are not classes x features");
  weights_.assign(groups_ * features_ * kGroupLanes, 0.0f);
  for (std::size_t c = 0; c < static_cast<std::size_t>(classes); ++c) {
    const std::size_t g = c / kGroupLanes;
    const std::size_t lane = c % kGroupLanes;
    for (std::size_t i = 0; i < features_; ++i) {
      weights_[(g * features_ + i) * kGroupLanes + lane] =
          fc[c * features_ + i];
    }
  }
}

int FcTail::infer(std::span<const int> feature, std::span<float> logits,
                  std::span<float> probs) const {
  const auto n_classes = static_cast<std::size_t>(classes_);
  if (feature.size() != features_ || logits.size() != n_classes ||
      probs.size() != n_classes) {
    throw UsageError("FcTail::infer: feature map or buffer size mismatch");
  }
  static_assert(kGroupLanes == 16, "one pass keeps four 4-lane sums");
  for (std::size_t g = 0; g < groups_; ++g) {
    // Named sums, not an array: compilers then keep them in registers
    // across the feature loop at -O2 as well as -O3.
    Lanes4 acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
    const float* row = weights_.data() + g * features_ * kGroupLanes;
    for (std::size_t i = 0; i < features_; ++i, row += kGroupLanes) {
      const auto sign = static_cast<float>(2 * feature[i] - 1);
      Lanes4 w[4];
      std::memcpy(w, row, sizeof(w));
      acc0 += w[0] * sign;
      acc1 += w[1] * sign;
      acc2 += w[2] * sign;
      acc3 += w[3] * sign;
    }
    const Lanes4 acc[4] = {acc0, acc1, acc2, acc3};
    float sums[kGroupLanes];
    std::memcpy(sums, acc, sizeof(sums));
    const std::size_t first = g * kGroupLanes;
    for (std::size_t l = 0; l < kGroupLanes && first + l < n_classes; ++l) {
      logits[first + l] = sums[l];
    }
  }
  nn::softmax(logits, probs);
  return static_cast<int>(nn::argmax(probs));
}

} // namespace pimdnn::ebnn
