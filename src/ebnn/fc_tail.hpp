// The host tail of both eBNN hosts: FC + softmax + argmax per image.
//
// After the DPUs finish, the host "serially sends a single image's
// processed result to the softmax layer for inference" (§4.1.3). The
// golden models compute each class's logit as one float sum over the
// feature bits, class by class — a chain of dependent adds per class with
// a ternary sign inside. `FcTail` computes the same sums in one branchless
// pass: the FC weights are copied once into a class-interleaved layout
// (`[feature][class]`, classes padded to a lane group), and every feature
// updates all classes' independent accumulators at once.
//
// The logits are bit-identical to the golden models': each class still
// sums the same terms, starting from 0.0f, in the original feature order;
// the sign is `2*bit-1`, and multiplying by +-1.0f is exact; the build
// sets -ffp-contract=off, so no multiply-add is fused.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pimdnn::ebnn {

/// Class-interleaved FC + softmax tail over binary feature maps.
class FcTail {
public:
  /// Copies `fc` (row-major `classes` x `features` floats, the layout of
  /// EbnnWeights::fc and DeepEbnnWeights::fc) into the interleaved layout.
  FcTail(std::span<const float> fc, int classes, std::size_t features);

  /// Runs FC, softmax and argmax on one feature map whose values are bits
  /// (0 or 1). `logits` and `probs` are caller-owned buffers of `classes`
  /// floats, overwritten. Returns the predicted class (lowest index on
  /// ties).
  int infer(std::span<const int> feature, std::span<float> logits,
            std::span<float> probs) const;

  /// Feature bits per image.
  std::size_t features() const { return features_; }

private:
  /// Classes one pass accumulates: four 4-float vectors, which fit the
  /// baseline x86-64 register file with room for the weights being added.
  static constexpr std::size_t kGroupLanes = 16;

  int classes_;
  std::size_t features_;
  /// Lane groups of kGroupLanes classes each (the last one zero-padded).
  std::size_t groups_;
  /// weights_[(g * features_ + i) * kGroupLanes + l] = fc[c][i] for class
  /// c = g * kGroupLanes + l.
  std::vector<float> weights_;
};

} // namespace pimdnn::ebnn
