#include "ebnn/host.hpp"

#include <utility>

#include "nn/bitpack.hpp"

namespace pimdnn::ebnn {

namespace {

/// The BN stage as the kernel reads it from WRAM: the LUT bytes (HostLut)
/// or the W0..W4 floats (soft-float). The LUT is built in both modes: it
/// checks the BN parameters against the filter count.
std::vector<std::uint8_t> bn_stage_bytes(const EbnnConfig& cfg,
                                         const EbnnWeights& w, BnMode mode) {
  BnBinactLut lut = build_bn_binact_lut(cfg, w.bn);
  if (mode == BnMode::HostLut) {
    return std::move(lut.table);
  }
  std::vector<std::uint8_t> bytes;
  for (const auto* v : {&w.bn.w0, &w.bn.w1, &w.bn.w2, &w.bn.w3, &w.bn.w4}) {
    const auto* b = reinterpret_cast<const std::uint8_t*>(v->data());
    bytes.insert(bytes.end(), b, b + v->size() * sizeof(float));
  }
  return bytes;
}

} // namespace

EbnnBatchKernel::EbnnBatchKernel(const EbnnConfig& cfg_in,
                                 EbnnWeights weights_in, BnMode mode_in,
                                 ConvKernel conv_in)
    : cfg(cfg_in),
      weights(std::move(weights_in)),
      mode(mode_in),
      conv(conv_in),
      layout(ebnn_layout(cfg)),
      bn_bytes(bn_stage_bytes(cfg, weights, mode)),
      reference(cfg, weights),
      fc_tail(weights.fc, cfg.classes,
              static_cast<std::size_t>(cfg.feature_bits())) {
  spec.name = "ebnn";
  spec.program = "ebnn";
  spec.capacity = layout.max_images;
  spec.kernel_cycles = [this](std::uint32_t items, std::uint32_t t,
                              runtime::OptLevel opt) {
    return estimate_ebnn_wall_cycles(cfg, mode, conv, items, t, opt);
  };
  spec.in_stride = layout.image_stride;
  spec.in_bytes = static_cast<MemSize>(cfg.img_h) * cfg.img_w;
  spec.out_stride = layout.result_stride;
  spec.out_bytes = static_cast<MemSize>(cfg.filters) *
                   layout.words_per_filter * sizeof(std::uint32_t);
  spec.const_bytes =
      weights.conv_bits.size() * sizeof(std::uint32_t) + bn_bytes.size();
  spec.in_symbol = symbols::kImages;
  spec.meta_symbol = symbols::kMeta;
  spec.out_symbol = symbols::kResults;
}

sim::DpuProgram EbnnBatchKernel::build_program() const {
  return make_ebnn_program(cfg, mode, conv);
}

void EbnnBatchKernel::upload(runtime::KernelSession& session) const {
  // Weights and the BN stage are WRAM constants: warm batches pay only for
  // images + counts.
  session.broadcast_const(symbols::kConvWeights, weights.conv_bits.data(),
                          weights.conv_bits.size() * sizeof(std::uint32_t));
  if (session.activation() != runtime::DpuPool::Activation::Active) {
    session.broadcast(
        mode == BnMode::HostLut ? symbols::kBnLut : symbols::kBnParams,
        bn_bytes.data(), bn_bytes.size());
  }
}

void EbnnBatchKernel::fallback(const core::Items& images,
                               const core::BatchChunk& chunk,
                               Result& out) const {
  out.predicted.reserve(chunk.count);
  out.features.reserve(chunk.count);
  for (std::size_t i = 0; i < chunk.count; ++i) {
    EbnnActivations a = reference.infer(images[chunk.first + i].data());
    out.predicted.push_back(a.predicted);
    out.features.push_back(std::move(a.feature));
  }
}

void EbnnBatchKernel::tail(std::span<const std::uint32_t> words,
                           const core::BatchChunk& chunk, Result& out) const {
  const std::size_t feat_words = spec.out_words();
  const auto filters = static_cast<std::size_t>(cfg.filters);
  const auto ppf = static_cast<std::size_t>(cfg.pool_h() * cfg.pool_w());
  out.predicted.reserve(chunk.count);
  out.features.reserve(chunk.count);
  std::vector<float> logits(static_cast<std::size_t>(cfg.classes));
  std::vector<float> probs(logits.size());
  for (std::size_t i = 0; i < chunk.count; ++i) {
    const std::uint32_t* w = words.data() + i * feat_words;
    std::vector<int> feature(fc_tail.features());
    for (std::size_t f = 0; f < filters; ++f) {
      nn::unpack_bits(
          std::span(w + f * layout.words_per_filter, layout.words_per_filter),
          std::span(feature).subspan(f * ppf, ppf));
    }
    out.predicted.push_back(fc_tail.infer(feature, logits, probs));
    out.features.push_back(std::move(feature));
  }
}

} // namespace pimdnn::ebnn
