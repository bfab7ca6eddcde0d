// Host-side orchestration of eBNN inference over a persistent DPU pool.
//
// Implements the thesis' many-images-per-DPU mapping (§4.1.3): the input
// image batch is divided by 16 (images per DPU) to get the number of DPUs;
// all DPUs run in parallel and finish at the max time of one DPU; then the
// host parses each DPU's temporary results and serially runs the Softmax
// tail per image.
//
// The host choreography is core::BatchHost's: the program is built once
// and cached by the host's pool, the conv weights and BN-LUT are broadcast
// only when an activation rebuilt or reloaded the program (warm batches
// re-send only the images + counts), results are gathered in one batched
// transfer, and every batch's host-side overhead lands in
// LaunchStats::host. This file supplies the kernel: EbnnBatchKernel.
//
// `run_pipelined` double-buffers batches across two bank pools: batch i+1
// is scattered onto the idle bank while batch i's kernel occupies the
// other bank's DPUs, so consecutive batches' DPU phases overlap in the
// modeled timeline (runtime::PipelineModel). Each bank's batches serialize
// and banks share no mutable state, so outputs are bit-identical to serial
// `run` calls.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/batch_host.hpp"
#include "ebnn/dpu_kernel.hpp"
#include "ebnn/fc_tail.hpp"
#include "ebnn/model.hpp"
#include "map/plan.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/kernel_session.hpp"

namespace pimdnn::ebnn {

/// One grayscale input image (img_h * img_w bytes).
using Image = std::vector<std::uint8_t>;

/// Result of a batched inference run.
struct EbnnBatchResult {
  /// Predicted class per image, in input order.
  std::vector<int> predicted;
  /// Feature bits per image (filters * pool_h * pool_w), as read from the
  /// DPUs — exposed so tests can compare against the golden model.
  std::vector<std::vector<int>> features;
  /// Aggregate launch statistics (wall cycles = slowest DPU).
  runtime::LaunchStats launch;
  /// DPUs used for this batch (total across sub-launches when split).
  std::uint32_t dpus_used = 0;
  /// Measured host tail of this batch (feature unpack + FC + softmax; the
  /// whole reference inference on a degraded batch).
  Seconds host_tail_seconds = 0.0;
  /// Sub-launches the batch was carved into (1 = the unsplit executor; >1
  /// when the mapper chose a dual-bank split plan).
  std::uint32_t split = 1;
};

/// Result of a double-buffered multi-batch run.
using EbnnPipelineResult = core::BatchPipelineResult<EbnnBatchResult>;

/// Appends a split chunk's per-image outputs (predictions and feature
/// bits) to the whole batch's — the eBNN kernels' `append`.
inline void append_images(EbnnBatchResult& whole, EbnnBatchResult&& chunk) {
  whole.predicted.insert(whole.predicted.end(), chunk.predicted.begin(),
                         chunk.predicted.end());
  for (auto& f : chunk.features) {
    whole.features.push_back(std::move(f));
  }
}

/// The single-block eBNN kernel as core::BatchHost drives it: weights, the
/// BN-BinAct stage, the golden model (the degraded path) and the FC tail,
/// all fixed at construction.
struct EbnnBatchKernel {
  using Result = EbnnBatchResult;

  EbnnBatchKernel(const EbnnConfig& cfg, EbnnWeights weights, BnMode mode,
                  ConvKernel conv);
  /// `reference` and `spec.kernel_cycles` point into this object.
  EbnnBatchKernel(const EbnnBatchKernel&) = delete;
  EbnnBatchKernel& operator=(const EbnnBatchKernel&) = delete;

  sim::DpuProgram build_program() const;
  /// Conv weights by broadcast_const; the BN LUT or soft-float parameters
  /// only when the activation rebuilt or reloaded the program.
  void upload(runtime::KernelSession& session) const;
  /// The golden model, bit-identical to the kernel.
  void fallback(const core::Items& images, const core::BatchChunk& chunk,
                Result& out) const;
  /// Unpacks each image's feature bits and runs FC + softmax.
  void tail(std::span<const std::uint32_t> words,
            const core::BatchChunk& chunk, Result& out) const;
  static void append(Result& whole, Result&& chunk) {
    append_images(whole, std::move(chunk));
  }

  EbnnConfig cfg;
  EbnnWeights weights;
  BnMode mode;
  ConvKernel conv;
  EbnnLayout layout;
  /// The BN stage as broadcast: LUT bytes (HostLut) or W0..W4 floats.
  std::vector<std::uint8_t> bn_bytes;
  EbnnReference reference;
  /// The per-image host tail (FC + softmax) over gathered feature bits.
  FcTail fc_tail;
  core::BatchSpec spec;
};

/// Host application that owns the weights and drives DPU batches.
class EbnnHost {
public:
  /// Builds the host app; `mode` picks soft-float vs LUT BN-BinAct and
  /// `kernel` the convolution window-gather implementation.
  EbnnHost(const EbnnConfig& cfg, EbnnWeights weights, BnMode mode,
           const runtime::UpmemConfig& sys = sim::default_config(),
           ConvKernel kernel = ConvKernel::Scalar)
      : host_(sys, cfg, std::move(weights), mode, kernel) {}

  /// Runs a batch of images. `n_tasklets` defaults to the `map::Mapper`
  /// sentinel: images-per-DPU and tasklets come from the cost-model search
  /// (or PIMDNN_MAPPING). An explicit count (<= 16) pins the thesis'
  /// mapping: 16 images per DPU, the given tasklets. `opt` is the
  /// simulated compiler optimization level.
  EbnnBatchResult run(const std::vector<Image>& images,
                      std::uint32_t n_tasklets = map::kAutoTasklets,
                      runtime::OptLevel opt = runtime::OptLevel::O3) {
    return host_.run(images, n_tasklets, opt);
  }

  /// Runs `batches` double-buffered over two bank pools (see file
  /// comment): batch i runs on bank i%2, its scatter overlapping the
  /// other bank's in-flight kernel. At most two batches are in flight;
  /// results are bit-identical to serial `run` calls on the same inputs,
  /// also under PIMDNN_FAULTS.
  EbnnPipelineResult run_pipelined(
      const std::vector<std::vector<Image>>& batches,
      std::uint32_t n_tasklets = map::kAutoTasklets,
      runtime::OptLevel opt = runtime::OptLevel::O3) {
    return host_.run_pipelined(batches, n_tasklets, opt);
  }

  /// The configuration in use.
  const EbnnConfig& config() const { return host_.kernel().cfg; }

  /// The weights in use.
  const EbnnWeights& weights() const { return host_.kernel().weights; }

  /// The BN-BinAct mode in use.
  BnMode mode() const { return host_.kernel().mode; }

  /// The convolution kernel variant in use.
  ConvKernel kernel() const { return host_.kernel().conv; }

  /// Cumulative host-side accounting of the host's pools across every
  /// batch run so far.
  sim::HostXferStats pool_host_stats() const { return host_.host_stats(); }

private:
  core::BatchHost<EbnnBatchKernel> host_;
};

} // namespace pimdnn::ebnn
