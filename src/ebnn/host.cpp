#include "ebnn/host.hpp"

#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "map/mapper.hpp"
#include "map/space.hpp"
#include "nn/bitpack.hpp"
#include "obs/trace.hpp"
#include "runtime/host_timer.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/report.hpp"

namespace pimdnn::ebnn {

using runtime::DpuPool;
using runtime::KernelSession;

EbnnHost::EbnnHost(const EbnnConfig& cfg, EbnnWeights weights, BnMode mode,
                   const runtime::UpmemConfig& sys, ConvKernel kernel)
    : cfg_(cfg),
      weights_(std::move(weights)),
      mode_(mode),
      kernel_(kernel),
      layout_(ebnn_layout(cfg)),
      lut_(build_bn_binact_lut(cfg, weights_.bn)),
      reference_(cfg_, weights_),
      tail_(weights_.fc, cfg_.classes,
            static_cast<std::size_t>(cfg_.feature_bits())),
      banks_(sys) {}

map::MappingPlan EbnnHost::resolve_batch_plan(runtime::DpuPool& pool,
                                              std::size_t n_images,
                                              std::uint32_t n_tasklets,
                                              runtime::OptLevel opt,
                                              std::uint32_t max_split) {
  require(n_images > 0, "EbnnHost::run: empty batch");
  if (n_tasklets != map::kAutoTasklets) {
    require(n_tasklets >= 1 && n_tasklets <= layout_.max_images,
            "EbnnHost::run: tasklets must be in [1, 16]");
  }
  // Resolve the (images_per_dpu, tasklets, split) mapping through
  // map::Mapper: auto-sentinel callers get the cost-model argmin (or
  // PIMDNN_MAPPING); an explicit tasklet count pins the thesis' mapping.
  map::BatchRequest mreq;
  mreq.n_items = n_images;
  mreq.capacity = layout_.max_images;
  mreq.kernel_cycles = [this, opt](std::uint32_t items, std::uint32_t t) {
    return estimate_ebnn_wall_cycles(cfg_, mode_, kernel_, items, t, opt);
  };
  mreq.item_in_bytes = layout_.image_stride;
  mreq.item_out_bytes = layout_.result_stride;
  mreq.const_bytes_per_dpu =
      weights_.conv_bits.size() * sizeof(std::uint32_t) +
      (mode_ == BnMode::HostLut
           ? lut_.table.size()
           : 5 * static_cast<std::size_t>(cfg_.filters) * sizeof(float));
  mreq.pinned_tasklets = n_tasklets;
  mreq.max_split = max_split;
  // Plan against the pool's health picture: quarantines shrink the usable
  // capacity, reintegrations restore it (clean pools plan the full system).
  if (pool.plan_capacity() < pool.config().total_dpus) {
    mreq.limits.max_dpus = pool.plan_capacity();
  }
  return map::Mapper().plan_batch(mreq);
}

runtime::PendingBatch EbnnHost::start_batch(
    runtime::DpuPool& pool, const std::vector<Image>& images,
    std::size_t first, std::size_t count, const map::MappingPlan& plan,
    runtime::OptLevel opt, runtime::PipelineModel* model, unsigned bank,
    std::size_t item) {
  require(count > 0 && first + count <= images.size(),
          "EbnnHost::run: bad batch sub-range");
  const std::size_t img_bytes =
      static_cast<std::size_t>(cfg_.img_h) * cfg_.img_w;

  const std::uint32_t n_tasklets = plan.n_tasklets;
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const auto n_dpus = KernelSession::dpus_for(count, per_dpu);

  const sim::HostXferStats before = pool.host_stats();
  runtime::PendingBatch pb;
  pb.pool = &pool;
  pb.items = &images;
  pb.n_dpus = n_dpus;
  pb.per_dpu = per_dpu;
  pb.bank = bank;
  pb.item = item;
  pb.first = first;
  pb.count = count;
  pb.session = std::make_unique<KernelSession>(
      pool, "ebnn", n_dpus,
      [&] { return make_ebnn_program(cfg_, mode_, kernel_); });
  KernelSession& session = *pb.session;
  session.annotate(plan.obs_suffix());
  // A split sub-launch is predicted to carry its share of the plan's
  // transfer volume; the whole batch (count == images.size()) keeps the
  // plan's figures verbatim.
  session.set_predicted(plan.predicted.kernel_cycles,
                        (plan.predicted.to_dpu_seconds +
                         plan.predicted.from_dpu_seconds) *
                            (static_cast<double>(count) /
                             static_cast<double>(images.size())));

  // Weights and the BN stage are WRAM constants: broadcast_const re-sends
  // them only when the activation rebuilt/reloaded the program, so warm
  // batches pay only for images + counts.
  session.broadcast_const(symbols::kConvWeights, weights_.conv_bits.data(),
                          weights_.conv_bits.size() * sizeof(std::uint32_t));
  if (session.activation() != DpuPool::Activation::Active) {
    if (mode_ == BnMode::HostLut) {
      session.broadcast(symbols::kBnLut, lut_.table.data(),
                        lut_.table.size());
    } else {
      std::vector<float> bn;
      bn.reserve(5 * static_cast<std::size_t>(cfg_.filters));
      for (const auto* v : {&weights_.bn.w0, &weights_.bn.w1, &weights_.bn.w2,
                            &weights_.bn.w3, &weights_.bn.w4}) {
        bn.insert(bn.end(), v->begin(), v->end());
      }
      session.broadcast(symbols::kBnParams, bn.data(),
                        bn.size() * sizeof(float));
    }
  }

  // Scatter images and per-DPU true counts (Eqs. 3.2/3.3 + the §3.2 rule).
  session.scatter_items(symbols::kImages, symbols::kMeta, count, per_dpu,
                        layout_.image_stride, img_bytes, [&](std::size_t i) {
                          return images[first + i].data();
                        });

  if (model != nullptr) {
    const sim::HostXferStats d =
        sim::host_xfer_delta(pool.host_stats(), before);
    model->xfer_stage(item, bank, d.to_dpu_seconds + d.load_seconds);
  }

  // Launch on the HostPool: the caller's next batch scatters on the other
  // bank while this one's kernel is in flight.
  pb.handle = session.launch_async(n_tasklets, opt);
  return pb;
}

EbnnBatchResult EbnnHost::finish_batch(runtime::PendingBatch pending,
                                       runtime::PipelineModel* model) {
  KernelSession& session = *pending.session;
  const std::vector<Image>& images = *pending.items;
  const std::uint32_t per_dpu = pending.per_dpu;
  const std::size_t feat_words = static_cast<std::size_t>(cfg_.filters) *
                                 layout_.words_per_filter;
  const auto filters = static_cast<std::size_t>(cfg_.filters);
  const auto ppf = static_cast<std::size_t>(cfg_.pool_h() * cfg_.pool_w());

  EbnnBatchResult out;
  out.dpus_used = pending.n_dpus;
  out.predicted.reserve(pending.count);
  out.features.reserve(pending.count);

  runtime::HostTimer ht;
  // A degraded session routes the sub-range through the reference model,
  // which is bit-identical to the kernel.
  if (!pending.handle.wait()) {
    ht.start();
    for (std::size_t i = 0; i < pending.count; ++i) {
      EbnnActivations a = reference_.infer(images[pending.first + i].data());
      out.predicted.push_back(a.predicted);
      out.features.push_back(std::move(a.feature));
    }
    out.host_tail_seconds = ht.elapsed();
    out.launch = session.finish();
    if (model != nullptr) {
      model->host_stage(pending.item, out.host_tail_seconds);
    }
    return out;
  }

  // Batched gather of the raw feature words, then the host tail per image
  // (unpack + FC + softmax) — separated so the transfer wall and the tail
  // compute land in their own pipeline stages.
  const sim::HostXferStats before = pending.pool->host_stats();
  std::vector<std::uint32_t> words(pending.count * feat_words);
  session.gather_items(
      symbols::kResults, pending.count, per_dpu, layout_.result_stride,
      [&](std::size_t i, const std::uint8_t* slot) {
        std::memcpy(words.data() + i * feat_words, slot,
                    feat_words * sizeof(std::uint32_t));
      });
  const sim::HostXferStats gathered =
      sim::host_xfer_delta(pending.pool->host_stats(), before);

  ht.start();
  std::vector<float> logits(static_cast<std::size_t>(cfg_.classes));
  std::vector<float> probs(logits.size());
  for (std::size_t i = 0; i < pending.count; ++i) {
    const std::uint32_t* w = words.data() + i * feat_words;
    std::vector<int> feature(tail_.features());
    for (std::size_t f = 0; f < filters; ++f) {
      nn::unpack_bits(
          std::span(w + f * layout_.words_per_filter,
                    layout_.words_per_filter),
          std::span(feature).subspan(f * ppf, ppf));
    }
    out.predicted.push_back(tail_.infer(feature, logits, probs));
    out.features.push_back(std::move(feature));
  }
  out.host_tail_seconds = ht.elapsed();
  out.launch = session.finish();

  if (model != nullptr) {
    // Reported here (after the fact) but in per-lane chronological order:
    // kernel on the bank, gather on host+bank, tail on the host.
    model->dpu_stage(pending.item, pending.bank, out.launch.wall_seconds);
    model->xfer_stage(pending.item, pending.bank,
                      gathered.from_dpu_seconds);
    model->host_stage(pending.item, out.host_tail_seconds);
  }
  return out;
}

std::vector<EbnnBatchResult> EbnnHost::execute(
    std::span<const std::vector<Image>> batches, std::uint32_t n_tasklets,
    runtime::OptLevel opt, runtime::PipelineModel* model) {
  const std::size_t img_bytes =
      static_cast<std::size_t>(cfg_.img_h) * cfg_.img_w;
  for (const std::vector<Image>& batch : batches) {
    for (const Image& im : batch) {
      require(im.size() == img_bytes, "EbnnHost::run: wrong image size");
    }
  }
  return map::run_batches(
      batches,
      [&](unsigned bank, std::size_t n_images, std::uint32_t max_split) {
        return resolve_batch_plan(banks_[bank], n_images, n_tasklets, opt,
                                  max_split);
      },
      [&](const std::vector<Image>& batch, std::size_t first,
          std::size_t count, const map::MappingPlan& plan, unsigned bank,
          std::size_t w) {
        return start_batch(banks_[bank], batch, first, count, plan, opt,
                           model, bank, w);
      },
      [&](runtime::PendingBatch p) {
        return finish_batch(std::move(p), model);
      },
      [](EbnnBatchResult& whole, EbnnBatchResult&& chunk) {
        whole.predicted.insert(whole.predicted.end(), chunk.predicted.begin(),
                               chunk.predicted.end());
        for (auto& f : chunk.features) {
          whole.features.push_back(std::move(f));
        }
        whole.launch.merge(chunk.launch);
        whole.dpus_used += chunk.dpus_used;
        whole.host_tail_seconds += chunk.host_tail_seconds;
      });
}

EbnnBatchResult EbnnHost::run(const std::vector<Image>& images,
                              std::uint32_t n_tasklets,
                              runtime::OptLevel opt) {
  obs::Span batch_sp("ebnn.batch", "pipeline");
  if (batch_sp.active()) {
    batch_sp.u64("n_images", images.size());
  }
  return std::move(
      execute(std::span(&images, 1), n_tasklets, opt, nullptr).front());
}

EbnnPipelineResult EbnnHost::run_pipelined(
    const std::vector<std::vector<Image>>& batches,
    std::uint32_t n_tasklets, runtime::OptLevel opt) {
  EbnnPipelineResult out;
  if (batches.empty()) {
    return out;
  }
  runtime::PipelineRun run("ebnn", "n_batches", batches.size());
  out.batches = execute(batches, n_tasklets, opt, &run.model());
  run.close(out.pipeline, out.timeline, out.batches, "ebnn.batch",
            [](const EbnnBatchResult& b) {
              return b.launch.host.host_seconds() + b.launch.wall_seconds +
                     b.host_tail_seconds;
            });
  return out;
}

} // namespace pimdnn::ebnn
