#include "ebnn/host.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "map/mapper.hpp"
#include "map/space.hpp"
#include "nn/bitpack.hpp"
#include "obs/slo.hpp"
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
      sys_(sys),
      layout_(ebnn_layout(cfg)),
      lut_(build_bn_binact_lut(cfg, weights_.bn)),
      reference_(cfg_, weights_),
      tail_(weights_.fc, cfg_.classes,
            static_cast<std::size_t>(cfg_.feature_bits())),
      pool_(sys) {}

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

EbnnHost::PendingBatch EbnnHost::start_batch(
    runtime::DpuPool& pool, const std::vector<Image>& images,
    std::size_t first, std::size_t count, const map::MappingPlan& plan,
    runtime::OptLevel opt, runtime::PipelineModel* model, unsigned bank,
    std::size_t item) {
  require(count > 0 && first + count <= images.size(),
          "EbnnHost::run: bad batch sub-range");
  const std::size_t img_bytes =
      static_cast<std::size_t>(cfg_.img_h) * cfg_.img_w;
  for (const Image& im : images) {
    require(im.size() == img_bytes, "EbnnHost::run: wrong image size");
  }

  const std::uint32_t n_tasklets = plan.n_tasklets;
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const auto n_dpus = KernelSession::dpus_for(count, per_dpu);

  const sim::HostXferStats before = pool.host_stats();
  PendingBatch pb;
  pb.pool = &pool;
  pb.images = &images;
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

EbnnBatchResult EbnnHost::finish_batch(PendingBatch pending,
                                       runtime::PipelineModel* model) {
  KernelSession& session = *pending.session;
  const std::vector<Image>& images = *pending.images;
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

EbnnBatchResult EbnnHost::run_split(const std::vector<Image>& images,
                                    const map::MappingPlan& plan,
                                    runtime::OptLevel opt,
                                    runtime::PipelineModel* model,
                                    std::size_t item_base) {
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const std::uint32_t n_dpus =
      KernelSession::dpus_for(images.size(), per_dpu);
  const std::vector<map::SplitRange> ranges =
      map::split_ranges(n_dpus, plan.split);
  if (ranges.size() <= 1) {
    return finish_batch(start_batch(pool_, images, 0, images.size(), plan,
                                    opt, model, 0, item_base),
                        model);
  }
  if (!pool_alt_.has_value()) {
    pool_alt_.emplace(sys_);
  }
  pool_.set_obs_bank(0);
  pool_alt_->set_obs_bank(1);
  runtime::DpuPool* banks[2] = {&pool_, &*pool_alt_};

  EbnnBatchResult out;
  out.split = static_cast<std::uint32_t>(ranges.size());
  out.predicted.reserve(images.size());
  out.features.reserve(images.size());

  // Same double-buffer choreography run_pipelined uses across batches,
  // turned inward: sub-launch s runs on bank s%2, at most two in flight,
  // drained in chunk order. Chunks cover contiguous ascending image
  // ranges, so appending each sub-result keeps input order.
  std::optional<PendingBatch> pending[2];
  auto drain = [&](unsigned slot) {
    if (!pending[slot].has_value()) {
      return;
    }
    EbnnBatchResult sub = finish_batch(std::move(*pending[slot]), model);
    pending[slot].reset();
    out.predicted.insert(out.predicted.end(), sub.predicted.begin(),
                         sub.predicted.end());
    for (auto& f : sub.features) {
      out.features.push_back(std::move(f));
    }
    out.launch.merge(sub.launch);
    out.dpus_used += sub.dpus_used;
    out.host_tail_seconds += sub.host_tail_seconds;
  };
  try {
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      const unsigned slot = static_cast<unsigned>(s % 2);
      drain(slot);
      const map::SplitRange& r = ranges[s];
      const std::size_t first =
          static_cast<std::size_t>(r.first_unit) * per_dpu;
      const std::size_t count = std::min<std::size_t>(
          static_cast<std::size_t>(r.n_units) * per_dpu,
          images.size() - first);
      pending[slot] = start_batch(*banks[slot], images, first, count, plan,
                                  opt, model, slot, item_base + s);
    }
    drain(static_cast<unsigned>(ranges.size() % 2));
    drain(static_cast<unsigned>((ranges.size() + 1) % 2));
  } catch (...) {
    // In-flight launches reference sessions owned by `pending`: wait them
    // out before unwinding.
    for (auto& p : pending) {
      if (p.has_value() && p->handle.valid()) {
        try {
          p->handle.wait();
        } catch (...) {
        }
      }
    }
    throw;
  }
  return out;
}

EbnnBatchResult EbnnHost::run(const std::vector<Image>& images,
                              std::uint32_t n_tasklets,
                              runtime::OptLevel opt) {
  obs::Span batch_sp("ebnn.batch", "pipeline");
  if (batch_sp.active()) {
    batch_sp.u64("n_images", images.size());
  }
  const map::MappingPlan plan = resolve_batch_plan(
      pool_, images.size(), n_tasklets, opt, map::kMaxSplitFactor);
  if (plan.split > 1) {
    return run_split(images, plan, opt, nullptr, 0);
  }
  // Start + immediately finish: the waitable handle executes the launch
  // inline when no worker picked it up, so this is the synchronous path.
  return finish_batch(
      start_batch(pool_, images, 0, images.size(), plan, opt, nullptr, 0, 0),
      nullptr);
}

EbnnPipelineResult EbnnHost::run_pipelined(
    const std::vector<std::vector<Image>>& batches,
    std::uint32_t n_tasklets, runtime::OptLevel opt) {
  EbnnPipelineResult out;
  out.batches.resize(batches.size());
  if (batches.empty()) {
    return out;
  }
  obs::Span sp("ebnn.pipeline", "pipeline");
  if (sp.active()) {
    sp.u64("n_batches", batches.size());
  }
  if (!pool_alt_.has_value()) {
    pool_alt_.emplace(sys_);
  }
  runtime::DpuPool* banks[2] = {&pool_, &*pool_alt_};
  banks[0]->set_obs_bank(0);
  banks[1]->set_obs_bank(1);
  runtime::PipelineModel model(2);
  const bool tracing = obs::Tracer::enabled();
  const double trace_since_us =
      tracing ? obs::Tracer::instance().now_us() : 0.0;

  // A lone batch cannot overlap with a neighbor, but a split plan can
  // overlap with itself: carve it across the two banks instead.
  bool ran_split = false;
  if (batches.size() == 1) {
    const map::MappingPlan plan = resolve_batch_plan(
        pool_, batches[0].size(), n_tasklets, opt, map::kMaxSplitFactor);
    if (plan.split > 1) {
      out.batches[0] = run_split(batches[0], plan, opt, &model, 0);
      ran_split = true;
    }
  }

  // Double-buffered dispatch: batch i on bank i%2, finishing that bank's
  // previous batch first — at most two in flight, each bank serialized.
  std::optional<PendingBatch> pending[2];
  try {
    for (std::size_t i = 0; !ran_split && i < batches.size(); ++i) {
      const unsigned bank = static_cast<unsigned>(i % 2);
      if (pending[bank].has_value()) {
        const std::size_t done = pending[bank]->item;
        out.batches[done] =
            finish_batch(std::move(*pending[bank]), &model);
        pending[bank].reset();
      }
      const map::MappingPlan plan = resolve_batch_plan(
          *banks[bank], batches[i].size(), n_tasklets, opt, 1);
      pending[bank] = start_batch(*banks[bank], batches[i], 0,
                                  batches[i].size(), plan, opt, &model,
                                  bank, i);
    }
    // Drain in item order so the host-lane stages stay chronological.
    for (unsigned b = 0; b < 2; ++b) {
      const unsigned bank =
          static_cast<unsigned>((batches.size() + b) % 2);
      if (pending[bank].has_value()) {
        const std::size_t done = pending[bank]->item;
        out.batches[done] =
            finish_batch(std::move(*pending[bank]), &model);
        pending[bank].reset();
      }
    }
  } catch (...) {
    // In-flight launches reference sessions owned by `pending`: wait them
    // out before unwinding.
    for (auto& p : pending) {
      if (p.has_value() && p->handle.valid()) {
        try {
          p->handle.wait();
        } catch (...) {
        }
      }
    }
    throw;
  }

  out.pipeline = model.stats();
  if (sp.active()) {
    sp.f64("makespan_ms", out.pipeline.makespan_seconds * 1e3);
    sp.f64("speedup", out.pipeline.speedup());
  }
  if (tracing) {
    const obs::Timeline tl = obs::Timeline::from_events(
        obs::Tracer::instance().snapshot(), trace_since_us);
    if (tl.stages() > 0) {
      out.timeline = tl.report();
      obs::record_drift("ebnn", *out.timeline,
                        out.pipeline.makespan_seconds,
                        out.pipeline.overlap_efficiency());
    }
  }
  if (obs::SloTracker::enabled()) {
    for (const EbnnBatchResult& b : out.batches) {
      obs::SloTracker::instance().record(
          "ebnn.batch", (b.launch.host.host_seconds() +
                         b.launch.wall_seconds + b.host_tail_seconds) *
                            1e3);
    }
  }
  return out;
}

} // namespace pimdnn::ebnn
