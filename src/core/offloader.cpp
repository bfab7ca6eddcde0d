#include "core/offloader.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "map/space.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/host_timer.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/report.hpp"

namespace pimdnn::core {

using runtime::KernelSession;
using sim::MemKind;
using sim::TaskletCtx;

namespace {

/// Largest single MRAM<->WRAM DMA the hardware performs (§4.1.3); bigger
/// buffers move in chunks.
constexpr MemSize kDmaMax = 2048;

/// DMA of arbitrary size via <=2048-byte chunks.
void chunked_read(TaskletCtx& ctx, std::uint8_t* dst, MemSize src,
                  MemSize bytes) {
  MemSize off = 0;
  while (off < bytes) {
    const MemSize n = std::min(kDmaMax, bytes - off);
    ctx.mram_read(dst + off, src + off, n);
    ctx.charge_loop(1);
    off += n;
  }
}

void chunked_write(TaskletCtx& ctx, MemSize dst, const std::uint8_t* src,
                   MemSize bytes) {
  MemSize off = 0;
  while (off < bytes) {
    const MemSize n = std::min(kDmaMax, bytes - off);
    ctx.mram_write(dst + off, src + off, n);
    ctx.charge_loop(1);
    off += n;
  }
}

} // namespace

Offloader::Offloader(WorkloadSpec spec, ItemKernel kernel,
                     const runtime::UpmemConfig& sys)
    : spec_(std::move(spec)), kernel_(std::move(kernel)), sys_(sys),
      pool_(sys) {
  require(static_cast<bool>(kernel_), "Offloader needs a kernel");
  if (spec_.item_in_bytes == 0 || spec_.item_out_bytes == 0) {
    throw ConfigError("WorkloadSpec: item sizes must be positive");
  }
  if (spec_.items_per_dpu == 0 ||
      spec_.items_per_dpu > sys_.max_tasklets) {
    throw ConfigError("WorkloadSpec: items_per_dpu must be in [1, 24]");
  }
  in_stride_ = align_up(spec_.item_in_bytes, kXferAlign);
  out_stride_ = align_up(spec_.item_out_bytes, kXferAlign);
  // Fail fast on impossible WRAM mappings: a throwaway DPU performs the
  // placement checks the real toolchain's linker would.
  sim::Dpu probe(sys_);
  probe.load(build_program());
}

sim::DpuProgram Offloader::build_program() const {
  sim::DpuProgram prog;
  prog.name = spec_.name;
  prog.iram_bytes = spec_.iram_bytes;
  const MemSize n = spec_.items_per_dpu;
  prog.symbols = {
      {"meta", MemKind::Wram, 8},
      {"in_mram", MemKind::Mram, n * in_stride_},
      {"out_mram", MemKind::Mram, n * out_stride_},
      {"in_buf", MemKind::Wram, n * in_stride_},
      {"out_buf", MemKind::Wram, n * out_stride_},
  };
  if (spec_.scratch_bytes_per_tasklet > 0) {
    prog.symbols.push_back(
        {"scratch", MemKind::Wram,
         n * align_up(spec_.scratch_bytes_per_tasklet, kXferAlign)});
  }
  if (!spec_.consts.empty()) {
    prog.symbols.push_back(
        {"consts", MemKind::Wram, align_up(spec_.consts.size(), kXferAlign)});
  }

  // Capture what the kernel closure needs by value.
  const WorkloadSpec spec = spec_;
  const MemSize in_stride = in_stride_;
  const MemSize out_stride = out_stride_;
  const ItemKernel kernel = kernel_;
  prog.phases = {[spec, in_stride, out_stride, kernel](TaskletCtx& ctx) {
    require(ctx.n_tasklets() <= spec.items_per_dpu,
            "offload kernel: tasklets exceed item slots");
    auto meta = ctx.wram_span<std::uint64_t>("meta");
    ctx.charge_alu(1);
    const std::uint64_t n_items = meta[0];

    auto in_all = ctx.wram_span<std::uint8_t>("in_buf");
    auto out_all = ctx.wram_span<std::uint8_t>("out_buf");
    std::uint8_t* scratch = nullptr;
    if (spec.scratch_bytes_per_tasklet > 0) {
      auto s = ctx.wram_span<std::uint8_t>("scratch");
      scratch = s.data() +
                ctx.id() * align_up(spec.scratch_bytes_per_tasklet,
                                    kXferAlign);
    }
    const std::uint8_t* consts = nullptr;
    if (!spec.consts.empty()) {
      consts = ctx.wram_span<std::uint8_t>("consts").data();
    }

    std::uint8_t* in_slot = in_all.data() + ctx.id() * in_stride;
    std::uint8_t* out_slot = out_all.data() + ctx.id() * out_stride;
    const MemSize in_base = ctx.mram_addr("in_mram");
    const MemSize out_base = ctx.mram_addr("out_mram");

    for (std::uint64_t item = ctx.id(); item < n_items;
         item += ctx.n_tasklets()) {
      chunked_read(ctx, in_slot, in_base + item * in_stride,
                   spec.item_in_bytes);
      ItemCtx ic{ctx, in_slot, out_slot, scratch, consts, item};
      kernel(ic);
      chunked_write(ctx, out_base + item * out_stride, out_slot,
                    spec.item_out_bytes);
    }
  }};
  return prog;
}

map::MappingPlan Offloader::resolve_batch_plan(runtime::DpuPool& pool,
                                               std::size_t n_items,
                                               std::uint32_t n_tasklets,
                                               std::uint32_t max_split) {
  require(n_items > 0, "Offloader::run: empty batch");
  if (n_tasklets != map::kAutoTasklets) {
    require(n_tasklets >= 1 && n_tasklets <= spec_.items_per_dpu,
            "Offloader::run: tasklets must be in [1, items_per_dpu]");
  }

  // Resolve (items_per_dpu, tasklets, split) through map::Mapper:
  // auto-sentinel callers get the cost-model argmin when the spec priced
  // its kernel (the paper capacity-filling mapping otherwise); an explicit
  // tasklet count pins the spec's mapping.
  map::BatchRequest mreq;
  mreq.n_items = n_items;
  mreq.capacity = spec_.items_per_dpu;
  mreq.kernel_cycles = spec_.kernel_cost;
  mreq.item_in_bytes = in_stride_;
  mreq.item_out_bytes = out_stride_;
  mreq.const_bytes_per_dpu = spec_.consts.size();
  mreq.pinned_tasklets = n_tasklets;
  mreq.max_split = max_split;
  // Plan against the pool's health picture: quarantines shrink the usable
  // capacity, reintegrations restore it (clean pools plan the full system).
  if (pool.plan_capacity() < pool.config().total_dpus) {
    mreq.limits.max_dpus = pool.plan_capacity();
  }
  return map::Mapper().plan_batch(mreq);
}

Offloader::PendingBatch Offloader::start_batch(
    runtime::DpuPool& pool,
    const std::vector<std::vector<std::uint8_t>>& items,
    std::size_t first, std::size_t count, const map::MappingPlan& plan,
    runtime::OptLevel opt, runtime::PipelineModel* model, unsigned bank,
    std::size_t item) {
  require(count > 0 && first + count <= items.size(),
          "Offloader::run: bad batch sub-range");
  for (const auto& it : items) {
    require(it.size() == spec_.item_in_bytes,
            "Offloader::run: item size mismatch");
  }

  const std::uint32_t n_tasklets = plan.n_tasklets;
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const auto n_dpus = KernelSession::dpus_for(count, per_dpu);

  const sim::HostXferStats before = pool.host_stats();
  PendingBatch pb;
  pb.pool = &pool;
  pb.items = &items;
  pb.n_tasklets = n_tasklets;
  pb.opt = opt;
  pb.n_dpus = n_dpus;
  pb.per_dpu = per_dpu;
  pb.bank = bank;
  pb.item = item;
  pb.first = first;
  pb.count = count;

  // One cached program per engine: the first batch loads it (and any later
  // batch that outgrows the pool reloads it); otherwise activation is a
  // no-op and the broadcast constants are still in WRAM from last time.
  pb.session = std::make_unique<KernelSession>(
      pool, "offload/" + spec_.name, n_dpus,
      [this] { return build_program(); });
  KernelSession& session = *pb.session;
  session.annotate(plan.obs_suffix());
  // A split sub-launch is predicted to carry its share of the plan's
  // transfer volume.
  session.set_predicted(plan.predicted.kernel_cycles,
                        (plan.predicted.to_dpu_seconds +
                         plan.predicted.from_dpu_seconds) *
                            (static_cast<double>(count) /
                             static_cast<double>(items.size())));
  if (!spec_.consts.empty()) {
    session.broadcast_const("consts", spec_.consts.data(),
                            spec_.consts.size());
  }

  // Scatter inputs + per-DPU true counts, then launch asynchronously so
  // the caller can stage the next batch on the other bank meanwhile.
  session.scatter_items("in_mram", "meta", count, per_dpu, in_stride_,
                        spec_.item_in_bytes, [&](std::size_t i) {
                          return items[first + i].data();
                        });

  if (model != nullptr) {
    const sim::HostXferStats d =
        sim::host_xfer_delta(pool.host_stats(), before);
    model->xfer_stage(item, bank, d.to_dpu_seconds + d.load_seconds);
  }

  pb.handle = session.launch_async(n_tasklets, opt);
  return pb;
}

OffloadResult Offloader::finish_batch(PendingBatch pending,
                                      runtime::PipelineModel* model) {
  KernelSession& session = *pending.session;
  const std::vector<std::vector<std::uint8_t>>& items = *pending.items;
  const std::uint32_t per_dpu = pending.per_dpu;

  OffloadResult out;
  out.dpus_used = pending.n_dpus;

  // A degraded session routes the sub-range through one spare private DPU
  // — the same kernel closure, chunk by chunk, so results stay
  // bit-identical.
  if (!pending.handle.wait()) {
    runtime::HostTimer ht;
    ht.start();
    out.outputs.resize(pending.count);
    run_host_fallback(items, pending.first, pending.count, per_dpu,
                      pending.n_tasklets, pending.opt, out);
    const Seconds fallback = ht.elapsed();
    out.launch = session.finish();
    if (model != nullptr) {
      model->host_stage(pending.item, fallback);
    }
    return out;
  }

  const sim::HostXferStats before = pending.pool->host_stats();
  out.outputs.resize(pending.count);
  session.gather_items("out_mram", pending.count, per_dpu, out_stride_,
                       [&](std::size_t i, const std::uint8_t* slot) {
                         out.outputs[i].assign(
                             slot, slot + spec_.item_out_bytes);
                       });
  const sim::HostXferStats gathered =
      sim::host_xfer_delta(pending.pool->host_stats(), before);

  out.launch = session.finish();
  if (model != nullptr) {
    // Reported after the fact but in per-lane chronological order:
    // kernel on the bank, then the gather transfer.
    model->dpu_stage(pending.item, pending.bank, out.launch.wall_seconds);
    model->xfer_stage(pending.item, pending.bank,
                      gathered.from_dpu_seconds);
  }
  return out;
}

OffloadResult Offloader::run_split(
    const std::vector<std::vector<std::uint8_t>>& items,
    const map::MappingPlan& plan, runtime::OptLevel opt,
    runtime::PipelineModel* model, std::size_t item_base) {
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const std::uint32_t n_dpus =
      KernelSession::dpus_for(items.size(), per_dpu);
  const std::vector<map::SplitRange> ranges =
      map::split_ranges(n_dpus, plan.split);
  if (ranges.size() <= 1) {
    return finish_batch(start_batch(pool_, items, 0, items.size(), plan,
                                    opt, model, 0, item_base),
                        model);
  }
  if (!pool_alt_.has_value()) {
    pool_alt_.emplace(sys_);
  }
  pool_.set_obs_bank(0);
  pool_alt_->set_obs_bank(1);
  runtime::DpuPool* banks[2] = {&pool_, &*pool_alt_};

  OffloadResult out;
  out.split = static_cast<std::uint32_t>(ranges.size());
  out.outputs.reserve(items.size());

  // Sub-launch s on bank s%2, at most two in flight, drained in chunk
  // order; chunks cover contiguous ascending item ranges, so appending
  // keeps input order (same choreography as run_pipelined, turned inward).
  std::optional<PendingBatch> pending[2];
  auto drain = [&](unsigned slot) {
    if (!pending[slot].has_value()) {
      return;
    }
    OffloadResult sub = finish_batch(std::move(*pending[slot]), model);
    pending[slot].reset();
    for (auto& o : sub.outputs) {
      out.outputs.push_back(std::move(o));
    }
    out.launch.merge(sub.launch);
    out.dpus_used += sub.dpus_used;
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
          items.size() - first);
      pending[slot] = start_batch(*banks[slot], items, first, count, plan,
                                  opt, model, slot, item_base + s);
    }
    drain(static_cast<unsigned>(ranges.size() % 2));
    drain(static_cast<unsigned>((ranges.size() + 1) % 2));
  } catch (...) {
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

OffloadResult Offloader::run(
    const std::vector<std::vector<std::uint8_t>>& items,
    std::uint32_t n_tasklets, runtime::OptLevel opt) {
  const map::MappingPlan plan = resolve_batch_plan(
      pool_, items.size(), n_tasklets, map::kMaxSplitFactor);
  if (plan.split > 1) {
    return run_split(items, plan, opt, nullptr, 0);
  }
  // Start + immediately finish: the waitable handle executes the launch
  // inline when no worker picked it up, so this is the synchronous path.
  return finish_batch(
      start_batch(pool_, items, 0, items.size(), plan, opt, nullptr, 0, 0),
      nullptr);
}

OffloadPipelineResult Offloader::run_pipelined(
    const std::vector<std::vector<std::vector<std::uint8_t>>>& batches,
    std::uint32_t n_tasklets, runtime::OptLevel opt) {
  OffloadPipelineResult out;
  out.batches.resize(batches.size());
  if (batches.empty()) {
    return out;
  }
  obs::Span sp("offload.pipeline", "pipeline");
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
        pool_, batches[0].size(), n_tasklets, map::kMaxSplitFactor);
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
          *banks[bank], batches[i].size(), n_tasklets, 1);
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
      obs::record_drift("offload", *out.timeline,
                        out.pipeline.makespan_seconds,
                        out.pipeline.overlap_efficiency());
    }
  }
  if (obs::SloTracker::enabled()) {
    for (const OffloadResult& b : out.batches) {
      obs::SloTracker::instance().record(
          "offload.batch",
          (b.launch.host.host_seconds() + b.launch.wall_seconds) * 1e3);
    }
  }
  return out;
}

void Offloader::run_host_fallback(
    const std::vector<std::vector<std::uint8_t>>& items, std::size_t first,
    std::size_t count, std::uint32_t per_dpu, std::uint32_t n_tasklets,
    runtime::OptLevel opt, OffloadResult& out) const {
  sim::Dpu spare(sys_);
  spare.load(build_program());
  if (!spec_.consts.empty()) {
    const auto padded = pad_to_xfer(spec_.consts.data(), spec_.consts.size());
    spare.host_write("consts", 0, padded.data(), padded.size());
  }
  out.outputs.resize(count);
  std::vector<std::uint8_t> slot(in_stride_);
  std::vector<std::uint8_t> result(out_stride_);
  for (std::size_t base = 0; base < count; base += per_dpu) {
    const std::uint64_t chunk =
        std::min<std::size_t>(per_dpu, count - base);
    for (std::uint64_t s = 0; s < chunk; ++s) {
      std::fill(slot.begin(), slot.end(), 0);
      std::memcpy(slot.data(), items[first + base + s].data(),
                  spec_.item_in_bytes);
      spare.host_write("in_mram", s * in_stride_, slot.data(), in_stride_);
    }
    spare.host_write("meta", 0, &chunk, sizeof(chunk));
    spare.launch(n_tasklets, opt);
    for (std::uint64_t s = 0; s < chunk; ++s) {
      spare.host_read("out_mram", s * out_stride_, result.data(),
                      out_stride_);
      out.outputs[base + s].assign(result.begin(),
                                   result.begin() + spec_.item_out_bytes);
    }
  }
}

} // namespace pimdnn::core
