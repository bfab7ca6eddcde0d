#include "core/offloader.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "map/space.hpp"
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
      banks_(sys) {
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

runtime::PendingBatch Offloader::start_batch(
    runtime::DpuPool& pool,
    const std::vector<std::vector<std::uint8_t>>& items,
    std::size_t first, std::size_t count, const map::MappingPlan& plan,
    runtime::OptLevel opt, runtime::PipelineModel* model, unsigned bank,
    std::size_t item) {
  require(count > 0 && first + count <= items.size(),
          "Offloader::run: bad batch sub-range");

  const std::uint32_t n_tasklets = plan.n_tasklets;
  const std::uint32_t per_dpu = plan.items_per_dpu;
  const auto n_dpus = KernelSession::dpus_for(count, per_dpu);

  const sim::HostXferStats before = pool.host_stats();
  runtime::PendingBatch pb;
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

OffloadResult Offloader::finish_batch(runtime::PendingBatch pending,
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

std::vector<OffloadResult> Offloader::execute(
    std::span<const std::vector<std::vector<std::uint8_t>>> batches,
    std::uint32_t n_tasklets, runtime::OptLevel opt,
    runtime::PipelineModel* model) {
  for (const auto& batch : batches) {
    for (const auto& it : batch) {
      require(it.size() == spec_.item_in_bytes,
              "Offloader::run: item size mismatch");
    }
  }
  return map::run_batches(
      batches,
      [&](unsigned bank, std::size_t n_items, std::uint32_t max_split) {
        return resolve_batch_plan(banks_[bank], n_items, n_tasklets,
                                  max_split);
      },
      [&](const std::vector<std::vector<std::uint8_t>>& batch,
          std::size_t first, std::size_t count, const map::MappingPlan& plan,
          unsigned bank, std::size_t w) {
        return start_batch(banks_[bank], batch, first, count, plan, opt,
                           model, bank, w);
      },
      [&](runtime::PendingBatch p) {
        return finish_batch(std::move(p), model);
      },
      [](OffloadResult& whole, OffloadResult&& chunk) {
        for (auto& o : chunk.outputs) {
          whole.outputs.push_back(std::move(o));
        }
        whole.launch.merge(chunk.launch);
        whole.dpus_used += chunk.dpus_used;
      });
}

OffloadResult Offloader::run(
    const std::vector<std::vector<std::uint8_t>>& items,
    std::uint32_t n_tasklets, runtime::OptLevel opt) {
  return std::move(
      execute(std::span(&items, 1), n_tasklets, opt, nullptr).front());
}

OffloadPipelineResult Offloader::run_pipelined(
    const std::vector<std::vector<std::vector<std::uint8_t>>>& batches,
    std::uint32_t n_tasklets, runtime::OptLevel opt) {
  OffloadPipelineResult out;
  if (batches.empty()) {
    return out;
  }
  runtime::PipelineRun run("offload", "n_batches", batches.size());
  out.batches = execute(batches, n_tasklets, opt, &run.model());
  run.close(out.pipeline, out.timeline, out.batches, "offload.batch",
            [](const OffloadResult& b) {
              return b.launch.host.host_seconds() + b.launch.wall_seconds;
            });
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
