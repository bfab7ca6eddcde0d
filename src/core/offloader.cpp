#include "core/offloader.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace pimdnn::core {

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

OffloadBatchKernel::OffloadBatchKernel(WorkloadSpec workload_in,
                                       ItemKernel kernel_in,
                                       const runtime::UpmemConfig& sys_in)
    : workload(std::move(workload_in)),
      kernel(std::move(kernel_in)),
      sys(sys_in) {
  require(static_cast<bool>(kernel), "Offloader needs a kernel");
  if (workload.item_in_bytes == 0 || workload.item_out_bytes == 0) {
    throw ConfigError("WorkloadSpec: item sizes must be positive");
  }
  if (workload.items_per_dpu == 0 ||
      workload.items_per_dpu > sys.max_tasklets) {
    throw ConfigError("WorkloadSpec: items_per_dpu must be in [1, 24]");
  }
  spec.name = "offload";
  spec.program = "offload/" + workload.name;
  spec.capacity = workload.items_per_dpu;
  if (workload.kernel_cost) {
    spec.kernel_cycles = [cost = workload.kernel_cost](
                             std::uint32_t items, std::uint32_t t,
                             runtime::OptLevel) { return cost(items, t); };
  }
  spec.in_stride = align_up(workload.item_in_bytes, kXferAlign);
  spec.in_bytes = workload.item_in_bytes;
  spec.out_stride = align_up(workload.item_out_bytes, kXferAlign);
  spec.out_bytes = workload.item_out_bytes;
  spec.const_bytes = workload.consts.size();
  spec.in_symbol = "in_mram";
  spec.meta_symbol = "meta";
  spec.out_symbol = "out_mram";
  // Fail fast on impossible WRAM mappings: a throwaway DPU performs the
  // placement checks the real toolchain's linker would.
  sim::Dpu probe(sys);
  probe.load(build_program());
}

sim::DpuProgram OffloadBatchKernel::build_program() const {
  sim::DpuProgram prog;
  prog.name = workload.name;
  prog.iram_bytes = workload.iram_bytes;
  const MemSize n = workload.items_per_dpu;
  prog.symbols = {
      {"meta", MemKind::Wram, 8},
      {"in_mram", MemKind::Mram, n * spec.in_stride},
      {"out_mram", MemKind::Mram, n * spec.out_stride},
      {"in_buf", MemKind::Wram, n * spec.in_stride},
      {"out_buf", MemKind::Wram, n * spec.out_stride},
  };
  if (workload.scratch_bytes_per_tasklet > 0) {
    prog.symbols.push_back(
        {"scratch", MemKind::Wram,
         n * align_up(workload.scratch_bytes_per_tasklet, kXferAlign)});
  }
  if (!workload.consts.empty()) {
    prog.symbols.push_back({"consts", MemKind::Wram,
                            align_up(workload.consts.size(), kXferAlign)});
  }

  // Capture what the kernel closure needs by value.
  prog.phases = {[work = workload, in_stride = spec.in_stride,
                  out_stride = spec.out_stride,
                  kernel = kernel](TaskletCtx& ctx) {
    require(ctx.n_tasklets() <= work.items_per_dpu,
            "offload kernel: tasklets exceed item slots");
    auto meta = ctx.wram_span<std::uint64_t>("meta");
    ctx.charge_alu(1);
    const std::uint64_t n_items = meta[0];

    auto in_all = ctx.wram_span<std::uint8_t>("in_buf");
    auto out_all = ctx.wram_span<std::uint8_t>("out_buf");
    std::uint8_t* scratch = nullptr;
    if (work.scratch_bytes_per_tasklet > 0) {
      auto s = ctx.wram_span<std::uint8_t>("scratch");
      scratch = s.data() +
                ctx.id() * align_up(work.scratch_bytes_per_tasklet,
                                    kXferAlign);
    }
    const std::uint8_t* consts = nullptr;
    if (!work.consts.empty()) {
      consts = ctx.wram_span<std::uint8_t>("consts").data();
    }

    std::uint8_t* in_slot = in_all.data() + ctx.id() * in_stride;
    std::uint8_t* out_slot = out_all.data() + ctx.id() * out_stride;
    const MemSize in_base = ctx.mram_addr("in_mram");
    const MemSize out_base = ctx.mram_addr("out_mram");

    for (std::uint64_t item = ctx.id(); item < n_items;
         item += ctx.n_tasklets()) {
      chunked_read(ctx, in_slot, in_base + item * in_stride,
                   work.item_in_bytes);
      ItemCtx ic{ctx, in_slot, out_slot, scratch, consts, item};
      kernel(ic);
      chunked_write(ctx, out_base + item * out_stride, out_slot,
                    work.item_out_bytes);
    }
  }};
  return prog;
}

void OffloadBatchKernel::upload(runtime::KernelSession& session) const {
  if (!workload.consts.empty()) {
    session.broadcast_const("consts", workload.consts.data(),
                            workload.consts.size());
  }
}

void OffloadBatchKernel::tail(std::span<const std::uint32_t> words,
                              const BatchChunk& chunk, Result& out) const {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(words.data());
  const std::size_t stride = spec.out_words() * sizeof(std::uint32_t);
  out.outputs.resize(chunk.count);
  for (std::size_t i = 0; i < chunk.count; ++i) {
    out.outputs[i].assign(bytes + i * stride,
                          bytes + i * stride + spec.out_bytes);
  }
}

void OffloadBatchKernel::append(Result& whole, Result&& chunk) {
  for (auto& o : chunk.outputs) {
    whole.outputs.push_back(std::move(o));
  }
}

void OffloadBatchKernel::fallback(const Items& items, const BatchChunk& chunk,
                                  Result& out) const {
  sim::Dpu spare(sys);
  spare.load(build_program());
  if (!workload.consts.empty()) {
    const auto padded =
        pad_to_xfer(workload.consts.data(), workload.consts.size());
    spare.host_write("consts", 0, padded.data(), padded.size());
  }
  out.outputs.resize(chunk.count);
  std::vector<std::uint8_t> slot(spec.in_stride);
  std::vector<std::uint8_t> result(spec.out_stride);
  for (std::size_t base = 0; base < chunk.count;
       base += chunk.items_per_dpu) {
    const std::uint64_t n =
        std::min<std::size_t>(chunk.items_per_dpu, chunk.count - base);
    for (std::uint64_t s = 0; s < n; ++s) {
      std::fill(slot.begin(), slot.end(), 0);
      std::memcpy(slot.data(), items[chunk.first + base + s].data(),
                  spec.in_bytes);
      spare.host_write("in_mram", s * spec.in_stride, slot.data(),
                       spec.in_stride);
    }
    spare.host_write("meta", 0, &n, sizeof(n));
    spare.launch(chunk.n_tasklets, chunk.opt);
    for (std::uint64_t s = 0; s < n; ++s) {
      spare.host_read("out_mram", s * spec.out_stride, result.data(),
                      spec.out_stride);
      out.outputs[base + s].assign(result.begin(),
                                   result.begin() + spec.out_bytes);
    }
  }
}

} // namespace pimdnn::core
