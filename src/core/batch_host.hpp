// One batch host: the plan -> scatter -> launch -> gather -> fallback
// skeleton every many-items-per-DPU offload runs on (ebnn::EbnnHost,
// ebnn::DeepEbnnHost, core::Offloader).
//
// The thesis' eBNN mapping (§4.1.3) and the generic offload tool it asks
// for (§6.1) drive the DPUs identically: N independent fixed-size items,
// `items_per_dpu` to a DPU; plan the mapping against the pool's health
// picture, scatter the items and each DPU's true count, launch, gather
// every item's output slot, and run a host tail over the gathered words.
// PrIM (arXiv:2105.03814) runs every UPMEM workload on this skeleton.
// BatchHost owns it once: the two bank pools, the mapping plan, the
// KernelSession, the scatter and gather, the degraded-session branch, the
// PipelineModel stage reports, the double-buffered loop and the obs
// bracket of `run` / `run_pipelined`. A kernel supplies only what differs
// (see BatchHost).
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "map/mapper.hpp"
#include "map/space.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/host_timer.hpp"
#include "runtime/kernel_session.hpp"
#include "runtime/pipeline.hpp"
#include "sim/report.hpp"

namespace pimdnn::core {

/// One batch: its items' raw input bytes, in submission order.
using Items = std::vector<std::vector<std::uint8_t>>;

/// What a batch kernel is, fixed when its host is built. The program it
/// builds holds `capacity` item slots per DPU: item i's input at
/// `i * in_stride` of `in_symbol` (its `in_bytes` bytes, zero padding
/// after), the DPU's true item count as a u64 in `meta_symbol`, and item
/// i's output at `i * out_stride` of `out_symbol` (the first `out_bytes`
/// are gathered).
struct BatchSpec {
  /// Obs name (`<name>.batch` spans and SLO samples, `<name>.pipeline`
  /// runs) and the prefix of the host's error texts.
  std::string name;
  /// KernelSession signature: the pool's program-cache key.
  std::string program;
  std::uint32_t capacity = 0; ///< item slots per DPU
  /// Kernel wall of the fullest DPU under (items, tasklets, opt) — the
  /// mapper's search cost. Null: auto runs keep the paper mapping.
  std::function<Cycles(std::uint32_t, std::uint32_t, runtime::OptLevel)>
      kernel_cycles;
  MemSize in_stride = 0;
  MemSize in_bytes = 0;
  MemSize out_stride = 0;
  MemSize out_bytes = 0;
  MemSize const_bytes = 0; ///< WRAM constants every DPU receives
  std::string in_symbol;
  std::string meta_symbol;
  std::string out_symbol;

  /// 32-bit words one item's gathered output occupies.
  std::size_t out_words() const {
    return (out_bytes + sizeof(std::uint32_t) - 1) / sizeof(std::uint32_t);
  }
};

/// One launch's share of a batch — items [first, first + count) — and the
/// mapping it ran under; what a kernel's fallback and tail see.
struct BatchChunk {
  std::size_t first = 0;
  std::size_t count = 0;
  std::uint32_t items_per_dpu = 0;
  std::uint32_t n_tasklets = 0;
  runtime::OptLevel opt = runtime::OptLevel::O3;
};

/// Result of a double-buffered multi-batch run.
template <class Result>
struct BatchPipelineResult {
  /// Per-batch results, bit-identical to serial `run` calls.
  std::vector<Result> batches;
  /// Modeled overlapped timeline vs. the serial equivalent.
  runtime::PipelineStats pipeline;
  /// Independent reconstruction from the emitted `pipe.stage` spans;
  /// present only when tracing was enabled for the run.
  std::optional<obs::TimelineReport> timeline;
};

/// A batch result that carries its measured host tail: BatchHost times the
/// kernel's tail (or CPU fallback) into it, reports it as the item's host
/// stage and counts it into the item's SLO latency.
template <class Result>
concept HasHostTail = requires(Result r) { r.host_tail_seconds; };

/// The batch host over `Kernel`, a class with
///  * `using Result` — a batch result with `launch`, `dpus_used` and
///    `split` fields (and optionally `host_tail_seconds`, see HasHostTail);
///  * `BatchSpec spec` — its description, filled by its constructor;
///  * `sim::DpuProgram build_program() const`;
///  * `void upload(runtime::KernelSession&) const` — its WRAM constants
///    (`broadcast_const`, or a broadcast gated on the activation);
///  * `void fallback(const Items&, const BatchChunk&, Result&) const` —
///    a degraded chunk's CPU path, bit-identical to the kernel;
///  * `void tail(std::span<const std::uint32_t> words, const BatchChunk&,
///    Result&) const` — turns the gathered words (`spec.out_words()` per
///    item, item order) into the chunk's outputs;
///  * `static void append(Result& whole, Result&& chunk)` — appends a split
///    chunk's outputs (BatchHost merges the launch stats, DPU count and
///    host tail).
///
/// `run` is one batch, `run_pipelined` many, on runtime::run_double_buffered
/// over two bank pools, work item w on bank w%2:
///  * a lone batch is planned once, with the split path open, and its work
///    items are the plan's chunks (map::split_items; one when unsplit);
///  * several batches are one whole-batch work item each, planned unsplit
///    when they start — after their bank's previous batch finished, so the
///    plan sees that bank's health picture.
/// Results are bit-identical whatever the mapping, split or bank.
template <class Kernel>
class BatchHost {
public:
  using Result = typename Kernel::Result;
  using PipelineResult = BatchPipelineResult<Result>;

  /// Builds the kernel in place from `args` (kernels may point into
  /// themselves, so they are never moved).
  template <class... Args>
  explicit BatchHost(const runtime::UpmemConfig& sys, Args&&... args)
      : kernel_(std::forward<Args>(args)...), banks_(sys) {}

  /// Runs one batch. `n_tasklets` is map::kAutoTasklets (the mapper's
  /// search) or a count in [1, capacity] that pins the paper mapping.
  Result run(const Items& items, std::uint32_t n_tasklets,
             runtime::OptLevel opt) {
    obs::Span sp((spec().name + ".batch").c_str(), "pipeline");
    if (sp.active()) {
      sp.u64("n_items", items.size());
    }
    return std::move(
        execute(std::span(&items, 1), n_tasklets, opt, nullptr).front());
  }

  /// Runs `batches` double-buffered: batch i on bank i%2, its scatter
  /// overlapping the other bank's in-flight kernel, at most two in flight.
  PipelineResult run_pipelined(const std::vector<Items>& batches,
                               std::uint32_t n_tasklets,
                               runtime::OptLevel opt) {
    PipelineResult out;
    if (batches.empty()) {
      return out;
    }
    runtime::PipelineRun run(spec().name, "n_batches", batches.size());
    out.batches = execute(batches, n_tasklets, opt, &run.model());
    run.close(out.pipeline, out.timeline, out.batches, spec().name + ".batch",
              [](const Result& b) {
                Seconds s = b.launch.host.host_seconds() +
                            b.launch.wall_seconds;
                if constexpr (HasHostTail<Result>) {
                  s += b.host_tail_seconds;
                }
                return s;
              });
    return out;
  }

  const Kernel& kernel() const { return kernel_; }

  /// Cumulative host-side accounting of both banks.
  sim::HostXferStats host_stats() const { return banks_.host_stats(); }

private:
  /// One in-flight work item: its session, the waitable launch, and what
  /// `finish` needs to gather its chunk of `*items`.
  struct Pending {
    std::unique_ptr<runtime::KernelSession> session;
    runtime::KernelSession::LaunchHandle handle;
    const Items* items = nullptr;
    BatchChunk chunk;
    std::uint32_t n_dpus = 0;
    unsigned bank = 0;
    std::size_t item = 0; ///< work item index (the PipelineModel item)

    /// Waits out the launch (the executor's exception path).
    bool wait() { return handle.wait(); }
  };

  const BatchSpec& spec() const { return kernel_.spec; }

  [[noreturn]] void fail(const std::string& what) const {
    throw UsageError(spec().name + ": " + what);
  }

  /// Resolves the (items_per_dpu, tasklets, split) mapping of `n_items`
  /// against `pool`'s health picture: quarantines shrink the usable
  /// capacity, reintegrations restore it (clean pools plan unbounded).
  map::MappingPlan plan(runtime::DpuPool& pool, std::size_t n_items,
                        std::uint32_t n_tasklets, runtime::OptLevel opt,
                        std::uint32_t max_split) const {
    const BatchSpec& s = spec();
    if (n_items == 0) {
      fail("empty batch");
    }
    if (n_tasklets != map::kAutoTasklets &&
        (n_tasklets < 1 || n_tasklets > s.capacity)) {
      fail("tasklets must be in [1, " + std::to_string(s.capacity) + "]");
    }
    map::BatchRequest mreq;
    mreq.n_items = n_items;
    mreq.capacity = s.capacity;
    if (s.kernel_cycles) {
      mreq.kernel_cycles = [&s, opt](std::uint32_t items, std::uint32_t t) {
        return s.kernel_cycles(items, t, opt);
      };
    }
    mreq.item_in_bytes = s.in_stride;
    mreq.item_out_bytes = s.out_stride;
    mreq.const_bytes_per_dpu = s.const_bytes;
    mreq.pinned_tasklets = n_tasklets;
    mreq.max_split = max_split;
    if (pool.plan_capacity() < pool.config().total_dpus) {
      mreq.limits.max_dpus = pool.plan_capacity();
    }
    return map::Mapper().plan_batch(mreq);
  }

  /// Activation + constants + scatter + async launch of `range` of
  /// `items` on `bank`; reports the scatter's to-DPU + load walls as work
  /// item `w`'s transfer stage when `model` is non-null.
  Pending start(const Items& items, map::ItemRange range,
                const map::MappingPlan& plan, runtime::OptLevel opt,
                unsigned bank, std::size_t w, runtime::PipelineModel* model) {
    const BatchSpec& s = spec();
    runtime::DpuPool& pool = banks_[bank];
    Pending p;
    p.items = &items;
    p.chunk = {range.first, range.count, plan.items_per_dpu, plan.n_tasklets,
               opt};
    p.n_dpus =
        runtime::KernelSession::dpus_for(range.count, plan.items_per_dpu);
    p.bank = bank;
    p.item = w;

    const sim::HostXferStats before = pool.host_stats();
    p.session = std::make_unique<runtime::KernelSession>(
        pool, s.program, p.n_dpus, [this] { return kernel_.build_program(); });
    runtime::KernelSession& session = *p.session;
    session.annotate(plan.obs_suffix());
    // A split sub-launch is predicted to carry its share of the plan's
    // transfer volume; a whole batch keeps the plan's figures verbatim.
    session.set_predicted(plan.predicted.kernel_cycles,
                          (plan.predicted.to_dpu_seconds +
                           plan.predicted.from_dpu_seconds) *
                              (static_cast<double>(range.count) /
                               static_cast<double>(items.size())));
    kernel_.upload(session);
    // Items and per-DPU true counts (Eqs. 3.2/3.3 + the §3.2 rule).
    session.scatter_items(s.in_symbol, s.meta_symbol, range.count,
                          plan.items_per_dpu, s.in_stride, s.in_bytes,
                          [&](std::size_t i) {
                            return items[range.first + i].data();
                          });
    if (model != nullptr) {
      const sim::HostXferStats d =
          sim::host_xfer_delta(pool.host_stats(), before);
      model->xfer_stage(w, bank, d.to_dpu_seconds + d.load_seconds);
    }
    // The caller's next work item scatters on the other bank while this
    // kernel is in flight.
    p.handle = session.launch_async(plan.n_tasklets, opt);
    return p;
  }

  /// Waits for the launch, gathers, and runs the kernel's tail — or, on a
  /// degraded session, its CPU fallback. Reports the kernel's simulated
  /// wall, the gather wall and the host tail to `model` when non-null, in
  /// per-lane chronological order.
  Result finish(Pending p, runtime::PipelineModel* model) {
    const BatchSpec& s = spec();
    runtime::KernelSession& session = *p.session;
    Result out;
    out.dpus_used = p.n_dpus;
    runtime::HostTimer ht;
    if (!p.handle.wait()) {
      ht.start();
      kernel_.fallback(*p.items, p.chunk, out);
      const Seconds host = ht.elapsed();
      if constexpr (HasHostTail<Result>) {
        out.host_tail_seconds = host;
      }
      out.launch = session.finish();
      if (model != nullptr) {
        model->host_stage(p.item, host);
      }
      return out;
    }

    // One batched gather of the raw output words; the tail runs after it
    // so the transfer wall and the tail compute land in their own stages.
    const std::size_t words_per_item = s.out_words();
    runtime::DpuPool& pool = banks_[p.bank];
    const sim::HostXferStats before = pool.host_stats();
    std::vector<std::uint32_t> words(p.chunk.count * words_per_item);
    session.gather_items(
        s.out_symbol, p.chunk.count, p.chunk.items_per_dpu, s.out_stride,
        [&](std::size_t i, const std::uint8_t* slot) {
          std::memcpy(words.data() + i * words_per_item, slot, s.out_bytes);
        });
    const sim::HostXferStats gathered =
        sim::host_xfer_delta(pool.host_stats(), before);

    ht.start();
    kernel_.tail(words, p.chunk, out);
    if constexpr (HasHostTail<Result>) {
      out.host_tail_seconds = ht.elapsed();
    }
    out.launch = session.finish();
    if (model != nullptr) {
      model->dpu_stage(p.item, p.bank, out.launch.wall_seconds);
      model->xfer_stage(p.item, p.bank, gathered.from_dpu_seconds);
      if constexpr (HasHostTail<Result>) {
        model->host_stage(p.item, out.host_tail_seconds);
      }
    }
    return out;
  }

  /// The one double-buffered loop behind run() and run_pipelined():
  /// validates every item once, then runs the work items (see class
  /// comment). Work item w reports its stages to `model` as item w.
  std::vector<Result> execute(std::span<const Items> batches,
                              std::uint32_t n_tasklets, runtime::OptLevel opt,
                              runtime::PipelineModel* model) {
    for (const Items& batch : batches) {
      for (const auto& item : batch) {
        if (item.size() != spec().in_bytes) {
          fail("wrong item size");
        }
      }
    }
    std::optional<map::MappingPlan> lone;
    std::vector<map::ItemRange> chunks;
    if (batches.size() == 1) {
      lone = plan(banks_[0], batches[0].size(), n_tasklets, opt,
                  map::kMaxSplitFactor);
      chunks =
          map::split_items(batches[0].size(), lone->items_per_dpu, lone->split);
    }
    std::vector<Result> out(batches.size());
    std::size_t finished = 0; // finish runs in work order
    runtime::run_double_buffered(
        lone ? chunks.size() : batches.size(),
        [&](std::size_t w, unsigned bank) {
          if (lone) {
            return start(batches[0], chunks[w], *lone, opt, bank, w, model);
          }
          const Items& batch = batches[w];
          return start(batch, {0, batch.size()},
                       plan(banks_[bank], batch.size(), n_tasklets, opt, 1),
                       opt, bank, w, model);
        },
        [&](Pending&& p) {
          const std::size_t w = finished++;
          Result r = finish(std::move(p), model);
          if (lone && w > 0) {
            append(out[0], std::move(r));
          } else {
            out[lone ? 0 : w] = std::move(r);
          }
        });
    if (lone) {
      out[0].split = static_cast<std::uint32_t>(chunks.size());
    }
    return out;
  }

  /// Chunks finish in order, so appending keeps input order.
  static void append(Result& whole, Result&& chunk) {
    whole.launch.merge(chunk.launch);
    whole.dpus_used += chunk.dpus_used;
    if constexpr (HasHostTail<Result>) {
      whole.host_tail_seconds += chunk.host_tail_seconds;
    }
    Kernel::append(whole, std::move(chunk));
  }

  Kernel kernel_;
  runtime::DpuBanks banks_;
};

} // namespace pimdnn::core
