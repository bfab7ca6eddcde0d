// MappingSpace: candidate enumeration under the hardware constraints.
//
// The enumerators produce the feasible values of each mapping dimension —
// GEMM rows per DPU bounded by the WRAM A-stage budget and the DPU-count
// cap, images/items per DPU bounded by the program's WRAM-derived
// capacity, tasklets bounded by the program's buffer allocation — as
// small sorted candidate lists the Mapper prices exhaustively. The paper
// value (rows=1, items=capacity) is always among the candidates, so the
// argmin can never be worse than the thesis' fixed mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "map/constraints.hpp"
#include "map/plan.hpp"
#include "runtime/pipeline.hpp"

namespace pimdnn::map {

/// Largest split factor the mapper ever considers. Beyond ~8 sub-launches
/// the per-launch fixed costs (broadcast replication, launch overhead)
/// swamp the shrinking overlap win on every workload we model.
inline constexpr std::uint32_t kMaxSplitFactor = 8;

/// One sub-launch's slice of a split workload, in scheduling units (DPU
/// groups: a GEMM's row-block of `rows_per_dpu` rows, a batch kernel's
/// group of `items_per_dpu` items). Cutting at unit boundaries keeps every
/// DPU's item grouping — and therefore its kernel behaviour and fallback
/// chunking — identical to the unsplit launch, which is what makes split
/// execution bit-identical.
struct SplitRange {
  std::size_t first_unit = 0; ///< index of the first DPU group
  std::size_t n_units = 0;    ///< DPU groups in this sub-launch
};

/// Carves `total_units` DPU groups into at most `split` contiguous,
/// non-empty sub-launches of near-equal size (the first `total % split`
/// sub-launches get one extra unit). The single source of truth for split
/// schedules: pricing and all four executors derive the cut points from
/// this. Returns one range when split <= 1 or total_units <= 1.
std::vector<SplitRange> split_ranges(std::size_t total_units,
                                     std::uint32_t split);

/// One sub-launch's slice of a split workload in items: [first,
/// first + count).
struct ItemRange {
  std::size_t first = 0;
  std::size_t count = 0;
};

/// split_ranges over the DPU groups of `n_items` items placed
/// `items_per_unit` to a group, in items (the last group may be short).
/// One range covering every item when split <= 1.
std::vector<ItemRange> split_items(std::size_t n_items,
                                   std::uint32_t items_per_unit,
                                   std::uint32_t split);

/// The batch hosts' double-buffered loop (ebnn::EbnnHost,
/// ebnn::DeepEbnnHost, core::Offloader — `run` is one batch, `run_pipelined`
/// many): runs `batches` on runtime::run_double_buffered, work item w on
/// bank w%2, and returns one result per batch.
///
///  * A lone batch is planned once, `plan(0, n_items, kMaxSplitFactor)`,
///    and its work items are the plan's chunks (split_items; one chunk when
///    unsplit). Chunks finish in order, so `append(whole, chunk)` keeps
///    input order; the result's `split` is the chunk count.
///  * Several batches are one whole-batch item each, planned unsplit by
///    `plan(bank, n_items, 1)` when they start (after their bank's previous
///    batch finished, so the plan sees that bank's health picture).
///
/// `start(batch, first, count, plan, bank, w)` scatters and launches items
/// [first, first + count) of `batch`; `finish(pending)` gathers them into a
/// result.
template <class Batch, class Plan, class Start, class Finish, class Append>
auto run_batches(std::span<const Batch> batches, Plan&& plan, Start&& start,
                 Finish&& finish, Append&& append) {
  using Pending = std::invoke_result_t<Start&, const Batch&, std::size_t,
                                       std::size_t, const MappingPlan&,
                                       unsigned, std::size_t>;
  using Result = std::invoke_result_t<Finish&, Pending&&>;
  std::optional<MappingPlan> lone;
  std::vector<ItemRange> chunks;
  if (batches.size() == 1) {
    lone = plan(0u, batches[0].size(), kMaxSplitFactor);
    chunks = split_items(batches[0].size(), lone->items_per_dpu, lone->split);
  }
  std::vector<Result> out(batches.size());
  std::size_t finished = 0; // finish runs in work order
  runtime::run_double_buffered(
      lone ? chunks.size() : batches.size(),
      [&](std::size_t w, unsigned bank) {
        if (lone) {
          return start(batches[0], chunks[w].first, chunks[w].count, *lone,
                       bank, w);
        }
        return start(batches[w], 0, batches[w].size(),
                     plan(bank, batches[w].size(), 1u), bank, w);
      },
      [&](Pending&& p) {
        const std::size_t w = finished++;
        Result r = finish(std::move(p));
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

/// Split-factor candidates: powers of two in [2, min(max_split,
/// total_units, kMaxSplitFactor)]. Empty when no split is possible (fewer
/// than two DPU groups to cut between).
std::vector<std::uint32_t> split_candidates(std::size_t total_units,
                                            std::uint32_t max_split);

/// External caps on the search (pool size, hardware tasklet ceiling).
struct Limits {
  /// Maximum DPUs a plan may use; 0 = unlimited. A quarantine-reduced
  /// pool lowers this, forcing more rows/items per DPU.
  std::uint32_t max_dpus = 0;
  /// Maximum tasklets per DPU the program supports.
  std::uint32_t max_tasklets = kMaxGemmTasklets;
};

/// Feasible rows_per_dpu candidates for an M x K GEMM: a geometric ladder
/// from the smallest feasible value (>= ceil(M / max_dpus) under a DPU
/// cap) to min(WRAM fit, M), always including both endpoints and 1 when
/// feasible. Empty when no value satisfies both the WRAM budget and the
/// DPU cap.
std::vector<int> gemm_rows_candidates(int m, int k, const Limits& limits);

/// Tasklet candidates 1..max (geometric plus the endpoints and the
/// 11-stage pipeline depth, the paper's saturation point).
std::vector<std::uint32_t> tasklet_candidates(std::uint32_t max_tasklets);

/// Items-per-DPU candidates for a batched kernel with per-DPU `capacity`
/// slots: every value in [ceil(n_items / max_dpus), capacity] when that
/// range is small, a geometric ladder otherwise. Empty when the DPU cap
/// makes even `capacity` items per DPU insufficient.
std::vector<std::uint32_t> batch_items_candidates(std::uint32_t capacity,
                                                  std::size_t n_items,
                                                  const Limits& limits);

} // namespace pimdnn::map
