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
#include <vector>

#include "map/constraints.hpp"
#include "map/plan.hpp"

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
