// One simulated DPU: memories + loaded program + launch machinery.
//
// Programs are declared as a set of named MRAM/WRAM symbols plus kernel
// phases invoked once per tasklet (the SPMD model of the real SDK, §3.1),
// separated by implicit barriers. `launch` runs all tasklets functionally
// and then derives the cycle count from three hardware bounds of the
// 11-stage fine-grained-multithreaded pipeline (see `DpuRunStats::cycles`
// docs), which reproduces the tasklet saturation behaviour of Figure
// 4.7(a).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/sim_mode.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "sim/memory.hpp"
#include "sim/profile.hpp"
#include "sim/tasklet.hpp"

namespace pimdnn::sim {

/// Declaration of one named buffer in DPU memory.
struct SymbolDecl {
  std::string name;  ///< symbol name visible to the host API
  MemKind kind;      ///< MRAM or WRAM
  MemSize size;      ///< bytes (will be placed 8-byte aligned)
};

/// One phase of a kernel body, run once per tasklet.
using KernelPhase = std::function<void(TaskletCtx&)>;

/// A DPU-side program: kernel phases, symbols and IRAM footprint.
struct DpuProgram {
  std::string name;                     ///< program name (diagnostics)
  std::vector<SymbolDecl> symbols;      ///< buffers to place in memory
  MemSize iram_bytes = 4096;            ///< code footprint checked vs 24 KB
  /// The kernel body as ordered phases, each run once per tasklet, with an
  /// implicit barrier (the SDK's `barrier_wait`) between consecutive
  /// phases: every tasklet finishes phase p before any tasklet starts phase
  /// p+1, and each boundary charges every tasklet
  /// CostModel::barrier_stmt() issue slots. Phase contract: no tasklet
  /// reads what another tasklet writes in the same phase, so any tasklet
  /// order within a phase gives the same memory effects. Most kernels are
  /// one phase; a kernel that synchronizes on a barrier splits there.
  std::vector<KernelPhase> phases;
  /// Optional batched twin of a single-phase body used when a launch runs
  /// in SimMode::Fast: it must produce the identical memory effects
  /// (bit-exact, soft-float results included) and apply the identical
  /// charges (cycle-exact stats and subroutine profile), computing with
  /// native host arithmetic and bulk `charge_*` calls instead of per-op
  /// interpretation. The dual-run cross-check tests enforce the
  /// equivalence contract.
  KernelPhase fast_entry;
};

/// How a launch orders tasklets. Used by tests to prove kernels do not
/// depend on the historical tasklet-0-first sequential schedule.
enum class TaskletSchedule : std::uint8_t {
  InOrder,          ///< run tasklets in id order (hardware-like)
  /// High ids first: the threaded executor delays low ids so high ids
  /// reach the kernel first; the sequential executor runs each phase in
  /// id order n-1..0.
  StaggeredReverse,
};

/// Placed symbol: where a declaration landed.
struct SymbolInfo {
  MemKind kind;
  MemSize offset;
  MemSize size;
};

/// Result of one kernel launch on one DPU.
struct DpuRunStats {
  /// Modeled execution cycles:
  ///   max( Σ_t slots_t,                 -- pipeline issues 1 instr/cycle
  ///        Σ_t dma_t,                   -- single shared DMA engine
  ///        max_t (11·slots_t + dma_t) ) -- per-tasklet in-order latency
  Cycles cycles = 0;
  /// Sum of issue slots over all tasklets.
  std::uint64_t total_slots = 0;
  /// Sum of DMA cycles over all tasklets.
  Cycles total_dma_cycles = 0;
  /// Bytes moved by DMA.
  std::uint64_t total_dma_bytes = 0;
  /// Per-tasklet breakdown.
  std::vector<TaskletStats> tasklets;
  /// Runtime-subroutine occurrence profile (Figure 3.2).
  SubroutineProfile profile;
  /// Executor metadata (not part of the modeled machine state, hence not
  /// part of the fast/interp equivalence contract): true when this launch
  /// ran on the fast executor — the program's `fast_entry` twin, or a
  /// multi-phase program run phase by phase on the calling thread instead
  /// of on one host thread per tasklet.
  bool fast_path = false;
};

/// Hook that runs the `n` concurrently-blocking tasklet bodies of an
/// interpreted multi-phase launch, each on its own thread (body `t` may
/// block on a barrier until every other body arrives, so the indices must
/// make progress concurrently — a shared work queue is not a valid
/// implementation). Installed by higher layers (runtime::HostPool routes it
/// onto persistent lane threads so warm launches create zero threads); the
/// default spawns one std::thread per tasklet, keeping the standalone
/// simulator dependency-free.
using ConcurrentRunner =
    std::function<void(std::uint32_t, const std::function<void(std::uint32_t)>&)>;

/// Replaces the multi-phase launch runner (empty restores the default).
void set_concurrent_runner(ConcurrentRunner runner);

/// One simulated DPU.
class Dpu {
public:
  /// Creates a DPU with the given architecture configuration.
  explicit Dpu(const UpmemConfig& cfg = default_config());

  /// Loads a program: places symbols (8-byte aligned) in MRAM/WRAM with
  /// bump allocation and checks IRAM capacity. Replaces any prior program;
  /// memory contents are preserved (as on hardware).
  void load(const DpuProgram& program);

  /// Looks up a placed symbol; throws SymbolError if absent.
  const SymbolInfo& symbol(const std::string& name) const;

  /// True if a symbol with this name is placed.
  bool has_symbol(const std::string& name) const;

  /// Host-side write into a symbol at byte offset `offset`.
  void host_write(const std::string& symbol, MemSize offset, const void* src,
                  MemSize size);

  /// Host-side read out of a symbol at byte offset `offset`.
  void host_read(const std::string& symbol, MemSize offset, void* dst,
                 MemSize size) const;

  /// Runs the loaded program on `n_tasklets` tasklets under the given
  /// optimization level and returns the cycle accounting. `schedule`
  /// selects the tasklet order. `mode` selects the executor:
  ///  * Interp runs a multi-phase program's tasklets on concurrent host
  ///    threads (ConcurrentRunner) that meet on a real barrier between
  ///    phases; a single-phase program's tasklets run one after another.
  ///  * Fast runs every program on the calling thread, phase-major (phase
  ///    p for every tasklet in schedule order, then phase p+1), and uses a
  ///    single-phase program's `fast_entry` when it has one.
  /// Both charge identically, so outputs and stats are bit- and
  /// cycle-exact across modes and schedules.
  DpuRunStats launch(std::uint32_t n_tasklets,
                     OptLevel opt = OptLevel::O3,
                     TaskletSchedule schedule = TaskletSchedule::InOrder,
                     SimMode mode = default_sim_mode());

  /// Architecture configuration.
  const UpmemConfig& config() const { return cfg_; }

  /// Direct memory handles (used by TaskletCtx and tests).
  Mram& mram() { return mram_; }
  Wram& wram() { return wram_; }

  /// MRAM bytes occupied by the loaded program's symbols (the region a
  /// program-switch disturbance can plausibly corrupt).
  MemSize mram_used() const { return mram_top_; }

private:
  friend class TaskletCtx;

  UpmemConfig cfg_;
  Mram mram_;
  Wram wram_;
  Iram iram_;
  DpuProgram program_;
  std::map<std::string, SymbolInfo> symbols_;
  MemSize mram_top_ = 0;
  MemSize wram_top_ = 0;
};

} // namespace pimdnn::sim
