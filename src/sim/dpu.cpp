#include "sim/dpu.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/report.hpp"

namespace pimdnn::sim {

namespace {

/// Fallback ConcurrentRunner: a fresh thread per tasklet. Correct anywhere
/// (including the standalone simulator with no runtime layer loaded), just
/// wasteful on warm frames — which is why runtime::DpuSet installs the
/// HostPool lane runner on first use.
void run_on_fresh_threads(std::uint32_t n,
                          const std::function<void(std::uint32_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    threads.emplace_back([&body, t] { body(t); });
  }
  for (std::thread& th : threads) {
    th.join();
  }
}

std::mutex& runner_mutex() {
  static std::mutex m;
  return m;
}

ConcurrentRunner& runner_slot() {
  static ConcurrentRunner r;
  return r;
}

ConcurrentRunner current_runner() {
  std::lock_guard<std::mutex> lk(runner_mutex());
  ConcurrentRunner r = runner_slot();
  if (!r) {
    r = run_on_fresh_threads;
  }
  return r;
}

/// Generation-counting barrier between the phases of a threaded launch.
/// std::barrier would do, but a hand-rolled condition-variable barrier keeps
/// the toolchain floor at the repo's C++20-minus-<barrier> baseline.
class LaunchBarrier {
public:
  explicit LaunchBarrier(std::uint32_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lk(mtx_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lk, [&] { return generation_ != gen; });
  }

  /// Permanently removes one party (a tasklet that died in the kernel);
  /// completes the current generation if it was the last one outstanding.
  void arrive_and_drop() {
    std::lock_guard<std::mutex> lk(mtx_);
    if (--parties_ > 0 && arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    }
  }

private:
  std::mutex mtx_;
  std::condition_variable cv_;
  std::uint32_t parties_;
  std::uint32_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

} // namespace

void set_concurrent_runner(ConcurrentRunner runner) {
  std::lock_guard<std::mutex> lk(runner_mutex());
  runner_slot() = std::move(runner);
}

Dpu::Dpu(const UpmemConfig& cfg)
    : cfg_(cfg),
      mram_(cfg.mram_bytes),
      wram_(cfg.wram_bytes),
      iram_(cfg.iram_bytes) {}

void Dpu::load(const DpuProgram& program) {
  require(!program.phases.empty() &&
              std::all_of(program.phases.begin(), program.phases.end(),
                          [](const KernelPhase& p) { return bool(p); }),
          "DpuProgram '" + program.name + "' has an empty kernel phase list "
          "or an empty phase");
  require(!program.fast_entry || program.phases.size() == 1,
          "DpuProgram '" + program.name +
              "' has a fast_entry twin but more than one phase");

  // Validate everything before mutating anything: a failed load (symbol
  // placement or IRAM overflow) must leave the previous program — IRAM,
  // symbol table and entry point consistent with each other — launchable.
  std::map<std::string, SymbolInfo> placed;
  MemSize mram_top = 0;
  MemSize wram_top = 0;
  for (const SymbolDecl& d : program.symbols) {
    if (placed.count(d.name) != 0) {
      throw SymbolError("duplicate symbol '" + d.name + "' in program '" +
                        program.name + "'");
    }
    MemSize& top = d.kind == MemKind::Mram ? mram_top : wram_top;
    const MemSize cap =
        d.kind == MemKind::Mram ? cfg_.mram_bytes : cfg_.wram_bytes;
    const MemSize offset = align_up(top, kXferAlign);
    if (d.size > cap || offset > cap - d.size) {
      throw CapacityError("symbol '" + d.name + "' (" +
                          std::to_string(d.size) + " B) overflows " +
                          std::string(mem_kind_name(d.kind)) + " (used " +
                          std::to_string(offset) + " of " +
                          std::to_string(cap) + " B)");
    }
    placed[d.name] = SymbolInfo{d.kind, offset, d.size};
    top = offset + d.size;
  }
  iram_.load_program(program.iram_bytes, program.name);

  program_ = program;
  symbols_ = std::move(placed);
  mram_top_ = mram_top;
  wram_top_ = wram_top;
}

const SymbolInfo& Dpu::symbol(const std::string& name) const {
  const auto it = symbols_.find(name);
  if (it == symbols_.end()) {
    throw SymbolError("no symbol '" + name + "' in program '" +
                      program_.name + "'");
  }
  return it->second;
}

bool Dpu::has_symbol(const std::string& name) const {
  return symbols_.count(name) != 0;
}

void Dpu::host_write(const std::string& name, MemSize offset, const void* src,
                     MemSize size) {
  const SymbolInfo& s = symbol(name);
  // Guard the sum against wrap-around like Wram::check/Mram::check do: a
  // huge `offset` must throw, not wrap and land inside another symbol.
  if (size > s.size || offset > s.size - size) {
    throw OutOfBoundsError("host_write past end of symbol '" + name + "'");
  }
  if (s.kind == MemKind::Mram) {
    mram_.write(s.offset + offset, src, size);
  } else {
    wram_.write(s.offset + offset, src, size);
  }
}

void Dpu::host_read(const std::string& name, MemSize offset, void* dst,
                    MemSize size) const {
  const SymbolInfo& s = symbol(name);
  if (size > s.size || offset > s.size - size) {
    throw OutOfBoundsError("host_read past end of symbol '" + name + "'");
  }
  if (s.kind == MemKind::Mram) {
    mram_.read(dst, s.offset + offset, size);
  } else {
    wram_.read(dst, s.offset + offset, size);
  }
}

DpuRunStats Dpu::launch(std::uint32_t n_tasklets, OptLevel opt,
                        TaskletSchedule schedule, SimMode mode) {
  require(!program_.phases.empty(), "launch without a loaded program");
  require(n_tasklets >= 1 && n_tasklets <= cfg_.max_tasklets,
          "tasklet count must be in [1, " +
              std::to_string(cfg_.max_tasklets) + "]");

  obs::Span sp("dpu.launch", "sim");
  if (sp.active()) {
    sp.str("program", program_.name);
    sp.u64("n_tasklets", n_tasklets);
  }

  const CostModel cost(opt);
  const std::vector<KernelPhase>& phases = program_.phases;
  DpuRunStats out;
  out.tasklets.resize(n_tasklets);

  if (mode == SimMode::Interp && phases.size() > 1 && n_tasklets > 1) {
    // The reference executor for multi-phase programs: every tasklet runs
    // on a concurrent host thread and the tasklets meet on a real barrier
    // between phases, so a kernel that breaks the phase contract shows up
    // as a schedule-dependent result. Each tasklet charges into its own
    // stats/profile; charges are interleaving-independent, so cycle
    // accounting stays deterministic. The threads come from the installed
    // ConcurrentRunner (persistent HostPool lanes under the runtime; fresh
    // std::threads standalone).
    LaunchBarrier barrier(n_tasklets);
    std::vector<SubroutineProfile> profiles(n_tasklets);
    std::vector<std::exception_ptr> errors(n_tasklets);
    const auto tasklet_body = [&](std::uint32_t t) {
      try {
        if (schedule == TaskletSchedule::StaggeredReverse) {
          // Adversarial start order: tasklet 0 enters the kernel last, so
          // any kernel relying on "tasklet 0 runs first" breaks here.
          std::this_thread::sleep_for(std::chrono::microseconds(200) *
                                      (n_tasklets - 1 - t));
        }
        TaskletCtx ctx(*this, t, n_tasklets, cost, out.tasklets[t],
                       profiles[t]);
        for (std::size_t p = 0; p < phases.size(); ++p) {
          if (p > 0) {
            ctx.charge_slots(cost.barrier_stmt());
            barrier.arrive_and_wait();
          }
          phases[p](ctx);
        }
      } catch (...) {
        errors[t] = std::current_exception();
        // Keep peers from deadlocking on a barrier this tasklet will
        // never reach; the launch rethrows the error after the run.
        barrier.arrive_and_drop();
      }
    };
    current_runner()(n_tasklets, tasklet_body);
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (const auto& p : profiles) {
      out.profile.merge(p);
    }
  } else {
    // Sequential executor: phase-major on the calling thread, one context
    // per tasklet living across phases. The phase contract makes any
    // in-phase order equivalent to the threaded run, and the boundary
    // charge is the one the threaded barrier applies.
    const bool twin = mode == SimMode::Fast && bool(program_.fast_entry);
    out.fast_path = twin || (mode == SimMode::Fast && phases.size() > 1);
    std::vector<TaskletCtx> ctxs;
    ctxs.reserve(n_tasklets);
    for (TaskletId t = 0; t < n_tasklets; ++t) {
      ctxs.emplace_back(*this, t, n_tasklets, cost, out.tasklets[t],
                        out.profile);
    }
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const KernelPhase& body = twin ? program_.fast_entry : phases[p];
      for (TaskletId i = 0; i < n_tasklets; ++i) {
        TaskletCtx& ctx =
            ctxs[schedule == TaskletSchedule::StaggeredReverse
                     ? n_tasklets - 1 - i
                     : i];
        if (p > 0) {
          ctx.charge_slots(cost.barrier_stmt());
        }
        body(ctx);
      }
    }
    if (out.fast_path) {
      obs::Metrics::instance().add("sim.fast_launches");
    }
  }

  Cycles latency_bound = 0;
  for (const TaskletStats& ts : out.tasklets) {
    out.total_slots += ts.slots;
    out.total_dma_cycles += ts.dma_cycles;
    out.total_dma_bytes += ts.dma_bytes;
    latency_bound =
        std::max(latency_bound,
                 static_cast<Cycles>(ts.slots) * cfg_.pipeline_stages +
                     ts.dma_cycles);
  }
  out.cycles = std::max({static_cast<Cycles>(out.total_slots),
                         out.total_dma_cycles, latency_bound});
  if (sp.active()) {
    sp.u64("cycles", out.cycles);
    sp.u64("slots", out.total_slots);
    sp.u64("dma_cycles", out.total_dma_cycles);
    sp.u64("dma_bytes", out.total_dma_bytes);
    sp.str("bound", cycle_bound_name(dominant_bound(out, cfg_)));
    sp.f64("imbalance", tasklet_imbalance(out, cfg_));
    sp.str("mode", out.fast_path ? "fast" : "interp");
  }
  return out;
}

} // namespace pimdnn::sim
