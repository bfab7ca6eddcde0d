// Shared pieces of the repository benchmark: clocks, the per-operation
// record, the traced run's ledger and probe sums, the benchmark's own span
// log, and the interface every workload implements.
//
// Two clocks are kept apart throughout. *Modeled* time is what the UPMEM
// system would take (PipelineStats.makespan_seconds: measured host stages
// plus simulated DPU cycles at 350 MHz). *Wall* time is what the simulator
// takes on this host; each operation also records the CPU time all of the
// process's threads spent in it. Simulated DPU cycles are deterministic
// for a given seed; wall and CPU time are not.
#pragma once

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall seconds since an arbitrary origin.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by the calling thread.
inline double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds consumed by every thread of the process.
inline double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Hands the memory a dropped runner freed back to the OS, so every setup
/// starts from the same allocator state and pays for first-touching its
/// memory as a fresh process does (glibc keeps freed chunks in per-thread
/// arenas otherwise, and which setup reuses them is down to scheduling).
inline void release_freed_memory() { malloc_trim(0); }

/// One timed operation of the measurement loop.
struct OpRecord {
  int kind = 0;          ///< input set (ladder step) the operation used
  double items = 0.0;    ///< frames or images completed
  double wall_s = 0.0;   ///< host wall time of the public call
  double cpu_s = 0.0;    ///< process CPU time of the public call
  double makespan_s = 0; ///< modeled makespan (PipelineStats)
  double dpu_s = 0.0;    ///< simulated DPU kernel seconds (sum of launches)
  bool failed = false;   ///< the call threw or was refused
};

/// In-run statistics summed over the traced operations that completed.
struct Ledger {
  double items = 0;
  double pipe_host_s = 0, pipe_dpu_s = 0, pipe_serial_s = 0, makespan_s = 0;
  double to_dpu_s = 0, from_dpu_s = 0, load_s = 0;
  double bytes_to_dpu = 0, bytes_from_dpu = 0, program_loads = 0;
  double dpu_launches = 0;   ///< per-DPU launches (one per DPU per kernel)
  double dpu_wall_cycles = 0;
  double host_compute_s = 0; ///< YOLO in-run host compute
  double host_tail_s = 0;    ///< eBNN in-run host tail
};

/// Numbers from the layer probes: serial, isolated calls into the
/// modules' public functions on the workload's own shapes.
struct Probe {
  double items = 0;           ///< items the sim/nn probes covered
  double sim_host_s = 0;      ///< call wall - host transfers - host tail
  double sim_wall_cycles = 0; ///< simulated kernel walls of the probed calls
  double sim_total_cycles = 0;
  double im2col_s = 0, im2col_cpu_s = 0;
  double host_layers_s = 0, host_layers_cpu_s = 0;
  double tail_images = 0, tail_s = 0, tail_cpu_s = 0;
  double plan_s = 0;          ///< planning time of one operation
  double split_layers = 0, max_planned_dpus = 0;
  double pred_kernel_s = 0, sim_kernel_s = 0;
};

/// In-memory span log: name, start, end, parent, operation id. Spans are
/// opened and closed on the benchmark's own thread around each call into
/// a module, so children never overlap and self time is duration minus
/// the children's durations.
class SpanLog {
public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;
    int op = -1;
  };

  /// RAII span; a null log makes it a no-op (the untraced run).
  class Scope {
  public:
    Scope(SpanLog* log, const char* name)
        : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
    ~Scope() {
      if (log_ != nullptr) log_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanLog* log_;
    int id_;
  };

  void set_op(int op) { op_ = op; }

  /// Per-name totals: calls, wall seconds and self seconds.
  struct Total {
    std::string name;
    std::uint64_t calls = 0;
    double wall_s = 0, self_s = 0;
  };
  std::vector<Total> totals() const;

  /// Writes every span as a JSON array to `path`.
  void write(const std::string& path) const;

private:
  int open(const char* name);
  void close(int id);

  std::vector<Span> spans_;
  std::vector<int> stack_;
  int op_ = -1;
};

/// A span that also adds its wall and thread-CPU seconds to two sums (the
/// probes' serial calls, timed on both clocks).
class Timed {
public:
  Timed(SpanLog* log, const char* name, double& wall_s, double& cpu_s)
      : span_(log, name), wall_s_(wall_s), cpu_s_(cpu_s), w0_(wall_now()),
        c0_(thread_cpu_now()) {}
  ~Timed() {
    wall_s_ += wall_now() - w0_;
    cpu_s_ += thread_cpu_now() - c0_;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

private:
  SpanLog::Scope span_;
  double& wall_s_;
  double& cpu_s_;
  double w0_, c0_;
};

/// One workload of the benchmark. Inputs come only from the seed; the
/// program receives only those generated inputs.
class Workload {
public:
  virtual ~Workload() = default;
  /// Input sets the operations cycle through (eBNN's batch-size ladder).
  virtual int kinds() const = 0;
  /// Constructs the runner/host and runs the cold first operation;
  /// returns the wall seconds that took (input generation excluded).
  virtual double setup() = 0;
  /// One timed operation of kind `kind`. Throws when the call fails. When
  /// `spans` is set the calls are wrapped in spans and the in-run
  /// statistics are added to `ledger`.
  virtual OpRecord run_op(int kind, SpanLog* spans, Ledger* ledger) = 0;
  /// Compares the last operation's outputs with the CPU golden model
  /// (outside the timed region); returns the number of wrong items.
  virtual std::uint64_t check_last() = 0;
  /// The layer probes (traced run only).
  virtual Probe probe(SpanLog& spans) = 0;
  /// Exact cross-checks after the traced run: the summed per-layer DPU
  /// cycles equal what the untraced operations simulated, and the probes'
  /// outputs equal the golden model's. Returns what differed, or "".
  virtual std::string reconcile() const = 0;
};

/// The three workloads (see main.cpp for why each was chosen).
std::unique_ptr<Workload> make_yolo_stream(std::uint64_t seed);
std::unique_ptr<Workload> make_yolo_frame_416(std::uint64_t seed);
std::unique_ptr<Workload> make_ebnn_scale(std::uint64_t seed);

} // namespace perfbench
