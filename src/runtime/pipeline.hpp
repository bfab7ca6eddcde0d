// Resource-constrained pipeline timeline for double-buffered offload.
//
// The simulator reports DPU time in simulated cycles (at the 350 MHz DPU
// clock) and host time in measured wall seconds — so "how much faster is
// the double-buffered pipeline" cannot be read off a single real-time
// stopwatch: on the real system the DPU banks and the host run
// concurrently, but here every DPU cycle is *interpreted* on the host CPU.
// PipelineModel is the schedule that answers the question honestly: each
// executor reports its stages in the order it really issued them, with
// measured durations for host work (im2col, bias+leaky, FC tails, staging)
// and transfers, and simulated durations for DPU kernels, and the model
// lays them on a timeline under the same resource constraints the real
// machine has:
//
//  * one host lane — host compute and host<->DPU transfers serialize,
//  * one lane per DPU bank — a bank runs one kernel at a time, and a
//    transfer occupies both the host and the target bank,
//  * per-item dependency — an item's next stage starts only after its
//    previous stage finished.
//
// A synchronous executor is the degenerate schedule where every stage also
// waits for the globally previous stage; its wall is exactly the sum of
// all durations (`serial_seconds`). The pipelined executors' modeled wall
// is `makespan_seconds`; the ratio is the steady-state speedup the bench
// reports. The model is thread-safe because pipelined frame drivers run
// concurrently on the HostPool and report stages as they complete.
//
// Scheduling is greedy earliest-fit over per-resource busy-interval lists:
// a stage starts at the earliest time >= its item's readiness at which
// every resource it needs is free for the whole duration, so a later item
// backfills the host-lane gaps an earlier item's DPU phase left open. The
// schedule therefore depends only on each item's own stage order (enforced
// by the executors' program order), not on how the reporting threads
// interleaved — on a single-core host, where the double-buffered drivers
// degrade to serial real execution, the modeled overlap is identical to
// what a many-core host reports. One structural constraint of the
// double-buffered executors is kept: item i never starts before item i-2
// finished (at most two in flight).
//
// `run_double_buffered` is that executor — the one two-bank ring every
// pipelined offload runs on — and `PipelineRun` the obs bracket every
// `run_pipelined` shares around it.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace pimdnn::runtime {

/// Aggregate of one pipelined run over the modeled timeline.
struct PipelineStats {
  std::size_t items = 0;           ///< frames / batches scheduled
  Seconds makespan_seconds = 0.0;  ///< modeled overlapped wall time
  Seconds serial_seconds = 0.0;    ///< the same stages laid end to end
  Seconds host_seconds = 0.0;      ///< host-lane busy time (incl. transfers)
  Seconds dpu_seconds = 0.0;       ///< summed bank busy kernel time

  /// serial / makespan: how much faster the overlapped schedule is than
  /// the synchronous one (1.0 when nothing overlapped or nothing ran).
  double speedup() const {
    return makespan_seconds > 0.0 ? serial_seconds / makespan_seconds : 1.0;
  }

  /// 1 - makespan/serial: the fraction of serial time hidden by overlap.
  double overlap_efficiency() const {
    return serial_seconds > 0.0 ? 1.0 - makespan_seconds / serial_seconds
                                : 0.0;
  }
};

/// Thread-safe timeline builder (see file comment). An item's stages must
/// be reported in its program order; stages of different items may be
/// reported in any interleaving without changing the schedule.
class PipelineModel {
public:
  /// `n_banks` independent DPU lanes (2 for the double-buffered pipelines).
  /// `trace` controls the `pipe.stage` telemetry spans: executors keep it
  /// on so obs::Timeline can rebuild their schedule; what-if models (the
  /// mapper's cost predictions) turn it off so hypothetical stages never
  /// pollute the reconstruction.
  explicit PipelineModel(unsigned n_banks, bool trace = true);

  /// Host-only stage (im2col, bias+leaky, FC tail, result unpack).
  void host_stage(std::size_t item, Seconds duration);

  /// Host<->bank transfer: occupies the host lane and `bank`.
  void xfer_stage(std::size_t item, unsigned bank, Seconds duration);

  /// DPU kernel on `bank` (simulated seconds); the host lane stays free.
  void dpu_stage(std::size_t item, unsigned bank, Seconds duration);

  /// Snapshot of the schedule built so far.
  PipelineStats stats() const;

private:
  /// One occupied interval on a resource lane.
  struct Busy {
    Seconds start, end;
  };

  Seconds& item_ready(std::size_t item);
  /// Earliest start >= `earliest` at which [start, start+duration) is free
  /// on every lane in `lanes` (indices into lanes_).
  Seconds earliest_fit(const unsigned* lanes, std::size_t n_lanes,
                       Seconds earliest, Seconds duration) const;
  /// Books [start, end) on a lane, keeping the interval list sorted.
  void occupy(unsigned lane, Seconds start, Seconds end);

  mutable std::mutex mu_;
  const bool trace_; ///< emit pipe.stage spans (off for what-if models)
  /// lanes_[0] is the host lane; lanes_[1 + b] is bank b.
  std::vector<std::vector<Busy>> lanes_;
  std::vector<Seconds> items_;     ///< per-item last-stage completion time
  Seconds serial_ = 0.0;
  Seconds host_busy_ = 0.0;
  Seconds dpu_busy_ = 0.0;
  Seconds makespan_ = 0.0;
};

/// The double-buffer executor (DESIGN.md §11). Item i runs on bank i%2:
/// its bank's previous occupant, item i-2, is handed to `finish` before
/// `start(i, bank)` runs, so at most two items are in flight and each
/// bank serializes. `finish` runs on the calling thread in item order
/// (the last two after the loop); 0 items call nothing.
///
/// `start` returns the item's pending state: any movable type with a
/// `wait()` that blocks until the item's in-flight work (a launch, a
/// HostPool task) is done and is safe to call repeatedly. `finish`
/// receives it as an rvalue and waits on it before gathering.
///
/// Exception contract: when `start` or `finish` throws, no further item
/// starts, every item still in flight is waited out (exceptions from
/// those waits are swallowed), and then the first exception propagates —
/// in-flight work references state the unwinding caller owns.
template <class Start, class Finish>
void run_double_buffered(std::size_t n_items, Start&& start,
                         Finish&& finish) {
  using Pending = std::invoke_result_t<Start&, std::size_t, unsigned>;
  std::optional<Pending> slot[2];
  const auto retire = [&](std::optional<Pending>& s) {
    if (s.has_value()) {
      finish(std::move(*s));
      s.reset();
    }
  };
  try {
    for (std::size_t i = 0; i < n_items; ++i) {
      const auto bank = static_cast<unsigned>(i % 2);
      retire(slot[bank]);
      slot[bank].emplace(start(i, bank));
    }
    retire(slot[n_items % 2]);
    retire(slot[(n_items + 1) % 2]);
  } catch (...) {
    for (std::optional<Pending>& s : slot) {
      if (s.has_value()) {
        try {
          s->wait();
        } catch (...) {
        }
      }
    }
    throw;
  }
}

/// Obs bracket of one `run_pipelined` call: opens the `<name>.pipeline`
/// span (the item count under `count_key`) and owns the two-bank
/// PipelineModel the executor's stages report to. `close` publishes the
/// completed run: the model's stats (also onto the span), the Timeline
/// rebuilt from this run's `pipe.stage` spans and its `record_drift`
/// under tracing, and one SLO sample per item.
class PipelineRun {
public:
  PipelineRun(std::string name, const char* count_key, std::size_t n_items);

  /// The model the run's stages report to.
  PipelineModel& model() { return model_; }

  /// Publishes the run into `stats` / `timeline` and records each result's
  /// `latency_seconds(result)` under SLO signature `slo_signature`.
  template <class Results, class LatencySeconds>
  void close(PipelineStats& stats,
             std::optional<obs::TimelineReport>& timeline,
             const Results& results, std::string_view slo_signature,
             LatencySeconds&& latency_seconds) {
    publish(stats, timeline);
    if (obs::SloTracker::enabled()) {
      for (const auto& r : results) {
        obs::SloTracker::instance().record(slo_signature,
                                           latency_seconds(r) * 1e3);
      }
    }
  }

private:
  void publish(PipelineStats& stats,
               std::optional<obs::TimelineReport>& timeline);

  std::string name_;
  obs::Span span_;
  PipelineModel model_{2};
  bool tracing_;
  double trace_since_us_;
};

} // namespace pimdnn::runtime
