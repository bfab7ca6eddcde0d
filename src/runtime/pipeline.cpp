#include "runtime/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace pimdnn::runtime {

namespace {

/// Every reported stage also goes to the tracer as a `pipe.stage` span so
/// obs::Timeline can rebuild the schedule from the telemetry stream alone
/// and cross-check it against this model (the obs.drift gauge). Emitted
/// outside the model lock; buffer order still matches report order per
/// item because each item's stages are reported sequentially by one
/// executor thread.
void stage_span(const char* lane, std::size_t item, unsigned bank,
                Seconds duration) {
  obs::Span sp("pipe.stage", "pipeline");
  if (sp.active()) {
    sp.str("lane", lane);
    sp.u64("bank", bank);
    sp.u64("item", item);
    sp.f64("seconds", duration);
  }
}

} // namespace

PipelineModel::PipelineModel(unsigned n_banks, bool trace)
    : trace_(trace), lanes_(1 + static_cast<std::size_t>(n_banks)) {
  require(n_banks >= 1, "PipelineModel needs at least one bank");
}

Seconds& PipelineModel::item_ready(std::size_t item) {
  if (item >= items_.size()) {
    const std::size_t old = items_.size();
    items_.resize(item + 1, 0.0);
    // Two-in-flight floor: the executors start item i only after item i-2
    // finished, and they report items in order, so items_[i - 2] is final
    // by the time item i first appears.
    for (std::size_t i = std::max<std::size_t>(old, 2); i <= item; ++i) {
      items_[i] = items_[i - 2];
    }
  }
  return items_[item];
}

Seconds PipelineModel::earliest_fit(const unsigned* lanes,
                                    std::size_t n_lanes, Seconds earliest,
                                    Seconds duration) const {
  Seconds t = earliest;
  // Slide the window right past every conflicting interval until a pass
  // over all lanes moves nothing; terminates because each move lands on
  // the end of one of finitely many intervals.
  bool moved = true;
  while (moved) {
    moved = false;
    for (std::size_t l = 0; l < n_lanes; ++l) {
      for (const Busy& b : lanes_[lanes[l]]) {
        if (b.start >= t + duration) {
          break; // sorted: later intervals cannot conflict either
        }
        if (b.end > t) {
          t = b.end;
          moved = true;
        }
      }
    }
  }
  return t;
}

void PipelineModel::occupy(unsigned lane, Seconds start, Seconds end) {
  auto& v = lanes_[lane];
  v.insert(std::upper_bound(v.begin(), v.end(), start,
                            [](Seconds s, const Busy& b) {
                              return s < b.start;
                            }),
           Busy{start, end});
}

void PipelineModel::host_stage(std::size_t item, Seconds duration) {
  if (trace_) {
    stage_span("host", item, 0, duration);
  }
  std::lock_guard<std::mutex> lk(mu_);
  Seconds& ready = item_ready(item);
  serial_ += duration;
  host_busy_ += duration;
  if (duration <= 0.0) {
    return;
  }
  const unsigned lanes[] = {0};
  const Seconds start = earliest_fit(lanes, 1, ready, duration);
  const Seconds end = start + duration;
  occupy(0, start, end);
  ready = end;
  makespan_ = std::max(makespan_, end);
}

void PipelineModel::xfer_stage(std::size_t item, unsigned bank,
                               Seconds duration) {
  require(1 + bank < lanes_.size(), "PipelineModel: bank out of range");
  if (trace_) {
    stage_span("xfer", item, bank, duration);
  }
  std::lock_guard<std::mutex> lk(mu_);
  Seconds& ready = item_ready(item);
  serial_ += duration;
  host_busy_ += duration;
  if (duration <= 0.0) {
    return;
  }
  const unsigned lanes[] = {0, 1 + bank};
  const Seconds start = earliest_fit(lanes, 2, ready, duration);
  const Seconds end = start + duration;
  occupy(0, start, end);
  occupy(1 + bank, start, end);
  ready = end;
  makespan_ = std::max(makespan_, end);
}

void PipelineModel::dpu_stage(std::size_t item, unsigned bank,
                              Seconds duration) {
  require(1 + bank < lanes_.size(), "PipelineModel: bank out of range");
  if (trace_) {
    stage_span("dpu", item, bank, duration);
  }
  std::lock_guard<std::mutex> lk(mu_);
  Seconds& ready = item_ready(item);
  serial_ += duration;
  dpu_busy_ += duration;
  if (duration <= 0.0) {
    return;
  }
  const unsigned lanes[] = {1 + bank};
  const Seconds start = earliest_fit(lanes, 1, ready, duration);
  const Seconds end = start + duration;
  occupy(1 + bank, start, end);
  ready = end;
  makespan_ = std::max(makespan_, end);
}

PipelineStats PipelineModel::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  PipelineStats s;
  s.items = items_.size();
  s.makespan_seconds = makespan_;
  s.serial_seconds = serial_;
  s.host_seconds = host_busy_;
  s.dpu_seconds = dpu_busy_;
  return s;
}

PipelineRun::PipelineRun(std::string name, const char* count_key,
                         std::size_t n_items)
    : name_(std::move(name)),
      span_((name_ + ".pipeline").c_str(), "pipeline"),
      tracing_(obs::Tracer::enabled()),
      trace_since_us_(tracing_ ? obs::Tracer::instance().now_us() : 0.0) {
  if (span_.active()) {
    span_.u64(count_key, n_items);
  }
}

void PipelineRun::publish(PipelineStats& stats,
                          std::optional<obs::TimelineReport>& timeline) {
  stats = model_.stats();
  if (span_.active()) {
    span_.f64("makespan_ms", stats.makespan_seconds * 1e3);
    span_.f64("serial_ms", stats.serial_seconds * 1e3);
    span_.f64("speedup", stats.speedup());
  }
  if (tracing_) {
    const obs::Timeline tl = obs::Timeline::from_events(
        obs::Tracer::instance().snapshot(), trace_since_us_);
    if (tl.stages() > 0) {
      timeline = tl.report();
      obs::record_drift(name_.c_str(), *timeline, stats.makespan_seconds,
                        stats.overlap_efficiency());
    }
  }
}

} // namespace pimdnn::runtime
