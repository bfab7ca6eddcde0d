// The two YOLOv3 workloads: `yolov3_lite_config(1, 1)` through
// YoloRunner::run_pipelined with auto mapping, either as a stream of warm
// 64x64 frames (frames overlap across the two banks) or as one 416x416
// frame per call (the mapper's split axis overlaps each frame with itself).
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "map/space.hpp"
#include "nn/im2col.hpp"
#include "nn/layers.hpp"
#include "runtime/dpu_pool.hpp"
#include "yolo/config.hpp"
#include "yolo/detect.hpp"
#include "yolo/dpu_gemm.hpp"
#include "yolo/network.hpp"

namespace perfbench {
namespace {

using namespace pimdnn;
using Tensor = std::vector<std::int16_t>;
using Outputs = std::vector<Tensor>;

/// True when a frame's outputs match every slot the golden run kept.
bool frame_matches(const Outputs& got, const Outputs& golden) {
  if (got.size() != golden.size()) return false;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (!golden[i].empty() && got[i] != golden[i]) return false;
  }
  return true;
}

class YoloWorkload final : public Workload {
public:
  /// `window` frames of `side` x `side` per operation. A lone frame can
  /// only overlap with itself, so run_pipelined plans it with the split
  /// axis open; a window keeps every layer unsplit.
  YoloWorkload(int side, int window, std::uint64_t seed)
      : defs_(yolo::yolov3_lite_config(1, 1)),
        weights_(yolo::YoloWeights::random(defs_, 3, seed)), side_(side),
        max_split_(window == 1 ? map::kMaxSplitFactor : 1) {
    for (int f = 0; f < window; ++f) {
      frames_.push_back(
          yolo::make_synthetic_image(3, side, side, 5, seed * 64 + f));
    }
    opts_.mode = yolo::ExecMode::DpuWram;
    opts_.retain_all_outputs = false;
    yolo::RunOptions cpu_opts = opts_;
    cpu_opts.mode = yolo::ExecMode::Cpu;
    const yolo::YoloRunner cpu(defs_, weights_, 3, side_, side_);
    for (const Tensor& frame : frames_) {
      golden_.push_back(cpu.run(frame, cpu_opts).outputs);
    }
  }

  int kinds() const override { return 1; }

  double setup() override {
    runner_.reset(); // never hold two runners' bank pools at once
    release_freed_memory();
    const double t0 = wall_now();
    runner_ = std::make_unique<yolo::YoloRunner>(defs_, weights_, 3, side_,
                                                 side_);
    last_ = runner_->run_pipelined(frames_, opts_);
    return wall_now() - t0;
  }

  OpRecord run_op(int kind, SpanLog* spans, Ledger* ledger) override {
    OpRecord r;
    r.kind = kind;
    {
      SpanLog::Scope sp(spans, "yolo.run_pipelined");
      const double c0 = process_cpu_now();
      const double t0 = wall_now();
      yolo::YoloPipelineResult res = runner_->run_pipelined(frames_, opts_);
      r.wall_s = wall_now() - t0;
      r.cpu_s = process_cpu_now() - c0;
      last_ = std::move(res);
    }
    r.items = static_cast<double>(frames_.size());
    r.makespan_s = last_.pipeline.makespan_seconds;
    std::vector<double> cycles;
    for (const yolo::YoloRunResult& fr : last_.frames) {
      r.dpu_s += fr.total_seconds;
      cycles.push_back(static_cast<double>(fr.total_cycles));
    }
    (ledger != nullptr ? traced_cycles_ : untraced_cycles_) = cycles;
    if (ledger != nullptr) add_to(*ledger);
    return r;
  }

  std::uint64_t check_last() override {
    std::uint64_t wrong = 0;
    for (std::size_t f = 0; f < golden_.size(); ++f) {
      const bool ok = f < last_.frames.size() &&
                      frame_matches(last_.frames[f].outputs, golden_[f]);
      wrong += ok ? 0 : 1;
    }
    return wrong;
  }

  Probe probe(SpanLog& spans) override {
    // The probe runs last and brings its own bank pools: drop the runner's
    // so a 416x416 probe does not hold two sets of simulated MRAM.
    runner_.reset();
    release_freed_memory();
    Probe p;
    std::vector<map::MappingPlan> plans;
    {
      // A fresh runner has an empty plan cache: this is the planning a
      // setup pays (later calls on a warm runner hit the cache).
      const yolo::YoloRunner fresh(defs_, weights_, 3, side_, side_);
      SpanLog::Scope sp(&spans, "map.layer_plans");
      const double t0 = wall_now();
      plans = fresh.layer_plans(opts_, max_split_);
      p.plan_s = wall_now() - t0;
    }
    std::uint32_t peak = 1;
    for (const map::MappingPlan& plan : plans) {
      const std::uint32_t split = std::max(plan.split, 1u);
      peak = std::max(peak, (plan.n_dpus + split - 1) / split);
      p.split_layers += plan.split > 1 ? 1 : 0;
      p.max_planned_dpus =
          std::max(p.max_planned_dpus, static_cast<double>(plan.n_dpus));
      p.pred_kernel_s += plan.predicted.kernel_seconds;
    }
    runtime::DpuPool even;
    runtime::DpuPool odd;
    even.reserve(peak);
    odd.reserve(peak);
    // The first pass builds programs and scatters weights; the second is
    // the warm frame the numbers come from.
    Probe cold;
    layer_by_layer(plans, even, odd, nullptr, cold);
    {
      SpanLog::Scope sp(&spans, "probe.frame");
      probe_outputs_ = layer_by_layer(plans, even, odd, &spans, p);
    }
    p.items = 1;
    p.sim_kernel_s = p.sim_wall_cycles / sim::default_config().frequency_hz;
    probe_cycles_ = p.sim_wall_cycles;
    return p;
  }

  std::string reconcile() const override {
    std::string out;
    if (traced_cycles_ != untraced_cycles_) {
      out += "traced frames simulated other DPU cycles than untraced ones; ";
    }
    if (untraced_cycles_.empty() || probe_cycles_ != untraced_cycles_[0]) {
      out += "layer-by-layer DPU cycles " + std::to_string(probe_cycles_) +
             " != frame cycles " +
             (untraced_cycles_.empty() ? std::string("(none)")
                                       : std::to_string(untraced_cycles_[0])) +
             "; ";
    }
    if (!frame_matches(probe_outputs_, golden_[0])) {
      out += "layer-by-layer outputs differ from the golden model; ";
    }
    return out;
  }

private:
  void add_to(Ledger& l) const {
    const runtime::PipelineStats& ps = last_.pipeline;
    l.items += static_cast<double>(last_.frames.size());
    l.pipe_host_s += ps.host_seconds;
    l.pipe_dpu_s += ps.dpu_seconds;
    l.pipe_serial_s += ps.serial_seconds;
    l.makespan_s += ps.makespan_seconds;
    for (const yolo::YoloRunResult& fr : last_.frames) {
      l.to_dpu_s += fr.host.to_dpu_seconds;
      l.from_dpu_s += fr.host.from_dpu_seconds;
      l.load_s += fr.host.load_seconds;
      l.bytes_to_dpu += static_cast<double>(fr.host.bytes_to_dpu);
      l.bytes_from_dpu += static_cast<double>(fr.host.bytes_from_dpu);
      l.program_loads += static_cast<double>(fr.host.program_loads);
      l.host_compute_s += fr.host_compute_seconds;
      l.dpu_wall_cycles += static_cast<double>(fr.total_cycles);
      for (const yolo::LayerStats& ls : fr.layers) l.dpu_launches += ls.dpus;
    }
  }

  /// Frame 0 through the network one public call at a time: nn::im2col,
  /// the pooled (or split) DPU GEMM, bias + nn::leaky_relu_q16, and the
  /// non-conv layer bodies — the same calls, shapes and plans the runner
  /// makes, so outputs and DPU cycles must match it exactly.
  Outputs layer_by_layer(const std::vector<map::MappingPlan>& plans,
                         runtime::DpuPool& even, runtime::DpuPool& odd,
                         SpanLog* spans, Probe& p) const {
    struct Dim {
      int c, h, w;
    };
    std::vector<Dim> dims;
    Outputs outs;
    Tensor cur = frames_[0];
    Tensor cols;
    Dim cd{3, side_, side_};
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      const yolo::LayerDef& d = defs_[i];
      auto at = [&](int idx) {
        return static_cast<std::size_t>(idx < 0 ? static_cast<long>(i) + idx
                                                : static_cast<long>(idx));
      };
      switch (d.type) {
        case yolo::LayerType::Convolutional: {
          const nn::ConvGeom g{cd.c, cd.h, cd.w, d.filters,
                               d.size, d.stride, d.pad};
          const int m = g.gemm_m(), n = g.gemm_n(), k = g.gemm_k();
          const auto& cw = weights_.conv[i];
          const std::string tag = "A/conv" + std::to_string(i);
          {
            Timed t(spans, "nn.im2col", p.im2col_s, p.im2col_cpu_s);
            cols.resize(static_cast<std::size_t>(k) * n);
            nn::im2col<std::int16_t>(g, cur, cols);
          }
          yolo::GemmResult r;
          const double t0 = wall_now();
          {
            SpanLog::Scope sp(spans, "sim.dpu_gemm");
            r = plans[i].split > 1
                    ? yolo::dpu_gemm_split(even, odd, m, n, k, cw.alpha, cw.w,
                                           cols, yolo::GemmVariant::WramTiled,
                                           plans[i], opts_.opt, tag)
                    : yolo::dpu_gemm_pooled(
                          even, m, n, k, cw.alpha, cw.w, cols,
                          yolo::GemmVariant::WramTiled, opts_.n_tasklets,
                          opts_.opt, opts_.rows_per_dpu, tag);
          }
          p.sim_host_s += wall_now() - t0 - r.stats.host.host_seconds();
          p.sim_wall_cycles += static_cast<double>(r.stats.wall_cycles);
          p.sim_total_cycles += static_cast<double>(r.stats.total_cycles);
          {
            Timed t(spans, "nn.bias_leaky", p.host_layers_s,
                    p.host_layers_cpu_s);
            for (int f = 0; f < m; ++f) {
              std::int16_t* row = r.c.data() + static_cast<std::size_t>(f) * n;
              for (int j = 0; j < n; ++j) {
                row[j] = static_cast<std::int16_t>(
                    std::clamp(static_cast<std::int32_t>(row[j]) + cw.bias[f],
                               -32767, 32767));
              }
              if (d.leaky) {
                nn::leaky_relu_q16(
                    std::span<std::int16_t>(row, static_cast<std::size_t>(n)));
              }
            }
          }
          cur = std::move(r.c);
          cd = {d.filters, g.out_h(), g.out_w()};
          break;
        }
        case yolo::LayerType::Shortcut: {
          Timed t(spans, "nn.shortcut_q16", p.host_layers_s,
                  p.host_layers_cpu_s);
          Tensor sum(cur.size());
          nn::shortcut_q16(cur, outs[at(d.from)], sum);
          cur = std::move(sum);
          break;
        }
        case yolo::LayerType::Route: {
          Timed t(spans, "nn.route", p.host_layers_s, p.host_layers_cpu_s);
          Tensor cat;
          Dim nd{0, 0, 0};
          for (int idx : d.layers) {
            const std::size_t li = at(idx);
            cat.insert(cat.end(), outs[li].begin(), outs[li].end());
            nd = {nd.c + dims[li].c, dims[li].h, dims[li].w};
          }
          cur = std::move(cat);
          cd = nd;
          break;
        }
        case yolo::LayerType::Upsample: {
          Timed t(spans, "nn.upsample2x", p.host_layers_s,
                  p.host_layers_cpu_s);
          Tensor up(cur.size() * 4);
          nn::upsample2x<std::int16_t>(cd.c, cd.h, cd.w, cur, up);
          cur = std::move(up);
          cd = {cd.c, cd.h * 2, cd.w * 2};
          break;
        }
        case yolo::LayerType::Maxpool: {
          Timed t(spans, "nn.maxpool2d_darknet", p.host_layers_s,
                  p.host_layers_cpu_s);
          const int oh = (cd.h + d.stride - 1) / d.stride;
          const int ow = (cd.w + d.stride - 1) / d.stride;
          Tensor pooled(static_cast<std::size_t>(cd.c) * oh * ow);
          nn::maxpool2d_darknet<std::int16_t>(cd.c, cd.h, cd.w, d.size,
                                              d.stride, cur, pooled);
          cur = std::move(pooled);
          cd = {cd.c, oh, ow};
          break;
        }
        case yolo::LayerType::Yolo:
          break; // raw predictions pass through, as in the runner
      }
      outs.push_back(cur);
      dims.push_back(cd);
    }
    return outs;
  }

  std::vector<yolo::LayerDef> defs_;
  yolo::YoloWeights weights_;
  int side_;
  std::uint32_t max_split_;
  yolo::RunOptions opts_;
  std::vector<Tensor> frames_;
  std::vector<Outputs> golden_;
  std::unique_ptr<yolo::YoloRunner> runner_;
  yolo::YoloPipelineResult last_;
  std::vector<double> untraced_cycles_, traced_cycles_;
  double probe_cycles_ = 0;
  Outputs probe_outputs_;
};

} // namespace

std::unique_ptr<Workload> make_yolo_stream(std::uint64_t seed) {
  return std::make_unique<YoloWorkload>(64, 8, seed);
}

std::unique_ptr<Workload> make_yolo_frame_416(std::uint64_t seed) {
  return std::make_unique<YoloWorkload>(416, 1, seed);
}

} // namespace perfbench
