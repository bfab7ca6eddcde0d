// The eBNN workload: MNIST eBNN with the host-built BN-BinAct LUT through
// EbnnHost::run_pipelined, two batches per operation, auto mapping. Batch
// sizes cycle through Figure 4.7(c)'s DPU-count ladder at 16 images per
// DPU: 2,560, 10,240 and 40,960 images (160, 640 and 2,560 DPUs).
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ebnn/dpu_kernel.hpp"
#include "ebnn/host.hpp"
#include "ebnn/lut.hpp"
#include "ebnn/mnist_synth.hpp"
#include "ebnn/model.hpp"
#include "map/mapper.hpp"
#include "runtime/host_pool.hpp"

namespace perfbench {
namespace {

using namespace pimdnn;

constexpr std::size_t kLadder[] = {2560, 10240, 40960};
constexpr int kSteps = 3;
/// Images the host-tail probe runs through EbnnReference::infer_tail.
constexpr std::size_t kTailProbeImages = 1024;

/// FNV-1a over a feature bitmap: the golden model keeps one word per image.
std::uint64_t hash_bits(const std::vector<int>& bits) {
  std::uint64_t h = 1469598103934665603ull;
  for (int b : bits) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 1099511628211ull;
  }
  return h;
}

class EbnnWorkload final : public Workload {
public:
  explicit EbnnWorkload(std::uint64_t seed)
      : weights_(ebnn::EbnnWeights::random(cfg_, seed)),
        reference_(cfg_, weights_) {
    // Every step's two batches read one pool of 2 x 10,240 distinct images
    // in order, wrapping around: image j of an operation is
    // images_[j % pool]. The 40,960-image step repeats each image four
    // times, which costs the simulator the same work (nothing is cached
    // by content) and keeps input generation and the golden model short.
    images_ = ebnn::images_only(ebnn::make_synthetic_mnist(2 * kLadder[1], seed));
    for (int s = 0; s < kSteps; ++s) {
      for (std::size_t b = 0; b < 2; ++b) {
        std::vector<ebnn::Image> batch;
        for (std::size_t j = b * kLadder[s]; j < (b + 1) * kLadder[s]; ++j) {
          batch.push_back(images_[j % images_.size()]);
        }
        batches_[s].push_back(std::move(batch));
      }
    }
    golden_.resize(images_.size());
    runtime::HostPool::global().parallel_for(
        static_cast<std::uint32_t>(images_.size()), [this](std::uint32_t i) {
          const ebnn::EbnnActivations a = reference_.infer(images_[i].data());
          golden_[i] = {a.predicted, hash_bits(a.feature)};
        });
  }

  int kinds() const override { return kSteps; }

  double setup() override {
    host_.reset();
    release_freed_memory();
    const double t0 = wall_now();
    host_ = std::make_unique<ebnn::EbnnHost>(cfg_, weights_,
                                             ebnn::BnMode::HostLut);
    last_ = host_->run_pipelined(batches_[0]);
    last_kind_ = 0;
    return wall_now() - t0;
  }

  OpRecord run_op(int kind, SpanLog* spans, Ledger* ledger) override {
    OpRecord r;
    r.kind = kind;
    {
      SpanLog::Scope sp(spans, "ebnn.run_pipelined");
      const double c0 = process_cpu_now();
      const double t0 = wall_now();
      ebnn::EbnnPipelineResult res = host_->run_pipelined(batches_[kind]);
      r.wall_s = wall_now() - t0;
      r.cpu_s = process_cpu_now() - c0;
      last_ = std::move(res);
      last_kind_ = kind;
    }
    std::vector<double> cycles;
    for (const ebnn::EbnnBatchResult& b : last_.batches) {
      r.items += static_cast<double>(b.predicted.size());
      r.dpu_s += b.launch.wall_seconds;
      cycles.push_back(static_cast<double>(b.launch.wall_cycles));
    }
    r.makespan_s = last_.pipeline.makespan_seconds;
    (ledger != nullptr ? traced_cycles_ : untraced_cycles_)[kind] = cycles;
    if (ledger != nullptr) add_to(*ledger);
    return r;
  }

  std::uint64_t check_last() override {
    const auto& inputs = batches_[last_kind_];
    std::uint64_t wrong = 0;
    std::size_t first = 0;
    for (std::size_t b = 0; b < inputs.size(); ++b) {
      wrong += b < last_.batches.size()
                   ? wrong_images(last_.batches[b], inputs[b].size(), first)
                   : inputs[b].size();
      first += inputs[b].size();
    }
    return wrong;
  }

  Probe probe(SpanLog& spans) override {
    Probe p;
    // map: the two plan_batch calls of each ladder step's operation, with
    // the request EbnnHost builds for a clean pool (pipelined batches are
    // never split).
    const ebnn::EbnnLayout layout = ebnn::ebnn_layout(cfg_);
    const ebnn::BnBinactLut lut = ebnn::build_bn_binact_lut(cfg_, weights_.bn);
    for (int s = 0; s < kSteps; ++s) {
      map::BatchRequest req;
      req.n_items = kLadder[s];
      req.capacity = layout.max_images;
      req.kernel_cycles = [this](std::uint32_t items, std::uint32_t t) {
        return ebnn::estimate_ebnn_wall_cycles(
            cfg_, ebnn::BnMode::HostLut, ebnn::ConvKernel::Scalar, items, t,
            runtime::OptLevel::O3);
      };
      req.item_in_bytes = layout.image_stride;
      req.item_out_bytes = layout.result_stride;
      req.const_bytes_per_dpu =
          weights_.conv_bits.size() * sizeof(std::uint32_t) + lut.table.size();
      for (int b = 0; b < 2; ++b) {
        SpanLog::Scope sp(&spans, "map.plan_batch");
        const double t0 = wall_now();
        const map::MappingPlan plan = map::Mapper().plan_batch(req);
        p.plan_s += (wall_now() - t0) / kSteps;
        p.split_layers += plan.split > 1 ? 1 : 0;
        p.max_planned_dpus =
            std::max(p.max_planned_dpus, static_cast<double>(plan.n_dpus));
        if (!traced_cycles_[s].empty()) {
          p.pred_kernel_s += plan.predicted.kernel_seconds;
          p.sim_kernel_s += traced_cycles_[s][static_cast<std::size_t>(b)] /
                            sim::default_config().frequency_hz;
        }
      }
    }
    // sim: one warm EbnnHost::run of the smallest step's first batch.
    host_->run(batches_[0][0]);
    ebnn::EbnnBatchResult run;
    {
      SpanLog::Scope sp(&spans, "probe.batch");
      const double t0 = wall_now();
      {
        SpanLog::Scope call(&spans, "ebnn.run");
        run = host_->run(batches_[0][0]);
      }
      p.sim_host_s = wall_now() - t0 - run.launch.host.host_seconds() -
                     run.host_tail_seconds;
    }
    p.items = static_cast<double>(run.predicted.size());
    p.sim_wall_cycles = static_cast<double>(run.launch.wall_cycles);
    p.sim_total_cycles = static_cast<double>(run.launch.total_cycles);
    probe_wrong_ = wrong_images(run, batches_[0][0].size(), 0);
    // ebnn: the serial host tail (FC + softmax) on the run's own features.
    {
      SpanLog::Scope sp(&spans, "probe.host_tail");
      std::vector<float> logits, probs;
      int predicted = -1;
      const std::size_t n = std::min(kTailProbeImages, run.features.size());
      for (std::size_t i = 0; i < n; ++i) {
        Timed t(&spans, "ebnn.infer_tail", p.tail_s, p.tail_cpu_s);
        reference_.infer_tail(run.features[i], logits, probs, predicted);
      }
      p.tail_images = static_cast<double>(n);
    }
    return p;
  }

  std::string reconcile() const override {
    std::string out;
    for (int s = 0; s < kSteps; ++s) {
      if (traced_cycles_[s] != untraced_cycles_[s]) {
        out += "step " + std::to_string(kLadder[s]) +
               ": traced batches simulated other DPU cycles; ";
      }
    }
    if (probe_wrong_ != 0) {
      out += std::to_string(probe_wrong_) +
             " probed images differ from the golden model; ";
    }
    return out;
  }

private:
  struct Golden {
    int predicted = -1;
    std::uint64_t feature_hash = 0;
  };

  /// Wrong images of an `n`-image batch whose first image is the
  /// operation's image `first`; a missing result counts as wrong.
  std::uint64_t wrong_images(const ebnn::EbnnBatchResult& b, std::size_t n,
                             std::size_t first) const {
    if (b.predicted.size() != n || b.features.size() != n) return n;
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < b.predicted.size(); ++i) {
      const Golden& g = golden_[(first + i) % golden_.size()];
      wrong += (b.predicted[i] != g.predicted ||
                hash_bits(b.features[i]) != g.feature_hash)
                   ? 1
                   : 0;
    }
    return wrong;
  }

  void add_to(Ledger& l) const {
    const runtime::PipelineStats& ps = last_.pipeline;
    l.pipe_host_s += ps.host_seconds;
    l.pipe_dpu_s += ps.dpu_seconds;
    l.pipe_serial_s += ps.serial_seconds;
    l.makespan_s += ps.makespan_seconds;
    for (const ebnn::EbnnBatchResult& b : last_.batches) {
      const sim::HostXferStats& h = b.launch.host;
      l.items += static_cast<double>(b.predicted.size());
      l.to_dpu_s += h.to_dpu_seconds;
      l.from_dpu_s += h.from_dpu_seconds;
      l.load_s += h.load_seconds;
      l.bytes_to_dpu += static_cast<double>(h.bytes_to_dpu);
      l.bytes_from_dpu += static_cast<double>(h.bytes_from_dpu);
      l.program_loads += static_cast<double>(h.program_loads);
      l.dpu_launches += static_cast<double>(b.launch.per_dpu.size());
      l.dpu_wall_cycles += static_cast<double>(b.launch.wall_cycles);
      l.host_tail_s += b.host_tail_seconds;
    }
  }

  const ebnn::EbnnConfig cfg_{};
  const ebnn::EbnnWeights weights_;
  const ebnn::EbnnReference reference_;
  std::vector<ebnn::Image> images_;
  std::vector<std::vector<ebnn::Image>> batches_[kSteps];
  std::vector<Golden> golden_;
  std::unique_ptr<ebnn::EbnnHost> host_;
  ebnn::EbnnPipelineResult last_;
  int last_kind_ = 0; ///< input set of last_
  std::vector<double> untraced_cycles_[kSteps], traced_cycles_[kSteps];
  std::uint64_t probe_wrong_ = 0;
};

} // namespace

std::unique_ptr<Workload> make_ebnn_scale(std::uint64_t seed) {
  return std::make_unique<EbnnWorkload>(seed);
}

} // namespace perfbench
