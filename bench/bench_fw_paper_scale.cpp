// Paper-scale runs on the full 2,560-DPU system (Table 2.1) — the scale
// the thesis evaluates but the threaded, per-op interpreter made
// impractical to simulate routinely. The fast execution mode
// (PIMDNN_SIM_MODE=fast / DpuPool::set_sim_mode) replaces per-op
// interpretation of the eBNN kernel with batched native evaluation, and
// runs the multi-phase YOLO GEMM phase by phase on the calling thread
// instead of one host thread per tasklet, under identical cycle
// accounting, so a full-system launch becomes a CI-sized job.
//
// Two sections, each run through both executors:
//  * eBNN: every DPU filled (16 images each, §4.1.3's mapping);
//  * YOLO GEMM: one WramTiled int16 GEMM (Algorithm 2) with one weight row
//    per DPU, on the 13x13x256 feature map of a 416x416 frame.
// Each reports host wall seconds per mode and the fast-over-interp
// speedup, a bit-identity check over every output, and a cycle-exactness
// check over the modeled launch cycles. The exit code gates on the
// equivalence contract (plus an optional --min-speedup bound on the eBNN
// speedup). `--dpus N` shrinks the run for local smoke tests;
// `--json <path>` emits the machine-readable report.
#include <cstring>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/sim_mode.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/host_timer.hpp"
#include "yolo/dpu_gemm.hpp"

int main(int argc, char** argv) {
  using namespace pimdnn;
  using namespace pimdnn::ebnn;

  std::uint32_t n_dpus = sim::default_config().total_dpus; // 2,560
  double min_speedup = 0.0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--dpus") == 0) {
      n_dpus = static_cast<std::uint32_t>(std::stoul(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--min-speedup") == 0) {
      min_speedup = std::stod(argv[i + 1]);
    }
  }

  bench::JsonReport report("fw_paper_scale", argc, argv);
  bench::banner("Paper-scale eBNN: fast executor vs interpreter at " +
                std::to_string(n_dpus) + " DPUs");

  const EbnnConfig cfg;                 // 28x28, 16 filters (§4.1.1)
  const std::uint32_t per_dpu = ebnn_layout(cfg).max_images; // 16
  const std::size_t n_images =
      static_cast<std::size_t>(n_dpus) * per_dpu;
  const EbnnWeights weights = EbnnWeights::random(cfg, 42);
  const std::vector<Image> images =
      images_only(make_synthetic_mnist(n_images, 7));

  struct ModeRun {
    EbnnBatchResult result;
    Seconds wall = 0.0;
  };
  const auto run_mode = [&](SimMode mode) {
    set_default_sim_mode(mode);
    EbnnHost host(cfg, weights, BnMode::HostLut, sim::default_config(),
                  ConvKernel::PackedRows);
    runtime::HostTimer ht;
    ht.start();
    ModeRun r;
    r.result = host.run(images, per_dpu);
    r.wall = ht.elapsed();
    return r;
  };

  const std::uint64_t fast_before =
      obs::Metrics::instance().counter("sim.fast_launches");
  const ModeRun interp = run_mode(SimMode::Interp);
  const ModeRun fast = run_mode(SimMode::Fast);
  set_default_sim_mode(SimMode::Interp);
  const std::uint64_t fast_launches =
      obs::Metrics::instance().counter("sim.fast_launches") - fast_before;

  bool bit_identical = interp.result.predicted == fast.result.predicted &&
                       interp.result.features.size() ==
                           fast.result.features.size();
  if (bit_identical) {
    for (std::size_t i = 0; i < interp.result.features.size(); ++i) {
      if (interp.result.features[i] != fast.result.features[i]) {
        bit_identical = false;
        break;
      }
    }
  }
  const bool cycle_exact =
      interp.result.launch.wall_cycles == fast.result.launch.wall_cycles &&
      interp.result.launch.total_cycles == fast.result.launch.total_cycles;
  const double speedup =
      fast.wall > 0.0 ? interp.wall / fast.wall : 0.0;

  Table t(std::to_string(n_images) + " images on " +
          std::to_string(interp.result.dpus_used) + " DPUs (" +
          std::to_string(per_dpu) + " per DPU, LUT BN, packed rows)");
  t.header({"mode", "host wall s", "modeled DPU ms", "fast launches"});
  t.row({"interp", Table::num(interp.wall, 3),
         Table::num(interp.result.launch.wall_seconds * 1e3, 3),
         Table::num(std::uint64_t(0))});
  t.row({"fast", Table::num(fast.wall, 3),
         Table::num(fast.result.launch.wall_seconds * 1e3, 3),
         Table::num(fast_launches)});
  t.print(std::cout);
  std::cout << "\nfast-over-interp wall speedup: " << Table::num(speedup, 2)
            << "x\nbit-identical results: "
            << (bit_identical ? "yes" : "NO")
            << "\ncycle-exact stats:     " << (cycle_exact ? "yes" : "NO")
            << "\n";

  report.metric("dpus", interp.result.dpus_used);
  report.metric("images", static_cast<double>(n_images));
  report.metric("interp_wall_s", interp.wall, "s");
  report.metric("fast_wall_s", fast.wall, "s");
  report.metric("fast_speedup", speedup, "x");
  report.metric("bit_identical", bit_identical ? 1.0 : 0.0);
  report.metric("cycle_exact", cycle_exact ? 1.0 : 0.0);
  report.metric("fast_launches", static_cast<double>(fast_launches));

  // ---- YOLO GEMM: the two-phase WramTiled kernel ---------------------------
  // A 1x1 conv over the 13x13x256 feature map of a 416x416 frame (the
  // YOLOv3-lite head's first conv) as an M x 169 x 256 GEMM, with M = one
  // weight row per DPU so every DPU runs, at the thesis' 11 tasklets.
  const int gemm_m = static_cast<int>(n_dpus);
  const int gemm_n = 13 * 13;
  const int gemm_k = 256;
  const std::int16_t gemm_alpha = 3;
  constexpr std::uint32_t kGemmTasklets = 11;
  Rng rng(416);
  std::vector<std::int16_t> a(static_cast<std::size_t>(gemm_m) * gemm_k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(gemm_k) * gemm_n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-64, 64));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-64, 64));
  std::vector<std::int16_t> gemm_expect(static_cast<std::size_t>(gemm_m) *
                                        gemm_n);
  nn::gemm_q16_reference(gemm_m, gemm_n, gemm_k, gemm_alpha, a, b,
                         gemm_expect);

  struct GemmRun {
    yolo::GemmResult result;
    Seconds wall = 0.0;
    std::uint64_t fast_launches = 0;
  };
  const auto run_gemm = [&](SimMode mode) {
    set_default_sim_mode(mode);
    runtime::DpuPool pool;
    const std::uint64_t before =
        obs::Metrics::instance().counter("sim.fast_launches");
    runtime::HostTimer ht;
    ht.start();
    GemmRun r;
    r.result = yolo::dpu_gemm_pooled(pool, gemm_m, gemm_n, gemm_k,
                                     gemm_alpha, a, b,
                                     yolo::GemmVariant::WramTiled,
                                     kGemmTasklets, runtime::OptLevel::O3, 1);
    r.wall = ht.elapsed();
    r.fast_launches =
        obs::Metrics::instance().counter("sim.fast_launches") - before;
    return r;
  };
  const GemmRun gemm_interp = run_gemm(SimMode::Interp);
  const GemmRun gemm_fast = run_gemm(SimMode::Fast);
  set_default_sim_mode(SimMode::Interp);

  const bool gemm_bit_identical = gemm_interp.result.c == gemm_expect &&
                                  gemm_fast.result.c == gemm_expect;
  const runtime::LaunchStats& gi = gemm_interp.result.stats;
  const runtime::LaunchStats& gf = gemm_fast.result.stats;
  bool gemm_cycle_exact = gi.wall_cycles == gf.wall_cycles &&
                          gi.total_cycles == gf.total_cycles &&
                          gi.per_dpu.size() == gf.per_dpu.size();
  for (std::size_t d = 0; gemm_cycle_exact && d < gi.per_dpu.size(); ++d) {
    gemm_cycle_exact = gi.per_dpu[d].cycles == gf.per_dpu[d].cycles &&
                       gi.per_dpu[d].total_slots == gf.per_dpu[d].total_slots &&
                       gi.per_dpu[d].total_dma_cycles ==
                           gf.per_dpu[d].total_dma_cycles;
  }
  const double gemm_speedup =
      gemm_fast.wall > 0.0 ? gemm_interp.wall / gemm_fast.wall : 0.0;

  Table g(std::to_string(gemm_m) + "x" + std::to_string(gemm_n) + "x" +
          std::to_string(gemm_k) + " WramTiled GEMM on " +
          std::to_string(gemm_interp.result.dpus_used) + " DPUs (" +
          std::to_string(kGemmTasklets) + " tasklets, one row per DPU)");
  g.header({"mode", "host wall s", "modeled DPU ms", "fast launches"});
  g.row({"interp", Table::num(gemm_interp.wall, 3),
         Table::num(gi.wall_seconds * 1e3, 3),
         Table::num(gemm_interp.fast_launches)});
  g.row({"fast", Table::num(gemm_fast.wall, 3),
         Table::num(gf.wall_seconds * 1e3, 3),
         Table::num(gemm_fast.fast_launches)});
  std::cout << "\n";
  g.print(std::cout);
  std::cout << "\nGEMM fast-over-interp wall speedup: "
            << Table::num(gemm_speedup, 2)
            << "x\nGEMM bit-identical results: "
            << (gemm_bit_identical ? "yes" : "NO")
            << "\nGEMM cycle-exact stats:     "
            << (gemm_cycle_exact ? "yes" : "NO") << "\n";

  report.metric("gemm_interp_wall_s", gemm_interp.wall, "s");
  report.metric("gemm_fast_wall_s", gemm_fast.wall, "s");
  report.metric("gemm_fast_speedup", gemm_speedup, "x");
  report.metric("gemm_bit_identical", gemm_bit_identical ? 1.0 : 0.0);
  report.metric("gemm_cycle_exact", gemm_cycle_exact ? 1.0 : 0.0);
  report.metric("gemm_fast_launches",
                static_cast<double>(gemm_fast.fast_launches));

  if (!bit_identical || !cycle_exact || !gemm_bit_identical ||
      !gemm_cycle_exact || gemm_interp.fast_launches != 0 ||
      gemm_fast.fast_launches != gemm_fast.result.dpus_used) {
    std::cerr << "FAIL: fast mode broke the equivalence contract\n";
    return 1;
  }
  if (speedup < min_speedup) {
    std::cerr << "FAIL: speedup " << speedup << "x below required "
              << min_speedup << "x\n";
    return 1;
  }
  return 0;
}
