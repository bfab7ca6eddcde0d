// Cross-module integration tests: end-to-end determinism, simulator fault
// propagation through the host runtime, capacity exhaustion, and agreement
// between independently implemented layers of the stack.
#include <gtest/gtest.h>

#include "baseline/cpu_baseline.hpp"
#include "common/error.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "nn/layers.hpp"
#include "pimmodel/model.hpp"
#include "yolo/detect.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using runtime::DpuSet;
using runtime::OptLevel;
using sim::MemKind;
using sim::TaskletCtx;

TEST(Integration, EndToEndRunsAreBitDeterministic) {
  // Same seeds -> identical predictions, cycles and profiles across runs.
  ebnn::EbnnConfig cfg;
  cfg.filters = 8;
  const auto w = ebnn::EbnnWeights::random(cfg, 42);
  const auto images =
      ebnn::images_only(ebnn::make_synthetic_mnist(20, 7));
  ebnn::EbnnHost host(cfg, w, ebnn::BnMode::HostLut);
  const auto a = host.run(images, 11);
  const auto b = host.run(images, 11);
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.launch.wall_cycles, b.launch.wall_cycles);
  EXPECT_EQ(a.launch.total_cycles, b.launch.total_cycles);
  EXPECT_EQ(a.launch.profile.total(), b.launch.profile.total());
}

TEST(Integration, YoloRunsAreBitDeterministic) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 9);
  yolo::YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = yolo::make_synthetic_image(3, 32, 32, 5, 2);
  const auto a = runner.run(img, yolo::ExecMode::DpuWram, 8);
  const auto b = runner.run(img, yolo::ExecMode::DpuWram, 8);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

TEST(Integration, KernelOutOfBoundsMramFaultsSurfaceToHost) {
  auto set = DpuSet::allocate(2);
  sim::DpuProgram p;
  p.name = "oob";
  p.symbols = {{"buf", MemKind::Mram, 64}, {"w", MemKind::Wram, 64}};
  p.phases = {[](TaskletCtx& ctx) {
    std::uint8_t tmp[128];
    // Reads past the end of the 64 MB MRAM: a hard fault on hardware.
    ctx.mram_read(tmp, 64ull * 1024 * 1024 - 16, 128);
  }};
  set.load(p);
  EXPECT_THROW(set.launch(1), OutOfBoundsError);
}

TEST(Integration, KernelWramOverrunFaults) {
  auto set = DpuSet::allocate(1);
  sim::DpuProgram p;
  p.name = "wram_oob";
  p.symbols = {{"w", MemKind::Wram, 16}};
  p.phases = {[](TaskletCtx& ctx) {
    auto s = ctx.wram_span<std::uint8_t>("w");
    ctx.mram_read(s.data(), 0, 16); // fine
    (void)ctx.wram_span<std::uint64_t>("missing");
  }};
  set.load(p);
  EXPECT_THROW(set.launch(1), SymbolError);
}

TEST(Integration, IramOverflowRejectedAtLoad) {
  auto set = DpuSet::allocate(1);
  sim::DpuProgram p;
  p.name = "huge_code";
  p.iram_bytes = 25 * 1024; // > 24 KB IRAM
  p.symbols = {{"w", MemKind::Wram, 8}};
  p.phases = {[](TaskletCtx&) {}};
  EXPECT_THROW(set.load(p), CapacityError);
}

TEST(Integration, SystemDpuBudgetEnforcedAcrossWorkloads) {
  // A GEMM wider than the machine's 2,560 DPUs cannot be mapped
  // row-per-DPU.
  std::vector<std::int16_t> a(3000 * 2, 1);
  std::vector<std::int16_t> b(2 * 4, 1);
  EXPECT_THROW(yolo::dpu_gemm(3000, 4, 2, 1, a, b,
                              yolo::GemmVariant::WramTiled, 1),
               CapacityError);
  // The §6.1 packed mapping makes it fit.
  EXPECT_NO_THROW(yolo::dpu_gemm(3000, 4, 2, 1, a, b,
                                 yolo::GemmVariant::WramTiled, 1,
                                 OptLevel::O3, sim::default_config(), 2));
}

TEST(Integration, EbnnAndYoloAgreeOnSharedPrimitives) {
  // The YOLO conv (im2col + Algorithm 2 GEMM) applied to a binarized eBNN
  // image must match a direct conv2d_q16 of the same tensors.
  const auto data = ebnn::make_synthetic_mnist(1, 5);
  std::vector<std::int16_t> input(28 * 28);
  for (int i = 0; i < 28 * 28; ++i) {
    input[static_cast<std::size_t>(i)] = data[0].pixels[i] >= 128 ? 1 : -1;
  }
  const nn::ConvGeom g{1, 28, 28, 4, 3, 1, 0};
  Rng rng(31);
  std::vector<std::int16_t> weights(static_cast<std::size_t>(4) * 9);
  for (auto& v : weights) {
    v = static_cast<std::int16_t>(rng.sign());
  }
  std::vector<std::int16_t> direct(static_cast<std::size_t>(4) *
                                   g.gemm_n());
  nn::conv2d_q16(g, input, weights, 32, direct); // alpha 32 -> /32 = x1

  std::vector<std::int16_t> cols(static_cast<std::size_t>(g.gemm_k()) *
                                 g.gemm_n());
  nn::im2col<std::int16_t>(g, input, cols);
  const auto r = yolo::dpu_gemm(4, g.gemm_n(), g.gemm_k(), 32, weights, cols,
                                yolo::GemmVariant::WramTiled, 4);
  EXPECT_EQ(r.c, direct);
}

TEST(Integration, ModelPredictsSimulatorOrderOfMagnitude) {
  // Chapter 5's UPMEM model and the Chapter 3/4 simulator are independent
  // implementations; on a MAC-dominated workload they should agree within
  // a small factor. One GEMM row: n*k 16-bit MACs (model: 16-bit mult+add,
  // Eq. 5.3 with 1 PE); kernel adds loop/DMA overheads.
  // 11 strips so all 11 tasklets are busy (the model assumes a full
  // pipeline).
  const int n = 11 * 256, k = 64;
  const auto sim_cycles = yolo::estimate_gemm_row_cycles(
      n, k, yolo::GemmVariant::WramTiled, 11, OptLevel::O3);
  pimmodel::UpmemModel model;
  const auto model_cycles =
      model.cop_mult(32) * static_cast<std::uint64_t>(n) * k / 11;
  const double ratio = static_cast<double>(sim_cycles) /
                       static_cast<double>(model_cycles);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 3.0);
}

TEST(Integration, CpuAndDpuPathsAgreeAtScale) {
  ebnn::EbnnConfig cfg;
  cfg.filters = 8;
  const auto w = ebnn::EbnnWeights::random(cfg, 17);
  const auto data = ebnn::make_synthetic_mnist(48, 18); // 3 DPUs
  const auto images = ebnn::images_only(data);
  const auto cpu = baseline::time_cpu_ebnn(cfg, w, images, 1);
  for (ebnn::BnMode mode :
       {ebnn::BnMode::SoftFloat, ebnn::BnMode::HostLut}) {
    for (ebnn::ConvKernel kernel :
         {ebnn::ConvKernel::Scalar, ebnn::ConvKernel::PackedRows}) {
      ebnn::EbnnHost host(cfg, w, mode, sim::default_config(), kernel);
      const auto dpu = host.run(images, 16);
      EXPECT_EQ(dpu.predicted, cpu.predicted)
          << "mode=" << static_cast<int>(mode)
          << " kernel=" << static_cast<int>(kernel);
    }
  }
}

TEST(Integration, ProfileAccumulatesAcrossSequentialLaunches) {
  // Per-launch profiles are independent; accumulating them (as the YOLO
  // runner does across layers) must equal the sum of parts.
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 23);
  yolo::YoloRunner runner(defs, w, 3, 32, 32);
  const auto img = yolo::make_synthetic_image(3, 32, 32, 5, 4);
  const auto r = runner.run(img, yolo::ExecMode::DpuWram, 4);
  Cycles layer_sum = 0;
  for (const auto& ls : r.layers) layer_sum += ls.cycles;
  EXPECT_EQ(layer_sum, r.total_cycles);
  EXPECT_GT(r.profile.occurrences(sim::Subroutine::MulSI3), 0u);
}

} // namespace
} // namespace pimdnn
