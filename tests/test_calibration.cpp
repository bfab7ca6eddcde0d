// Calibration regression tests: pin the exact cycle counts that anchor the
// reproduction to the thesis' published measurements. If any cost-model or
// kernel change shifts these, the EXPERIMENTS.md comparisons silently go
// stale — so they are asserted here as golden values (all derived once
// from the Table 3.1 / Eq. 3.4 calibration and the kernels as shipped).
#include <gtest/gtest.h>

#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "sim/dpu.hpp"
#include "yolo/dpu_gemm.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using runtime::OptLevel;
using sim::CostModel;
using sim::Subroutine;

TEST(Calibration, SubroutineSlotCostsArePinned) {
  // Calibrated against Table 3.1 (see cost_model.hpp).
  EXPECT_EQ(CostModel::subroutine_slots(Subroutine::MulSI3), 48u);
  EXPECT_EQ(CostModel::subroutine_slots(Subroutine::AddSF3), 56u);
  EXPECT_EQ(CostModel::subroutine_slots(Subroutine::SubSF3), 59u);
  EXPECT_EQ(CostModel::subroutine_slots(Subroutine::MulSF3), 205u);
  EXPECT_EQ(CostModel::subroutine_slots(Subroutine::DivSF3), 1072u);
}

TEST(Calibration, ProfiledOpCyclesMatchTable31Within3Percent) {
  // Reconstructs the bench_table3_1 measurement inline and asserts the
  // deviation bound claimed in EXPERIMENTS.md.
  struct Case {
    double paper;
    std::function<void(sim::TaskletCtx&)> op;
  };
  const float fa = 3.0e38f;
  const float fb = 1.5e-5f;
  const std::vector<Case> cases = {
      {272, [](sim::TaskletCtx& c) { c.add(1, 2); }},
      {272, [](sim::TaskletCtx& c) { c.mul(127, 127, 8); }},
      {608, [](sim::TaskletCtx& c) { c.mul(32767, 32767, 16); }},
      {800, [](sim::TaskletCtx& c) { c.mul(INT32_MAX, 3, 32); }},
      {368, [](sim::TaskletCtx& c) { c.divi(100, 3); }},
      {896, [=](sim::TaskletCtx& c) { c.fadd(fa, fb); }},
      {928, [=](sim::TaskletCtx& c) { c.fsub(fa, fb); }},
      {2528, [=](sim::TaskletCtx& c) { c.fmul(fa, fb); }},
      {12064, [=](sim::TaskletCtx& c) { c.fdiv(fa, fb); }},
  };
  for (const auto& cs : cases) {
    sim::Dpu dpu;
    Cycles measured = 0;
    sim::DpuProgram p;
    p.name = "calib";
    p.symbols = {{"w", sim::MemKind::Wram, 64}};
    p.phases = {[&](sim::TaskletCtx& ctx) {
      ctx.perfcounter_config();
      ctx.charge_alu(5);
      cs.op(ctx);
      measured = ctx.perfcounter_get();
    }};
    dpu.load(p);
    dpu.launch(1, OptLevel::O0);
    EXPECT_NEAR(static_cast<double>(measured), cs.paper, cs.paper * 0.03)
        << "paper=" << cs.paper;
  }
}

TEST(Calibration, EbnnHeadlineCyclesArePinned) {
  // The Figure 4.4 / §4.3.1 numbers quoted in EXPERIMENTS.md.
  const ebnn::EbnnConfig cfg;
  const auto w = ebnn::EbnnWeights::random(cfg, 42);
  const auto images =
      ebnn::images_only(ebnn::make_synthetic_mnist(16, 9));
  ebnn::EbnnHost flt(cfg, w, ebnn::BnMode::SoftFloat);
  ebnn::EbnnHost lut(cfg, w, ebnn::BnMode::HostLut);
  EXPECT_EQ(flt.run(images, 16).launch.wall_cycles, 78437392u);
  EXPECT_EQ(lut.run(images, 16).launch.wall_cycles, 14102544u);
}

TEST(Calibration, YoloFullSizeEstimateIsPinned) {
  // The 44.93 s full-size YOLOv3 figure (paper: 65 s) in EXPERIMENTS.md.
  Seconds total = 0;
  for (const auto& ls : yolo::YoloRunner::estimate(
           yolo::yolov3_config(), 3, 416, 416,
           yolo::GemmVariant::WramTiled, 11, OptLevel::O3)) {
    total += ls.seconds;
  }
  EXPECT_NEAR(total, 44.93, 0.05);
}

TEST(Calibration, DmaFormulaIsPinned) {
  EXPECT_EQ(CostModel::dma_cycles(2048), 1049u); // thesis Eq. 3.4 example
}

} // namespace
} // namespace pimdnn
