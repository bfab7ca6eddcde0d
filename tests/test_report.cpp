// Tests for the launch-report module: bound classification, imbalance
// metric and report rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/dpu.hpp"
#include "sim/report.hpp"

namespace pimdnn::sim {
namespace {

DpuProgram program_with(std::function<void(TaskletCtx&)> fn) {
  DpuProgram p;
  p.name = "report_test";
  p.symbols = {{"m", MemKind::Mram, 1 << 20}, {"w", MemKind::Wram, 4096}};
  p.phases = {std::move(fn)};
  return p;
}

TEST(Report, ClassifiesLatencyBound) {
  // One tasklet: per-tasklet latency (11x slots) dominates.
  Dpu d;
  d.load(program_with([](TaskletCtx& ctx) { ctx.charge_alu(1000); }));
  const auto stats = d.launch(1, OptLevel::O3);
  EXPECT_EQ(dominant_bound(stats), CycleBound::Latency);
}

TEST(Report, ClassifiesIssueBound) {
  // 16 balanced tasklets: the pipeline issues back-to-back.
  Dpu d;
  d.load(program_with([](TaskletCtx& ctx) { ctx.charge_alu(1000); }));
  const auto stats = d.launch(16, OptLevel::O3);
  EXPECT_EQ(dominant_bound(stats), CycleBound::Issue);
  EXPECT_EQ(stats.cycles, stats.total_slots);
}

TEST(Report, ClassifiesDmaBound) {
  Dpu d;
  d.load(program_with([](TaskletCtx& ctx) {
    auto buf = ctx.wram_span<std::uint8_t>("w");
    for (int i = 0; i < 64; ++i) {
      ctx.mram_read(buf.data(), ctx.mram_addr("m"), 2048);
    }
    ctx.charge_alu(10);
  }));
  const auto stats = d.launch(4, OptLevel::O3);
  EXPECT_EQ(dominant_bound(stats), CycleBound::Dma);
}

TEST(Report, ImbalanceMetric) {
  Dpu d;
  d.load(program_with([](TaskletCtx& ctx) {
    ctx.charge_alu(ctx.id() == 0 ? 3000 : 1000);
  }));
  const auto stats = d.launch(2, OptLevel::O3);
  // Slowest = 3000, mean = 2000 -> 1.5.
  EXPECT_NEAR(tasklet_imbalance(stats), 1.5, 1e-9);

  Dpu b;
  b.load(program_with([](TaskletCtx& ctx) { ctx.charge_alu(500); }));
  EXPECT_NEAR(tasklet_imbalance(b.launch(8, OptLevel::O3)), 1.0, 1e-9);
}

TEST(Report, PrintContainsKeySections) {
  Dpu d;
  d.load(program_with([](TaskletCtx& ctx) {
    (void)ctx.fadd(1.0f, 2.0f);
    ctx.charge_alu(50);
  }));
  const auto stats = d.launch(2, OptLevel::O0);
  std::ostringstream os;
  print_report(os, stats);
  const std::string s = os.str();
  EXPECT_NE(s.find("cycles:"), std::string::npos);
  EXPECT_NE(s.find("bound:"), std::string::npos);
  EXPECT_NE(s.find("[ 0]"), std::string::npos);
  EXPECT_NE(s.find("__addsf3"), std::string::npos);
}

TEST(Report, BoundNamesPrintable) {
  EXPECT_STREQ(cycle_bound_name(CycleBound::Issue),
               "issue-bound (pipeline full)");
  EXPECT_STREQ(cycle_bound_name(CycleBound::Dma),
               "DMA-bound (MRAM interface)");
  EXPECT_STREQ(cycle_bound_name(CycleBound::Latency),
               "latency-bound (under-threaded)");
}

TEST(Report, HostXferAccumulateAndDelta) {
  HostXferStats before;
  before.to_dpu_seconds = 0.5;
  before.from_dpu_seconds = 0.25;
  before.load_seconds = 0.125;
  before.bytes_to_dpu = 1000;
  before.bytes_from_dpu = 200;
  before.program_loads = 2;
  before.cached_activations = 3;

  HostXferStats step;
  step.to_dpu_seconds = 0.1;
  step.from_dpu_seconds = 0.2;
  step.load_seconds = 0.3;
  step.bytes_to_dpu = 64;
  step.bytes_from_dpu = 32;
  step.program_loads = 1;
  step.cached_activations = 4;

  HostXferStats after = before;
  after += step;
  EXPECT_DOUBLE_EQ(after.to_dpu_seconds, 0.6);
  EXPECT_DOUBLE_EQ(after.from_dpu_seconds, 0.45);
  EXPECT_DOUBLE_EQ(after.load_seconds, 0.425);
  EXPECT_EQ(after.bytes_to_dpu, 1064u);
  EXPECT_EQ(after.bytes_from_dpu, 232u);
  EXPECT_EQ(after.program_loads, 3u);
  EXPECT_EQ(after.cached_activations, 7u);
  EXPECT_DOUBLE_EQ(after.host_seconds(), 0.6 + 0.45 + 0.425);

  // Delta of a cumulative counter around one step recovers the step.
  const HostXferStats d = host_xfer_delta(after, before);
  EXPECT_DOUBLE_EQ(d.to_dpu_seconds, step.to_dpu_seconds);
  EXPECT_DOUBLE_EQ(d.from_dpu_seconds, step.from_dpu_seconds);
  EXPECT_DOUBLE_EQ(d.load_seconds, step.load_seconds);
  EXPECT_EQ(d.bytes_to_dpu, step.bytes_to_dpu);
  EXPECT_EQ(d.bytes_from_dpu, step.bytes_from_dpu);
  EXPECT_EQ(d.program_loads, step.program_loads);
  EXPECT_EQ(d.cached_activations, step.cached_activations);

  // Delta of a counter against itself is all-zero.
  const HostXferStats zero = host_xfer_delta(after, after);
  EXPECT_DOUBLE_EQ(zero.host_seconds(), 0.0);
  EXPECT_EQ(zero.bytes_to_dpu, 0u);
  EXPECT_EQ(zero.program_loads, 0u);
}

TEST(Report, HostXferReportContainsKeyFields) {
  HostXferStats h;
  h.to_dpu_seconds = 0.001;
  h.from_dpu_seconds = 0.002;
  h.load_seconds = 0.003;
  h.bytes_to_dpu = 123456;
  h.bytes_from_dpu = 7890;
  h.program_loads = 5;
  h.cached_activations = 9;
  std::ostringstream os;
  print_host_xfer_report(os, h);
  const std::string s = os.str();
  EXPECT_NE(s.find("123456"), std::string::npos);
  EXPECT_NE(s.find("7890"), std::string::npos);
  EXPECT_NE(s.find("5"), std::string::npos);
  EXPECT_NE(s.find("9"), std::string::npos);
  EXPECT_FALSE(s.empty());
}

} // namespace
} // namespace pimdnn::sim
