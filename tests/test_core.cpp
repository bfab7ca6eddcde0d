// Tests for the core offload framework and the performance advisor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/advisor.hpp"
#include "core/offloader.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "obs/trace.hpp"

namespace pimdnn::core {
namespace {

using runtime::OptLevel;

/// A simple per-item kernel: output[i] = input[i] * 2 + consts[0].
WorkloadSpec scale_spec(std::uint32_t items_per_dpu = 4) {
  WorkloadSpec spec;
  spec.name = "scale";
  spec.item_in_bytes = 32;
  spec.item_out_bytes = 32;
  spec.items_per_dpu = items_per_dpu;
  spec.consts = {5};
  return spec;
}

ItemKernel scale_kernel() {
  return [](ItemCtx& ic) {
    for (MemSize i = 0; i < 32; ++i) {
      const std::int32_t v = ic.input[i];
      ic.output[i] = static_cast<std::uint8_t>(
          ic.ctx.add(ic.ctx.mul(v, 2, 8), ic.consts[0]));
    }
    ic.ctx.charge_loop(32);
  };
}

std::vector<std::vector<std::uint8_t>> make_items(std::size_t n) {
  std::vector<std::vector<std::uint8_t>> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i].resize(32);
    for (std::size_t j = 0; j < 32; ++j) {
      items[i][j] = static_cast<std::uint8_t>(i * 3 + j);
    }
  }
  return items;
}

TEST(Offloader, ComputesCorrectResultsAcrossDpus) {
  Offloader off(scale_spec(), scale_kernel());
  const auto items = make_items(10); // 3 DPUs at 4 items/DPU
  const auto r = off.run(items, 4);
  EXPECT_EQ(r.dpus_used, 3u);
  ASSERT_EQ(r.outputs.size(), 10u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      EXPECT_EQ(r.outputs[i][j],
                static_cast<std::uint8_t>(items[i][j] * 2 + 5))
          << i << "," << j;
    }
  }
  EXPECT_GT(r.launch.wall_cycles, 0u);
}

TEST(Offloader, ResultsIndependentOfTaskletCount) {
  Offloader off(scale_spec(8), scale_kernel());
  const auto items = make_items(16);
  const auto base = off.run(items, 1);
  for (std::uint32_t t : {2u, 3u, 8u}) {
    const auto r = off.run(items, t);
    EXPECT_EQ(r.outputs, base.outputs) << t;
    EXPECT_LE(r.launch.wall_cycles, base.launch.wall_cycles) << t;
  }
}

TEST(Offloader, StridesAreAligned) {
  WorkloadSpec spec = scale_spec();
  spec.item_in_bytes = 13;
  spec.item_out_bytes = 7;
  Offloader off(spec, [](ItemCtx& ic) {
    std::memcpy(ic.output, ic.input, 7);
    ic.ctx.charge_alu(7);
  });
  EXPECT_EQ(off.in_stride(), 16u);
  EXPECT_EQ(off.out_stride(), 8u);
  const auto r = off.run({std::vector<std::uint8_t>(13, 9)}, 1);
  EXPECT_EQ(r.outputs[0], std::vector<std::uint8_t>(7, 9));
}

TEST(Offloader, ScratchIsPerTasklet) {
  WorkloadSpec spec = scale_spec(4);
  spec.scratch_bytes_per_tasklet = 64;
  Offloader off(spec, [](ItemCtx& ic) {
    // Each tasklet stamps its scratch with its item index and verifies it
    // survives to output: overlap between tasklets would corrupt it.
    std::memset(ic.scratch, static_cast<int>(ic.item_index + 1), 64);
    ic.ctx.charge_alu(64);
    for (MemSize i = 0; i < 32; ++i) {
      ic.output[i] = ic.scratch[i];
    }
    ic.ctx.charge_alu(32);
  });
  const auto items = make_items(4);
  const auto r = off.run(items, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.outputs[i][0], static_cast<std::uint8_t>(i + 1));
  }
}

TEST(Offloader, ValidatesSpecAndUsage) {
  WorkloadSpec bad = scale_spec();
  bad.item_in_bytes = 0;
  EXPECT_THROW(Offloader(bad, scale_kernel()), ConfigError);

  WorkloadSpec bad2 = scale_spec();
  bad2.items_per_dpu = 25;
  EXPECT_THROW(Offloader(bad2, scale_kernel()), ConfigError);

  WorkloadSpec huge = scale_spec();
  huge.item_in_bytes = 8 * 1024; // 16 slots x (8K in + 8K out) > 64 KB WRAM
  huge.item_out_bytes = 8 * 1024;
  huge.items_per_dpu = 16;
  EXPECT_THROW(Offloader(huge, scale_kernel()), CapacityError);

  Offloader ok(scale_spec(), scale_kernel());
  EXPECT_THROW(ok.run({}, 1), UsageError);
  EXPECT_THROW(ok.run(make_items(1), 5), UsageError); // > items_per_dpu
  EXPECT_THROW(ok.run({std::vector<std::uint8_t>(3)}, 1), UsageError);
}

// Every batch host's run opens one `<name>.batch` span around its work,
// the Offloader's included.
TEST(Offloader, RunOpensItsBatchSpan) {
  Offloader off(scale_spec(), scale_kernel());
  obs::Tracer::instance().enable(testing::TempDir() + "offload_batch.json");
  off.run(make_items(10), 4);
  obs::Tracer::instance().disable();
  const auto evs = obs::Tracer::instance().snapshot();
  const obs::TraceEvent* batch = nullptr;
  const obs::TraceEvent* launch = nullptr;
  for (const auto& e : evs) {
    if (e.name == "offload.batch") batch = &e;
    if (e.name == "launch") launch = &e;
  }
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(launch, nullptr);
  EXPECT_EQ(batch->cat, "pipeline");
  const auto n = std::find_if(batch->args.begin(), batch->args.end(),
                              [](const auto& kv) {
                                return kv.first == "n_items";
                              });
  ASSERT_NE(n, batch->args.end());
  EXPECT_EQ(n->second, "10");
  EXPECT_LE(batch->ts_us, launch->ts_us);
  EXPECT_GE(batch->ts_us + batch->dur_us, launch->ts_us + launch->dur_us);
}

TEST(Offloader, LargeItemsMoveInChunkedDmas) {
  WorkloadSpec spec;
  spec.name = "big";
  spec.item_in_bytes = 5000; // > 2048-byte single-DMA limit
  spec.item_out_bytes = 8;
  spec.items_per_dpu = 2;
  Offloader off(spec, [](ItemCtx& ic) {
    std::uint32_t sum = 0;
    for (MemSize i = 0; i < 5000; ++i) {
      sum += ic.input[i];
    }
    ic.ctx.charge_alu(5000);
    std::memcpy(ic.output, &sum, 4);
  });
  std::vector<std::uint8_t> item(5000, 1);
  const auto r = off.run({item}, 1);
  std::uint32_t sum = 0;
  std::memcpy(&sum, r.outputs[0].data(), 4);
  EXPECT_EQ(sum, 5000u);
  // The 5000-byte input needs 3 chunked DMAs.
  EXPECT_GE(r.launch.per_dpu[0].tasklets[0].dma_transfers, 4u);
}

TEST(Advisor, FlagsFloatSubroutines) {
  ebnn::EbnnConfig cfg;
  cfg.filters = 8;
  const auto w = ebnn::EbnnWeights::random(cfg, 3);
  ebnn::EbnnHost host(cfg, w, ebnn::BnMode::SoftFloat);
  const auto r =
      host.run(ebnn::images_only(ebnn::make_synthetic_mnist(4, 4)), 4);
  const auto findings = advise(r.launch, 4, OptLevel::O3);
  bool flagged_float = false;
  bool flagged_threads = false;
  for (const auto& f : findings) {
    if (f.id == "float-subroutines") flagged_float = true;
    if (f.id == "under-threaded") flagged_threads = true;
  }
  EXPECT_TRUE(flagged_float);
  EXPECT_TRUE(flagged_threads); // 4 tasklets < 11 stages
}

TEST(Advisor, CleanRunReportsOk) {
  // A quantized, WRAM-resident, fully threaded, -O3 kernel produces the
  // all-clear finding.
  Offloader off(scale_spec(16), scale_kernel());
  const auto r = off.run(make_items(16), 16);
  const auto findings = advise(r.launch, 16, OptLevel::O3);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].id, "ok");
}

TEST(Advisor, LutEbnnStillFlagsResidualMulsi3) {
  // Even the LUT architecture keeps the index __mulsi3 the thesis could
  // not remove (Figure 4.3b); on a large batch the advisor points at it.
  ebnn::EbnnConfig cfg;
  cfg.filters = 8;
  const auto w = ebnn::EbnnWeights::random(cfg, 3);
  ebnn::EbnnHost host(cfg, w, ebnn::BnMode::HostLut);
  const auto r =
      host.run(ebnn::images_only(ebnn::make_synthetic_mnist(16, 4)), 16);
  const auto findings = advise(r.launch, 16, OptLevel::O3);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].id, "mulsi3-heavy");
  // The float warning must be gone (the LUT removed the float block).
  EXPECT_EQ(r.launch.profile.float_total(), 0u);
}

TEST(Advisor, FlagsO0AndMramBound) {
  // A DMA-heavy kernel at -O0 triggers both remaining diagnostics.
  auto set = runtime::DpuSet::allocate(1);
  sim::DpuProgram p;
  p.name = "dma_heavy";
  p.symbols = {{"m", sim::MemKind::Mram, 1 << 20},
               {"w", sim::MemKind::Wram, 2048}};
  p.phases = {[](sim::TaskletCtx& ctx) {
    auto buf = ctx.wram_span<std::uint8_t>("w");
    for (int i = 0; i < 256; ++i) {
      ctx.mram_read(buf.data(), ctx.mram_addr("m") + i * 2048, 2048);
      ctx.charge_alu(4);
    }
  }};
  set.load(p);
  runtime::LaunchStats stats;
  stats.per_dpu.push_back(set.dpu(0).launch(11, OptLevel::O0));
  stats.profile.merge(stats.per_dpu[0].profile);
  const auto findings = advise(stats, 11, OptLevel::O0);
  bool mram = false;
  bool o0 = false;
  for (const auto& f : findings) {
    if (f.id == "mram-bound") mram = true;
    if (f.id == "no-optimization") o0 = true;
  }
  EXPECT_TRUE(mram);
  EXPECT_TRUE(o0);
}

TEST(Advisor, RenderIncludesSeverityTags) {
  const std::vector<Finding> fs = {
      {Severity::Warning, "x", "message one"},
      {Severity::Info, "y", "message two"},
  };
  const auto s = render(fs);
  EXPECT_NE(s.find("[warning] x"), std::string::npos);
  EXPECT_NE(s.find("[info]"), std::string::npos);
  EXPECT_NE(s.find("message two"), std::string::npos);
}

} // namespace
} // namespace pimdnn::core
