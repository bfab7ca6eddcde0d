// Unit tests for the host runtime: DpuSet allocation, broadcast and
// scatter/gather transfers, the 8-byte alignment rule, parallel launch.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "runtime/dpu_set.hpp"

namespace pimdnn::runtime {
namespace {

using sim::MemKind;
using sim::TaskletCtx;

DpuProgram echo_program() {
  DpuProgram p;
  p.name = "echo";
  p.symbols = {{"in", MemKind::Mram, 1024},
               {"out", MemKind::Mram, 1024},
               {"wmeta", MemKind::Wram, 8}};
  p.phases = {[](TaskletCtx& ctx) {
    if (ctx.id() != 0) return;
    std::uint8_t buf[1024];
    ctx.mram_read(buf, ctx.mram_addr("in"), 1024);
    for (int i = 0; i < 1024; ++i) {
      buf[i] = static_cast<std::uint8_t>(buf[i] + 1);
    }
    ctx.charge_alu(1024);
    ctx.mram_write(ctx.mram_addr("out"), buf, 1024);
  }};
  return p;
}

TEST(DpuSet, AllocateValidatesSystemCapacity) {
  EXPECT_THROW(DpuSet::allocate(0), UsageError);
  EXPECT_THROW(DpuSet::allocate(2561), CapacityError);
  EXPECT_NO_THROW(DpuSet::allocate(4));
}

TEST(DpuSet, BroadcastCopyReachesEveryDpu) {
  auto set = DpuSet::allocate(3);
  set.load(echo_program());
  std::vector<std::uint8_t> data(64, 7);
  set.copy_to("in", 0, data.data(), data.size());
  for (DpuId d = 0; d < 3; ++d) {
    std::vector<std::uint8_t> back(64, 0);
    set.copy_from(d, "in", 0, back.data(), back.size());
    EXPECT_EQ(back, data);
  }
  EXPECT_EQ(set.bytes_to_dpus(), 3u * 64u);
}

TEST(DpuSet, AlignmentRuleEnforced) {
  auto set = DpuSet::allocate(1);
  set.load(echo_program());
  std::vector<std::uint8_t> data(7, 1);
  // Length not divisible by 8 -> AlignmentError (thesis §3.2).
  EXPECT_THROW(set.copy_to("in", 0, data.data(), 7), AlignmentError);
  // Offset not 8-byte aligned -> AlignmentError.
  EXPECT_THROW(set.copy_to("in", 4, data.data(), 8), AlignmentError);
  // Padding fixes it.
  const auto padded = pad_to_xfer(data.data(), data.size());
  EXPECT_NO_THROW(set.copy_to("in", 0, padded.data(), padded.size()));
}

TEST(DpuSet, ScatterGatherMovesDistinctData) {
  auto set = DpuSet::allocate(4);
  set.load(echo_program());
  std::vector<std::vector<std::uint8_t>> bufs(4);
  for (int d = 0; d < 4; ++d) {
    bufs[d].assign(32, static_cast<std::uint8_t>(d * 10));
    set.prepare_xfer(d, bufs[d].data());
  }
  set.push_xfer(XferDir::ToDpu, "in", 0, 32);
  for (DpuId d = 0; d < 4; ++d) {
    std::uint8_t v = 0;
    set.copy_from(d, "in", 0, &v, 0); // zero-length read is legal
    std::vector<std::uint8_t> back(32);
    set.copy_from(d, "in", 0, back.data(), 32);
    EXPECT_EQ(back, bufs[d]);
  }
}

TEST(DpuSet, PushWithoutPrepareThrows) {
  auto set = DpuSet::allocate(2);
  set.load(echo_program());
  std::vector<std::uint8_t> b(8);
  set.prepare_xfer(0, b.data()); // only DPU 0 prepared
  EXPECT_THROW(set.push_xfer(XferDir::ToDpu, "in", 0, 8), UsageError);
}

TEST(DpuSet, PreparedBuffersAreConsumedByPush) {
  auto set = DpuSet::allocate(1);
  set.load(echo_program());
  std::vector<std::uint8_t> b(8, 9);
  set.prepare_xfer(0, b.data());
  set.push_xfer(XferDir::ToDpu, "in", 0, 8);
  // A second push requires a fresh prepare.
  EXPECT_THROW(set.push_xfer(XferDir::ToDpu, "in", 0, 8), UsageError);
}

TEST(DpuSet, LaunchRunsAllDpusAndTakesMax) {
  auto set = DpuSet::allocate(5);
  DpuProgram p;
  p.name = "varying";
  p.symbols = {{"amount", MemKind::Wram, 8}};
  p.phases = {[](TaskletCtx& ctx) {
    auto amount = ctx.wram_span<std::uint64_t>("amount");
    ctx.charge_alu(amount[0]);
  }};
  set.load(p);
  for (DpuId d = 0; d < 5; ++d) {
    const std::uint64_t work = (d + 1) * 100;
    set.dpu(d).host_write("amount", 0, &work, sizeof(work));
  }
  const auto stats = set.launch(1, OptLevel::O3);
  ASSERT_EQ(stats.per_dpu.size(), 5u);
  EXPECT_EQ(stats.per_dpu[0].cycles, 100u * 11u);
  EXPECT_EQ(stats.per_dpu[4].cycles, 500u * 11u);
  EXPECT_EQ(stats.wall_cycles, 500u * 11u); // slowest DPU
  EXPECT_EQ(stats.total_cycles, (100u + 200u + 300u + 400u + 500u) * 11u);
  EXPECT_NEAR(stats.wall_seconds, 5500.0 / 350e6, 1e-15);
}

TEST(DpuSet, EndToEndEchoThroughMram) {
  auto set = DpuSet::allocate(2);
  set.load(echo_program());
  std::vector<std::uint8_t> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  set.copy_to("in", 0, data.data(), data.size());
  set.launch(2, OptLevel::O3);
  for (DpuId d = 0; d < 2; ++d) {
    std::vector<std::uint8_t> out(1024);
    set.copy_from(d, "out", 0, out.data(), out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<std::uint8_t>(data[i] + 1));
    }
  }
}

TEST(DpuSet, ProfilesMergeAcrossDpus) {
  auto set = DpuSet::allocate(3);
  DpuProgram p;
  p.name = "float";
  p.symbols = {{"w", MemKind::Wram, 8}};
  p.phases = {[](TaskletCtx& ctx) { (void)ctx.fadd(1.0f, 2.0f); }};
  set.load(p);
  const auto stats = set.launch(2, OptLevel::O3);
  // 3 DPUs x 2 tasklets x 1 fadd each.
  EXPECT_EQ(stats.profile.occurrences(sim::Subroutine::AddSF3), 6u);
}

} // namespace
} // namespace pimdnn::runtime
