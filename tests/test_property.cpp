// Randomized property sweeps across the whole stack. Each test draws many
// random instances from a seeded generator, so the suite is deterministic
// but covers a far wider parameter space than the directed unit tests.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/offloader.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "nn/gemm.hpp"
#include "sim/dpu.hpp"
#include "sim/softfloat.hpp"
#include "yolo/dpu_gemm.hpp"

namespace pimdnn {
namespace {

using runtime::OptLevel;

TEST(Property, DpuGemmMatchesReferenceOnRandomDims) {
  Rng rng(9001);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 6));
    const int n = static_cast<int>(rng.uniform_int(1, 700));
    const int k = static_cast<int>(rng.uniform_int(1, 40));
    const auto alpha = static_cast<std::int16_t>(rng.uniform_int(-8, 8));
    const auto tasklets =
        static_cast<std::uint32_t>(rng.uniform_int(1, 16));
    const auto variant = (rng.next_u32() & 1) != 0
                             ? yolo::GemmVariant::WramTiled
                             : yolo::GemmVariant::MramResident;
    const int rows = static_cast<int>(rng.uniform_int(1, 3));

    std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
    std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
    for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-99, 99));
    for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-99, 99));
    std::vector<std::int16_t> expect(static_cast<std::size_t>(m) * n);
    nn::gemm_q16_reference(m, n, k, alpha, a, b, expect);

    const auto r =
        yolo::dpu_gemm(m, n, k, alpha, a, b, variant, tasklets,
                       OptLevel::O3, sim::default_config(), rows);
    ASSERT_EQ(r.c, expect)
        << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
        << " t=" << tasklets << " rows=" << rows
        << " variant=" << static_cast<int>(variant);
  }
}

TEST(Property, GemmEstimatorExactOnRandomShapes) {
  Rng rng(9002);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 1200));
    const int k = static_cast<int>(rng.uniform_int(1, 64));
    const auto tasklets =
        static_cast<std::uint32_t>(rng.uniform_int(1, 16));
    const auto opt =
        (rng.next_u32() & 1) != 0 ? OptLevel::O3 : OptLevel::O0;
    const auto variant = (rng.next_u32() & 1) != 0
                             ? yolo::GemmVariant::WramTiled
                             : yolo::GemmVariant::MramResident;
    std::vector<std::int16_t> a(static_cast<std::size_t>(k), 1);
    std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n, 1);
    const auto r = yolo::dpu_gemm(1, n, k, 1, a, b, variant, tasklets, opt);
    ASSERT_EQ(r.stats.wall_cycles,
              yolo::estimate_gemm_row_cycles(n, k, variant, tasklets, opt))
        << "n=" << n << " k=" << k << " t=" << tasklets;
  }
}

TEST(Property, EbnnDpuMatchesGoldenAcrossConfigs) {
  Rng rng(9003);
  for (int trial = 0; trial < 10; ++trial) {
    ebnn::EbnnConfig cfg;
    cfg.img_h = cfg.img_w = static_cast<int>(rng.uniform_int(12, 34));
    cfg.filters = static_cast<int>(rng.uniform_int(2, 12));
    cfg.ksize = (rng.next_u32() & 1) != 0 ? 3 : 5;
    if (cfg.img_h <= cfg.ksize + cfg.pool) cfg.ksize = 3;
    const auto mode = (rng.next_u32() & 1) != 0 ? ebnn::BnMode::SoftFloat
                                                : ebnn::BnMode::HostLut;
    const auto kernel = cfg.ksize == 3 && (rng.next_u32() & 1) != 0
                            ? ebnn::ConvKernel::PackedRows
                            : ebnn::ConvKernel::Scalar;
    const auto w = ebnn::EbnnWeights::random(cfg, 9000 + trial);
    const ebnn::EbnnReference ref(cfg, w);

    // Random-noise images of the config's size.
    std::vector<ebnn::Image> images(
        static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (auto& img : images) {
      img.resize(static_cast<std::size_t>(cfg.img_h) * cfg.img_w);
      for (auto& px : img) {
        px = static_cast<std::uint8_t>(rng.next_u32());
      }
    }

    ebnn::EbnnHost host(cfg, w, mode, sim::default_config(), kernel);
    const auto tasklets = static_cast<std::uint32_t>(
        rng.uniform_int(1, std::min<std::int64_t>(16, images.size())));
    const auto r = host.run(images, tasklets);
    for (std::size_t i = 0; i < images.size(); ++i) {
      const auto golden = ref.infer(images[i].data());
      ASSERT_EQ(r.features[i], golden.feature)
          << "trial=" << trial << " image=" << i << " side=" << cfg.img_h
          << " filters=" << cfg.filters << " k=" << cfg.ksize;
      ASSERT_EQ(r.predicted[i], golden.predicted);
    }
  }
}

TEST(Property, OffloaderRoundTripsRandomShapes) {
  Rng rng(9004);
  for (int trial = 0; trial < 15; ++trial) {
    core::WorkloadSpec spec;
    spec.name = "prop";
    spec.item_in_bytes = static_cast<MemSize>(rng.uniform_int(1, 300));
    spec.item_out_bytes = spec.item_in_bytes;
    spec.items_per_dpu =
        static_cast<std::uint32_t>(rng.uniform_int(1, 16));
    // Identity kernel with a charged copy loop.
    core::Offloader off(spec, [n = spec.item_in_bytes](core::ItemCtx& ic) {
      for (MemSize i = 0; i < n; ++i) {
        ic.output[i] = ic.input[i];
      }
      ic.ctx.charge_alu(2 * n);
      ic.ctx.charge_loop(n);
    });
    std::vector<std::vector<std::uint8_t>> items(
        static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (auto& it : items) {
      it.resize(spec.item_in_bytes);
      for (auto& v : it) v = static_cast<std::uint8_t>(rng.next_u32());
    }
    const auto tasklets = static_cast<std::uint32_t>(
        rng.uniform_int(1, spec.items_per_dpu));
    const auto r = off.run(items, tasklets);
    ASSERT_EQ(r.outputs, items) << "trial=" << trial;
  }
}

TEST(Property, SoftFloatExponentGrid) {
  // All exponent pairs (subnormal to near-inf) with random mantissas:
  // results must equal the host FPU bitwise for every arithmetic op.
  namespace sf = sim::softfloat;
  Rng rng(9005);
  for (int ea = 0; ea <= 0xfe; ea += 7) {
    for (int eb = 0; eb <= 0xfe; eb += 7) {
      for (int rep = 0; rep < 2; ++rep) {
        const sf::F32 a = (rng.next_u32() & 0x807fffffu) |
                          (static_cast<std::uint32_t>(ea) << 23);
        const sf::F32 b = (rng.next_u32() & 0x807fffffu) |
                          (static_cast<std::uint32_t>(eb) << 23);
        const float fa = sf::from_bits(a);
        const float fb = sf::from_bits(b);
        ASSERT_EQ(sf::to_bits(fa + fb), sf::add(a, b))
            << std::hexfloat << fa << " + " << fb;
        ASSERT_EQ(sf::to_bits(fa - fb), sf::sub(a, b))
            << std::hexfloat << fa << " - " << fb;
        ASSERT_EQ(sf::to_bits(fa * fb), sf::mul(a, b))
            << std::hexfloat << fa << " * " << fb;
        ASSERT_EQ(sf::to_bits(fa / fb), sf::div(a, b))
            << std::hexfloat << fa << " / " << fb;
      }
    }
  }
}

TEST(Property, PipelineTimingInvariants) {
  // For random per-tasklet loads: cycles == max(sum_slots, sum_dma,
  // max(11*slots_t + dma_t)) and launching a superset of work never gets
  // cheaper.
  Rng rng(9006);
  for (int trial = 0; trial < 20; ++trial) {
    const auto tasklets =
        static_cast<std::uint32_t>(rng.uniform_int(1, 24));
    std::vector<std::uint64_t> work(tasklets);
    for (auto& w : work) {
      w = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
    }
    sim::Dpu d;
    sim::DpuProgram p;
    p.name = "timing";
    p.symbols = {{"m", sim::MemKind::Mram, 4096},
                 {"w", sim::MemKind::Wram, 4096}};
    p.phases = {[&work](sim::TaskletCtx& ctx) {
      ctx.charge_alu(work[ctx.id()]);
      if (ctx.id() % 3 == 0) {
        auto buf = ctx.wram_span<std::uint8_t>("w");
        ctx.mram_read(buf.data(), ctx.mram_addr("m"), 512);
      }
    }};
    d.load(p);
    const auto stats = d.launch(tasklets, OptLevel::O3);

    Cycles latency = 0;
    std::uint64_t slots = 0;
    Cycles dma = 0;
    for (const auto& t : stats.tasklets) {
      slots += t.slots;
      dma += t.dma_cycles;
      latency = std::max(latency,
                         static_cast<Cycles>(t.slots) * 11 + t.dma_cycles);
    }
    ASSERT_EQ(stats.cycles,
              std::max({static_cast<Cycles>(slots), dma, latency}));
  }
}

TEST(Property, QuantizedGemmScalesLinearlyWithAlphaWhenExact) {
  // For small inputs where no clamping/truncation occurs, doubling alpha
  // doubles the (pre-shift) accumulator, so outputs with alpha=32 are
  // exactly the raw dot products.
  Rng rng(9007);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 50));
    const int k = static_cast<int>(rng.uniform_int(1, 10));
    std::vector<std::int16_t> a(static_cast<std::size_t>(k));
    std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
    for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-9, 9));
    for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-9, 9));
    std::vector<std::int16_t> c(static_cast<std::size_t>(n));
    nn::gemm_q16_reference(1, n, k, 32, a, b, c); // alpha=32 cancels /32
    for (int j = 0; j < n; ++j) {
      std::int32_t dot = 0;
      for (int kk = 0; kk < k; ++kk) {
        dot += a[static_cast<std::size_t>(kk)] *
               b[static_cast<std::size_t>(kk) * n + j];
      }
      ASSERT_EQ(c[static_cast<std::size_t>(j)], dot);
    }
  }
}

} // namespace
} // namespace pimdnn
