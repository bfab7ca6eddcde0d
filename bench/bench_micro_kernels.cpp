// google-benchmark microbenchmarks of the host-side kernels that underpin
// the reproduction: reference GEMM (CPU baseline of the offloaded
// convolutions), binary dot product (eBNN's inner loop), soft-float
// arithmetic, and the simulator's memory machinery.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "nn/bitpack.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "sim/dpu.hpp"
#include "sim/softfloat.hpp"

namespace {

using namespace pimdnn;

void BM_GemmQ16Reference(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 28 * 28;
  const int k = 9 * static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  std::vector<std::int16_t> c(static_cast<std::size_t>(m) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  for (auto _ : state) {
    nn::gemm_q16_reference(m, n, k, 1, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) *
                          n * k);
}
BENCHMARK(BM_GemmQ16Reference)->Arg(8)->Arg(32);

void BM_BinaryDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<int> abits(n), bbits(n);
  for (auto& v : abits) v = static_cast<int>(rng.next_u32() & 1);
  for (auto& v : bbits) v = static_cast<int>(rng.next_u32() & 1);
  const auto pa = nn::bitpack_bits(abits);
  const auto pb = nn::bitpack_bits(bbits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::binary_dot(pa, pb, n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BinaryDot)->Arg(256)->Arg(4096);

void BM_SoftFloatMul(benchmark::State& state) {
  Rng rng(3);
  std::vector<sim::softfloat::F32> xs(1024);
  for (auto& v : xs) v = rng.next_u32();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::softfloat::mul(xs[i % 1024], xs[(i + 1) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_SoftFloatMul);

void BM_SoftFloatDiv(benchmark::State& state) {
  Rng rng(4);
  std::vector<sim::softfloat::F32> xs(1024);
  for (auto& v : xs) v = rng.next_u32();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::softfloat::div(xs[i % 1024], xs[(i + 1) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_SoftFloatDiv);

void BM_MramTransfer(benchmark::State& state) {
  sim::Mram mram(64ull * 1024 * 1024);
  const auto bytes = static_cast<MemSize>(state.range(0));
  std::vector<std::uint8_t> buf(bytes, 0xab);
  for (auto _ : state) {
    mram.write(4096, buf.data(), bytes);
    mram.read(buf.data(), 4096, bytes);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MramTransfer)->Arg(2048)->Arg(65536);

void BM_DpuLaunchOverhead(benchmark::State& state) {
  sim::Dpu dpu;
  sim::DpuProgram p;
  p.name = "noop";
  p.symbols = {{"w", sim::MemKind::Wram, 8}};
  p.phases = {[](sim::TaskletCtx& ctx) { ctx.charge_alu(1); }};
  dpu.load(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpu.launch(11, sim::OptLevel::O3).cycles);
  }
}
BENCHMARK(BM_DpuLaunchOverhead);

void BM_Im2col(benchmark::State& state) {
  const nn::ConvGeom g{16, 32, 32, 32, 3, 1, 1};
  Rng rng(5);
  std::vector<std::int16_t> in(static_cast<std::size_t>(g.in_c) * g.in_h *
                               g.in_w);
  for (auto& v : in) v = static_cast<std::int16_t>(rng.uniform_int(-9, 9));
  std::vector<std::int16_t> out(static_cast<std::size_t>(g.gemm_k()) *
                                g.gemm_n());
  for (auto _ : state) {
    nn::im2col<std::int16_t>(g, in, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Im2col);

} // namespace

BENCHMARK_MAIN();
