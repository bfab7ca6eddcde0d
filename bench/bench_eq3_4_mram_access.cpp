// Reproduces thesis Eq. 3.4: MRAM->WRAM DMA cycle cost — 25 setup cycles
// plus one cycle per 2 bytes — by issuing real transfers in the simulator
// and comparing with the closed form. The thesis' worked example is the
// 2048-byte transfer costing 1049 cycles.
#include <iostream>

#include "bench_util.hpp"
#include "sim/dpu.hpp"

int main() {
  using namespace pimdnn;
  using namespace pimdnn::sim;

  bench::banner("Eq. 3.4 - MRAM access cycles vs transfer size");
  Table t("MRAM->WRAM DMA cost (measured vs 25 + bytes/2)");
  t.header({"bytes", "measured cycles", "formula", "WRAM-equivalent loads"});

  for (MemSize bytes : {8u, 64u, 256u, 784u, 1024u, 2048u}) {
    Dpu dpu;
    Cycles measured = 0;
    DpuProgram p;
    p.name = "dma";
    p.symbols = {{"src", MemKind::Mram, 4096},
                 {"dst", MemKind::Wram, 4096}};
    p.phases = {[&](TaskletCtx& ctx) {
      auto dst = ctx.wram_span<std::uint8_t>("dst");
      ctx.perfcounter_config();
      ctx.mram_read(dst.data(), ctx.mram_addr("src"), bytes);
      measured = ctx.perfcounter_get();
    }};
    dpu.load(p);
    dpu.launch(1, OptLevel::O3);
    t.row({Table::num(std::uint64_t{bytes}),
           Table::num(std::uint64_t{measured}),
           Table::num(std::uint64_t{CostModel::dma_cycles(bytes)}),
           Table::num(std::uint64_t{bytes / 4})}); // 4B/ 1-cycle WRAM load
  }
  t.print(std::cout);
  std::cout << "\nPaper example: 2048 bytes -> 25 + 2048/2 = 1049 cycles.\n"
            << "Takeaway (thesis §3.2.1/§4.3.3): per-byte MRAM cost is ~2x a\n"
            << "WRAM access plus a 25-cycle setup, so kernels must maximize\n"
            << "WRAM residency.\n";
  return 0;
}
