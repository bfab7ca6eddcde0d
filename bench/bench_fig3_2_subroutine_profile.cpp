// Reproduces thesis Figure 3.2: profiling a DPU application that contains
// high-precision computations. The program below mixes float comparison,
// division, conversion, addition and 64-bit multiplication, mirroring the
// subroutine mix of the figure (__ltsf2, __divsf3, __floatsisf, __addsf3,
// __muldi3), and prints the per-subroutine #occ exactly as dpu-profiling
// does.
#include <iostream>

#include "bench_util.hpp"
#include "sim/dpu.hpp"

int main() {
  using namespace pimdnn;
  using namespace pimdnn::sim;

  bench::banner("Figure 3.2 - #occ profile of a float-heavy DPU program");

  Dpu dpu;
  DpuProgram p;
  p.name = "float_mix";
  p.symbols = {{"data", MemKind::Wram, 512}};
  p.phases = {[](TaskletCtx& ctx) {
    // A small iterative computation: normalize 32 values, accumulate a
    // running float mean, and compare against a threshold — the kind of
    // mix a naively ported kernel contains.
    float mean = 0.0f;
    for (int i = 0; i < 32; ++i) {
      ctx.charge_loop(1);
      float v = ctx.i2f(i * 3 - 11);        // __floatsisf
      v = ctx.fdiv(v, 7.5f);                // __divsf3
      mean = ctx.fadd(mean, v);             // __addsf3
      if (ctx.flt(mean, 0.0f)) {            // __ltsf2
        mean = ctx.fsub(0.0f, mean);        // __subsf3
      }
      (void)ctx.mul64(static_cast<std::int64_t>(i) << 20, 3); // __muldi3
      // A stray double computation, as unported code often carries
      // (thesis §3.3 names __muldf3 among the frequent routines).
      if (i % 8 == 0) {
        (void)ctx.dmul(static_cast<double>(i), 3.14159); // __muldf3
      }
    }
  }};
  dpu.load(p);
  const auto stats = dpu.launch(2, OptLevel::O0);

  std::cout << "dpu-profiling style output (subroutine  #occ):\n\n";
  stats.profile.print(std::cout);
  std::cout << "\ntotal subroutine executions: " << stats.profile.total()
            << "\ndistinct subroutines:        " << stats.profile.distinct()
            << "\ntotal cycles:                " << stats.cycles
            << "\n\nPaper shape: the float-heavy program spends most of its"
            << "\ncycles inside libgcc-style float subroutines; __divsf3 is"
            << "\nby far the costliest per call (Table 3.1).\n";
  return 0;
}
