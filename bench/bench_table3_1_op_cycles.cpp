// Reproduces thesis Table 3.1: cycle counts per operation in a single DPU,
// measured with the Figure 3.1 perfcounter pattern at -O0 on one tasklet.
// The simulated profiling program models the measurement harness (counter
// reads, operand staging) as 5 ALU statements around the profiled
// operation, which is how the cost model was calibrated.
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "sim/dpu.hpp"

namespace {

using pimdnn::Cycles;
using pimdnn::Table;
using namespace pimdnn::sim;

/// Runs one profiled operation in a fresh DPU at -O0, single tasklet,
/// mirroring the thesis' measurement program (Figure 3.1).
Cycles profile_op(const std::function<void(TaskletCtx&)>& op) {
  Dpu dpu;
  Cycles measured = 0;
  DpuProgram p;
  p.name = "profile";
  p.symbols = {{"scratch", MemKind::Wram, 64}};
  p.phases = {[&](TaskletCtx& ctx) {
    ctx.perfcounter_config();
    ctx.charge_alu(5); // perfcounter reads + operand staging at -O0
    op(ctx);
    measured = ctx.perfcounter_get();
  }};
  dpu.load(p);
  dpu.launch(1, OptLevel::O0);
  return measured;
}

} // namespace

int main() {
  pimdnn::bench::banner(
      "Table 3.1 - cycles per operation, single DPU, -O0, max operands");

  struct Row {
    const char* precision;
    double paper_add, paper_mul, paper_sub, paper_div;
    std::function<void(TaskletCtx&)> add, mul, sub, div;
  };

  const float fa = 3.0e38f;
  const float fb = 1.5e-5f;
  std::vector<Row> rows;
  rows.push_back(
      {"8-bit fixed point", 272, 272, 272, 368,
       [](TaskletCtx& c) { c.add(127, 127); },
       [](TaskletCtx& c) { c.mul(127, 127, 8); },
       [](TaskletCtx& c) { c.sub(127, 127); },
       [](TaskletCtx& c) { c.divi(127, 3); }});
  rows.push_back(
      {"16-bit fixed point", 272, 608, 272, 368,
       [](TaskletCtx& c) { c.add(32767, 32767); },
       [](TaskletCtx& c) { c.mul(32767, 32767, 16); },
       [](TaskletCtx& c) { c.sub(32767, 32767); },
       [](TaskletCtx& c) { c.divi(32767, 3); }});
  rows.push_back(
      {"32-bit fixed point", 272, 800, 272, 368,
       [](TaskletCtx& c) { c.add(INT32_MAX, 1); },
       [](TaskletCtx& c) { c.mul(INT32_MAX, 3, 32); },
       [](TaskletCtx& c) { c.sub(INT32_MAX, 1); },
       [](TaskletCtx& c) { c.divi(INT32_MAX, 3); }});
  rows.push_back(
      {"32-bit floating point", 896, 2528, 928, 12064,
       [=](TaskletCtx& c) { c.fadd(fa, fb); },
       [=](TaskletCtx& c) { c.fmul(fa, fb); },
       [=](TaskletCtx& c) { c.fsub(fa, fb); },
       [=](TaskletCtx& c) { c.fdiv(fa, fb); }});

  Table t("Table 3.1: cycles per operation (measured | paper | delta)");
  t.header({"precision", "add", "mul", "sub", "div"});
  for (const auto& r : rows) {
    auto cell = [&](const std::function<void(TaskletCtx&)>& op,
                    double paper) {
      const Cycles m = profile_op(op);
      return Table::num(std::uint64_t{m}) + " | " + Table::num(paper, 0) +
             " | " + pimdnn::bench::delta_pct(static_cast<double>(m), paper);
    };
    t.row({r.precision, cell(r.add, r.paper_add), cell(r.mul, r.paper_mul),
           cell(r.sub, r.paper_sub), cell(r.div, r.paper_div)});
  }
  t.print(std::cout);

  std::cout << "\nShape checks (thesis §3.3.1):\n"
            << "  mul32/add32   ~2.9x  -> "
            << Table::num(static_cast<double>(profile_op([](TaskletCtx& c) {
                 c.mul(INT32_MAX, 3, 32);
               })) /
                          static_cast<double>(profile_op([](TaskletCtx& c) {
                            c.add(1, 2);
                          })),
                          2)
            << "x\n"
            << "  fadd/add32    ~3.3x  -> "
            << Table::num(static_cast<double>(profile_op([=](TaskletCtx& c) {
                 c.fadd(fa, fb);
               })) /
                          static_cast<double>(profile_op([](TaskletCtx& c) {
                            c.add(1, 2);
                          })),
                          2)
            << "x\n"
            << "  fmul/mul32    ~3.2x  -> "
            << Table::num(static_cast<double>(profile_op([=](TaskletCtx& c) {
                 c.fmul(fa, fb);
               })) /
                          static_cast<double>(profile_op([](TaskletCtx& c) {
                            c.mul(INT32_MAX, 3, 32);
                          })),
                          2)
            << "x\n"
            << "  fmul/fadd     ~2.3x  -> "
            << Table::num(static_cast<double>(profile_op([=](TaskletCtx& c) {
                 c.fmul(fa, fb);
               })) /
                          static_cast<double>(profile_op([=](TaskletCtx& c) {
                            c.fadd(fa, fb);
                          })),
                          2)
            << "x\n";
  return 0;
}
