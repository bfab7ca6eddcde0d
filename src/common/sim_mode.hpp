// Simulator execution-mode selection (PIMDNN_SIM_MODE).
//
// The simulator has two executors for a kernel launch:
//
//  * `interp` (default) — the reference: every add, xor, popcount and
//    soft-float call goes through TaskletCtx, which computes the value and
//    charges the cost model as it goes. A multi-phase (barrier) program
//    runs each tasklet on its own host thread, meeting on a real barrier
//    between phases.
//  * `fast` — everything runs on the calling thread. A multi-phase program
//    runs phase by phase (each phase for every tasklet, then the next);
//    programs that provide a `DpuProgram::fast_entry` twin compute the same
//    memory effects with native host arithmetic (soft-float results still
//    route through the bit-exact soft-float library) and apply the
//    identical charges in closed form.
//    The contract — bit-exact memory, cycle-exact DpuRunStats — is enforced
//    by the dual-run cross-check tests (tests/test_fast_mode.cpp).
//
// Single-phase programs without a fast twin run identically in both
// modes. The process default comes from the PIMDNN_SIM_MODE environment
// variable and can be overridden programmatically (benches run both modes
// in one process); DpuSet/DpuPool snapshot the default at construction
// and expose per-instance setters.
#pragma once

#include <cstdint>
#include <string>

namespace pimdnn {

/// Which executor a Dpu::launch uses (see file comment).
enum class SimMode : std::uint8_t {
  Interp, ///< reference: threaded barriers, per-op interpretation (default)
  Fast,   ///< one thread, phase-major; fast twins where provided
};

/// Printable name ("interp"/"fast").
const char* sim_mode_name(SimMode m);

/// Parses "interp" or "fast"; throws ConfigError on anything else.
SimMode parse_sim_mode(const std::string& text);

/// The process-wide default mode: PIMDNN_SIM_MODE on first call (empty or
/// unset means Interp), or whatever set_default_sim_mode installed.
SimMode default_sim_mode();

/// Overrides the process default (tests and benches that compare modes).
void set_default_sim_mode(SimMode m);

} // namespace pimdnn
