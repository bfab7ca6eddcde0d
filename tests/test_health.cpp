// Health lifecycle v2 tests: StrikeWindow decay, CircuitBreaker state
// machine on the injected logical clock, the HealthManager
// quarantine -> probation -> reintegration cycle (flaky relapse, permanent
// BadDpu), pool-level reintegration through maintain(), the MRAM scrub
// patrol repairing silent resident corruption, KernelSession watchdog
// deadlines (sync + async), the session-level breaker short-circuit, the
// PIMDNN_FAULTS and PIMDNN_DEADLINE parse diagnostics, and interp/fast
// equivalence of the health decision log.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sim_mode.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/dpu_set.hpp"
#include "runtime/health.hpp"
#include "runtime/kernel_session.hpp"
#include "sim/fault.hpp"
#include "yolo/dpu_gemm.hpp"

namespace pimdnn {
namespace {

using runtime::CircuitBreaker;
using runtime::DpuHealth;
using runtime::DpuPool;
using runtime::HealthEvent;
using runtime::HealthManager;
using runtime::KernelSession;
using runtime::LaunchOptions;
using runtime::StrikeWindow;
using sim::FaultConfig;
using sim::FaultKind;
using sim::MemKind;
using sim::TaskletCtx;

/// Every test starts and ends with injection disabled, the interpreting
/// executor selected and metrics clean — all three are process-global.
class HealthTest : public ::testing::Test {
protected:
  void SetUp() override {
    sim::set_fault_config(FaultConfig{});
    set_default_sim_mode(SimMode::Interp);
    obs::Metrics::instance().reset();
  }
  void TearDown() override {
    sim::set_fault_config(FaultConfig{});
    set_default_sim_mode(SimMode::Interp);
    obs::Metrics::instance().reset();
  }
};

sim::DpuProgram tiny_program(const std::string& name = "tiny") {
  sim::DpuProgram p;
  p.name = name;
  p.symbols = {{"data", MemKind::Mram, 64}, {"w", MemKind::Wram, 8}};
  p.phases = {[](TaskletCtx& ctx) { ctx.charge_alu(1); }};
  return p;
}

std::uint64_t counter(const char* name) {
  return obs::Metrics::instance().counter(name);
}

// ---- StrikeWindow ----------------------------------------------------------

TEST_F(HealthTest, StrikeWindowDecaysStrikesOverTicks) {
  StrikeWindow w(StrikeWindow::Params{3, 10});
  w.resize(2);

  EXPECT_EQ(w.strike(0, 1, 0), 1u);
  EXPECT_EQ(w.strikes(0, 9), 1u);   // not yet a full decay interval
  EXPECT_EQ(w.strikes(0, 10), 0u);  // one interval forgives one strike
  EXPECT_EQ(w.strikes(1, 100), 0u); // untouched entry stays clean

  // A burst trips the limit before decay can help.
  EXPECT_EQ(w.strike(0, 1, 20), 1u);
  EXPECT_EQ(w.strike(0, 1, 21), 2u);
  EXPECT_EQ(w.strike(0, 1, 22), 3u);

  // set() overwrites; decay then applies from the set tick.
  w.set(0, 2, 30);
  EXPECT_EQ(w.strikes(0, 30), 2u);
  EXPECT_EQ(w.strikes(0, 49), 1u);
  EXPECT_EQ(w.strikes(0, 50), 0u);

  // resize forgets everything.
  w.resize(2);
  EXPECT_EQ(w.strikes(0, 50), 0u);
}

TEST_F(HealthTest, StrikeWindowZeroDecayDisablesForgiveness) {
  StrikeWindow w(StrikeWindow::Params{3, 0});
  w.resize(1);
  w.strike(0, 1, 0);
  EXPECT_EQ(w.strikes(0, 1'000'000), 1u);
}

// ---- CircuitBreaker --------------------------------------------------------

TEST_F(HealthTest, BreakerTripsCoolsDownAndRecloses) {
  CircuitBreaker b(CircuitBreaker::Params{2, 5});
  EXPECT_TRUE(b.allow(0));
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);

  b.on_failure(0);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  b.on_failure(1); // trip_after = 2
  EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
  EXPECT_EQ(counter("breaker.open"), 1u);

  // Open until the cool-down elapses, then one trial is allowed.
  EXPECT_FALSE(b.allow(2));
  EXPECT_FALSE(b.allow(5));
  EXPECT_TRUE(b.allow(6));
  EXPECT_EQ(b.state(), CircuitBreaker::State::HalfOpen);
  EXPECT_EQ(counter("breaker.half_open"), 1u);

  // A half-open failure re-opens immediately, restarting the cool-down.
  b.on_failure(6);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(b.allow(10));
  EXPECT_TRUE(b.allow(12));

  // A half-open success closes and clears the failure history.
  b.on_success(12);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  EXPECT_EQ(b.consecutive_failures(), 0u);
  EXPECT_EQ(counter("breaker.close"), 1u);

  // Consecutive means consecutive: a success in between resets the count.
  b.on_failure(13);
  b.on_success(14);
  b.on_failure(15);
  EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);
  EXPECT_EQ(b.consecutive_failures(), 1u);
}

// ---- HealthManager ---------------------------------------------------------

HealthManager::Params small_params() {
  HealthManager::Params p;
  p.strikes = {3, 64};
  p.probation_passes = 2;
  p.probe_interval_ticks = 4;
  return p;
}

TEST_F(HealthTest, ManagerRunsFullReintegrationCycle) {
  HealthManager hm(small_params());
  hm.resize(4);

  EXPECT_FALSE(hm.note_fault(1, FaultKind::LaunchFail));
  EXPECT_EQ(hm.state(1), DpuHealth::Suspect);
  EXPECT_FALSE(hm.note_fault(1, FaultKind::LaunchFail));
  EXPECT_TRUE(hm.note_fault(1, FaultKind::LaunchFail)); // third strike
  EXPECT_EQ(hm.state(1), DpuHealth::Quarantined);
  EXPECT_FALSE(hm.in_service(1));
  EXPECT_EQ(hm.out_of_service(), 1u);

  // Faults on an out-of-service DPU are no-ops.
  EXPECT_FALSE(hm.note_fault(1, FaultKind::LaunchFail));

  // The probe is due one interval after quarantine.
  EXPECT_EQ(hm.next_probe_due(), HealthManager::kNone);
  while (hm.next_probe_due() == HealthManager::kNone) hm.tick();
  EXPECT_EQ(hm.next_probe_due(), 1u);

  EXPECT_FALSE(hm.on_probe(1, true)); // first pass: probation
  EXPECT_EQ(hm.state(1), DpuHealth::Probation);
  while (hm.next_probe_due() == HealthManager::kNone) hm.tick();
  EXPECT_TRUE(hm.on_probe(1, true)); // second pass: reintegrated
  EXPECT_TRUE(hm.in_service(1));
  EXPECT_EQ(hm.out_of_service(), 0u);

  // Reintegration presets strikes to limit-1: the DPU is Suspect, and one
  // relapse quarantines it immediately.
  EXPECT_EQ(hm.state(1), DpuHealth::Suspect);
  EXPECT_TRUE(hm.note_fault(1, FaultKind::LaunchFail));
  EXPECT_EQ(hm.state(1), DpuHealth::Quarantined);

  const std::vector<HealthEvent::Kind> kinds = {
      HealthEvent::Kind::Quarantined, HealthEvent::Kind::Probation,
      HealthEvent::Kind::Reintegrated, HealthEvent::Kind::Quarantined};
  ASSERT_EQ(hm.events().size(), kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(hm.events()[i].kind, kinds[i]) << "event " << i;
    EXPECT_EQ(hm.events()[i].phys, 1u);
  }
}

TEST_F(HealthTest, ManagerFailedProbeRestartsProbation) {
  HealthManager hm(small_params());
  hm.resize(2);
  for (int i = 0; i < 3; ++i) hm.note_fault(0, FaultKind::LaunchHang);
  EXPECT_EQ(hm.state(0), DpuHealth::Quarantined);

  while (hm.next_probe_due() == HealthManager::kNone) hm.tick();
  EXPECT_FALSE(hm.on_probe(0, true));
  EXPECT_EQ(hm.state(0), DpuHealth::Probation);

  // A failed probe drops it back to quarantined and clears the streak.
  while (hm.next_probe_due() == HealthManager::kNone) hm.tick();
  EXPECT_FALSE(hm.on_probe(0, false));
  EXPECT_EQ(hm.state(0), DpuHealth::Quarantined);
  EXPECT_EQ(hm.events().back().kind, HealthEvent::Kind::ProbeFailed);

  // The full streak is required from scratch afterwards.
  while (hm.next_probe_due() == HealthManager::kNone) hm.tick();
  EXPECT_FALSE(hm.on_probe(0, true));
  while (hm.next_probe_due() == HealthManager::kNone) hm.tick();
  EXPECT_TRUE(hm.on_probe(0, true));
  EXPECT_TRUE(hm.in_service(0));
}

TEST_F(HealthTest, ManagerBadDpuIsPermanent) {
  HealthManager hm(small_params());
  hm.resize(2);
  EXPECT_TRUE(hm.note_fault(0, FaultKind::BadDpu)); // instant quarantine
  EXPECT_TRUE(hm.permanent(0));
  EXPECT_EQ(hm.out_of_service(), 1u);

  // Permanently-bad DPUs are never probed, no matter how long we wait.
  for (int i = 0; i < 200; ++i) {
    hm.tick();
    EXPECT_EQ(hm.next_probe_due(), HealthManager::kNone);
  }
}

// ---- pool-level reintegration ---------------------------------------------

TEST_F(HealthTest, PoolMaintainReintegratesQuarantinedDpu) {
  DpuPool pool;
  pool.reserve(4);
  const auto epoch0 = pool.health_epoch();

  for (int i = 0; i < 3; ++i)
    pool.note_fault(1, FaultKind::LaunchFail);
  EXPECT_EQ(pool.quarantined(), 1u);
  EXPECT_EQ(pool.healthy_capacity(), 3u);
  EXPECT_GT(pool.health_epoch(), epoch0);
  EXPECT_EQ(pool.set().logical_size(), 3u);
  EXPECT_EQ(obs::Metrics::instance().gauge("health.quarantined"), 1.0);

  // No fault plan is active, so canary probes pass; the patrol needs
  // probe_interval ticks between each of kProbationPasses probes.
  const auto epoch1 = pool.health_epoch();
  for (int i = 0; i < 200 && pool.quarantined() > 0; ++i) pool.maintain();

  EXPECT_EQ(pool.quarantined(), 0u);
  EXPECT_EQ(pool.healthy_capacity(), 4u);
  EXPECT_EQ(pool.set().logical_size(), 4u);
  EXPECT_EQ(pool.set().physical(1), 1u);
  EXPECT_GT(pool.health_epoch(), epoch1);
  EXPECT_EQ(counter("health.reintegrated"), 1u);
  EXPECT_GT(counter("health.probe"), 0u);
  EXPECT_EQ(obs::Metrics::instance().gauge("health.quarantined"), 0.0);
  EXPECT_EQ(pool.health().events().back().kind,
            HealthEvent::Kind::Reintegrated);

  // plan_capacity follows the recovery.
  EXPECT_EQ(pool.plan_capacity(), pool.config().total_dpus);
}

// ---- scrub patrol ----------------------------------------------------------

TEST_F(HealthTest, ScrubRepairsSilentResidentCorruption) {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.launch_hang_rate = 1e-12; // enables the plan; never actually fires
  sim::set_fault_config(cfg);

  DpuPool pool;
  auto mk = [] { return tiny_program("scrub"); };
  auto fill = [](std::uint32_t dpu, std::uint8_t* slot) {
    for (std::size_t i = 0; i < 64; ++i)
      slot[i] = static_cast<std::uint8_t>(0x11u * (dpu + 1) + i);
  };

  {
    KernelSession s(pool, "scrub", 2, mk);
    EXPECT_TRUE(s.scatter_resident("w", 1, "data", 64, fill));
    EXPECT_TRUE(s.launch(1));
    s.finish();
  }

  // Flip one byte of logical DPU 1's resident slot behind the host's back.
  auto& dpu = pool.set().dpu(pool.set().physical(1));
  std::uint8_t byte = 0;
  dpu.host_read("data", 5, &byte, 1);
  byte ^= 0xff;
  dpu.host_write("data", 5, &byte, 1);

  {
    // Construction runs the scrub patrol before the resident-hit check, so
    // the repaired record still counts as warm.
    KernelSession s(pool, "scrub", 2, mk);
    EXPECT_FALSE(s.scatter_resident("w", 1, "data", 64, fill)); // still a hit
    EXPECT_TRUE(s.launch(1));
    s.finish();
  }

  EXPECT_GE(counter("scrub.scanned"), 2u);
  EXPECT_EQ(counter("scrub.repaired"), 1u);
  EXPECT_EQ(counter("scrub.unrepairable"), 0u);

  // The slot holds the original payload again.
  std::uint8_t got[64];
  pool.set().dpu(pool.set().physical(1)).host_read("data", 0, got, 64);
  for (std::size_t i = 0; i < 64; ++i)
    ASSERT_EQ(got[i], static_cast<std::uint8_t>(0x11u * 2 + i)) << "byte " << i;
}

// ---- watchdog deadlines ----------------------------------------------------

TEST_F(HealthTest, DeadlineCancelsHungLaunchSync) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.launch_hang_rate = 1.0;
  sim::set_fault_config(cfg); // hang_deadline_cycles stays the 10M default

  DpuPool pool;
  KernelSession s(pool, "hang", 1, [] { return tiny_program("hang"); });
  LaunchOptions o;
  o.deadline_cycles = 50'000;
  o.max_attempts = 10;
  EXPECT_FALSE(s.launch(o));
  EXPECT_TRUE(s.degraded());

  const auto st = s.finish();
  EXPECT_TRUE(st.cpu_fallback);
  EXPECT_EQ(st.wall_cycles, 0u);
  // The hang charge is capped at the remaining deadline budget: exactly the
  // deadline lands in retry_cycles, nothing in wall_cycles.
  EXPECT_EQ(st.retry_cycles, 50'000u);
  EXPECT_EQ(counter("offload.deadline.cancelled"), 1u);
}

TEST_F(HealthTest, DeadlineCancelsHungLaunchAsync) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.launch_hang_rate = 1.0;
  sim::set_fault_config(cfg);

  DpuPool pool;
  KernelSession s(pool, "hang", 1, [] { return tiny_program("hang"); });
  LaunchOptions o;
  o.deadline_cycles = 50'000;
  o.max_attempts = 10;
  auto handle = s.launch_async(o);
  ASSERT_TRUE(handle.valid());
  EXPECT_FALSE(handle.wait());
  EXPECT_FALSE(handle.wait()); // wait() is idempotent
  EXPECT_TRUE(s.degraded());

  const auto st = s.finish();
  EXPECT_EQ(st.wall_cycles, 0u);
  EXPECT_EQ(st.retry_cycles, 50'000u);
  EXPECT_EQ(counter("offload.deadline.cancelled"), 1u);
}

TEST_F(HealthTest, DeadlineAllowsRetriesThenCancelsWithinOneBackoffStep) {
  FaultConfig cfg;
  cfg.seed = 5;
  cfg.launch_hang_rate = 1.0;
  cfg.hang_deadline_cycles = 1'000; // short hangs: several attempts fit
  sim::set_fault_config(cfg);

  DpuPool pool;
  pool.reserve(4); // headroom so a mid-ladder quarantine can remap, not degrade
  KernelSession s(pool, "hang", 1, [] { return tiny_program("hang"); });
  LaunchOptions o;
  o.deadline_cycles = 10'000;
  o.max_attempts = 100;
  EXPECT_FALSE(s.launch(o));

  const auto st = s.finish();
  EXPECT_GE(st.retries, 2u); // the budget really admitted several attempts
  EXPECT_EQ(st.wall_cycles, 0u);
  // Cooperative cancellation: total charge stays within the deadline plus
  // at most one exponential-backoff step.
  EXPECT_GE(st.retry_cycles, 10'000u);
  EXPECT_LE(st.retry_cycles, 10'000u + 8'192u);
  EXPECT_EQ(counter("offload.deadline.cancelled"), 1u);
}

// ---- circuit breaker at the session level ----------------------------------

TEST_F(HealthTest, BreakerShortCircuitsSessionsAndRecloses) {
  DpuPool pool;
  pool.reserve(1);
  auto mk = [] { return tiny_program(); };

  // Three consecutive exhausted ladders trip the breaker.
  for (int i = 0; i < 3; ++i) pool.breaker_result(false);
  EXPECT_EQ(pool.health().breaker().state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(pool.breaker_allow());

  // A session under an open breaker short-circuits to the CPU path without
  // feeding the breaker (the short-circuit is not a ladder outcome).
  {
    KernelSession s(pool, "tiny", 1, mk);
    EXPECT_FALSE(s.launch(1));
    EXPECT_TRUE(s.degraded());
    const auto st = s.finish();
    EXPECT_TRUE(st.cpu_fallback);
  }
  EXPECT_EQ(counter("offload.breaker.short_circuit"), 1u);
  EXPECT_EQ(pool.health().breaker().consecutive_failures(), 3u);

  // After the cool-down the breaker half-opens one trial; a successful
  // ladder closes it again.
  const auto cooldown = pool.health().params().breaker.cooldown_ticks;
  for (std::uint64_t i = 0; i <= cooldown; ++i) pool.health().tick();
  EXPECT_TRUE(pool.breaker_allow());
  EXPECT_EQ(pool.health().breaker().state(), CircuitBreaker::State::HalfOpen);
  pool.breaker_result(true);
  EXPECT_EQ(pool.health().breaker().state(), CircuitBreaker::State::Closed);
  EXPECT_EQ(counter("breaker.open"), 1u);
  EXPECT_EQ(counter("breaker.half_open"), 1u);
  EXPECT_EQ(counter("breaker.close"), 1u);

  // With the breaker closed the same session signature launches again.
  {
    KernelSession s(pool, "tiny", 1, mk);
    EXPECT_TRUE(s.launch(1));
    s.finish();
  }
}

// ---- PIMDNN_FAULTS diagnostics ---------------------------------------------

TEST_F(HealthTest, FaultParseErrorsNameTheOffendingToken) {
  auto what = [](const std::string& spec) {
    try {
      sim::parse_fault_config(spec);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  EXPECT_NE(what("launch=abc").find("bad rate 'abc' for launch"),
            std::string::npos);
  EXPECT_NE(what("seed=").find("empty value for seed"), std::string::npos);
  EXPECT_NE(what("seed=xyz").find("bad number 'xyz' for seed"),
            std::string::npos);
  EXPECT_NE(what("launch").find("expected key=value, got 'launch'"),
            std::string::npos);
  EXPECT_NE(what("bogus=1").find("unknown key 'bogus'"), std::string::npos);
  EXPECT_NE(what("launch=0.1,,hang=0.2")
                .find("empty term in 'launch=0.1,,hang=0.2'"),
            std::string::npos);
}

// ---- PIMDNN_DEADLINE parsing ------------------------------------------------

TEST_F(HealthTest, DeadlineParseAcceptsCycleCounts) {
  EXPECT_EQ(KernelSession::parse_deadline_cycles(nullptr), 0u);
  EXPECT_EQ(KernelSession::parse_deadline_cycles(""), 0u);
  EXPECT_EQ(KernelSession::parse_deadline_cycles("0"), 0u);
  EXPECT_EQ(KernelSession::parse_deadline_cycles("250000"), 250'000u);
  EXPECT_EQ(KernelSession::parse_deadline_cycles("0x100"), 256u);
  EXPECT_EQ(KernelSession::parse_deadline_cycles("18446744073709551615"),
            ~Cycles{0});
}

TEST_F(HealthTest, DeadlineParseRejectsNegativeOverflowAndJunk) {
  auto what = [](const char* text) {
    try {
      KernelSession::parse_deadline_cycles(text);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  // strtoull alone would wrap these to 2^64-1 and disable the watchdog.
  EXPECT_NE(what("-1").find("PIMDNN_DEADLINE: bad cycle count '-1' (must "
                            "not be negative)"),
            std::string::npos);
  EXPECT_NE(what("  -5").find("bad cycle count '  -5' (must not be negative)"),
            std::string::npos);
  EXPECT_NE(what("18446744073709551616")
                .find("bad cycle count '18446744073709551616' (out of range)"),
            std::string::npos);
  EXPECT_NE(what("12abc").find("bad cycle count '12abc'"), std::string::npos);
  EXPECT_NE(what(" ").find("bad cycle count ' '"), std::string::npos);
}

// ---- interp/fast equivalence of health decisions ---------------------------

TEST_F(HealthTest, ExecutorsAgreeOnOutputsAndHealthDecisions) {
  struct Outcome {
    std::vector<std::vector<std::int16_t>> frames;
    std::vector<HealthEvent> events;
  };
  const int m = 8, n = 24, k = 6;
  Rng rng(1234);
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  std::vector<std::int16_t> expect(static_cast<std::size_t>(m) * n);
  nn::gemm_q16_reference(m, n, k, 2, a, b, expect);

  auto run_mode = [&](SimMode mode) {
    set_default_sim_mode(mode);
    FaultConfig cfg;
    cfg.seed = 11;
    cfg.launch_fail_rate = 0.12;
    cfg.mram_corrupt_rate = 0.02;
    sim::set_fault_config(cfg); // resets the plan's draw ordinals
    Outcome out;
    DpuPool pool;
    for (int f = 0; f < 8; ++f) {
      auto r = yolo::dpu_gemm_pooled(pool, m, n, k, 2, a, b,
                                     yolo::GemmVariant::WramTiled, 4,
                                     runtime::OptLevel::O3, 2);
      out.frames.push_back(std::move(r.c));
    }
    out.events = pool.health().events();
    sim::set_fault_config(FaultConfig{});
    set_default_sim_mode(SimMode::Interp);
    return out;
  };

  const auto interp = run_mode(SimMode::Interp);
  const auto fast = run_mode(SimMode::Fast);

  // Self-healing keeps every frame bit-exact in both modes...
  for (const auto& f : interp.frames) EXPECT_EQ(f, expect);
  for (const auto& f : fast.frames) EXPECT_EQ(f, expect);
  // ...and the ordered health-transition log is identical: both executors
  // took the same quarantine/probation/reintegration decisions at the same
  // logical ticks.
  EXPECT_EQ(interp.events, fast.events);
}

} // namespace
} // namespace pimdnn
