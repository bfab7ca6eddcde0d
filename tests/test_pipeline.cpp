// Async double-buffered pipeline tests: HostPool primitives (submit/wait,
// helping waits, parallel_for, exception propagation, reentrancy,
// shutdown draining, zero-worker fallback), PipelineModel timeline math,
// the double-buffer executor's contract (bank alternation, two in flight,
// in-order finish, waiting out in-flight items on an exception — also
// through every pipeline that runs on it), async<->sync bit-exact parity
// for YOLOv3, both eBNN pipelines and the generic offloader — including a
// fixed-seed PIMDNN_FAULTS run — plus the steady-state invariants: zero
// thread creations per warm launch and zero staging-arena misses on warm
// frames. Every executor test is
// parameterized over both SimModes: the interpreter and the fast
// analytic executor must drive the same pipelined paths — including
// mapper-chosen split schedules — to identical bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/sim_mode.hpp"
#include "core/offloader.hpp"
#include "ebnn/deep.hpp"
#include "ebnn/host.hpp"
#include "ebnn/mnist_synth.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "runtime/host_pool.hpp"
#include "runtime/pipeline.hpp"
#include "sim/fault.hpp"
#include "yolo/config.hpp"
#include "yolo/detect.hpp"
#include "yolo/dpu_gemm.hpp"
#include "yolo/network.hpp"

namespace pimdnn {
namespace {

using runtime::HostPool;
using runtime::PipelineModel;
using runtime::PipelineStats;

// ---- HostPool --------------------------------------------------------------

TEST(HostPool, ParallelForMatchesSerialLoop) {
  HostPool pool(3);
  constexpr std::uint32_t n = 1000;
  std::vector<std::uint64_t> out(n, 0);
  pool.parallel_for(n, [&](std::uint32_t i) {
    out[i] = static_cast<std::uint64_t>(i) * i + 7;
  });
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * i + 7) << i;
  }
}

TEST(HostPool, ZeroWorkerPoolRunsEverythingInline) {
  HostPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::atomic<int> hits{0};
  pool.parallel_for(17, [&](std::uint32_t) { ++hits; });
  EXPECT_EQ(hits.load(), 17);
  auto h = pool.submit([&] { ++hits; });
  EXPECT_TRUE(h.valid());
  h.wait(); // the waiter executes the queued task itself
  EXPECT_EQ(hits.load(), 18);
  EXPECT_TRUE(h.ready());
}

TEST(HostPool, SubmitWaitIsRepeatableAndDefaultHandleInvalid) {
  HostPool pool(1);
  std::atomic<int> runs{0};
  auto h = pool.submit([&] { ++runs; });
  h.wait();
  h.wait(); // second wait is a no-op, the task ran exactly once
  EXPECT_EQ(runs.load(), 1);
  HostPool::TaskHandle none;
  EXPECT_FALSE(none.valid());
}

TEST(HostPool, SubmitPropagatesExceptionToWaiter) {
  HostPool pool(1);
  auto h = pool.submit([] { throw UsageError("boom"); });
  EXPECT_THROW(h.wait(), UsageError);
  // Repeated waits rethrow the same captured exception.
  EXPECT_THROW(h.wait(), UsageError);
}

TEST(HostPool, ParallelForPropagatesBodyException) {
  HostPool pool(2);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::uint32_t i) {
                                   if (i == 13) {
                                     throw UsageError("body");
                                   }
                                 }),
               UsageError);
  // The pool survives: later work still runs.
  std::atomic<int> hits{0};
  pool.parallel_for(8, [&](std::uint32_t) { ++hits; });
  EXPECT_EQ(hits.load(), 8);
}

TEST(HostPool, NestedParallelForInsideTaskDoesNotDeadlock) {
  // A submitted task that itself fans out mirrors the pipelined frame
  // driver (run_frame's postprocess runs parallel_for on the same pool).
  for (std::uint32_t workers : {0u, 2u}) {
    HostPool pool(workers);
    std::atomic<int> hits{0};
    auto h = pool.submit(
        [&] { pool.parallel_for(32, [&](std::uint32_t) { ++hits; }); });
    h.wait();
    EXPECT_EQ(hits.load(), 32) << workers << " workers";
  }
}

TEST(HostPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> runs{0};
  {
    HostPool pool(0); // nothing dequeues until wait or shutdown
    for (int i = 0; i < 5; ++i) {
      pool.submit([&] { ++runs; });
    }
    EXPECT_EQ(runs.load(), 0);
  }
  // Shutdown executed the still-queued tasks instead of dropping them.
  EXPECT_EQ(runs.load(), 5);
}

// ---- PipelineModel ---------------------------------------------------------

TEST(Pipeline, TwoBankScheduleOverlapsDpuPhases) {
  PipelineModel model(2);
  // Two identical items on alternating banks: host 1s, xfer 0.5s, dpu 4s.
  for (std::size_t item = 0; item < 2; ++item) {
    const unsigned bank = static_cast<unsigned>(item % 2);
    model.host_stage(item, 1.0);
    model.xfer_stage(item, bank, 0.5);
    model.dpu_stage(item, bank, 4.0);
  }
  const PipelineStats s = model.stats();
  EXPECT_EQ(s.items, 2u);
  EXPECT_DOUBLE_EQ(s.serial_seconds, 11.0);
  // Host lane: h0 [0,1], x0 [1,1.5], h1 [1.5,2.5], x1 [2.5,3].
  // Banks: dpu0 [1.5,5.5] on bank 0, dpu1 [3,7] on bank 1.
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 7.0);
  EXPECT_DOUBLE_EQ(s.host_seconds, 3.0);
  EXPECT_DOUBLE_EQ(s.dpu_seconds, 8.0);
  EXPECT_DOUBLE_EQ(s.speedup(), 11.0 / 7.0);
  EXPECT_DOUBLE_EQ(s.overlap_efficiency(), 1.0 - 7.0 / 11.0);
}

TEST(Pipeline, HostLaneSerializesAcrossItems) {
  PipelineModel model(2);
  model.host_stage(0, 1.0);
  model.host_stage(1, 1.0);
  const PipelineStats s = model.stats();
  // Two host stages cannot overlap: one host lane.
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.serial_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.speedup(), 1.0);
}

TEST(Pipeline, SameBankItemsSerialize) {
  PipelineModel model(1);
  model.dpu_stage(0, 0, 4.0);
  model.dpu_stage(1, 0, 4.0);
  const PipelineStats s = model.stats();
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 8.0);
}

TEST(Pipeline, EmptyModelHasNeutralStats) {
  const PipelineStats s = PipelineModel(2).stats();
  EXPECT_EQ(s.items, 0u);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.speedup(), 1.0);
  EXPECT_DOUBLE_EQ(s.overlap_efficiency(), 0.0);
}

// ---- double-buffer executor ------------------------------------------------

/// A fake pipeline item: a task on the ring's private HostPool.
struct FakeItem {
  HostPool::TaskHandle task;
  std::size_t item = 0;
  void wait() { task.wait(); }
};

/// Records what runtime::run_double_buffered asks of a pipeline. Every
/// started item holds a task in flight on a one-worker HostPool for 20 ms,
/// so an executor that skipped waiting an item out would see it unfinished.
struct FakeRing {
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

  explicit FakeRing(std::size_t n) : done(n) {}

  std::vector<std::string> calls;
  std::vector<std::atomic<bool>> done;
  int in_flight = 0;
  int max_in_flight = 0;
  std::size_t throw_start_at = kNever;  ///< start(i) throws "start i"
  std::size_t throw_finish_at = kNever; ///< finish(i) throws "finish i"
  std::size_t throw_task_at = kNever;   ///< item i's task throws "task i"
  HostPool pool{1}; ///< last member: drains before the state it touches dies

  void run() {
    runtime::run_double_buffered(
        done.size(),
        [this](std::size_t i, unsigned bank) {
          calls.push_back("start " + std::to_string(i) + "@" +
                          std::to_string(bank));
          if (i == throw_start_at) {
            throw UsageError("start " + std::to_string(i));
          }
          max_in_flight = std::max(max_in_flight, ++in_flight);
          FakeItem p;
          p.item = i;
          p.task = pool.submit([this, i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            done[i] = true;
            if (i == throw_task_at) {
              throw UsageError("task " + std::to_string(i));
            }
          });
          return p;
        },
        [this](FakeItem&& p) {
          calls.push_back("finish " + std::to_string(p.item));
          p.wait();
          --in_flight;
          if (p.item == throw_finish_at) {
            throw UsageError("finish " + std::to_string(p.item));
          }
        });
  }
};

TEST(DoubleBufferExecutor, AlternatesBanksAndFinishesInItemOrder) {
  FakeRing ring(5);
  ring.run();
  // Item i on bank i%2; item i-2 finishes before item i starts.
  const std::vector<std::string> expected = {
      "start 0@0", "start 1@1", "finish 0", "start 2@0", "finish 1",
      "start 3@1", "finish 2", "start 4@0", "finish 3", "finish 4"};
  EXPECT_EQ(ring.calls, expected);
  EXPECT_EQ(ring.max_in_flight, 2);
  EXPECT_EQ(ring.in_flight, 0);
  for (const auto& d : ring.done) {
    EXPECT_TRUE(d.load());
  }
}

TEST(DoubleBufferExecutor, ZeroItemsCallNothingOneItemStartsThenFinishes) {
  FakeRing none(0);
  none.run();
  EXPECT_TRUE(none.calls.empty());

  FakeRing one(1);
  one.run();
  EXPECT_EQ(one.calls, (std::vector<std::string>{"start 0@0", "finish 0"}));
  EXPECT_TRUE(one.done[0].load());
}

TEST(DoubleBufferExecutor, StartThrowWaitsOutTheInFlightItem) {
  FakeRing ring(4);
  ring.throw_start_at = 2;
  try {
    ring.run();
    FAIL() << "start(2) did not propagate";
  } catch (const UsageError& e) {
    // Item 1 was in flight on the other bank: it completed before the
    // exception reached the caller, and nothing started after the throw.
    EXPECT_TRUE(ring.done[1].load());
    EXPECT_STREQ(e.what(), "start 2");
  }
  EXPECT_EQ(ring.calls, (std::vector<std::string>{"start 0@0", "start 1@1",
                                                  "finish 0", "start 2@0"}));
  EXPECT_FALSE(ring.done[3].load());
}

TEST(DoubleBufferExecutor, FinishThrowWaitsOutTheOtherSlotFirstErrorWins) {
  FakeRing ring(4);
  ring.throw_finish_at = 1;
  ring.throw_task_at = 2; // fails while it is waited out: swallowed
  try {
    ring.run();
    FAIL() << "finish(1) did not propagate";
  } catch (const UsageError& e) {
    EXPECT_TRUE(ring.done[2].load());
    EXPECT_STREQ(e.what(), "finish 1");
  }
  EXPECT_EQ(ring.calls,
            (std::vector<std::string>{"start 0@0", "start 1@1", "finish 0",
                                      "start 2@0", "finish 1"}));
}

// ---- async <-> sync parity -------------------------------------------------

/// Executor tests run under both simulators: pipelined execution must be
/// bit-exact with the synchronous path whether the kernels run through
/// the tasklet interpreter or the fast analytic executor.
class PipelineBothSims : public ::testing::TestWithParam<SimMode> {
protected:
  void SetUp() override { set_default_sim_mode(GetParam()); }
  void TearDown() override { set_default_sim_mode(SimMode::Interp); }
};

INSTANTIATE_TEST_SUITE_P(SimModes, PipelineBothSims,
                         ::testing::Values(SimMode::Interp, SimMode::Fast),
                         [](const auto& info) {
                           return std::string(sim_mode_name(info.param));
                         });

std::vector<std::vector<std::int16_t>> yolo_frames(int n, int h, int w) {
  std::vector<std::vector<std::int16_t>> frames;
  for (int i = 0; i < n; ++i) {
    frames.push_back(
        yolo::make_synthetic_image(3, h, w, 5, 100 + static_cast<unsigned>(i)));
  }
  return frames;
}

TEST_P(PipelineBothSims, YoloPipelinedMatchesSyncBitExactly) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  yolo::YoloRunner runner(defs, w, 3, 64, 64);
  const auto frames = yolo_frames(4, 64, 64);

  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  opts.n_tasklets = 8;

  std::vector<yolo::YoloRunResult> sync;
  for (const auto& f : frames) {
    sync.push_back(runner.run(f, opts));
  }

  const auto piped = runner.run_pipelined(frames, opts);
  ASSERT_EQ(piped.frames.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(piped.frames[i].outputs, sync[i].outputs) << "frame " << i;
  }
  EXPECT_EQ(piped.pipeline.items, frames.size());
  EXPECT_GT(piped.pipeline.serial_seconds, 0.0);
  EXPECT_GE(piped.pipeline.serial_seconds,
            piped.pipeline.makespan_seconds - 1e-12);
  // Consecutive frames' DPU phases overlapped on the two banks.
  EXPECT_GT(piped.pipeline.speedup(), 1.0);
}

TEST_P(PipelineBothSims, YoloPipelinedRejectsCpuModeAndBadFrames) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  yolo::YoloRunner runner(defs, w, 3, 64, 64);
  const auto frames = yolo_frames(2, 64, 64);

  yolo::RunOptions cpu;
  cpu.mode = yolo::ExecMode::Cpu;
  EXPECT_THROW(runner.run_pipelined(frames, cpu), UsageError);

  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  auto bad = frames;
  bad[1].pop_back();
  EXPECT_THROW(runner.run_pipelined(bad, opts), UsageError);
  EXPECT_TRUE(runner.run_pipelined({}, opts).frames.empty());
}

std::vector<std::vector<ebnn::Image>> ebnn_batches(std::size_t n_batches,
                                                   std::size_t per_batch) {
  const auto images = ebnn::images_only(
      ebnn::make_synthetic_mnist(n_batches * per_batch, 11));
  std::vector<std::vector<ebnn::Image>> batches(n_batches);
  for (std::size_t b = 0; b < n_batches; ++b) {
    batches[b].assign(images.begin() + b * per_batch,
                      images.begin() + (b + 1) * per_batch);
  }
  return batches;
}

TEST_P(PipelineBothSims, EbnnPipelinedMatchesSyncBitExactly) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3, 16);

  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
  std::vector<ebnn::EbnnBatchResult> sync;
  for (const auto& b : batches) {
    sync.push_back(host.run(b, 16));
  }

  const auto piped = host.run_pipelined(batches, 16);
  ASSERT_EQ(piped.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(piped.batches[i].predicted, sync[i].predicted) << i;
    EXPECT_EQ(piped.batches[i].features, sync[i].features) << i;
  }
  EXPECT_EQ(piped.pipeline.items, batches.size());
  EXPECT_GT(piped.pipeline.speedup(), 1.0);
}

TEST_P(PipelineBothSims, DeepEbnnPipelinedMatchesSyncBitExactly) {
  ebnn::DeepEbnnConfig cfg;
  const auto weights = ebnn::DeepEbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3, 8);

  ebnn::DeepEbnnHost host(cfg, weights);
  std::vector<ebnn::DeepEbnnBatchResult> sync;
  for (const auto& b : batches) {
    sync.push_back(host.run(b));
  }

  const auto piped = host.run_pipelined(batches);
  ASSERT_EQ(piped.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(piped.batches[i].predicted, sync[i].predicted) << i;
    EXPECT_EQ(piped.batches[i].features, sync[i].features) << i;
  }
  EXPECT_GT(piped.pipeline.speedup(), 1.0);
}

TEST_P(PipelineBothSims, OffloaderPipelinedMatchesSyncBitExactly) {
  core::WorkloadSpec spec;
  spec.name = "scale";
  spec.item_in_bytes = 32;
  spec.item_out_bytes = 32;
  spec.items_per_dpu = 4;
  spec.consts = {5};
  core::Offloader off(spec, [](core::ItemCtx& ic) {
    for (MemSize i = 0; i < 32; ++i) {
      const std::int32_t v = ic.input[i];
      ic.output[i] = static_cast<std::uint8_t>(
          ic.ctx.add(ic.ctx.mul(v, 2, 8), ic.consts[0]));
    }
    ic.ctx.charge_loop(32);
  });

  std::vector<std::vector<std::vector<std::uint8_t>>> batches(3);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batches[b].resize(10);
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      batches[b][i].resize(32);
      for (std::size_t j = 0; j < 32; ++j) {
        batches[b][i][j] = static_cast<std::uint8_t>(b * 31 + i * 3 + j);
      }
    }
  }

  std::vector<core::OffloadResult> sync;
  for (const auto& b : batches) {
    sync.push_back(off.run(b, 4));
  }

  const auto piped = off.run_pipelined(batches, 4);
  ASSERT_EQ(piped.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(piped.batches[i].outputs, sync[i].outputs) << i;
    EXPECT_EQ(piped.batches[i].dpus_used, sync[i].dpus_used) << i;
  }
  EXPECT_EQ(piped.pipeline.items, batches.size());
  EXPECT_GT(piped.pipeline.speedup(), 1.0);
}

// ---- fault parity ----------------------------------------------------------

/// Pipelined runs under deterministic fault injection must self-heal to
/// the same bits as clean synchronous runs — in both simulators.
class PipelineFaultBothSims : public ::testing::TestWithParam<SimMode> {
protected:
  void SetUp() override {
    sim::set_fault_config(sim::FaultConfig{});
    obs::Metrics::instance().reset();
    set_default_sim_mode(GetParam());
  }
  void TearDown() override {
    sim::set_fault_config(sim::FaultConfig{});
    obs::Metrics::instance().reset();
    set_default_sim_mode(SimMode::Interp);
  }
};

INSTANTIATE_TEST_SUITE_P(SimModes, PipelineFaultBothSims,
                         ::testing::Values(SimMode::Interp, SimMode::Fast),
                         [](const auto& info) {
                           return std::string(sim_mode_name(info.param));
                         });

TEST_P(PipelineFaultBothSims, PipelinedRunsSurviveFaultsBitExactly) {
  const auto defs = yolo::yolov3_lite_config(1, 1);
  const auto w = yolo::YoloWeights::random(defs, 3, 77);
  const auto frames = yolo_frames(3, 64, 64);
  yolo::RunOptions opts;
  opts.mode = yolo::ExecMode::DpuWram;
  opts.n_tasklets = 8;

  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3, 16);

  // Clean synchronous baselines (fresh executors: cold pools).
  std::vector<std::vector<std::vector<std::int16_t>>> clean_yolo;
  {
    yolo::YoloRunner runner(defs, w, 3, 64, 64);
    for (const auto& f : frames) {
      clean_yolo.push_back(runner.run(f, opts).outputs);
    }
  }
  std::vector<std::vector<int>> clean_pred;
  {
    ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
    for (const auto& b : batches) {
      clean_pred.push_back(host.run(b, 16).predicted);
    }
  }

  sim::FaultConfig fcfg;
  fcfg.seed = 42;
  fcfg.launch_fail_rate = 0.05;
  fcfg.transfer_corrupt_rate = 0.01;
  sim::set_fault_config(fcfg);

  {
    yolo::YoloRunner runner(defs, w, 3, 64, 64);
    const auto piped = runner.run_pipelined(frames, opts);
    ASSERT_EQ(piped.frames.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(piped.frames[i].outputs, clean_yolo[i]) << "frame " << i;
    }
  }
  {
    ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);
    const auto piped = host.run_pipelined(batches, 16);
    ASSERT_EQ(piped.batches.size(), batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
      EXPECT_EQ(piped.batches[i].predicted, clean_pred[i]) << i;
    }
  }
  EXPECT_GT(obs::Metrics::instance().counter("faults.injected"), 0u);
}

// ---- exceptions in the middle of a ring ------------------------------------

runtime::UpmemConfig system_of(std::uint32_t total_dpus) {
  runtime::UpmemConfig cfg = sim::default_config();
  cfg.total_dpus = total_dpus;
  return cfg;
}

/// Runs `fn`, expecting the CapacityError of a `want`-DPU allocation.
template <class Fn>
void expect_capacity_error(Fn&& fn, std::uint32_t want) {
  try {
    fn();
    ADD_FAILURE() << "no CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_NE(std::string(e.what()).find("requested " + std::to_string(want) +
                                         " DPUs"),
              std::string::npos)
        << e.what();
  }
}

TEST_P(PipelineBothSims, GemmSplitThrowWaitsOutTheInFlightSubLaunch) {
  // Sub-launch 0 (32 DPUs) runs on the full-size even bank; sub-launch 1
  // cannot even open its session on the 8-DPU odd bank. The CapacityError
  // must not unwind past the in-flight launch, whose session it would free.
  runtime::DpuPool even(sim::default_config());
  runtime::DpuPool odd(system_of(8));
  const int m = 64;
  const int n = 64;
  const int k = 64;
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int16_t>(static_cast<int>(i * 37 % 61) - 30);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::int16_t>(static_cast<int>(i * 53 % 47) - 23);
  }
  map::MappingPlan plan = yolo::plan_gemm_mapping(
      m, n, k, yolo::GemmVariant::WramTiled, runtime::OptLevel::O3, 11, 1);
  plan.split = 2;
  expect_capacity_error(
      [&] {
        yolo::dpu_gemm_split(even, odd, m, n, k, 1, a, b,
                             yolo::GemmVariant::WramTiled, plan);
      },
      32);

  // The even bank is intact: a clean unsplit GEMM still matches the
  // fixed-point reference.
  const yolo::GemmResult r =
      yolo::dpu_gemm_pooled(even, m, n, k, 1, a, b,
                            yolo::GemmVariant::WramTiled, 11,
                            runtime::OptLevel::O3, 1);
  std::vector<std::int16_t> ref(static_cast<std::size_t>(m) * n);
  nn::gemm_q16_reference(m, n, k, 1, a, b, ref);
  EXPECT_EQ(r.c, ref);
}

// Batch 0 fits the 4-DPU system; batch 1 needs more DPUs than exist and
// throws CapacityError while batch 0 is in flight. The host then runs a
// clean pipeline that is bit-identical to run().

TEST_P(PipelineBothSims, EbnnMidRingThrowLeavesHostReusable) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut, system_of(4));
  const auto ok = ebnn_batches(2, 16);                 // one DPU each
  const auto too_big = ebnn_batches(1, 12 * 16).front();
  expect_capacity_error([&] { host.run_pipelined({ok[0], too_big}, 16); },
                        12);

  const auto piped = host.run_pipelined(ok, 16);
  ASSERT_EQ(piped.batches.size(), ok.size());
  for (std::size_t i = 0; i < ok.size(); ++i) {
    const auto sync = host.run(ok[i], 16);
    EXPECT_EQ(piped.batches[i].predicted, sync.predicted) << i;
    EXPECT_EQ(piped.batches[i].features, sync.features) << i;
  }
}

TEST_P(PipelineBothSims, DeepEbnnMidRingThrowLeavesHostReusable) {
  ebnn::DeepEbnnConfig cfg;
  const auto weights = ebnn::DeepEbnnWeights::random(cfg, 42);
  ebnn::DeepEbnnHost host(cfg, weights, system_of(4));
  const std::uint32_t per_dpu = host.images_per_dpu();
  const auto ok = ebnn_batches(2, per_dpu);
  const auto too_big = ebnn_batches(1, 12 * per_dpu).front();
  expect_capacity_error(
      [&] { host.run_pipelined({ok[0], too_big}, per_dpu); }, 12);

  const auto piped = host.run_pipelined(ok, per_dpu);
  ASSERT_EQ(piped.batches.size(), ok.size());
  for (std::size_t i = 0; i < ok.size(); ++i) {
    const auto sync = host.run(ok[i], per_dpu);
    EXPECT_EQ(piped.batches[i].predicted, sync.predicted) << i;
    EXPECT_EQ(piped.batches[i].features, sync.features) << i;
  }
}

TEST_P(PipelineBothSims, OffloaderMidRingThrowLeavesHostReusable) {
  core::WorkloadSpec spec;
  spec.name = "scale";
  spec.item_in_bytes = 32;
  spec.item_out_bytes = 32;
  spec.items_per_dpu = 4;
  spec.consts = {5};
  core::Offloader off(
      spec,
      [](core::ItemCtx& ic) {
        for (MemSize i = 0; i < 32; ++i) {
          const std::int32_t v = ic.input[i];
          ic.output[i] = static_cast<std::uint8_t>(
              ic.ctx.add(ic.ctx.mul(v, 2, 8), ic.consts[0]));
        }
        ic.ctx.charge_loop(32);
      },
      system_of(4));
  const auto items = [](std::size_t n, std::size_t seed) {
    std::vector<std::vector<std::uint8_t>> out(
        n, std::vector<std::uint8_t>(32));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 32; ++j) {
        out[i][j] = static_cast<std::uint8_t>(seed * 31 + i * 3 + j);
      }
    }
    return out;
  };
  const std::vector<std::vector<std::vector<std::uint8_t>>> ok = {
      items(10, 0), items(7, 1)};
  expect_capacity_error([&] { off.run_pipelined({ok[0], items(40, 2)}, 4); },
                        10);

  const auto piped = off.run_pipelined(ok, 4);
  ASSERT_EQ(piped.batches.size(), ok.size());
  for (std::size_t i = 0; i < ok.size(); ++i) {
    EXPECT_EQ(piped.batches[i].outputs, off.run(ok[i], 4).outputs) << i;
  }
}

// ---- steady-state invariants -----------------------------------------------

TEST_P(PipelineBothSims, WarmLaunchesCreateNoThreadsAndMissNoArenaBuffers) {
  const ebnn::EbnnConfig cfg;
  const auto weights = ebnn::EbnnWeights::random(cfg, 42);
  const auto batches = ebnn_batches(3, 16);
  ebnn::EbnnHost host(cfg, weights, ebnn::BnMode::HostLut);

  // Two warm-up batches let every staging-buffer capacity reach its fixed
  // point (the arena's free list only ever grows capacities).
  host.run(batches[0], 16);
  host.run(batches[1], 16);

  obs::Metrics::instance().reset();
  host.run(batches[2], 16);
  auto& m = obs::Metrics::instance();
  // Warm launches ride the process-lifetime HostPool: zero threads spawned.
  EXPECT_EQ(m.counter("hostpool.threads_created"), 0u);
  // Every staging buffer came from the arena's free list.
  EXPECT_EQ(m.counter("pool.arena.miss"), 0u);
  EXPECT_GT(m.counter("pool.arena.hit"), 0u);
  obs::Metrics::instance().reset();
}

} // namespace
} // namespace pimdnn
