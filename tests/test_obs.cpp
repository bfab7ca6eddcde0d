// pimdnn::obs tests: the disabled tracer must be a strict no-op, enabled
// spans must nest and export valid Chrome-trace JSON, the metrics registry
// must aggregate counters/histograms/signature summaries, and a real
// KernelSession offload must feed the residency hit/miss counters the
// cold/warm analysis relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/dpu_pool.hpp"
#include "runtime/kernel_session.hpp"

namespace pimdnn {
namespace {

using obs::Metrics;
using obs::Span;
using obs::TraceEvent;
using obs::Tracer;
using runtime::DpuPool;
using runtime::KernelSession;
using sim::MemKind;
using sim::TaskletCtx;

/// RAII guard: every test leaves the process-wide tracer/metrics clean.
struct ObsReset {
  ObsReset() { clear(); }
  ~ObsReset() { clear(); }
  static void clear() {
    Tracer::instance().disable();
    Metrics::instance().reset();
  }
};

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// ---- tracer ----------------------------------------------------------------

TEST(Trace, DisabledSpanIsNoOp) {
  ObsReset guard;
  ASSERT_FALSE(Tracer::enabled());
  Span sp("nothing", "test");
  EXPECT_FALSE(sp.active());
  sp.u64("ignored", 1);
  sp.end();
  // Nothing was buffered: a later enable starts from an empty event list.
  Tracer::instance().enable(temp_path("noop.json"));
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
}

TEST(Trace, SpanNestingAndOrdering) {
  ObsReset guard;
  Tracer::instance().enable(temp_path("nest.json"));
  {
    Span outer("outer", "test");
    ASSERT_TRUE(outer.active());
    outer.u64("depth", 0);
    {
      Span inner("inner", "test");
      inner.u64("depth", 1);
    }
  }
  const std::vector<TraceEvent> evs = Tracer::instance().snapshot();
  ASSERT_EQ(evs.size(), 2u);
  // Complete events are recorded at end time: inner closes first.
  EXPECT_EQ(evs[0].name, "inner");
  EXPECT_EQ(evs[1].name, "outer");
  // Same thread, and the outer span's [ts, ts+dur) contains the inner's.
  EXPECT_EQ(evs[0].tid, evs[1].tid);
  EXPECT_LE(evs[1].ts_us, evs[0].ts_us);
  EXPECT_GE(evs[1].ts_us + evs[1].dur_us, evs[0].ts_us + evs[0].dur_us);
  EXPECT_GE(evs[0].dur_us, 0.0);
}

TEST(Trace, ChromeExportIsWellFormed) {
  ObsReset guard;
  const std::string path = temp_path("chrome.json");
  Tracer::instance().enable(path);
  {
    Span sp("kernel", "test");
    sp.u64("cycles", 12345);
    sp.str("bound", "dma\"quoted\"");
    sp.f64("ratio", 1.5);
    sp.flag("warm", true);
  }
  Tracer::instance().flush();

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string json = buf.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":12345"), std::string::npos);
  // The quote inside the string arg must be escaped.
  EXPECT_NE(json.find("dma\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"warm\":true"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, JsonlStreamsOneObjectPerSpan) {
  ObsReset guard;
  const std::string path = temp_path("stream.jsonl");
  Tracer::instance().enable_jsonl(path);
  { Span a("first", "test"); }
  { Span b("second", "test"); }
  Tracer::instance().disable(); // closes the stream

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"second\""), std::string::npos);
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  std::remove(path.c_str());
}

// ---- metrics ---------------------------------------------------------------

TEST(MetricsTest, CountersAccumulate) {
  ObsReset guard;
  auto& m = Metrics::instance();
  EXPECT_EQ(m.counter("test.hits"), 0u);
  m.add("test.hits");
  m.add("test.hits", 4);
  m.add("test.other", 2);
  EXPECT_EQ(m.counter("test.hits"), 5u);
  EXPECT_EQ(m.counter("test.other"), 2u);
  EXPECT_EQ(m.counter("test.absent"), 0u);
}

TEST(MetricsTest, HistogramPercentileAggregation) {
  ObsReset guard;
  auto& m = Metrics::instance();
  for (int i = 1; i <= 100; ++i) {
    m.record("test.lat", static_cast<double>(i));
  }
  const RunningStats h = m.histogram("test.lat");
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // DDSketch-style buckets: within ~2% relative error of the true rank.
  EXPECT_NEAR(h.p50(), 50.0, 50.0 * 0.03);
  EXPECT_NEAR(h.p95(), 95.0, 95.0 * 0.03);
  EXPECT_NEAR(h.p99(), 99.0, 99.0 * 0.03);
  EXPECT_EQ(m.histogram("test.absent").count(), 0u);
}

TEST(MetricsTest, PerSignatureSummaryContents) {
  ObsReset guard;
  auto& m = Metrics::instance();
  obs::OffloadSample cold;
  cold.wall_cycles = 1000;
  cold.host_seconds = 0.5;
  cold.bytes_to_dpu = 4096;
  cold.bytes_from_dpu = 128;
  cold.program_loads = 1;
  cold.resident_misses = 1;
  cold.const_misses = 1;
  m.record_offload("sig/a", cold);

  obs::OffloadSample warm = cold;
  warm.wall_cycles = 900;
  warm.host_seconds = 0.1;
  warm.bytes_to_dpu = 512;
  warm.program_loads = 0;
  warm.cached_activations = 1;
  warm.resident_hits = 1;
  warm.resident_misses = 0;
  warm.const_hits = 1;
  warm.const_misses = 0;
  m.record_offload("sig/a", warm);
  m.record_offload("sig/b", cold);

  const auto sigs = m.signatures();
  ASSERT_EQ(sigs.size(), 2u);
  const auto& a = sigs.at("sig/a");
  EXPECT_EQ(a.launches, 2u);
  EXPECT_EQ(a.cycles.count(), 2u);
  EXPECT_DOUBLE_EQ(a.cycles.min(), 900.0);
  EXPECT_DOUBLE_EQ(a.cycles.max(), 1000.0);
  EXPECT_DOUBLE_EQ(a.host_seconds, 0.6);
  EXPECT_EQ(a.bytes_to_dpu, 4608u);
  EXPECT_EQ(a.bytes_from_dpu, 256u);
  EXPECT_EQ(a.program_loads, 1u);
  EXPECT_EQ(a.cached_activations, 1u);
  EXPECT_EQ(a.resident_hits, 1u);
  EXPECT_EQ(a.resident_misses, 1u);
  EXPECT_EQ(a.const_hits, 1u);
  EXPECT_EQ(a.const_misses, 1u);
  EXPECT_EQ(sigs.at("sig/b").launches, 1u);

  // Both renderers cover every signature.
  std::ostringstream text;
  obs::print_summary(text);
  EXPECT_NE(text.str().find("sig/a"), std::string::npos);
  EXPECT_NE(text.str().find("sig/b"), std::string::npos);
  std::ostringstream json;
  obs::write_summary_json(json);
  EXPECT_NE(json.str().find("\"signature\":\"sig/a\""), std::string::npos);
  EXPECT_NE(json.str().find("\"launches\":2"), std::string::npos);
}

// ---- end-to-end through a real KernelSession offload ------------------------

constexpr std::uint32_t kPerDpu = 2;

/// out[i] = in[i] + consts[0] (same echo kernel as test_session.cpp).
sim::DpuProgram echo_program() {
  sim::DpuProgram p;
  p.name = "echo";
  p.symbols = {{"meta", MemKind::Wram, 8},
               {"consts", MemKind::Wram, 8},
               {"buf", MemKind::Wram, 16 * 8},
               {"in_mram", MemKind::Mram, kPerDpu * 8},
               {"out_mram", MemKind::Mram, kPerDpu * 8}};
  p.phases = {[](TaskletCtx& ctx) {
    auto meta = ctx.wram_span<std::uint64_t>("meta");
    auto consts = ctx.wram_span<std::uint64_t>("consts");
    auto buf = ctx.wram_span<std::uint64_t>("buf");
    const std::uint64_t n = meta[0];
    std::uint64_t* slot = buf.data() + ctx.id();
    const MemSize in = ctx.mram_addr("in_mram");
    const MemSize out = ctx.mram_addr("out_mram");
    for (std::uint64_t i = ctx.id(); i < n; i += ctx.n_tasklets()) {
      ctx.mram_read(slot, in + i * 8, 8);
      ctx.charge_alu(1);
      *slot += consts[0];
      ctx.mram_write(out + i * 8, slot, 8);
    }
  }};
  return p;
}

/// One echo offload using the resident-scatter path for the input payload.
void echo_resident(DpuPool& pool, std::uint64_t payload_version) {
  KernelSession s(pool, "echo", 1, echo_program);
  const std::uint64_t add = 1;
  s.broadcast_const("consts", &add, sizeof(add));
  const std::vector<std::uint64_t> data{10, 20};
  s.scatter_resident("payload", payload_version, "in_mram", kPerDpu * 8,
                     [&](std::uint32_t, std::uint8_t* slot) {
                       std::memcpy(slot, data.data(), data.size() * 8);
                     });
  const std::uint64_t n = kPerDpu;
  s.broadcast("meta", &n, sizeof(n));
  s.launch(2);
  s.gather_items("out_mram", kPerDpu, kPerDpu, 8,
                 [](std::size_t, const std::uint8_t*) {});
  s.finish();
}

TEST(ObsEndToEnd, ColdWarmResidencyCountersThroughSession) {
  ObsReset guard;
  auto& m = Metrics::instance();
  DpuPool pool;

  // Cold: fresh activation, payload scattered, constant broadcast.
  echo_resident(pool, 1);
  EXPECT_EQ(m.counter("pool.activate.fresh"), 1u);
  EXPECT_EQ(m.counter("pool.resident.hit"), 0u);
  EXPECT_EQ(m.counter("pool.resident.miss"), 1u);

  // Warm x2: active program, payload still MRAM-resident.
  echo_resident(pool, 1);
  echo_resident(pool, 1);
  EXPECT_EQ(m.counter("pool.activate.active"), 2u);
  EXPECT_EQ(m.counter("pool.resident.hit"), 2u);
  EXPECT_EQ(m.counter("pool.resident.miss"), 1u);

  // Version bump: re-upload, counted as a miss.
  echo_resident(pool, 2);
  EXPECT_EQ(m.counter("pool.resident.hit"), 2u);
  EXPECT_EQ(m.counter("pool.resident.miss"), 2u);

  // The per-signature summary saw all four offloads with matching
  // hit/miss tallies and real transfer accounting.
  const auto sigs = m.signatures();
  ASSERT_EQ(sigs.count("echo"), 1u);
  const auto& e = sigs.at("echo");
  EXPECT_EQ(e.launches, 4u);
  EXPECT_EQ(e.resident_hits, 2u);
  EXPECT_EQ(e.resident_misses, 2u);
  EXPECT_EQ(e.const_hits, 3u);  // broadcast_const skipped on warm runs
  EXPECT_EQ(e.const_misses, 1u);
  EXPECT_EQ(e.program_loads, 1u);
  EXPECT_EQ(e.cached_activations, 3u);
  EXPECT_EQ(e.cycles.count(), 4u);
  EXPECT_GT(e.cycles.min(), 0.0);
  EXPECT_GT(e.bytes_to_dpu, 0u);
  EXPECT_GT(e.bytes_from_dpu, 0u);
  EXPECT_GT(e.host_seconds, 0.0);
}

TEST(ObsEndToEnd, SessionSpansCarryLaunchAttributes) {
  ObsReset guard;
  Tracer::instance().enable(temp_path("session.json"));
  DpuPool pool;
  echo_resident(pool, 1);
  Tracer::instance().disable();

  const auto evs = Tracer::instance().snapshot();
  auto find = [&](const char* name) -> const TraceEvent* {
    for (const auto& e : evs) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  ASSERT_NE(find("offload"), nullptr);
  ASSERT_NE(find("activate"), nullptr);
  ASSERT_NE(find("scatter"), nullptr);
  ASSERT_NE(find("launch"), nullptr);
  ASSERT_NE(find("gather"), nullptr);
  ASSERT_NE(find("dpu.launch"), nullptr);

  auto arg = [](const TraceEvent* e, const char* key) -> std::string {
    for (const auto& [k, v] : e->args) {
      if (k == key) return v;
    }
    return "";
  };
  const TraceEvent* launch = find("launch");
  EXPECT_EQ(arg(launch, "signature"), "\"echo\"");
  EXPECT_NE(arg(launch, "cycles"), "");
  EXPECT_NE(arg(launch, "bound"), "");
  const TraceEvent* dpu = find("dpu.launch");
  EXPECT_NE(arg(dpu, "cycles"), "");
  EXPECT_NE(arg(dpu, "bound"), "");
  EXPECT_NE(arg(dpu, "imbalance"), "");
  // The offload root span contains the launch span in time.
  const TraceEvent* root = find("offload");
  EXPECT_LE(root->ts_us, launch->ts_us);
  EXPECT_GE(root->ts_us + root->dur_us, launch->ts_us + launch->dur_us);
}

} // namespace
} // namespace pimdnn
