// Tests for trace spans and the observability exporters: span nesting and
// parent links, Chrome trace JSON, telemetry snapshot JSON/CSV, and the
// bench report schema — all round-tripped through the bundled JSON parser.

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bench_report.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace gp {
namespace {

using json::JsonValue;

class TraceExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Telemetry().Reset();
    ClearTraceEvents();
    SetTracingEnabled(false);
  }
  void TearDown() override {
    SetTracingEnabled(false);
    ClearTraceEvents();
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
};

TEST_F(TraceExportTest, SpanCountersAggregateWithoutTracing) {
  ASSERT_FALSE(TracingEnabled());
  { GP_TRACE_SPAN("export_test/stage"); }
  EXPECT_EQ(Telemetry().Snapshot().CounterValue(
                "span/export_test/stage/count"),
            1);
  // No events recorded while tracing is off.
  EXPECT_TRUE(CollectTraceEvents().empty());
}

TEST_F(TraceExportTest, NestedSpansRecordParentLinks) {
  SetTracingEnabled(true);
  {
    GP_TRACE_SPAN("export_test/outer");
    GP_TRACE_SPAN("export_test/inner");
  }
  const std::vector<TraceEvent> events = CollectTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opens first.
  EXPECT_STREQ(events[0].name, "export_test/outer");
  EXPECT_STREQ(events[1].name, "export_test/inner");
  EXPECT_EQ(events[0].parent_id, 0u);
  EXPECT_EQ(events[1].parent_id, events[0].id);
  EXPECT_GE(events[0].dur_us, events[1].dur_us);

  ClearTraceEvents();
  EXPECT_TRUE(CollectTraceEvents().empty());
}

// Nested spans on two threads: every exported event is a complete event
// with a string name, numeric start and duration, and its thread's id.
TEST_F(TraceExportTest, ChromeTraceJsonParses) {
  SetTracingEnabled(true);
  auto nested = [] {
    GP_TRACE_SPAN("export_test/chrome_outer");
    GP_TRACE_SPAN("export_test/chrome_inner");
  };
  nested();
  std::thread(nested).join();
  const auto root_or = json::ParseJson(ChromeTraceToJson());
  ASSERT_TRUE(root_or.ok()) << root_or.status().ToString();
  const JsonValue* events = root_or->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  ASSERT_EQ(events->elements.size(), 4u);
  std::set<double> tids;
  std::map<std::string, int> names;
  for (const JsonValue& event : events->elements) {
    const JsonValue* name = event.Find("name");
    const JsonValue* ph = event.Find("ph");
    const JsonValue* ts = event.Find("ts");
    const JsonValue* dur = event.Find("dur");
    const JsonValue* tid = event.Find("tid");
    ASSERT_TRUE(name != nullptr && name->IsString());
    ASSERT_TRUE(ph != nullptr && ph->IsString());
    ASSERT_TRUE(ts != nullptr && ts->IsNumber());
    ASSERT_TRUE(dur != nullptr && dur->IsNumber());
    ASSERT_TRUE(tid != nullptr && tid->IsNumber());
    EXPECT_EQ(ph->string_value, "X");
    EXPECT_GE(dur->number_value, 0.0);
    ++names[name->string_value];
    tids.insert(tid->number_value);
  }
  EXPECT_EQ(names["export_test/chrome_outer"], 2);
  EXPECT_EQ(names["export_test/chrome_inner"], 2);
  EXPECT_EQ(tids.size(), 2u);
}

TEST_F(TraceExportTest, TelemetrySnapshotJsonSchema) {
  Telemetry().GetCounter("export_test/count")->Add(7);
  Telemetry().GetGauge("export_test/gauge")->Set(1.5);
  Telemetry().GetHistogram("export_test/hist", {1.0, 2.0})->Observe(1.5);
  { GP_TRACE_SPAN("export_test/span"); }

  const auto root_or =
      json::ParseJson(TelemetrySnapshotToJson(Telemetry().Snapshot()));
  ASSERT_TRUE(root_or.ok()) << root_or.status().ToString();
  const JsonValue& root = *root_or;
  EXPECT_EQ(root.Find("kind")->string_value, "telemetry");
  EXPECT_TRUE(root.Find("schema_version")->IsNumber());

  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* count = counters->Find("export_test/count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number_value, 7.0);

  const JsonValue* gauges = root.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("export_test/gauge")->number_value, 1.5);

  // Metric registration is permanent (Reset only zeroes values), so other
  // tests' entries may coexist — look ours up by name.
  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_TRUE(histograms->IsArray());
  bool hist_found = false;
  for (const JsonValue& h : histograms->elements) {
    if (h.Find("name")->string_value == "export_test/hist") {
      hist_found = true;
      EXPECT_EQ(h.Find("count")->number_value, 1.0);
    }
  }
  EXPECT_TRUE(hist_found);

  const JsonValue* spans = root.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->IsArray());
  bool span_found = false;
  for (const JsonValue& s : spans->elements) {
    if (s.Find("name")->string_value == "export_test/span") {
      span_found = true;
      EXPECT_EQ(s.Find("count")->number_value, 1.0);
    }
  }
  EXPECT_TRUE(span_found);
}

TEST_F(TraceExportTest, WriteTelemetryFiles) {
  Telemetry().GetCounter("export_test/file")->Add(3);
  const std::string json_path = testing::TempDir() + "/telemetry.json";
  const std::string csv_path = testing::TempDir() + "/telemetry.csv";
  const TelemetrySnapshot snap = Telemetry().Snapshot();
  ASSERT_TRUE(WriteTelemetryJson(snap, json_path).ok());
  ASSERT_TRUE(WriteTelemetryCsv(snap, csv_path).ok());

  const auto root_or = json::ParseJson(ReadFile(json_path));
  ASSERT_TRUE(root_or.ok());
  EXPECT_EQ(root_or->Find("counters")->Find("export_test/file")->number_value,
            3.0);

  const std::string csv = ReadFile(csv_path);
  EXPECT_NE(csv.find("counter,export_test/file,3"), std::string::npos) << csv;
}

TEST_F(TraceExportTest, BenchReportSchema) {
  Telemetry().GetCounter("export_test/bench")->Add(1);
  BenchReporter report("unit_test_bench");
  report.AddConfig("scale", 0.5);
  report.AddConfig("seed", static_cast<int64_t>(17));
  report.AddMetric("cell/accuracy", 91.25, "%");

  const auto root_or = json::ParseJson(report.ToJson());
  ASSERT_TRUE(root_or.ok()) << root_or.status().ToString();
  const JsonValue& root = *root_or;
  EXPECT_EQ(root.Find("benchmark")->string_value, "unit_test_bench");

  const JsonValue* config = root.Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->Find("scale")->number_value, 0.5);
  EXPECT_EQ(config->Find("seed")->number_value, 17.0);

  const JsonValue* results = root.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->IsArray());
  ASSERT_EQ(results->elements.size(), 1u);
  EXPECT_EQ(results->elements[0].Find("label")->string_value,
            "cell/accuracy");
  EXPECT_EQ(results->elements[0].Find("value")->number_value, 91.25);
  EXPECT_EQ(results->elements[0].Find("unit")->string_value, "%");

  // The embedded telemetry snapshot: stages + counters from the registry.
  EXPECT_TRUE(root.Find("stages")->IsArray());
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("export_test/bench"), nullptr);

  const std::string outdir = testing::TempDir();
  ASSERT_TRUE(report.WriteJson(outdir).ok());
  const std::string written =
      ReadFile(outdir + "/BENCH_unit_test_bench.json");
  EXPECT_FALSE(written.empty());
  EXPECT_TRUE(json::ParseJson(written).ok());
}

TEST_F(TraceExportTest, ConfiguredExportWritesBothSinks) {
  const std::string telemetry_path =
      testing::TempDir() + "/configured_telemetry.json";
  const std::string trace_path = testing::TempDir() + "/configured_trace.json";
  ConfigureObservability(telemetry_path, trace_path);
  EXPECT_TRUE(TracingEnabled());  // non-empty trace path enables recording

  Telemetry().GetCounter("export_test/configured")->Add(2);
  { GP_TRACE_SPAN("export_test/configured_span"); }
  ASSERT_TRUE(ExportConfiguredObservability().ok());

  const auto telemetry_or = json::ParseJson(ReadFile(telemetry_path));
  ASSERT_TRUE(telemetry_or.ok());
  EXPECT_EQ(telemetry_or->Find("kind")->string_value, "telemetry");

  const auto trace_or = json::ParseJson(ReadFile(trace_path));
  ASSERT_TRUE(trace_or.ok());
  EXPECT_GE(trace_or->Find("traceEvents")->elements.size(), 1u);

  // Unset so later tests/processes are unaffected.
  ConfigureObservability("", "");
}

}  // namespace
}  // namespace gp
