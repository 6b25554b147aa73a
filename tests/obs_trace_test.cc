// Trace-pipeline validity: running an instrumented engine with the
// recorder on must produce Chrome trace-event JSON that (a) parses, (b)
// carries ph/ts/dur/pid/tid on every event, (c) is well-nested per thread
// track, and (d) covers the wave phases; and that a commit's spans show it
// reads the legs its match exported and searches nothing. Also the
// determinism contract of the metrics registry: a 4-worker run must produce
// bit-identical non-timing metrics to a one-worker run at the same wave
// size on the same seed (only "pool/..." and the *_us/*_ms/*_micros
// entries may differ).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "obs/trace.h"
#include "rideshare/baseline_matcher.h"
#include "rideshare/dsa_matcher.h"
#include "rideshare/ssa_matcher.h"
#include "sim/engine.h"
#include "sim/workload.h"

namespace ptar {
namespace {

// --- A minimal JSON reader (objects, arrays, strings, numbers) ---------
// Just enough to validate the trace file; rejects anything malformed.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      value = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(value);
  }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(value);
  }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(value);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(value);
  }
  double number() const { return std::get<double>(value); }
  const std::string& string() const { return std::get<std::string>(value); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole document; fails the test on any syntax error.
  JsonValue Parse() {
    const JsonValue v = ParseValue();
    SkipSpace();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage at byte " << pos_;
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      ADD_FAILURE() << "unexpected end of input";
      return '\0';
    }
    return text_[pos_];
  }

  void Expect(char c) {
    const char got = Peek();
    ASSERT_EQ(got, c) << "at byte " << pos_;
    ++pos_;
  }

  JsonValue ParseValue() {
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return JsonValue{ParseString()};
      case 't':
        pos_ += 4;
        return JsonValue{true};
      case 'f':
        pos_ += 5;
        return JsonValue{false};
      case 'n':
        pos_ += 4;
        return JsonValue{nullptr};
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    auto obj = std::make_shared<JsonObject>();
    Expect('{');
    if (Peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    while (true) {
      const std::string key = ParseString();
      Expect(':');
      (*obj)[key] = ParseValue();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return JsonValue{obj};
    }
  }

  JsonValue ParseArray() {
    auto arr = std::make_shared<JsonArray>();
    Expect('[');
    if (Peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    while (true) {
      arr->push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return JsonValue{arr};
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    Expect('"');
    return out;
  }

  JsonValue ParseNumber() {
    SkipSpace();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    EXPECT_GT(pos_, start) << "expected a number at byte " << start;
    return JsonValue{std::stod(text_.substr(start, pos_ - start))};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- Shared world fixtures ---------------------------------------------

struct World {
  RoadNetwork graph;
  std::unique_ptr<GridIndex> grid;
};

World MakeWorld() {
  World w;
  GridCityOptions copts;
  copts.rows = 12;
  copts.cols = 12;
  copts.seed = 3;
  auto g = MakeGridCity(copts);
  PTAR_CHECK(g.ok());
  w.graph = std::move(g).value();
  auto grid = GridIndex::Build(&w.graph, {.cell_size_meters = 300.0});
  PTAR_CHECK(grid.ok());
  w.grid = std::make_unique<GridIndex>(std::move(grid).value());
  return w;
}

std::vector<Request> MakeRequests(const RoadNetwork& g, std::size_t n) {
  WorkloadOptions opts;
  opts.num_requests = n;
  opts.duration_seconds = 600.0;
  opts.epsilon = 0.5;
  opts.waiting_minutes = 3.0;
  opts.seed = 8;
  auto reqs = GenerateWorkload(g, opts);
  PTAR_CHECK(reqs.ok());
  return std::move(reqs).value();
}

RunStats RunTrio(const World& w, std::span<const Request> requests,
                 int threads, obs::MetricsRegistry* metrics_out) {
  EngineOptions eopts;
  eopts.num_vehicles = 40;
  eopts.seed = 13;
  eopts.engine_threads = threads;
  eopts.wave_size = 4;  // Pinned: the auto value depends on the workers.
  Engine engine(&w.graph, w.grid.get(), eopts);
  RunStats stats = engine.RunPipelined(
      requests, [] { return std::make_unique<BaselineMatcher>(); }, nullptr,
      {[] { return std::make_unique<SsaMatcher>(0.5); },
       [] { return std::make_unique<DsaMatcher>(0.5); }});
  if (metrics_out != nullptr) metrics_out->MergeFrom(engine.metrics());
  return stats;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  PTAR_CHECK(f != nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string TempPath(const char* name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + info->test_suite_name() + "_" +
         info->name() + "_" + name;
}

TEST(TraceRecorderTest, WritesValidWellNestedChromeTrace) {
  World w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(w.graph, 12);

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Start();
  RunTrio(w, requests, /*threads=*/4, nullptr);
  rec.Stop();
  const std::string path = TempPath("trace.json");
  const Status st = rec.WriteJson(path);
  ASSERT_TRUE(st.ok()) << st;

  const std::string text = ReadFile(path);
  JsonParser parser(text);
  const JsonValue doc = parser.Parse();
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.object().contains("traceEvents"));
  const JsonArray& events = doc.object().at("traceEvents").array();
  ASSERT_GT(events.size(), 0u);

  // (b) every event carries the complete-event fields.
  struct Span {
    double ts, dur;
    std::string name;
  };
  std::map<int, std::vector<Span>> by_tid;
  std::set<std::string> names;
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const JsonObject& o = ev.object();
    ASSERT_TRUE(o.contains("name") && o.contains("ph") && o.contains("ts") &&
                o.contains("pid") && o.contains("tid"));
    EXPECT_GE(o.at("ts").number(), 0.0);
    names.insert(o.at("name").string());
    const std::string& ph = o.at("ph").string();
    if (ph == "i") continue;  // instants (queue waits) carry no duration
    ASSERT_EQ(ph, "X");
    ASSERT_TRUE(o.contains("dur"));
    EXPECT_GE(o.at("dur").number(), 0.0);
    by_tid[static_cast<int>(o.at("tid").number())].push_back(
        {o.at("ts").number(), o.at("dur").number(), o.at("name").string()});
  }

  // (d) the phase taxonomy is present: the wave phases, the advance's idle
  // chunks and busy vehicles, one match span per (request, slot) unit, plus
  // matcher-level spans.
  for (const char* phase :
       {"pipeline_wave", "pipeline_advance", "advance_idle", "advance_busy",
        "pipeline_refresh", "pipeline_match_round", "pipeline_match",
        "pipeline_commit", "commit_enumerate", "commit_register"}) {
    EXPECT_TRUE(names.contains(phase)) << phase;
  }
  EXPECT_TRUE(names.contains("verify") || names.contains("expand_cell"));

  // With a 4-thread pool at least two tracks must have recorded.
  EXPECT_GE(by_tid.size(), 2u);

  // (c) spans on one track never partially overlap: for any two spans on
  // the same tid, either they are disjoint or one contains the other.
  // RAII construction guarantees this; the check catches serialization
  // bugs (e.g. wrong ts/dur pairing).
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<Span> stack;
    for (const Span& s : spans) {
      while (!stack.empty() &&
             s.ts >= stack.back().ts + stack.back().dur) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(s.ts + s.dur, stack.back().ts + stack.back().dur)
            << "span " << s.name << " on tid " << tid
            << " partially overlaps " << stack.back().name;
      }
      stack.push_back(s);
    }
  }
}

// A commit reads its legs from the values the committing match exported:
// with the per-commit audit off, no search runs inside a pipeline_commit
// span but the row fills of serial-tail matches (two per match). A fault
// hook on slot 0 — here one that never fails — empties the export, so
// those commits fill their rows on the trusted maintenance oracle, and
// commit the same options.
TEST(TraceRecorderTest, CommitsReadTheMatchLegs) {
  World w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(w.graph, 24);
  struct Run {
    RunStats stats;
    std::vector<CommitRecord> log;
    std::map<std::string, std::size_t> in_commits;  // oracle_p2p / _row
  };
  const auto run = [&](bool hooked) {
    EngineOptions eopts;
    eopts.num_vehicles = 40;
    eopts.seed = 13;
    eopts.engine_threads = 2;
    eopts.wave_size = 4;
    eopts.audit_after_commit = false;
    Engine engine(&w.graph, w.grid.get(), eopts);
    if (hooked) {
      engine.SetFaultHookFactory(
          [](std::size_t slot) -> DistanceOracle::FaultHook {
            if (slot != 0) return nullptr;
            return [](VertexId, VertexId) { return false; };
          });
    }
    Run out;
    obs::TraceRecorder& rec = obs::TraceRecorder::Global();
    rec.Start();
    out.stats = engine.RunPipelined(
        requests, [] { return std::make_unique<SsaMatcher>(1.0); },
        &out.log);
    rec.Stop();
    const std::string path = TempPath(hooked ? "hooked.json" : "plain.json");
    const Status st = rec.WriteJson(path);
    EXPECT_TRUE(st.ok()) << st;

    const std::string text = ReadFile(path);
    JsonParser parser(text);
    const JsonValue doc = parser.Parse();
    const JsonArray& events = doc.object().at("traceEvents").array();
    struct Span {
      double ts, end;
      int tid;
    };
    std::vector<Span> commits;
    std::map<std::string, std::vector<Span>> searches;
    for (const JsonValue& ev : events) {
      const JsonObject& o = ev.object();
      if (o.at("ph").string() != "X") continue;
      const std::string& name = o.at("name").string();
      const Span span{o.at("ts").number(),
                      o.at("ts").number() + o.at("dur").number(),
                      static_cast<int>(o.at("tid").number())};
      if (name == "pipeline_commit") commits.push_back(span);
      if (name == "oracle_p2p" || name == "oracle_row") {
        searches[name].push_back(span);
      }
    }
    EXPECT_FALSE(commits.empty());
    for (const char* name : {"oracle_p2p", "oracle_row"}) {
      std::size_t& n = out.in_commits[name];
      for (const Span& s : searches[name]) {
        n += std::any_of(commits.begin(), commits.end(), [&](const Span& c) {
          return c.tid == s.tid && c.ts <= s.ts && s.end <= c.end;
        });
      }
    }
    return out;
  };

  const Run plain = run(/*hooked=*/false);
  ASSERT_GT(plain.stats.served, 0u);
  EXPECT_EQ(plain.in_commits.at("oracle_p2p"), 0u);
  EXPECT_LE(plain.in_commits.at("oracle_row"),
            2 * plain.stats.serial_rematches);

  const Run hooked = run(/*hooked=*/true);
  EXPECT_EQ(hooked.in_commits.at("oracle_p2p"), 0u);
  EXPECT_GT(hooked.in_commits.at("oracle_row"),
            2 * hooked.stats.serial_rematches);
  EXPECT_EQ(hooked.log, plain.log);
}

TEST(TraceRecorderTest, DeterministicMetricsMatchAcrossThreadCounts) {
  World w = MakeWorld();
  const std::vector<Request> requests = MakeRequests(w.graph, 12);

  obs::MetricsRegistry serial, pooled;
  const RunStats s1 = RunTrio(w, requests, /*threads=*/1, &serial);
  const RunStats s4 = RunTrio(w, requests, /*threads=*/4, &pooled);
  EXPECT_EQ(s1.served, s4.served);

  // Every deterministic metric must exist in both runs with identical
  // values. Timing metrics and the pool counters are exempt by convention.
  const auto deterministic = [](const std::string& name) {
    return !obs::MetricsRegistry::IsTimingMetric(name) &&
           !name.starts_with("pool/");
  };
  std::size_t compared = 0;
  for (const auto& [name, value] : serial.counters()) {
    if (!deterministic(name)) continue;
    EXPECT_EQ(pooled.Counter(name), value) << name;
    ++compared;
  }
  for (const auto& [name, histogram] : serial.histograms()) {
    if (!deterministic(name)) continue;
    const obs::LatencyHistogram* other = pooled.FindHistogram(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_TRUE(*other == histogram) << name;
    ++compared;
  }
  // The convention must leave real metrics to compare (compdists, options,
  // batch counters) — an empty intersection would make this test vacuous.
  EXPECT_GE(compared, 6u);
  for (const char* batch :
       {"pipeline/match/batch/sweeps", "pipeline/match/batch/warm_hits",
        "matcher/SSA/batch/sweeps", "matcher/SSA/batch/warm_hits"}) {
    EXPECT_GT(serial.Counter(batch), 0u) << batch;
    EXPECT_EQ(serial.Counter(batch), pooled.Counter(batch)) << batch;
  }
}

}  // namespace
}  // namespace ptar
