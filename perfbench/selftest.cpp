// Tests of the benchmark's own helpers: the schedule digest, percentiles
// with their sample counts, the span recorder's self time, the forwarding
// PlacementPolicy and MetricTap wrappers, and the campaign abort accounting.
// Run with `python3 perfbench/run.py --selftest`; exits non-zero on failure.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace fed = hhc::federation;

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

void test_digest() {
  // Published FNV-1a 64 test vectors.
  CHECK(fnv1a("") == 0xcbf29ce484222325ULL);
  CHECK(fnv1a("a") == 0xaf63dc4c8601ec8cULL);
  CHECK(fnv1a("foobar") == 0x85944171f73967e8ULL);
  // Chaining digests the concatenation.
  CHECK(fnv1a("bar", fnv1a("foo")) == fnv1a("foobar"));
  CHECK(fnv1a("1 heavy 3\n") != fnv1a("1 heavy 4\n"));
  CHECK(hex64(0xaf63dc4c8601ec8cULL) == "af63dc4c8601ec8c");
  CHECK(hex64(1) == "0000000000000001");
}

void test_percentile() {
  std::vector<double> empty;
  const Percentile none = percentile(empty, 50.0);
  CHECK(none.samples == 0 && !none.valid && none.value == 0.0);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Percentile p50 = percentile(v, 50.0);
  CHECK(p50.value == 50.0 && p50.samples == 100 && p50.valid);
  const Percentile p90 = percentile(v, 90.0);
  CHECK(p90.value == 90.0 && p90.valid);  // exactly ten samples beyond
  const Percentile p99 = percentile(v, 99.0);
  CHECK(p99.value == 99.0 && p99.samples == 100 && !p99.valid);
  const Percentile p100 = percentile(v, 100.0);
  CHECK(p100.value == 100.0 && !p100.valid);
  const Percentile p0 = percentile(v, 0.0);
  CHECK(p0.value == 1.0);

  CHECK(median({}) == 0.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void test_span_self_time() {
  SpanRecorder spans(2);
  spans.begin(SpanRecorder::kService);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  spans.begin(SpanRecorder::kFederation);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  spans.end();
  spans.begin(SpanRecorder::kObsTap);  // third span: counted, not kept
  spans.end();
  spans.end();
  using L = SpanRecorder;
  CHECK(spans.calls(L::kService) == 1 && spans.calls(L::kFederation) == 1 &&
        spans.calls(L::kObsTap) == 1);
  CHECK(spans.total_ns(L::kFederation) >= 3'000'000);
  CHECK(spans.self_ns(L::kFederation) == spans.total_ns(L::kFederation));
  CHECK(spans.self_ns(L::kService) ==
        spans.total_ns(L::kService) - spans.total_ns(L::kFederation) -
            spans.total_ns(L::kObsTap));
  CHECK(spans.self_ns(L::kService) >= 2'000'000);
  CHECK(spans.kept() == 2 && spans.dropped() == 1);
  const std::string json = spans.to_trace_json();
  CHECK(json.find("\"name\":\"service.run\"") != std::string::npos);
  CHECK(json.find("\"parent\":1") != std::string::npos);
  CHECK(json.find("\"droppedSpans\":1") != std::string::npos);
}

struct FixedPolicy final : fed::PlacementPolicy {
  int calls = 0;
  std::string name() const override { return "fixed"; }
  fed::SiteId choose(const fed::PlacementQuery&,
                     const std::vector<fed::SiteId>& candidates) override {
    ++calls;
    return candidates.back();
  }
};

void test_timed_policy() {
  SpanRecorder spans(8);
  auto inner = std::make_unique<FixedPolicy>();
  FixedPolicy* raw = inner.get();
  TimedPolicy policy(std::move(inner), spans);
  CHECK(policy.name() == "fixed");
  const std::vector<fed::SiteId> candidates = {0, 2, 5};
  CHECK(policy.choose(fed::PlacementQuery{}, candidates) == 5);
  CHECK(policy.choose(fed::PlacementQuery{}, {1}) == 1);
  CHECK(raw->calls == 2);
  CHECK(spans.calls(SpanRecorder::kFederation) == 2);
}

struct RecordingTap final : hhc::obs::MetricTap {
  std::vector<std::string> seen;
  void on_count(hhc::SimTime, const void*, const std::string& name,
                const std::string&, double) override {
    seen.push_back("count " + name);
  }
  void on_gauge(hhc::SimTime, const void*, const std::string& name,
                const std::string&, double) override {
    seen.push_back("gauge " + name);
  }
  void on_value(const void*, const std::string& name, const std::string&,
                double) override {
    seen.push_back("value " + name);
  }
  void on_instant(hhc::SimTime, const std::string& category,
                  const std::string&, const std::string&) override {
    seen.push_back("instant " + category);
  }
};

void test_tap_guard() {
  hhc::obs::Observer obs;
  SpanRecorder spans(8);
  std::vector<std::int64_t> completions;
  {
    // No tap attached: the guard installs nothing.
    TapGuard guard(obs, spans, &completions);
    CHECK(guard.tap() == nullptr && obs.tap() == nullptr);
  }
  RecordingTap hub;
  obs.set_tap(&hub);
  {
    TapGuard guard(obs, spans, &completions);
    CHECK(obs.tap() == guard.tap());
    obs.count(1.0, "service.completed", "heavy");
    obs.count(2.0, "service.submitted", "heavy");
    obs.gauge_set(3.0, "rm.queue_depth", 4.0);
    obs.observe("service.stretch", 1.5, "light");
    obs.instant(4.0, "task", "t1", "done");
    CHECK(spans.calls(SpanRecorder::kObsTap) == 5);
  }
  CHECK(obs.tap() == &hub);  // the original tap is back
  const std::vector<std::string> want = {
      "count service.completed", "count service.submitted",
      "gauge rm.queue_depth", "value service.stretch", "instant task"};
  CHECK(hub.seen == want);
  CHECK(completions.size() == 1);
  CHECK(obs.metrics().find_counter("service.completed", "heavy")->value() ==
        1.0);
}

void test_campaign_tally() {
  CampaignTally t;
  CHECK(t.failed_frac() == 0.0);
  t.add_finished(/*arrived=*/100, /*completed=*/100);
  t.add_finished(100, 90);  // failed or shed submissions
  t.add_aborted(50, 20);    // 30 unsettled at the abort count as failed
  CHECK(t.campaigns == 3 && t.aborted == 1);
  CHECK(t.attempted == 250 && t.not_completed == 40);
  CHECK(t.failed_frac() == 40.0 / 250.0);
}

void test_rep_seed() {
  CHECK(rep_seed(42, 0) == 42);
  CHECK(rep_seed(42, 1) == rep_seed(42, 1));
  CHECK(rep_seed(42, 1) != rep_seed(42, 2));
  CHECK(rep_seed(42, 1) != rep_seed(43, 1));
}

}  // namespace

int main() {
  test_digest();
  test_percentile();
  test_span_self_time();
  test_timed_policy();
  test_tap_guard();
  test_campaign_tally();
  test_rep_seed();
  if (failures) {
    std::fprintf(stderr, "perfbench selftest: %d checks failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
