// The repo benchmark program. Usually started through perfbench/run.py:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --baseline perfbench/baseline.json [--trace-out <file>]
//   perfbench --rebaseline          (prints the canonical digests)
//
// Untraced (--trace 0): sets the workload up several times (setup_s is the
// median), runs reps of it for --seconds on this one thread, and reports
// attempts_per_s, setup_s, peak_rss_mb and failed_frac. Traced (--trace 1):
// alternates an untraced and a traced run of the same rep, checks that the
// two agree exactly (the wrappers are inert), and reports the per-layer
// metrics. Both modes check every rep's invariants and compare the canonical
// schedule digest (rep 0 of the default seed) with baseline.json. The last
// line of stdout is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "obs/prof/prof.hpp"
#include "support/host.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 7;
/// The seed whose rep 0 is the canonical schedule (--rebaseline).
constexpr std::uint64_t kDefaultSeed = 42;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string baseline;
  std::string trace_out;
  bool rebaseline = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --baseline <file> "
               "[--trace-out <file>]\n       perfbench --rebaseline\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--rebaseline") {
      a.rebaseline = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--baseline") a.baseline = v;
      else if (k == "--trace-out") a.trace_out = v;
      else usage(("unknown option " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.rebaseline) return a;
  if (!make_workload(a.workload)) usage("unknown --workload");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.baseline.empty()) usage("--baseline is required");
  return a;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

struct Baseline {
  std::uint64_t default_seed = 0;
  hhc::Json digests;
};

Baseline read_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read baseline " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const hhc::Json doc = hhc::Json::parse(buf.str());
  Baseline b;
  b.default_seed =
      static_cast<std::uint64_t>(doc.at("default_seed").as_number());
  b.digests = doc.at("digests");
  return b;
}

/// Digest of the canonical schedule: rep 0 of the default seed.
std::uint64_t canonical_digest(const std::string& workload,
                               std::uint64_t seed) {
  std::unique_ptr<Workload> w = make_workload(workload);
  w->setup(seed);
  return w->run_rep(0, nullptr).digest;
}

struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
  void check(const RepResult& r) {
    ++attempted;
    if (r.violations.empty()) return;
    ++failed;
    for (const std::string& v : r.violations) fail(v);
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
      out << (i ? ", " : "") << '"' << metrics[i].first << "\": {\"value\": "
          << metrics[i].second.first << ", \"unit\": \""
          << metrics[i].second.second << "\"}";
    out << "}}";
    return out.str();
  }
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double setup_median(Workload& w, std::uint64_t seed) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    w.setup(seed);
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

// --- untraced run ------------------------------------------------------------

RepResult run_untraced(const Args& args, Result& out) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  const double setup_s = setup_median(*w, args.seed);

  double attempts = 0;
  CampaignTally tally;
  RepResult first;
  const std::int64_t start = now_ns();
  for (std::size_t rep = 0; rep == 0 || seconds_since(start) < args.seconds;
       ++rep) {
    const std::int64_t t0 = now_ns();
    RepResult r = w->run_rep(rep, nullptr);
    const double wall = seconds_since(t0);
    out.check(r);
    attempts += r.counts.attempts;
    tally.add(r.counts.tally);
    std::printf("rep %zu: %.0f attempts in %.3f s, %zu of %zu submissions "
                "not completed, %zu aborted, digest %s\n",
                rep, r.counts.attempts, wall, r.counts.tally.not_completed,
                r.counts.tally.attempted, r.counts.tally.aborted,
                hex64(r.digest).c_str());
    if (rep == 0) first = std::move(r);
  }
  // Per host wall second of the whole timed phase (every rep, checks too).
  out.metric("attempts_per_s", attempts / seconds_since(start), "1/s");
  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb",
             static_cast<double>(hhc::peak_rss_bytes()) / 1e6, "MB");
  out.metric("failed_frac", tally.failed_frac(), "fraction");
  return first;
}

// --- traced run --------------------------------------------------------------

RepResult run_traced(const Args& args, Result& out) {
  namespace prof = hhc::obs::prof;
  std::unique_ptr<Workload> w = make_workload(args.workload);
  w->setup(args.seed);
  Probe probe;
  probe.completions.reserve(1u << 16);
  probe.completion_gaps_us.reserve(1u << 20);

  std::vector<double> plain_rates, traced_rates;
  double traced_wall_ns = 0, sched_pass_us = 0;
  RepResult first;
  RepCounts counts0;  // machine-independent counts of traced rep 0
  double records0 = 0, spans0 = 0, allocs0 = 0, alloc_bytes0 = 0, choose0 = 0;
  prof::reset();
  const std::int64_t start = now_ns();
  for (std::size_t rep = 0; rep == 0 || seconds_since(start) < args.seconds;
       ++rep) {
    RepResult plain, traced;
    auto run_plain = [&] {
      const std::int64_t t0 = now_ns();
      plain = w->run_rep(rep, nullptr);
      plain_rates.push_back(plain.counts.attempts / seconds_since(t0));
    };
    auto run_probed = [&] {
      const std::uint64_t records = prof::counter_value("obs.metric_records");
      const std::uint64_t spans = prof::counter_value("obs.span_records");
      prof::set_enabled(true);
      const prof::AllocCounters a0 = prof::thread_allocs();
      const std::int64_t t0 = now_ns();
      traced = w->run_rep(rep, &probe);
      const std::int64_t wall_ns = now_ns() - t0;
      const prof::AllocCounters a1 = prof::thread_allocs();
      prof::set_enabled(false);
      traced_wall_ns += static_cast<double>(wall_ns);
      sched_pass_us += traced.counts.sched_pass_us;
      traced_rates.push_back(traced.counts.attempts /
                             (static_cast<double>(wall_ns) / 1e9));
      if (rep == 0) {
        records0 = static_cast<double>(
            prof::counter_value("obs.metric_records") - records);
        spans0 = static_cast<double>(
            prof::counter_value("obs.span_records") - spans);
        allocs0 = static_cast<double>(a1.count - a0.count);
        alloc_bytes0 = static_cast<double>(a1.bytes - a0.bytes);
        choose0 = static_cast<double>(
            probe.spans.calls(SpanRecorder::kFederation));
      }
    };
    // Alternate which side runs first, so warm-up favours neither. Rep 0
    // runs untraced first, so the traced rep 0 counts (allocations too)
    // see the same warmed process on every run.
    if (rep % 2 == 0) {
      run_plain();
      run_probed();
    } else {
      run_probed();
      run_plain();
    }
    out.check(plain);
    out.check(traced);
    if (traced.digest != plain.digest ||
        traced.counts.exact() != plain.counts.exact())
      out.fail("traced rep " + std::to_string(rep) +
               " differs from the untraced rep: the wrappers are not inert");
    std::printf("rep %zu: %.0f attempts, untraced %.0f/s, traced %.0f/s, "
                "digest %s\n",
                rep, traced.counts.attempts, plain_rates.back(),
                traced_rates.back(), hex64(traced.digest).c_str());
    if (rep == 0) {
      counts0 = traced.counts;
      first = std::move(plain);
    }
  }

  const prof::ProfileReport report = prof::report();
  auto region = [&](const char* name) {
    for (const prof::FlatRegion& f : report.flat())
      if (f.name == name) return f;
    return prof::FlatRegion{};
  };
  const prof::FlatRegion sim_run = region("sim.run");
  const SpanRecorder& s = probe.spans;
  const double wall = traced_wall_ns;
  const double attempts = counts0.attempts;
  using L = SpanRecorder;

  out.metric("sim.events_per_attempt", ratio(counts0.events, attempts),
             "count");
  out.metric("sim.queue_high_water", counts0.queue_high_water, "count");
  out.metric("core.attempts", attempts, "count");
  out.metric("core.useful_attempt_ratio",
             ratio(counts0.completed_attempts, attempts), "fraction");
  out.metric("federation.choose_calls", choose0, "count");
  out.metric("federation.choose_us_per_call",
             ratio(s.total_ns(L::kFederation) / 1e3,
                   static_cast<double>(s.calls(L::kFederation))),
             "us");
  out.metric("federation.choose_share", ratio(s.total_ns(L::kFederation), wall),
             "fraction");
  out.metric("federation.reroutes", counts0.reroutes, "count");
  out.metric("cluster.sched_pass_share",
             ratio(sched_pass_us * 1e3, wall), "fraction");
  out.metric("fabric.transfers_per_attempt", ratio(counts0.transfers, attempts),
             "count");
  out.metric("fabric.cache_hit_ratio",
             ratio(counts0.cache_hits,
                   counts0.cache_hits + counts0.cache_misses),
             "fraction");
  out.metric("obs.records_per_attempt", ratio(records0, attempts), "count");
  out.metric("obs.spans_per_attempt", ratio(spans0, attempts), "count");
  out.metric("obs.tap_us_per_record",
             ratio(s.total_ns(L::kObsTap) / 1e3,
                   static_cast<double>(s.calls(L::kObsTap))),
             "us");
  out.metric("obs.tap_share", ratio(s.total_ns(L::kObsTap), wall), "fraction");
  Percentile p50 = percentile(probe.completion_gaps_us, 50.0);
  Percentile p99 = percentile(probe.completion_gaps_us, 99.0);
  out.metric("service.completion_gap_us.p50", p50.value, "us");
  out.metric("service.completion_gap_us.p99", p99.value, "us");
  out.metric("service.completion_gap_us.samples",
             static_cast<double>(p99.samples), "count");
  if (p99.samples > 0 && !p99.valid)
    out.notes.push_back("completion gap p99 rests on fewer than ten samples "
                        "beyond it");
  out.metric("service.aborted_campaigns",
             static_cast<double>(counts0.tally.aborted), "count");
  out.metric("entk.resubmissions", counts0.resubmissions, "count");
  out.metric("resilience.journal_bytes_per_submission",
             ratio(counts0.journal_bytes, counts0.tally.attempted), "B");
  out.metric("resilience.checkpoints_per_submission",
             ratio(counts0.checkpoints, counts0.tally.attempted), "count");
  out.metric("resilience.hedges_per_attempt", ratio(counts0.hedges, attempts),
             "count");
  out.metric("resilience.faults_injected", counts0.faults, "count");
  out.metric("prof.allocs_per_attempt", ratio(allocs0, attempts), "count");
  out.metric("prof.alloc_bytes_per_attempt", ratio(alloc_bytes0, attempts),
             "B");
  out.metric("prof.sim_run_self_share",
             ratio(static_cast<double>(sim_run.self_ns),
                   static_cast<double>(sim_run.total_ns)),
             "fraction");
  out.metric("prof.on_attempt_complete_us",
             region("toolkit.on_attempt_complete").ns_per_call() / 1e3, "us");
  out.metric("prof.submit_attempt_us",
             region("toolkit.submit_attempt").ns_per_call() / 1e3, "us");
  out.metric("prof.federation_place_us",
             region("federation.place").ns_per_call() / 1e3, "us");
  out.metric("span.service_self_share", ratio(s.self_ns(L::kService), wall),
             "fraction");
  out.metric("span.entk_self_share", ratio(s.self_ns(L::kEntk), wall),
             "fraction");
  out.metric("span.rep_self_share", ratio(s.self_ns(L::kRep), wall),
             "fraction");
  out.metric("trace.attempts_per_s", median(traced_rates), "1/s");
  out.metric("trace.overhead_frac",
             1.0 - ratio(median(traced_rates), median(plain_rates)),
             "fraction");

  if (!args.trace_out.empty()) {
    std::ofstream f(args.trace_out);
    f << s.to_trace_json();
    if (!f) out.notes.push_back("could not write " + args.trace_out);
  }
  return first;
}

int rebaseline() {
  std::printf("{\n  \"default_seed\": %llu,\n  \"digests\": {",
              static_cast<unsigned long long>(kDefaultSeed));
  const std::vector<std::string>& names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    std::printf("%s\n    \"%s\": \"%s\"", i ? "," : "", names[i].c_str(),
                hex64(canonical_digest(names[i], kDefaultSeed)).c_str());
  std::printf("\n  }\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.rebaseline) return rebaseline();
  try {
    const Baseline baseline = read_baseline(args.baseline);
    Result out;
    const RepResult first =
        args.trace ? run_traced(args, out) : run_untraced(args, out);

    // The canonical schedule: rep 0 of the default seed, against the value
    // committed in baseline.json. Moving it is a stated re-baseline.
    const std::uint64_t digest =
        args.seed == baseline.default_seed
            ? first.digest
            : canonical_digest(args.workload, baseline.default_seed);
    const std::string want =
        baseline.digests.contains(args.workload)
            ? baseline.digests.at(args.workload).as_string()
            : std::string("missing");
    std::printf("canonical digest %s (committed %s)\n", hex64(digest).c_str(),
                want.c_str());
    if (hex64(digest) != want)
      out.fail("canonical schedule digest " + hex64(digest) +
               " != committed " + want);
    for (const std::string& note : out.notes)
      std::printf("note: %s\n", note.c_str());
    std::printf("%s\n", out.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
