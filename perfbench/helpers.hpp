// Helpers of the repo benchmark that are independent of any workload: the
// schedule digest, percentiles with their sample counts, the two inert
// forwarding wrappers the traced run installs on the layers' public
// extension points, the span recorder, and the campaign abort accounting.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "federation/broker.hpp"
#include "obs/observer.hpp"

namespace perfbench {

// --- digest -----------------------------------------------------------------

/// 64-bit FNV-1a, chained: fold(fold(h, a), b) digests "a then b".
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) noexcept;
std::string hex64(std::uint64_t v);

// --- percentiles ------------------------------------------------------------

/// A percentile together with the samples it rests on. `valid` holds when
/// at least ten samples lie beyond the percentile, so it is not one outlier.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  bool valid = false;
};

/// Nearest-rank percentile q in [0, 100] of `values` (sorted in place).
Percentile percentile(std::vector<double>& values, double q);

/// Median of a copy of `values`; 0 for an empty input.
double median(std::vector<double> values);

// --- wall clock -------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- spans ------------------------------------------------------------------

/// In-memory span recorder with per-layer self time. Spans nest through an
/// explicit stack; a span's self time is its duration minus the durations of
/// the spans opened directly inside it. Self and total time are accumulated
/// for every span; the first `capacity` spans are also kept for write-out
/// (the buffer is reserved up front so recording allocates nothing).
class SpanRecorder {
 public:
  enum Layer : std::uint8_t { kRep, kService, kEntk, kFederation, kObsTap,
                              kLayerCount };
  static const char* layer_name(Layer layer) noexcept;

  explicit SpanRecorder(std::size_t capacity = 0);

  void begin(Layer layer) noexcept;
  void end() noexcept;

  std::int64_t total_ns(Layer l) const noexcept { return total_ns_[l]; }
  std::int64_t self_ns(Layer l) const noexcept { return self_ns_[l]; }
  std::uint64_t calls(Layer l) const noexcept { return calls_[l]; }
  std::size_t kept() const noexcept { return spans_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Chrome/Perfetto trace-event JSON of the kept spans.
  std::string to_trace_json() const;

 private:
  struct Open {
    Layer layer;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t kept_index;
  };
  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t parent = 0;  ///< Kept index + 1 of the parent; 0 = root.
    Layer layer = kRep;
  };
  static constexpr std::uint32_t kNotKept = 0xffffffffu;

  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::int64_t total_ns_[kLayerCount] = {};
  std::int64_t self_ns_[kLayerCount] = {};
  std::uint64_t calls_[kLayerCount] = {};
};

// --- forwarding wrappers ----------------------------------------------------

/// PlacementPolicy that forwards every call to `inner` and records a
/// federation span around choose(). Inert: the same choice, the same calls.
class TimedPolicy final : public hhc::federation::PlacementPolicy {
 public:
  TimedPolicy(std::unique_ptr<hhc::federation::PlacementPolicy> inner,
              SpanRecorder& spans)
      : inner_(std::move(inner)), spans_(spans) {}
  std::string name() const override { return inner_->name(); }
  hhc::federation::SiteId choose(
      const hhc::federation::PlacementQuery& q,
      const std::vector<hhc::federation::SiteId>& candidates) override;

 private:
  std::unique_ptr<hhc::federation::PlacementPolicy> inner_;
  SpanRecorder& spans_;
};

/// MetricTap that forwards every record to `inner` (the service's
/// TelemetryHub) and records an obs-tap span around it. It also stamps the
/// host time of each `service.completed` record, for the completion gaps.
class TimedTap final : public hhc::obs::MetricTap {
 public:
  TimedTap(hhc::obs::MetricTap* inner, SpanRecorder& spans,
           std::vector<std::int64_t>* completions)
      : inner_(inner), spans_(spans), completions_(completions) {}

  void on_count(hhc::SimTime t, const void* id, const std::string& name,
                const std::string& label, double delta) override;
  void on_gauge(hhc::SimTime t, const void* id, const std::string& name,
                const std::string& label, double value) override;
  void on_value(const void* id, const std::string& name,
                const std::string& label, double value) override;
  void on_instant(hhc::SimTime t, const std::string& category,
                  const std::string& subject,
                  const std::string& state) override;

 private:
  hhc::obs::MetricTap* inner_;
  SpanRecorder& spans_;
  std::vector<std::int64_t>* completions_;
};

/// Installs a TimedTap in front of the tap an Observer already has, and puts
/// the original back on destruction (so the hub's own detach still finds
/// itself). No-op when the observer has no tap.
class TapGuard {
 public:
  TapGuard(hhc::obs::Observer& obs, SpanRecorder& spans,
           std::vector<std::int64_t>* completions);
  ~TapGuard();
  TapGuard(const TapGuard&) = delete;
  TapGuard& operator=(const TapGuard&) = delete;
  const TimedTap* tap() const noexcept { return tap_.get(); }

 private:
  hhc::obs::Observer& obs_;
  hhc::obs::MetricTap* inner_;
  std::unique_ptr<TimedTap> tap_;
};

// --- campaign accounting ----------------------------------------------------

/// Submission accounting over a run's campaigns. A campaign aborted by an
/// exception counts every submission it had not settled as failed.
struct CampaignTally {
  std::size_t campaigns = 0;
  std::size_t aborted = 0;
  std::size_t attempted = 0;      ///< Submissions that arrived.
  std::size_t not_completed = 0;  ///< Failed, shed, or unsettled at an abort.

  void add_finished(std::size_t arrived, std::size_t completed);
  void add_aborted(std::size_t arrived, std::size_t completed);
  void add(const CampaignTally& other);
  double failed_frac() const noexcept {
    return attempted ? static_cast<double>(not_completed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

}  // namespace perfbench
