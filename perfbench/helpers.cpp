#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Percentile percentile(std::vector<double>& values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.valid = values.size() - rank >= 10;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- SpanRecorder -----------------------------------------------------------

const char* SpanRecorder::layer_name(Layer layer) noexcept {
  switch (layer) {
    case kRep: return "bench.rep";
    case kService: return "service.run";
    case kEntk: return "entk.run";
    case kFederation: return "federation.choose";
    case kObsTap: return "obs.tap";
    case kLayerCount: break;
  }
  return "?";
}

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  stack_.reserve(16);
  spans_.reserve(capacity);
}

void SpanRecorder::begin(Layer layer) noexcept {
  std::uint32_t kept = kNotKept;
  const std::int64_t t = now_ns();
  if (spans_.size() < capacity_) {
    kept = static_cast<std::uint32_t>(spans_.size());
    Span s;
    s.start = t;
    s.layer = layer;
    s.parent = stack_.empty() || stack_.back().kept_index == kNotKept
                   ? 0
                   : stack_.back().kept_index + 1;
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
  stack_.push_back({layer, t, 0, kept});
}

void SpanRecorder::end() noexcept {
  const std::int64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - open.start;
  total_ns_[open.layer] += dur;
  self_ns_[open.layer] += dur - open.child_ns;
  ++calls_[open.layer];
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.kept_index != kNotKept) spans_[open.kept_index].end = t;
}

std::string SpanRecorder::to_trace_json() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%u}}",
                  i ? "," : "", layer_name(s.layer),
                  static_cast<double>(s.start - t0) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i + 1, s.parent);
    out << buf;
  }
  out << "],\"droppedSpans\":" << dropped_ << "}\n";
  return out.str();
}

// --- wrappers ---------------------------------------------------------------

hhc::federation::SiteId TimedPolicy::choose(
    const hhc::federation::PlacementQuery& q,
    const std::vector<hhc::federation::SiteId>& candidates) {
  spans_.begin(SpanRecorder::kFederation);
  const hhc::federation::SiteId site = inner_->choose(q, candidates);
  spans_.end();
  return site;
}

void TimedTap::on_count(hhc::SimTime t, const void* id,
                        const std::string& name, const std::string& label,
                        double delta) {
  if (completions_ && name == "service.completed")
    completions_->push_back(now_ns());
  spans_.begin(SpanRecorder::kObsTap);
  inner_->on_count(t, id, name, label, delta);
  spans_.end();
}

void TimedTap::on_gauge(hhc::SimTime t, const void* id,
                        const std::string& name, const std::string& label,
                        double value) {
  spans_.begin(SpanRecorder::kObsTap);
  inner_->on_gauge(t, id, name, label, value);
  spans_.end();
}

void TimedTap::on_value(const void* id, const std::string& name,
                        const std::string& label, double value) {
  spans_.begin(SpanRecorder::kObsTap);
  inner_->on_value(id, name, label, value);
  spans_.end();
}

void TimedTap::on_instant(hhc::SimTime t, const std::string& category,
                          const std::string& subject,
                          const std::string& state) {
  spans_.begin(SpanRecorder::kObsTap);
  inner_->on_instant(t, category, subject, state);
  spans_.end();
}

TapGuard::TapGuard(hhc::obs::Observer& obs, SpanRecorder& spans,
                   std::vector<std::int64_t>* completions)
    : obs_(obs), inner_(obs.tap()) {
  if (!inner_) return;
  tap_ = std::make_unique<TimedTap>(inner_, spans, completions);
  obs_.set_tap(tap_.get());
}

TapGuard::~TapGuard() {
  if (tap_ && obs_.tap() == tap_.get()) obs_.set_tap(inner_);
}

// --- CampaignTally ----------------------------------------------------------

void CampaignTally::add_finished(std::size_t arrived, std::size_t completed) {
  ++campaigns;
  attempted += arrived;
  not_completed += arrived - completed;
}

void CampaignTally::add_aborted(std::size_t arrived, std::size_t completed) {
  add_finished(arrived, completed);
  ++aborted;
}

void CampaignTally::add(const CampaignTally& other) {
  campaigns += other.campaigns;
  aborted += other.aborted;
  attempted += other.attempted;
  not_completed += other.not_completed;
}

}  // namespace perfbench
