#include "src/obs/sampler.h"

#include "src/base/artifact.h"
#include "src/base/strings.h"

namespace kite {

MetricSampler::MetricSampler(Executor* executor, MetricRegistry* metrics,
                             SamplerParams params)
    : executor_(executor), metrics_(metrics), params_(std::move(params)) {}

MetricSampler::~MetricSampler() { Stop(); }

void MetricSampler::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  alive_ = std::make_shared<bool>(true);
  // Baseline pass: record the current counter values without emitting
  // points, so the first tick's deltas cover exactly one period and warm-up
  // traffic never leaks into the series.
  for (const auto& s : metrics_->Snapshot(/*skip_zero=*/false)) {
    if (s.kind != MetricRegistry::Kind::kCounter) {
      continue;
    }
    if (!KeepLabel(s.key)) {
      continue;
    }
    Series& ser = series_[s.key];
    ser.kind = s.kind;
    ser.last = s.value;
  }
  Arm();
}

void MetricSampler::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (alive_ != nullptr) {
    *alive_ = false;
    alive_.reset();
  }
}

void MetricSampler::Arm() {
  MetricSampler* self = this;
  executor_->PostDaemonAfter(params_.period, KITE_POST_SITE("obs/sampler-tick"),
                             [self, alive = alive_] {
                               if (!*alive) {
                                 return;
                               }
                               self->Tick();
                               self->Arm();
                             });
}

bool MetricSampler::KeepLabel(const MetricKey& key) const {
  if (params_.prefixes.empty()) {
    return true;
  }
  const std::string label = key.domain + "/" + key.device + "/" + key.name;
  for (const std::string& prefix : params_.prefixes) {
    if (label.compare(0, prefix.size(), prefix) == 0) {
      return true;
    }
  }
  return false;
}

void MetricSampler::Tick() {
  ++ticks_;
  const int64_t t_ns = executor_->Now().ns();
  for (const auto& s : metrics_->Snapshot(/*skip_zero=*/false)) {
    if (s.kind != MetricRegistry::Kind::kCounter &&
        s.kind != MetricRegistry::Kind::kGauge) {
      continue;  // Distributions don't difference into a scalar series.
    }
    if (!KeepLabel(s.key)) {
      continue;
    }
    Series& ser = series_[s.key];
    ser.kind = s.kind;
    double point;
    if (s.kind == MetricRegistry::Kind::kCounter) {
      point = s.value - ser.last;
      ser.last = s.value;
    } else {
      point = s.value;
    }
    if (!ser.admitted) {
      if (point == 0) {
        continue;  // Not live yet; no all-zero prefix.
      }
      ser.admitted = true;
    }
    if (ser.ring.size() < params_.ring_points) {
      ser.ring.emplace_back(t_ns, point);
    } else if (!ser.ring.empty()) {
      ser.ring[ser.head] = {t_ns, point};
      ser.head = (ser.head + 1) % ser.ring.size();
      ++ser.dropped;
    }
  }
}

std::vector<MetricSampler::Timeline> MetricSampler::Timelines() const {
  std::vector<Timeline> out;
  for (const auto& [key, ser] : series_) {
    if (!ser.admitted || ser.ring.empty()) {
      continue;
    }
    Timeline tl;
    tl.key = key;
    tl.kind = ser.kind;
    tl.dropped = ser.dropped;
    tl.points.reserve(ser.ring.size());
    // Unwrap the ring: head is the oldest surviving point once full.
    for (size_t i = 0; i < ser.ring.size(); ++i) {
      const auto& [t, v] = ser.ring[(ser.head + i) % ser.ring.size()];
      tl.points.emplace_back(SimTime(t), v);
    }
    out.push_back(std::move(tl));
  }
  return out;
}

std::string MetricSampler::ToJson() const {
  std::vector<std::string> rows;
  for (const Timeline& tl : Timelines()) {
    rows.push_back(TimelineJsonRow("", tl, params_.period));
  }
  ArtifactWriter doc;
  doc.Field("period_ns", StrFormat("%lld", static_cast<long long>(params_.period.ns())));
  doc.Field("ticks", StrFormat("%llu", static_cast<unsigned long long>(ticks_)));
  doc.Array("timelines", rows);
  return doc.Render();
}

std::string TimelineJsonRow(const std::string& label, const MetricSampler::Timeline& tl,
                            SimDuration period) {
  std::string points;
  for (size_t i = 0; i < tl.points.size(); ++i) {
    const double v = tl.points[i].second;
    points += StrFormat("%s[%lld,%s]", i == 0 ? "" : ",",
                        static_cast<long long>(tl.points[i].first.ns()),
                        v == static_cast<double>(static_cast<long long>(v))
                            ? StrFormat("%lld", static_cast<long long>(v)).c_str()
                            : StrFormat("%.10g", v).c_str());
  }
  const std::string key = tl.key.domain + "/" + tl.key.device + "/" + tl.key.name;
  return StrFormat(
      "{\"label\":\"%s\",\"key\":\"%s\",\"kind\":\"%s\",\"period_ns\":%lld,"
      "\"dropped\":%llu,\"points\":[%s]}",
      JsonEscape(label).c_str(), JsonEscape(key).c_str(),
      tl.kind == MetricRegistry::Kind::kCounter ? "counter" : "gauge",
      static_cast<long long>(period.ns()), static_cast<unsigned long long>(tl.dropped),
      points.c_str());
}

}  // namespace kite
