#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

namespace bistdse::pipeline {

namespace {

/// Parses a decimal unsigned integer. Rejects empty text, signs, spaces,
/// any non-digit and values above `max`; the error names `what`.
std::uint64_t ParseU64(const std::string& what, const std::string& text,
                       std::uint64_t max) {
  if (text.empty()) throw std::invalid_argument(what + ": empty value");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument(what + ": '" + text +
                                  "' is not an unsigned decimal integer");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      throw std::invalid_argument(what + ": '" + text + "' exceeds " +
                                  std::to_string(max));
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

Options ParseOptions(int argc, char** argv) {
  Options options;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (!seen.insert(flag).second) {
      throw std::invalid_argument(flag + ": given more than once");
    }
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (flag != "--seed" && flag != "--workload" && flag != "--seconds" &&
        flag != "--trace") {
      throw std::invalid_argument(flag + ": unknown flag");
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--seed") {
      options.seed = ParseU64(flag, value, UINT32_MAX);
    } else if (flag == "--seconds") {
      options.seconds = ParseU64(flag, value, 3600);
      if (options.seconds == 0) {
        throw std::invalid_argument(flag + ": must be at least 1");
      }
    } else if (flag == "--workload") {
      options.workload = value;
    } else {
      if (value.empty()) throw std::invalid_argument(flag + ": empty path");
      options.trace_path = value;
    }
  }
  return options;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Equal neighbours return as-is, so an infinite sample (a refused request
  // missing any limit) stays infinite instead of turning into NaN.
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double SecondsSince(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Digest::Add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
}

void Digest::Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }


namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled) {}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           const char* layer)
    : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  index_ = recorder_.spans_.size();
  Span span;
  span.name = name;
  span.layer = layer;
  span.id = index_ + 1;
  span.parent = recorder_.open_.empty()
                    ? 0
                    : recorder_.spans_[recorder_.open_.back()].id;
  span.flow = recorder_.flow_;
  recorder_.open_.push_back(index_);
  span.start_ns = NowNs();
  recorder_.spans_.push_back(span);
}

SpanRecorder::Scope::~Scope() {
  if (index_ == SIZE_MAX) return;
  recorder_.spans_[index_].end_ns = NowNs();
  recorder_.open_.pop_back();
}

void SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error(path + ": cannot write trace");
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"id\":%llu,\"parent\":%llu,\"flow\":%llu}\n",
                 s.name, s.layer, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.flow));
  }
  if (std::fclose(out) != 0) {
    throw std::runtime_error(path + ": cannot write trace");
  }
}

double SpanRecorder::CostPerSpanSeconds() {
  constexpr int kPairs = 20000;
  SpanRecorder probe(true);
  probe.spans_.reserve(kPairs);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPairs; ++i) {
    Scope scope(probe, "calibrate", "trace");
  }
  return SecondsSince(t0) / kPairs;
}

std::vector<FlowBreakdown> BreakdownByFlow(std::span<const Span> spans) {
  // Spans are recorded in start order and nest strictly, so a parent's
  // children are exactly the spans whose `parent` is its id.
  std::vector<double> child_s(spans.size() + 1, 0.0);
  for (const Span& s : spans) {
    child_s[s.parent] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }
  std::vector<FlowBreakdown> flows;
  std::map<std::uint64_t, std::size_t> root_of;  // span id -> flow index
  for (const Span& s : spans) {
    const double dur = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    std::size_t flow = SIZE_MAX;
    if (std::string(s.name) == "flow" && s.parent == 0) {
      flow = flows.size();
      flows.push_back({dur, dur > 0 ? child_s[s.id] / dur : 1.0, {}});
    } else if (const auto it = root_of.find(s.parent); it != root_of.end()) {
      flow = it->second;
    }
    if (flow == SIZE_MAX) continue;
    root_of[s.id] = flow;
    flows[flow].self_s[s.layer] += dur - child_s[s.id];
  }
  return flows;
}

std::map<std::uint64_t, double> SecondsByFlow(std::span<const Span> spans,
                                              const std::string& name) {
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out[s.flow] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return out;
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

double Report::FlowSeconds() const {
  std::vector<double> means;
  for (const std::vector<double>& pass : flow_s) {
    if (pass.empty()) continue;
    double sum = 0.0;
    for (const double s : pass) sum += s;
    means.push_back(sum / static_cast<double>(pass.size()));
  }
  return Median(means);
}

}  // namespace bistdse::pipeline
