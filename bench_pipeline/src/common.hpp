// Shared pieces of the pipeline benchmark: strict flag parsing, order
// statistics, the determinism digest, the span recorder that times each
// layer from outside, and the report every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace bistdse::pipeline {

// --- flags -------------------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  std::string workload;       ///< Empty: every workload, one child each.
  std::uint64_t seconds = 20; ///< Measurement window per workload.
  std::string trace_path;     ///< Non-empty: traced run, JSONL spans here.
  bool smoke = false;         ///< Tiny sizes, one pass.
  bool Traced() const { return !trace_path.empty(); }
};

/// Parses argv strictly: unknown, duplicate or valueless flags throw
/// std::invalid_argument naming the flag.
Options ParseOptions(int argc, char** argv);

// --- statistics --------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double SecondsSince(std::chrono::steady_clock::time_point since);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// FNV-1a accumulator over the deterministic outputs of a run.
class Digest {
 public:
  void Add(std::uint64_t v);
  void Add(double v);
  std::uint64_t Value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- spans -------------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's control
/// thread. Spans nest: `parent` is the span open when this one began.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span.
  std::uint64_t flow = 0;    ///< Flow (design flow / field episode) id.
};

/// Keeps spans in memory while tracing is on; every call is a no-op when it
/// is off, so untraced runs measure the program alone.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_ = SIZE_MAX;
  };

  bool Enabled() const { return enabled_; }
  void SetFlow(std::uint64_t flow) { flow_ = flow; }
  const std::vector<Span>& Spans() const { return spans_; }

  /// Writes one JSON object per span.
  void WriteJsonl(const std::string& path) const;

  /// Host cost of one open/close pair, measured on a throwaway recorder.
  static double CostPerSpanSeconds();

 private:
  bool enabled_;
  std::uint64_t flow_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< Stack of indices into spans_.
};

/// Per-layer self time (duration minus time covered by child spans) of
/// each flow, i.e. of each root span named "flow", plus its coverage.
struct FlowBreakdown {
  double wall_s = 0.0;
  double covered_share = 0.0;  ///< Child spans / root duration.
  std::map<std::string, double> self_s;  ///< By layer.
};
std::vector<FlowBreakdown> BreakdownByFlow(std::span<const Span> spans);

/// Total duration of spans named `name`, per flow id (flows without such a
/// span are absent).
std::map<std::uint64_t, double> SecondsByFlow(std::span<const Span> spans,
                                              const std::string& name);

// --- report ------------------------------------------------------------------

/// What one workload run measured and checked.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< Failed correctness checks.
  std::vector<double> setup_s;        ///< One per set-up repetition.
  /// Host seconds of each timed flow, by pass.
  std::vector<std::vector<double>> flow_s;
  /// Modelled (simulated bus time) latencies of the deterministic pass.
  std::vector<double> sim_ms;
  Digest digest;
  /// Per-layer values, one per flow; the printed metric is their median.
  std::map<std::string, std::vector<double>> per_flow;
  /// Per-layer metrics that are not per-flow medians (ratios of totals,
  /// deterministic results). Only traced runs print per-layer metrics.
  std::map<std::string, double> layer;

  /// Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void PerFlow(const std::string& name, double value) {
    per_flow[name].push_back(value);
  }
  void Flow(std::size_t pass, double seconds) {
    flow_s.resize(std::max(flow_s.size(), pass + 1));
    flow_s[pass].push_back(seconds);
  }
  /// Median over passes of the mean flow time of the pass. A pass holds
  /// each kind of flow once, so its mean compares across passes even when
  /// the kinds differ several-fold in cost.
  double FlowSeconds() const;
};

/// Set-up runs at least kMinSetups times, and again while all set-ups so far
/// took under kMinSetupSeconds (at most kMaxSetups times); setup_s is the
/// median. A millisecond set-up thus gets enough samples for a steady
/// median, and a slow one is not repeated past what the run can afford.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 200;
constexpr double kMinSetupSeconds = 1.0;

/// Runs `setup` as above, recording each duration; returns the last result.
template <class F>
auto RepeatSetup(Report& report, F&& setup) {
  double total = 0.0;
  for (std::size_t i = 1;; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto state = setup();
    report.setup_s.push_back(SecondsSince(t0));
    total += report.setup_s.back();
    if (i >= kMaxSetups || (i >= kMinSetups && total >= kMinSetupSeconds)) {
      return state;
    }
  }
}

/// Runs `pass(p)` for p = 0, 1, ... until another pass would overrun the
/// measurement window. The first `deterministic` passes, which feed the
/// seed-determined outputs, always run in full; smoke runs stop there.
template <class F>
void RepeatPasses(const Options& options, std::size_t deterministic, F&& pass) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t p = 0;; ++p) {
    const auto t0 = std::chrono::steady_clock::now();
    pass(p);
    const double last = SecondsSince(t0);
    if (p + 1 < deterministic) continue;
    if (options.smoke ||
        SecondsSince(start) + last > static_cast<double>(options.seconds)) {
      return;
    }
  }
}

}  // namespace bistdse::pipeline
