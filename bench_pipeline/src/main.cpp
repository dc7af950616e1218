// bench_pipeline: one end-to-end benchmark for the design flow and the field
// flow. See README.md for the workloads, the metric glossary and how to
// read a trace.
//
//   bench_pipeline [--workload NAME] [--seed S] [--seconds T]
//                  [--trace FILE] [--smoke]
//
// With --workload it runs that workload and prints, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace the per-layer metrics (spans go to FILE as
// JSONL). Without --workload it runs every workload, each in its own child
// process so that set-up time and peak RSS belong to one workload. Exit
// status: 0 all checks passed, 1 a check failed, 2 bad usage.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

using namespace bistdse::pipeline;

namespace {

struct WorkloadDef {
  const char* name;
  Report (*run)(const Options&, SpanRecorder&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"design-casestudy", RunDesignCasestudy},
    {"design-corpus", RunDesignCorpus},
    {"field-steady", RunFieldSteady},
    {"field-reload", RunFieldReload},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by every untraced run. BENCHMARK.json lists the same names.
constexpr MetricDef kEndToEnd[] = {
    {"flow_s", "s"},       {"setup_s", "s"},     {"peak_rss_mb", "MB"},
    {"sim_p50_ms", "ms"},  {"sim_p90_ms", "ms"},
};

// Printed by every traced run; 0 where a workload has no such layer work.
constexpr MetricDef kPerLayer[] = {
    {"netlist.generate_s", "s"},
    {"arch.generate_s", "s"},
    {"bist.profiles_s", "s"},
    {"bist.profiles_aborted", "count"},
    {"bist.dictionary_s", "s"},
    {"bist.dictionary_fault_patterns_per_s", "1/s"},
    {"bist.dictionary_extend_s", "s"},
    {"bist.dictionary_rebuilds", "count"},
    {"bist.diagnose_batch_s", "s"},
    {"bist.diagnose_queries_per_s", "1/s"},
    {"dse.explore_s", "s"},
    {"dse.evals_per_s", "1/s"},
    {"dse.cache_hit_ratio", "ratio"},
    {"dse.pick_cost", "cost"},
    {"sat.decode_s", "s"},
    {"sat.propagations", "count"},
    {"sat.conflicts", "count"},
    {"net.campaign_s", "s"},
    {"net.sim_ms_per_host_s", "ms/s"},
    {"net.frames_sent", "count"},
    {"net.frames_dropped", "count"},
    {"net.retransmissions", "count"},
    {"net.delivery_ratio", "ratio"},
    {"net.zero_loss_band_misses", "count"},
    {"net.upload_sim_ms_p50", "ms"},
    {"net.upload_sim_ms_p999", "ms"},
    {"serve.open_s", "s"},
    {"serve.submit_s", "s"},
    {"serve.run_s", "s"},
    {"serve.engine_s", "s"},
    {"serve.wire_s", "s"},
    {"serve.req_per_s", "1/s"},
    {"serve.batches", "count"},
    {"serve.mean_batch_size", "count"},
    {"serve.release_lag_sim_ms_p50", "ms"},
    {"serve.release_lag_sim_ms_p999", "ms"},
    {"serve.answer_sim_ms_p50", "ms"},
    {"serve.answer_sim_ms_p999", "ms"},
    {"serve.p999_sim_ms", "ms"},
    {"serve.capacity_rps", "1/s"},
    {"serve.reload_s", "s"},
    {"serve.reload_swap_s", "s"},
    {"trace.coverage_min", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

/// Spans summed per flow, by the per-layer metric they feed.
const std::vector<std::pair<const char*, std::vector<const char*>>>
    kPerFlowSpans = {
        {"bist.profiles_s", {"bist.profiles"}},
        {"bist.dictionary_s",
         {"bist.dictionary", "bist.dictionary_extend", "bist.dictionary_rebuild"}},
        {"dse.explore_s", {"dse.explore"}},
        {"net.campaign_s", {"net.campaign"}},
        {"serve.open_s", {"serve.open"}},
        {"serve.submit_s", {"serve.submit"}},
        {"serve.run_s", {"serve.run"}},
        {"bist.diagnose_batch_s", {"bist.diagnose_batch"}},
        {"serve.wire_s", {"serve.wire"}},
};

/// Spans whose per-call median is the metric.
const std::vector<std::pair<const char*, const char*>> kPerCallSpans = {
    {"netlist.generate_s", "netlist.generate"},
    {"arch.generate_s", "arch.generate"},
    {"bist.dictionary_extend_s", "bist.dictionary_extend"},
    {"serve.reload_s", "serve.reload"},
    {"serve.reload_swap_s", "serve.reload_swap"},
};

constexpr double kCoverageGate = 0.95;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bench_pipeline [--workload NAME] [--seed S] "
               "[--seconds T] [--trace FILE] [--smoke]\nworkloads:");
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

/// Per-layer metrics of a traced run, from its spans and its report.
std::map<std::string, double> LayerMetrics(const Options& options,
                                           const SpanRecorder& spans,
                                           Report& report) {
  std::map<std::string, double> m = report.layer;
  for (const auto& [name, values] : report.per_flow) m[name] = Median(values);

  const std::vector<Span>& all = spans.Spans();
  const std::vector<FlowBreakdown> flows = BreakdownByFlow(all);
  std::set<std::uint64_t> flow_ids;
  for (const Span& s : all) {
    if (std::string(s.name) == "flow") flow_ids.insert(s.flow);
  }
  auto per_flow = [&](const std::vector<const char*>& names) {
    std::map<std::uint64_t, double> sums;
    for (const char* n : names) {
      for (const auto& [flow, s] : SecondsByFlow(all, n)) sums[flow] += s;
    }
    std::vector<double> values;
    for (const std::uint64_t f : flow_ids) values.push_back(sums[f]);
    return values;
  };
  std::map<std::string, std::vector<double>> flow_values;
  for (const auto& [metric, names] : kPerFlowSpans) {
    flow_values[metric] = per_flow(names);
    m[metric] = Median(flow_values[metric]);
  }
  for (const auto& [metric, name] : kPerCallSpans) {
    std::vector<double> calls;
    for (const Span& s : all) {
      if (std::string(s.name) == name) {
        calls.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    m[metric] = Median(calls);
  }
  // Derived, not measured: Run() time not spent in the replayed diagnosis
  // and wire stages, i.e. the network engine, transport and admission.
  std::vector<double> engine;
  const auto& run = flow_values["serve.run_s"];
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (run[i] > 0) {
      engine.push_back(run[i] - flow_values["bist.diagnose_batch_s"][i] -
                       flow_values["serve.wire_s"][i]);
    }
  }
  m["serve.engine_s"] = Median(engine);

  double coverage_min = flows.empty() ? 0.0 : 1.0;
  double wall = 0.0;
  std::map<std::string, std::vector<double>> shares;
  for (const FlowBreakdown& f : flows) {
    coverage_min = std::min(coverage_min, f.covered_share);
    wall += f.wall_s;
    for (const char* layer : {"bench", "arch", "bist", "dse", "net", "serve"}) {
      const auto it = f.self_s.find(layer);
      shares[layer].push_back(
          it == f.self_s.end() || f.wall_s <= 0 ? 0.0 : it->second / f.wall_s);
    }
  }
  m["trace.coverage_min"] = coverage_min;
  m["trace.overhead_ratio"] =
      wall > 0 ? static_cast<double>(all.size()) *
                     SpanRecorder::CostPerSpanSeconds() / wall
               : 0.0;
  report.Check(coverage_min >= kCoverageGate,
               "trace coverage gate: child spans cover " +
                   std::to_string(coverage_min) + " of some flow (< " +
                   std::to_string(kCoverageGate) + ")");

  std::printf("per-layer self time, median share of a flow (%zu flows, "
              "%.3f s traced):\n",
              flows.size(), wall);
  for (const auto& [layer, values] : shares) {
    std::printf("  %-6s %6.2f %%\n", layer.c_str(), 100.0 * Median(values));
  }
  if (options.Traced()) spans.WriteJsonl(options.trace_path);
  return m;
}

void PrintResult(const Report& report, const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values) {
  std::string json = "{\"correct\": ";
  json += report.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    char number[64] = "null";  // JSON has no inf/nan; RunOne fails the run.
    if (std::isfinite(v)) std::snprintf(number, sizeof number, "%.17g", v);
    std::printf("  %-40s %20s %s\n", defs[i].name, number, defs[i].unit);
    json += std::string(i ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + number + ", \"unit\": \"" + defs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int RunOne(const Options& options, const WorkloadDef& workload) {
  SpanRecorder spans(options.Traced());
  Report report = workload.run(options, spans);
  std::vector<double> flows;
  for (const auto& pass : report.flow_s) {
    flows.insert(flows.end(), pass.begin(), pass.end());
  }
  std::printf("workload %s seed %llu: %zu passes, %zu flows, %llu attempted, "
              "%llu failed\n",
              workload.name, static_cast<unsigned long long>(options.seed),
              report.flow_s.size(), flows.size(),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("digest 0x%016llx\n",
              static_cast<unsigned long long>(report.digest.Value()));
  std::printf("modelled latencies: %zu samples\n", report.sim_ms.size());
  std::printf("flow seconds: min %.4f p25 %.4f median %.4f p75 %.4f max %.4f\n",
              Percentile(flows, 0), Percentile(flows, 0.25), Median(flows),
              Percentile(flows, 0.75), Percentile(flows, 1));

  std::map<std::string, double> values;
  std::vector<MetricDef> defs;
  if (options.Traced()) {
    values = LayerMetrics(options, spans, report);
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    values = {{"flow_s", report.FlowSeconds()},
              {"setup_s", Median(report.setup_s)},
              {"peak_rss_mb", PeakRssMb()},
              {"sim_p50_ms", Percentile(report.sim_ms, 0.5)},
              {"sim_p90_ms", Percentile(report.sim_ms, 0.9)}};
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  report.Check(report.attempted > 0, "no operation attempted");
  for (const auto& [name, value] : values) {
    report.Check(std::isfinite(value), name + " is not finite");
  }
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::fflush(stderr);
  PrintResult(report, defs, values);
  return report.failures.empty() ? 0 : 1;
}

/// Runs every workload in its own child process, in table order.
int RunAll(int argc, char** argv, const Options& options) {
  int status = 0;
  for (const WorkloadDef& w : kWorkloads) {
    std::vector<std::string> args(argv, argv + argc);
    args.insert(args.begin() + 1, {"--workload", w.name});
    for (std::size_t i = 1; i + 1 < args.size(); ++i) {
      if (args[i] == "--trace") args[i + 1] = options.trace_path + "." + w.name;
    }
    std::vector<char*> cargs;
    for (std::string& a : args) cargs.push_back(a.data());
    cargs.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      execv("/proc/self/exe", cargs.data());
      std::perror("execv");
      _exit(127);
    }
    int child = 0;
    if (waitpid(pid, &child, 0) < 0 || !WIFEXITED(child) ||
        WEXITSTATUS(child) != 0) {
      std::fprintf(stderr, "workload %s failed\n", w.name);
      status = 1;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const WorkloadDef* workload = nullptr;
  try {
    options = ParseOptions(argc, argv);
    for (const WorkloadDef& w : kWorkloads) {
      if (options.workload == w.name) workload = &w;
    }
    if (!options.workload.empty() && workload == nullptr) {
      throw std::invalid_argument("--workload: unknown workload '" +
                                  options.workload + "'");
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    PrintUsage();
    return 2;
  }
  if (workload == nullptr) return RunAll(argc, argv, options);
  try {
    return RunOne(options, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s: %s\n", workload->name, e.what());
    return 1;
  }
}
