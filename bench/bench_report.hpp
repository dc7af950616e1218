// One JSON layout for every bench artifact:
//
//   {"benchmark": <name>,
//    "run": {"cpu", "simd_backend", "pool_workers", "git_sha",
//            <the bench's sizes>},
//    "tables": {<table>: [<flat row>, ...]},
//    "gates": [{"name", "passed", "value", "limit"}, ...]}
//
// Rows are flat: a value nested in an object goes under a dotted key
// ("decode.conflicts"). Keys and tables keep the order they were first set.
// Integers print in decimal, reals in the shortest form that reads back as
// the same double, non-finite reals as null; strings are escaped.
//
// A gate is a named check `value <op> limit`. Finish() writes the file,
// prints every verdict and returns the bench's exit status, so a failing
// run names the check that failed.
#pragma once

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/wide_word_simd.hpp"
#include "util/thread_pool.hpp"

namespace bistdse::bench {

/// The commit the bench was built from: its 40 hex digits, followed by
/// "-dirty" when a tracked file differed from it, or "unknown" outside a git
/// checkout. Defined in the source that bench/git_sha.cmake writes on every
/// build (library bistdse_git_sha).
const char* GitSha();

/// `value` as a JSON token: bool, integer, real or (anything that converts
/// to std::string_view) string.
template <class T>
std::string JsonValue(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf,
                                          static_cast<double>(value)).ptr);
  } else {
    std::string out = "\"";
    for (const char c : std::string_view(value)) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
        out += esc;
      } else {
        out += c;
      }
    }
    return out + '"';
  }
}

/// A hash as every artifact spells it: "0x" and 16 hex digits.
inline std::string Hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, value);
  return buf;
}

/// One flat JSON object.
class Row {
 public:
  template <class T>
  Row& Set(std::string_view key, const T& value) {
    text_ += (text_.empty() ? "{" : ", ") + JsonValue(key) + ": " +
             JsonValue(value);
    return *this;
  }
  std::string Json() const { return text_.empty() ? "{}" : text_ + "}"; }

 private:
  std::string text_;
};

class Report {
 public:
  /// Stamps the run with the host's CPU features, the compiled SIMD
  /// backend, the shared pool's worker count and the build's commit.
  explicit Report(std::string_view benchmark) : benchmark_(benchmark) {
    run_.Set("cpu", sim::simd::CpuFeatureString())
        .Set("simd_backend", sim::simd::SimdBackendName())
        .Set("pool_workers", util::ThreadPool::Global().WorkerCount())
        .Set("git_sha", GitSha());
  }

  /// The run's metadata; a bench adds its sizes.
  Row& Run() { return run_; }

  /// Appends a row to `table`. The reference stays valid for the report's
  /// lifetime.
  Row& AddRow(std::string_view table) {
    return rows_.emplace_back(std::string(table), Row{}).second;
  }

  void AtLeast(std::string name, double value, double limit) {
    AddGate(std::move(name), value >= limit, value, ">=", limit);
  }
  void AtMost(std::string name, double value, double limit) {
    AddGate(std::move(name), value <= limit, value, "<=", limit);
  }
  void Above(std::string name, double value, double limit) {
    AddGate(std::move(name), value > limit, value, ">", limit);
  }
  /// Passes when both sides print as the same JSON value.
  template <class T, class U>
  void Equal(std::string name, const T& value, const U& limit) {
    AddGate(std::move(name), JsonValue(value) == JsonValue(limit), value,
            "==", limit);
  }

  /// Writes the artifact to `path` and prints each gate's verdict. Returns
  /// 0 when every gate passed, and 1 when one failed (naming the failed
  /// gates on stderr) or the file could not be written.
  int Finish(const std::string& path) const {
    bool ok = Write(path);
    std::string failed;
    for (const Gate& g : gates_) {
      std::printf("gate %s: %s %s %s ... %s\n", g.name.c_str(),
                  g.value.c_str(), g.op, g.limit.c_str(),
                  g.passed ? "ok" : "FAILED");
      if (!g.passed) failed += (failed.empty() ? "" : ", ") + g.name;
    }
    if (!failed.empty()) {
      std::fflush(stdout);  // the verdicts first in a merged log
      std::fprintf(stderr, "%s: failed gates: %s\n", benchmark_.c_str(),
                   failed.c_str());
      ok = false;
    }
    return ok ? 0 : 1;
  }

 private:
  struct Gate {
    std::string name;
    bool passed;
    std::string value;  // JSON text
    const char* op;
    std::string limit;  // JSON text
  };

  template <class T, class U>
  void AddGate(std::string name, bool passed, const T& value, const char* op,
               const U& limit) {
    gates_.push_back(
        {std::move(name), passed, JsonValue(value), op, JsonValue(limit)});
  }

  std::string Json() const {
    std::string out = "{\n  \"benchmark\": " + JsonValue(benchmark_) +
                      ",\n  \"run\": " + run_.Json() + ",\n  \"tables\": {";
    std::vector<std::string_view> tables;  // in first-use order
    for (const auto& entry : rows_) {
      bool seen = false;
      for (const std::string_view t : tables) seen |= t == entry.first;
      if (!seen) tables.push_back(entry.first);
    }
    for (std::size_t t = 0; t < tables.size(); ++t) {
      out += (t ? ",\n    " : "\n    ") + JsonValue(tables[t]) + ": [";
      const char* sep = "\n      ";
      for (const auto& [table, row] : rows_) {
        if (table != tables[t]) continue;
        out += sep + row.Json();
        sep = ",\n      ";
      }
      out += "\n    ]";
    }
    out += tables.empty() ? "},\n  \"gates\": [" : "\n  },\n  \"gates\": [";
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const Gate& g = gates_[i];
      out += (i ? ",\n    {\"name\": " : "\n    {\"name\": ") +
             JsonValue(g.name) + ", \"passed\": " + JsonValue(g.passed) +
             ", \"value\": " + g.value + ", \"limit\": " + g.limit + "}";
    }
    return out + (gates_.empty() ? "]\n}\n" : "\n  ]\n}\n");
  }

  bool Write(const std::string& path) const {
    const std::string json = Json();
    std::FILE* out = std::fopen(path.c_str(), "w");
    bool written = out != nullptr;
    if (out) {
      written = std::fputs(json.c_str(), out) >= 0;
      written &= std::fclose(out) == 0;
    }
    if (!written) {
      std::fprintf(stderr, "%s: cannot write %s\n", benchmark_.c_str(),
                   path.c_str());
      return false;
    }
    std::printf("%s written to %s\n", benchmark_.c_str(), path.c_str());
    return true;
  }

  std::string benchmark_;
  Row run_;
  std::deque<std::pair<std::string, Row>> rows_;
  std::vector<Gate> gates_;
};

}  // namespace bistdse::bench
