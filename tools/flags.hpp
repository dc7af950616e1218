// Command-line flags declared in one table per command.
//
// A command's table names every flag the command takes, with its kind. The
// parser accepts only declared flags, each at most once, and converts every
// number while it reads argv, so a bad command line exits 2 naming the flag
// before any work starts. The usage text is printed from the same tables. A
// read of a flag that the command's table does not declare, or under another
// kind, is a programming error and throws std::logic_error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/parse.hpp"

namespace bistdse::tools {

/// The kind of a flag's value; the order is that of FlagValue's alternatives.
enum class FlagKind { kBool, kU64, kU32, kReal, kString };

using FlagValue =
    std::variant<bool, std::uint64_t, std::uint32_t, double, std::string>;

struct FlagSpec {
  std::string_view name;  ///< Without the leading "--".
  FlagKind kind;
  /// Placeholder of the value in the usage text; empty: N for integers, X
  /// for reals, FILE for strings.
  std::string_view value = {};
  bool required = false;
};

struct CommandSpec {
  std::string_view name;  ///< The words after the program name, if any.
  std::span<const FlagSpec> flags;
  std::string_view note = {};  ///< Printed below the flags in the usage.
};

/// The flags given on one command line, typed by the command's table.
class Flags {
 public:
  /// Reads argv[first, argc). Throws std::invalid_argument naming the flag
  /// for an unknown or repeated flag, a missing required flag, a flag
  /// without its value, a value after a boolean flag, or a number that does
  /// not parse as the flag's kind. The result refers to `command`, which
  /// must outlive it (the tables are static).
  static Flags Parse(const CommandSpec& command, int argc, char** argv,
                     int first) {
    Flags flags(command);
    const FlagSpec* previous = nullptr;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!arg.starts_with("--")) {
        if (previous != nullptr && previous->kind == FlagKind::kBool) {
          throw std::invalid_argument("--" + std::string(previous->name) +
                                      " takes no value, got '" + arg + "'");
        }
        throw std::invalid_argument("unexpected argument '" + arg + "'");
      }
      const std::optional<std::size_t> slot = flags.Find(arg.substr(2));
      if (!slot) throw std::invalid_argument("unknown flag " + arg);
      if (flags.values_[*slot]) {
        throw std::invalid_argument("repeated flag " + arg);
      }
      previous = &command.flags[*slot];
      if (previous->kind == FlagKind::kBool) {
        flags.values_[*slot] = true;
        continue;
      }
      if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
        throw std::invalid_argument(arg + " needs a value");
      }
      flags.values_[*slot] = ParseValue(arg, previous->kind, argv[++i]);
    }
    for (std::size_t s = 0; s < command.flags.size(); ++s) {
      if (command.flags[s].required && !flags.values_[s]) {
        throw std::invalid_argument("missing required flag --" +
                                    std::string(command.flags[s].name));
      }
    }
    return flags;
  }

  const CommandSpec& Command() const { return *command_; }

  bool Has(std::string_view name) const {
    return values_[Slot(name, std::nullopt)].has_value();
  }
  std::uint64_t U64(std::string_view name, std::uint64_t fallback) const {
    return Get<FlagKind::kU64>(name, fallback);
  }
  std::uint32_t U32(std::string_view name, std::uint32_t fallback) const {
    return Get<FlagKind::kU32>(name, fallback);
  }
  double Real(std::string_view name, double fallback) const {
    return Get<FlagKind::kReal>(name, fallback);
  }
  std::string Str(std::string_view name, std::string fallback) const {
    return Get<FlagKind::kString>(name, std::move(fallback));
  }

 private:
  explicit Flags(const CommandSpec& command)
      : command_(&command), values_(command.flags.size()) {}

  /// The value of a flag that takes one.
  static FlagValue ParseValue(const std::string& flag, FlagKind kind,
                              std::string_view text) {
    if (kind == FlagKind::kU64) {
      return FlagValue(std::in_place_type<std::uint64_t>,
                       util::ParseU64(flag, text));
    }
    if (kind == FlagKind::kU32) {
      return FlagValue(std::in_place_type<std::uint32_t>,
                       util::ParseU32(flag, text));
    }
    if (kind == FlagKind::kReal) {
      return FlagValue(std::in_place_type<double>, util::ParseReal(flag, text));
    }
    return FlagValue(std::in_place_type<std::string>, text);
  }

  std::optional<std::size_t> Find(std::string_view name) const {
    for (std::size_t s = 0; s < command_->flags.size(); ++s) {
      if (command_->flags[s].name == name) return s;
    }
    return std::nullopt;
  }

  /// The slot of a flag the code reads; `kind` unset accepts any kind.
  std::size_t Slot(std::string_view name,
                   std::optional<FlagKind> kind) const {
    const std::optional<std::size_t> slot = Find(name);
    if (!slot || (kind && command_->flags[*slot].kind != *kind)) {
      throw std::logic_error("the flag table of '" +
                             std::string(command_->name) +
                             "' does not declare --" + std::string(name) +
                             " with the kind it is read as");
    }
    return *slot;
  }

  template <FlagKind kKind, typename T>
  T Get(std::string_view name, T fallback) const {
    const std::optional<FlagValue>& value = values_[Slot(name, kKind)];
    return value ? std::get<static_cast<std::size_t>(kKind)>(*value)
                 : fallback;
  }

  const CommandSpec* command_;
  std::vector<std::optional<FlagValue>> values_;  ///< Parallel to the table.
};

/// "  <program> <command> [--flag VALUE] ..." wrapped at 79 columns, then the
/// note in parentheses; continuation lines are indented by six spaces.
inline std::string FormatUsage(std::string_view program,
                               const CommandSpec& command) {
  std::string out;
  std::size_t column = 0;
  const auto append = [&](std::string_view word) {
    if (column > 2 && column + 1 + word.size() > 79) {
      out += '\n';
      column = 0;
    }
    if (column == 0) {
      const std::size_t pad = out.empty() ? 2 : 6;
      out.append(pad, ' ');
      column = pad;
    } else {
      out += ' ';
      ++column;
    }
    out += word;
    column += word.size();
  };
  append(program);
  if (!command.name.empty()) append(command.name);
  for (const FlagSpec& flag : command.flags) {
    std::string word = "--" + std::string(flag.name);
    if (flag.kind != FlagKind::kBool) {
      word += ' ';
      word += !flag.value.empty()              ? flag.value
              : flag.kind == FlagKind::kReal   ? "X"
              : flag.kind == FlagKind::kString ? "FILE"
                                               : "N";
    }
    append(flag.required ? word : "[" + word + "]");
  }
  if (!command.note.empty()) {
    out += '\n';
    column = 0;
    std::string note(1, '(');
    note.append(command.note).push_back(')');
    for (std::size_t pos = 0; pos < note.size();) {
      const std::size_t space = std::min(note.find(' ', pos), note.size());
      append(std::string_view(note).substr(pos, space - pos));
      pos = space + 1;
    }
  }
  return out + '\n';
}

/// Flags::Parse, or on a bad command line the problem and the command's
/// usage on stderr and exit status 2.
inline Flags ParseFlagsOrExit(std::string_view program,
                              const CommandSpec& command, int argc,
                              char** argv, int first) {
  try {
    return Flags::Parse(command, argc, argv, first);
  } catch (const std::invalid_argument& e) {
    std::string where(program);
    if (!command.name.empty()) where += " " + std::string(command.name);
    std::fprintf(stderr, "%s: %s\nusage:\n%s", where.c_str(), e.what(),
                 FormatUsage(program, command).c_str());
    std::exit(2);
  }
}

}  // namespace bistdse::tools
