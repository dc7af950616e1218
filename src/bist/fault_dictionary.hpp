// Fault dictionary: precomputed per-fault failing-window sets (bitmask rows)
// and a window-major table of faulty window signatures for one session
// configuration. Building it costs one full fault-simulation sweep;
// afterwards each diagnosis is a dictionary match — the classic trade when
// many field returns of the same ECU generation are diagnosed against the
// same BIST session.
//
// Serving-layer lifecycle: a built dictionary is Save()d to a compact
// versioned binary artifact once; server processes then either Load() it
// (owned copy) or Map() it — an mmap-backed read path whose span views point
// straight into the file mapping, so opening a multi-gigabyte dictionary is
// O(metadata) with no deserialization copy (pages fault in on first query).
// When the session later grows by ΔN patterns, Extend() appends the new
// windows' bits and table sections (re-simulating only the trailing partial
// window, if any) instead of rebuilding from pattern 0 — bit-identical to a
// from-scratch build.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bist/diagnosis.hpp"
#include "bist/stumps.hpp"
#include "util/mmap_file.hpp"

namespace bistdse::bist {

/// FNV-1a over the StumpsConfig fields that determine the session's pattern
/// stream and signature semantics (PRPG, phase shifter, window layout, MISR).
/// Simulation-only knobs (threads, block width, shortcuts) are excluded:
/// they never change results.
std::uint64_t SessionStreamConfigHash(const StumpsConfig& config);

class FaultDictionary {
 public:
  /// Builds the dictionary for the given session (pattern stream defined by
  /// `config`, `num_random`, `deterministic`) over the candidate `faults`.
  /// The build fault-simulates in parallel over `threads` workers (1 =
  /// serial, 0 = full pool width) with `block_width`*64 patterns per sweep
  /// (block_width in {1, 2, 4, 8, 16}); the dictionary is bit-identical for
  /// every thread count and block width.
  FaultDictionary(const netlist::Netlist& netlist, const StumpsConfig& config,
                  std::uint64_t num_random,
                  std::span<const EncodedPattern> deterministic,
                  std::vector<sim::StuckAtFault> faults,
                  std::size_t threads = 0, std::size_t block_width = 4);

  /// Writes the dictionary as a versioned binary artifact (header, fault
  /// table, window bitmask words, window-major signature table). Throws
  /// std::runtime_error when the file cannot be written.
  void Save(const std::string& path) const;

  /// Reads a Save()d artifact into owned storage (full payload copy).
  /// Throws std::runtime_error on missing, truncated, corrupted, or
  /// version-mismatched files, naming the defect. Because it copies the
  /// payload anyway, Load() also checks every signature-table entry against
  /// the bitmask rows.
  static FaultDictionary Load(const std::string& path);

  /// Opens a Save()d artifact zero-copy: payload accessors are span views
  /// into the file mapping; only the (small) fault table is materialized.
  /// Validates the header and the window offset table only, so opening is
  /// O(metadata); a corrupted entry can mis-rank a query but never makes it
  /// read or write out of bounds.
  static FaultDictionary Map(const std::string& path);

  /// Incremental ΔN update: extends the dictionary to the grown session
  /// (`num_random` + `deterministic`, which must have this dictionary's
  /// session stream as a prefix). Only the windows at and past the old
  /// session's end are (re)simulated — the trailing partial window, if any,
  /// plus the appended windows — and the result is bit-identical to a
  /// from-scratch build of the grown session. Throws std::invalid_argument
  /// when the netlist/config/stream do not match, when the session shrinks,
  /// or when the grown session changes the effective window width (a
  /// max_windows_per_session rewidening requires a full rebuild). A mapped
  /// dictionary is materialized to owned storage first.
  void Extend(const netlist::Netlist& netlist, const StumpsConfig& config,
              std::uint64_t num_random,
              std::span<const EncodedPattern> deterministic,
              std::size_t threads = 0, std::size_t block_width = 4);

  std::size_t FaultCount() const { return faults_.size(); }
  std::uint32_t WindowCount() const { return window_count_; }
  std::uint64_t TotalPatterns() const { return total_patterns_; }
  std::uint64_t NetlistHash() const { return netlist_hash_; }
  std::uint64_t ConfigHash() const { return config_hash_; }
  /// True when the payload views point into a file mapping (Map() path).
  bool IsMapped() const { return mapping_.IsMapped(); }
  std::span<const sim::StuckAtFault> Faults() const { return faults_; }

  /// Ranks candidates against observed fail data by failing-window-set
  /// Jaccard match plus a signature bonus (fraction of observed failing
  /// windows whose stored faulty signature matches exactly), best first,
  /// ties in fault-list order. Equivalent to SignatureDiagnosis but with no
  /// re-simulation: one popcount pass over the bitmask rows plus one
  /// signature-table lookup per fail datum.
  ///
  /// Edge cases are defined explicitly: empty `fail_data` returns an empty
  /// ranking (no fail evidence ranks no candidates), `top_k == 0` returns
  /// empty, and `top_k` past the candidate count returns every candidate.
  /// A window index past the bitmask rows is an observed failing window no
  /// candidate predicts: it counts toward the union and |fail_data| only
  /// (equal such indices count once in the union).
  /// Pure and const: any number of threads may Diagnose concurrently.
  std::vector<DiagnosisCandidate> Diagnose(
      std::span<const FailDatum> fail_data, std::size_t top_k) const;

  /// Failing-window bitmask words of fault `i` (testing/inspection).
  /// Throws std::out_of_range when `i >= FaultCount()`.
  std::span<const std::uint64_t> WindowsOf(std::size_t i) const {
    CheckFaultIndex(i);
    return windows_.subspan(i * words_per_fault_, words_per_fault_);
  }

  /// One window's section of the signature table: the faulty signatures of
  /// every fault failing in that window, with their fault indices, sorted by
  /// (signature, fault index).
  struct WindowEntryView {
    std::span<const std::uint64_t> signatures;
    std::span<const std::uint32_t> faults;
  };

  /// Signature-table section of window `w` (testing/inspection). Throws
  /// std::out_of_range when `w >= WindowCount()`.
  WindowEntryView WindowEntries(std::uint32_t w) const;

 private:
  FaultDictionary() = default;  ///< Load()/Map() shell.

  static FaultDictionary Open(const std::string& path, bool keep_mapping);

  /// (Re)simulates windows [start_window, window_count_): sets failing-window
  /// bits in `owned_windows_` and appends each window's (signature, fault)
  /// entries, sorted, to the owned signature table, which must end at
  /// window `start_window` on entry.
  void BuildWindows(const netlist::Netlist& netlist,
                    const StumpsConfig& config, std::uint64_t num_random,
                    std::span<const EncodedPattern> deterministic,
                    std::size_t threads, std::size_t block_width,
                    std::uint32_t start_window);

  /// Re-points the signature-table views at the owned vectors.
  void ViewOwnedTable();

  /// Copies mapped payload views into owned vectors and drops the mapping.
  void EnsureOwned();

  void CheckFaultIndex(std::size_t i) const;

  /// Load()-time check of every signature-table entry against the bitmask
  /// rows; throws std::runtime_error naming `path` and the defect.
  void CheckSignatureTable(const std::string& path) const;

  // --- session identity (serialized) ---------------------------------------
  std::uint64_t netlist_hash_ = 0;
  std::uint64_t config_hash_ = 0;
  std::uint64_t num_random_ = 0;
  std::uint64_t det_count_ = 0;
  std::uint64_t det_hash_ = 0;
  std::uint64_t total_patterns_ = 0;
  std::uint64_t window_ = 0;  ///< Effective patterns per window.
  std::uint32_t window_count_ = 0;
  std::uint32_t misr_width_ = 0;
  std::size_t words_per_fault_ = 0;

  // --- payload: span views over owned buffers or the file mapping ----------
  // The fault-major bitmask rows serve the Jaccard pass; the window-major
  // signature table serves the signature-bonus lookups. Window w's entries
  // are [window_offsets_[w], window_offsets_[w + 1]) of the entry arrays.
  std::vector<sim::StuckAtFault> faults_;  ///< Always materialized (small).
  std::span<const std::uint64_t> windows_;  ///< faults x words_per_fault.
  std::span<const std::uint64_t> window_offsets_;    ///< windows + 1 entries.
  std::span<const std::uint64_t> entry_signatures_;  ///< Sorted per window.
  std::span<const std::uint32_t> entry_faults_;      ///< Aligned with sigs.
  std::vector<std::uint64_t> owned_windows_;
  std::vector<std::uint64_t> owned_window_offsets_;
  std::vector<std::uint64_t> owned_entry_signatures_;
  std::vector<std::uint32_t> owned_entry_faults_;
  util::MmapFile mapping_;  ///< Backs the views on the Map() path.
};

}  // namespace bistdse::bist
