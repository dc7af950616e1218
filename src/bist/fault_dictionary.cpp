#include "bist/fault_dictionary.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "bist/campaign_sources.hpp"
#include "bist/error_signatures.hpp"

namespace bistdse::bist {

using sim::BitPattern;

namespace {

std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

std::uint64_t FnvBytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) h = FnvMix(h, p[i]);
  return h;
}

// --- on-disk format (version 2) -------------------------------------------
//
// Little-/host-endian, 8-byte-aligned sections in file order:
//   [DictHeader][fault table][window bitmask words][window offsets]
//   [entry signatures][entry faults, zero-padded to 8 bytes]
// The last three sections are the window-major signature table: window w's
// entries are [offsets[w], offsets[w + 1]), sorted by (signature, fault).
// The header carries the session identity, the section layout, the total
// file size (truncation check) and an FNV checksum over its own bytes
// (corruption check). Section layout is fully derivable from the counts, so
// a reader re-derives it and rejects any mismatch. Opening reads the header,
// the fault table and the window offsets; Map() never touches the bitmask
// rows or the entries — that is what keeps it O(metadata).

constexpr char kMagic[8] = {'B', 'D', 'S', 'E', 'F', 'D', '0', '2'};
constexpr std::size_t kMagicFamily = 6;  ///< "BDSEFD": any format version.

struct DictHeader {
  char magic[8];
  std::uint64_t file_bytes;
  std::uint64_t netlist_hash;
  std::uint64_t config_hash;
  std::uint64_t num_random;
  std::uint64_t det_count;
  std::uint64_t det_hash;
  std::uint64_t total_patterns;
  std::uint64_t window;
  std::uint64_t fault_count;
  std::uint64_t words_per_fault;
  std::uint64_t entry_count;
  std::uint32_t window_count;
  std::uint32_t misr_width;
  std::uint64_t faults_off;
  std::uint64_t windows_off;
  std::uint64_t offsets_off;
  std::uint64_t entry_sigs_off;
  std::uint64_t entry_faults_off;
  std::uint64_t header_hash;  ///< FNV over the header bytes before this field.
};
static_assert(sizeof(DictHeader) == 152, "padding crept into DictHeader");
static_assert(std::is_trivially_copyable_v<DictHeader>);

/// Padding-free fault record: the in-memory StuckAtFault has alignment
/// padding whose bytes would make the artifact nondeterministic.
struct DiskFault {
  std::uint32_t node;
  std::int8_t fanin_index;
  std::uint8_t stuck_value;
  std::uint16_t reserved;
};
static_assert(sizeof(DiskFault) == 8);
static_assert(std::is_trivially_copyable_v<DiskFault>);

std::uint64_t HeaderHash(const DictHeader& h) {
  return FnvBytes(&h, offsetof(DictHeader, header_hash));
}

/// Section offsets (and the file size) implied by the counts.
struct SectionLayout {
  std::uint64_t faults_off, windows_off, offsets_off, entry_sigs_off,
      entry_faults_off, file_bytes;
};

std::uint64_t PaddedFaultBytes(std::uint64_t entry_count) {
  return (entry_count * sizeof(std::uint32_t) + 7) / 8 * 8;
}

SectionLayout LayoutFor(std::uint64_t fault_count,
                        std::uint64_t words_per_fault,
                        std::uint64_t window_count,
                        std::uint64_t entry_count) {
  SectionLayout l;
  l.faults_off = sizeof(DictHeader);
  l.windows_off = l.faults_off + fault_count * sizeof(DiskFault);
  l.offsets_off =
      l.windows_off + fault_count * words_per_fault * sizeof(std::uint64_t);
  l.entry_sigs_off = l.offsets_off + (window_count + 1) * sizeof(std::uint64_t);
  l.entry_faults_off = l.entry_sigs_off + entry_count * sizeof(std::uint64_t);
  l.file_bytes = l.entry_faults_off + PaddedFaultBytes(entry_count);
  return l;
}

template <typename T>
const T* SectionAt(std::span<const std::byte> bytes, std::uint64_t offset) {
  return reinterpret_cast<const T*>(bytes.data() + offset);
}

[[noreturn]] void Corrupt(const std::string& path, const std::string& what) {
  throw std::runtime_error("fault dictionary '" + path + "': " + what);
}

}  // namespace

std::uint64_t SessionStreamConfigHash(const StumpsConfig& config) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = FnvMix(h, config.num_scan_chains);
  h = FnvMix(h, config.max_chain_length);
  h = FnvMix(h, config.signature_window);
  h = FnvMix(h, config.max_windows_per_session);
  h = FnvMix(h, config.prpg_degree);
  h = FnvMix(h, config.prpg_seed);
  h = FnvMix(h, config.use_phase_shifter ? 1 : 0);
  h = FnvMix(h, config.phase_shifter_seed);
  h = FnvMix(h, config.misr_width);
  h = FnvMix(h, config.reset_misr_per_window ? 1 : 0);
  return h;
}

FaultDictionary::FaultDictionary(const netlist::Netlist& netlist,
                                 const StumpsConfig& config,
                                 std::uint64_t num_random,
                                 std::span<const EncodedPattern> deterministic,
                                 std::vector<sim::StuckAtFault> faults,
                                 std::size_t threads, std::size_t block_width)
    : faults_(std::move(faults)) {
  config.Validate();
  if (!config.reset_misr_per_window) {
    throw std::invalid_argument(
        "fault dictionary requires strong windows (per-window MISR reset)");
  }
  if (faults_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "fault dictionary: more candidate faults than 32-bit entry indices");
  }
  netlist_hash_ = netlist.ContentHash();
  config_hash_ = SessionStreamConfigHash(config);
  num_random_ = num_random;
  det_count_ = deterministic.size();
  det_hash_ = HashEncodedPatterns(deterministic);
  total_patterns_ = num_random + det_count_;
  window_ = config.EffectiveWindow(total_patterns_);
  window_count_ =
      static_cast<std::uint32_t>((total_patterns_ + window_ - 1) / window_);
  misr_width_ = config.misr_width;
  words_per_fault_ = (window_count_ + 63) / 64;
  owned_windows_.assign(faults_.size() * words_per_fault_, 0);
  windows_ = owned_windows_;
  owned_window_offsets_.assign(1, 0);
  BuildWindows(netlist, config, num_random, deterministic, threads,
               block_width, 0);
}

void FaultDictionary::BuildWindows(
    const netlist::Netlist& netlist, const StumpsConfig& config,
    std::uint64_t num_random, std::span<const EncodedPattern> deterministic,
    std::size_t threads, std::size_t block_width,
    std::uint32_t start_window) {
  const std::size_t width = netlist.CoreInputs().size();

  // One streaming campaign over the session from `start_window` on. Windows
  // are independent under strong windows (per-window MISR reset), so the
  // build can start at any window boundary: the already-built head of the
  // stream is regenerated and skipped at pattern-generation cost only.
  ReseedingEncoder expander(static_cast<std::uint32_t>(width));
  SessionStreamSource stream(config, width, expander, num_random,
                             deterministic);
  const std::uint64_t first_pattern =
      static_cast<std::uint64_t>(start_window) * window_;
  std::vector<BitPattern> patterns;
  for (std::uint64_t skip = first_pattern; skip > 0;) {
    patterns.clear();
    const std::size_t got = stream.Fill(
        static_cast<std::size_t>(std::min<std::uint64_t>(skip, 4096)),
        patterns);
    if (got == 0) break;  // Stream shorter than the already-built head.
    skip -= got;
  }

  // Each completed window becomes its bucket of the signature table, sorted
  // by (signature, fault) so a query finds every fault with a given
  // signature by one binary search.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> bucket;
  ErrorSignatureSink sink(
      netlist.CoreOutputs().size(),
      {.misr_width = misr_width_,
       .window = window_,
       .total_patterns = total_patterns_,
       .first_pattern = first_pattern},
      faults_, /*track_golden=*/true,
      [&](std::uint32_t w, std::uint64_t golden,
          std::span<const std::uint64_t> errors) {
        bucket.clear();
        for (std::size_t f = 0; f < errors.size(); ++f) {
          if (errors[f] == 0) continue;
          owned_windows_[f * words_per_fault_ + w / 64] |= std::uint64_t{1}
                                                           << (w % 64);
          bucket.emplace_back(golden ^ errors[f],
                              static_cast<std::uint32_t>(f));
        }
        std::sort(bucket.begin(), bucket.end());
        for (const auto& [sig, f] : bucket) {
          owned_entry_signatures_.push_back(sig);
          owned_entry_faults_.push_back(f);
        }
        owned_window_offsets_.push_back(owned_entry_signatures_.size());
      });
  sim::CampaignRunner runner(
      netlist, {.block_width = block_width, .threads = threads});
  runner.Run(stream, sink);
  // Windows the stream ran short of stay empty.
  owned_window_offsets_.resize(std::size_t{window_count_} + 1,
                               owned_entry_signatures_.size());
  ViewOwnedTable();
}

void FaultDictionary::ViewOwnedTable() {
  window_offsets_ = owned_window_offsets_;
  entry_signatures_ = owned_entry_signatures_;
  entry_faults_ = owned_entry_faults_;
}

void FaultDictionary::EnsureOwned() {
  if (mapping_.Size() == 0) return;  // Built or Load()ed: already owned.
  owned_windows_.assign(windows_.begin(), windows_.end());
  owned_window_offsets_.assign(window_offsets_.begin(), window_offsets_.end());
  owned_entry_signatures_.assign(entry_signatures_.begin(),
                                 entry_signatures_.end());
  owned_entry_faults_.assign(entry_faults_.begin(), entry_faults_.end());
  windows_ = owned_windows_;
  ViewOwnedTable();
  mapping_ = util::MmapFile();
}

void FaultDictionary::CheckFaultIndex(std::size_t i) const {
  if (i >= faults_.size()) {
    throw std::out_of_range("FaultDictionary: fault index " +
                            std::to_string(i) + " out of range (count " +
                            std::to_string(faults_.size()) + ")");
  }
}

FaultDictionary::WindowEntryView FaultDictionary::WindowEntries(
    std::uint32_t w) const {
  if (w >= window_count_) {
    throw std::out_of_range("FaultDictionary: window " + std::to_string(w) +
                            " out of range (count " +
                            std::to_string(window_count_) + ")");
  }
  const std::size_t begin = static_cast<std::size_t>(window_offsets_[w]);
  const std::size_t size =
      static_cast<std::size_t>(window_offsets_[w + 1]) - begin;
  return {entry_signatures_.subspan(begin, size),
          entry_faults_.subspan(begin, size)};
}

void FaultDictionary::CheckSignatureTable(const std::string& path) const {
  // Failing faults per window, from the bitmask rows.
  std::vector<std::uint64_t> failing(window_count_, 0);
  for (std::size_t f = 0; f < faults_.size(); ++f) {
    for (std::size_t ww = 0; ww < words_per_fault_; ++ww) {
      for (std::uint64_t bits = windows_[f * words_per_fault_ + ww]; bits != 0;
           bits &= bits - 1) {
        const std::size_t w = ww * 64 + std::countr_zero(bits);
        if (w >= window_count_) {
          Corrupt(path, "corrupted bitmask row (failing window " +
                            std::to_string(w) + " past the window count)");
        }
        ++failing[w];
      }
    }
  }
  // Each window lists exactly its failing faults, once each, sorted by
  // (signature, fault): the table a build of these rows produces.
  std::vector<std::uint32_t> listed_in(
      faults_.size(), std::numeric_limits<std::uint32_t>::max());
  for (std::uint32_t w = 0; w < window_count_; ++w) {
    const std::string where = " in window " + std::to_string(w);
    const std::uint64_t begin = window_offsets_[w];
    const std::uint64_t end = window_offsets_[w + 1];
    if (end - begin != failing[w]) {
      Corrupt(path, "corrupted signature table (" +
                        std::to_string(end - begin) + " entries for " +
                        std::to_string(failing[w]) + " failing faults" +
                        where + ")");
    }
    for (std::uint64_t i = begin; i < end; ++i) {
      const std::uint32_t f = entry_faults_[i];
      if (f >= faults_.size()) {
        Corrupt(path, "corrupted signature table (fault index " +
                          std::to_string(f) + " out of range" + where + ")");
      }
      if (!((windows_[f * words_per_fault_ + w / 64] >> (w % 64)) & 1) ||
          listed_in[f] == w) {
        Corrupt(path, "corrupted signature table (fault " + std::to_string(f) +
                          " does not fail once" + where + ")");
      }
      listed_in[f] = w;
      if (i > begin &&
          std::pair(entry_signatures_[i - 1], entry_faults_[i - 1]) >=
              std::pair(entry_signatures_[i], f)) {
        Corrupt(path, "corrupted signature table (entries not sorted" +
                          where + ")");
      }
    }
  }
}

void FaultDictionary::Save(const std::string& path) const {
  const SectionLayout l = LayoutFor(faults_.size(), words_per_fault_,
                                    window_count_, entry_signatures_.size());
  DictHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.netlist_hash = netlist_hash_;
  h.config_hash = config_hash_;
  h.num_random = num_random_;
  h.det_count = det_count_;
  h.det_hash = det_hash_;
  h.total_patterns = total_patterns_;
  h.window = window_;
  h.fault_count = faults_.size();
  h.words_per_fault = words_per_fault_;
  h.entry_count = entry_signatures_.size();
  h.window_count = window_count_;
  h.misr_width = misr_width_;
  h.faults_off = l.faults_off;
  h.windows_off = l.windows_off;
  h.offsets_off = l.offsets_off;
  h.entry_sigs_off = l.entry_sigs_off;
  h.entry_faults_off = l.entry_faults_off;
  h.file_bytes = l.file_bytes;
  h.header_hash = HeaderHash(h);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) Corrupt(path, "cannot open for writing");
  const auto write = [&out](const auto* data, std::size_t count) {
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(count * sizeof(*data)));
  };
  write(&h, 1);
  std::vector<DiskFault> disk_faults(faults_.size());
  for (std::size_t f = 0; f < faults_.size(); ++f) {
    disk_faults[f] = {faults_[f].node, faults_[f].fanin_index,
                      static_cast<std::uint8_t>(faults_[f].stuck_value), 0};
  }
  write(disk_faults.data(), disk_faults.size());
  write(windows_.data(), windows_.size());
  write(window_offsets_.data(), window_offsets_.size());
  write(entry_signatures_.data(), entry_signatures_.size());
  write(entry_faults_.data(), entry_faults_.size());
  const std::uint32_t pad = 0;
  write(&pad, PaddedFaultBytes(h.entry_count) / sizeof(std::uint32_t) -
                  entry_faults_.size());
  if (!out) Corrupt(path, "write failed");
}

FaultDictionary FaultDictionary::Load(const std::string& path) {
  return Open(path, /*keep_mapping=*/false);
}

FaultDictionary FaultDictionary::Map(const std::string& path) {
  return Open(path, /*keep_mapping=*/true);
}

FaultDictionary FaultDictionary::Open(const std::string& path,
                                      bool keep_mapping) {
  util::MmapFile file(path);
  const std::span<const std::byte> bytes = file.Bytes();
  if (bytes.size() < sizeof(DictHeader)) {
    Corrupt(path, "truncated file (smaller than the header)");
  }
  DictHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    if (std::memcmp(h.magic, kMagic, kMagicFamily) == 0) {
      Corrupt(path, "unsupported format version '" +
                        std::string(h.magic, sizeof(h.magic)) +
                        "' (this build reads '" +
                        std::string(kMagic, sizeof(kMagic)) +
                        "'); rebuild the dictionary");
    }
    Corrupt(path, "bad magic (not a fault dictionary)");
  }
  if (h.header_hash != HeaderHash(h)) {
    Corrupt(path, "corrupted header (checksum mismatch)");
  }
  if (h.file_bytes != bytes.size()) {
    Corrupt(path, "truncated or padded file (header declares " +
                      std::to_string(h.file_bytes) + " bytes, file has " +
                      std::to_string(bytes.size()) + ")");
  }
  // Every section must fit in the file on its own, so the layout arithmetic
  // below cannot wrap.
  const std::uint64_t word_cap = bytes.size() / sizeof(std::uint64_t);
  if (h.fault_count > word_cap || h.entry_count > word_cap ||
      h.window_count >= word_cap ||
      (h.fault_count != 0 && h.words_per_fault > word_cap / h.fault_count)) {
    Corrupt(path, "inconsistent section layout (corrupted header)");
  }
  // Re-derive the section layout from the counts; any disagreement with the
  // stored offsets means corruption.
  const SectionLayout l = LayoutFor(h.fault_count, h.words_per_fault,
                                    h.window_count, h.entry_count);
  if (h.faults_off != l.faults_off ||
      h.windows_off != l.windows_off || h.offsets_off != l.offsets_off ||
      h.entry_sigs_off != l.entry_sigs_off ||
      h.entry_faults_off != l.entry_faults_off ||
      h.file_bytes != l.file_bytes ||
      h.words_per_fault != (h.window_count + 63) / 64 ||
      h.total_patterns != h.num_random + h.det_count ||
      h.window == 0 ||
      h.window_count !=
          (h.total_patterns + h.window - 1) / h.window) {
    Corrupt(path, "inconsistent section layout (corrupted header)");
  }
  if (h.misr_width < 1 || h.misr_width > 64) {
    Corrupt(path, "corrupted header (misr_width " +
                      std::to_string(h.misr_width) + " outside [1, 64])");
  }

  // Window offset table (metadata-scale: one word per window; the entries
  // themselves stay untouched): starts at 0, monotone, ends at the entry
  // count.
  const auto* offsets = SectionAt<std::uint64_t>(bytes, l.offsets_off);
  if (offsets[0] != 0 || offsets[h.window_count] != h.entry_count) {
    Corrupt(path, "corrupted window offsets (bad bounds)");
  }
  for (std::size_t w = 0; w < h.window_count; ++w) {
    if (offsets[w] > offsets[w + 1]) {
      Corrupt(path, "corrupted window offsets (not monotone)");
    }
  }

  FaultDictionary d;
  d.netlist_hash_ = h.netlist_hash;
  d.config_hash_ = h.config_hash;
  d.num_random_ = h.num_random;
  d.det_count_ = h.det_count;
  d.det_hash_ = h.det_hash;
  d.total_patterns_ = h.total_patterns;
  d.window_ = h.window;
  d.window_count_ = h.window_count;
  d.misr_width_ = h.misr_width;
  d.words_per_fault_ = static_cast<std::size_t>(h.words_per_fault);

  // The fault table is always materialized — it is the metadata-scale part
  // of the artifact (8 bytes per fault vs the multi-word rows + signatures).
  const auto* disk_faults = SectionAt<DiskFault>(bytes, l.faults_off);
  d.faults_.resize(static_cast<std::size_t>(h.fault_count));
  for (std::size_t f = 0; f < d.faults_.size(); ++f) {
    d.faults_[f].node = disk_faults[f].node;
    d.faults_[f].fanin_index = disk_faults[f].fanin_index;
    d.faults_[f].stuck_value = disk_faults[f].stuck_value != 0;
  }

  const std::size_t window_words =
      static_cast<std::size_t>(h.fault_count * h.words_per_fault);
  const std::size_t offset_count = std::size_t{h.window_count} + 1;
  const std::size_t entries = static_cast<std::size_t>(h.entry_count);
  if (keep_mapping) {
    d.mapping_ = std::move(file);
    // Re-derive the section pointers from the moved-to mapping: spans must
    // point into storage owned by `d`.
    const std::span<const std::byte> mapped = d.mapping_.Bytes();
    d.windows_ = {SectionAt<std::uint64_t>(mapped, l.windows_off),
                  window_words};
    d.window_offsets_ = {SectionAt<std::uint64_t>(mapped, l.offsets_off),
                         offset_count};
    d.entry_signatures_ = {SectionAt<std::uint64_t>(mapped, l.entry_sigs_off),
                           entries};
    d.entry_faults_ = {SectionAt<std::uint32_t>(mapped, l.entry_faults_off),
                       entries};
  } else {
    const auto* windows = SectionAt<std::uint64_t>(bytes, l.windows_off);
    const auto* sigs = SectionAt<std::uint64_t>(bytes, l.entry_sigs_off);
    const auto* faults = SectionAt<std::uint32_t>(bytes, l.entry_faults_off);
    d.owned_windows_.assign(windows, windows + window_words);
    d.owned_window_offsets_.assign(offsets, offsets + offset_count);
    d.owned_entry_signatures_.assign(sigs, sigs + entries);
    d.owned_entry_faults_.assign(faults, faults + entries);
    d.windows_ = d.owned_windows_;
    d.ViewOwnedTable();
    d.CheckSignatureTable(path);
  }
  return d;
}

void FaultDictionary::Extend(const netlist::Netlist& netlist,
                             const StumpsConfig& config,
                             std::uint64_t num_random,
                             std::span<const EncodedPattern> deterministic,
                             std::size_t threads, std::size_t block_width) {
  if (netlist.ContentHash() != netlist_hash_) {
    throw std::invalid_argument(
        "FaultDictionary::Extend: netlist differs from the dictionary's");
  }
  config.Validate();
  if (SessionStreamConfigHash(config) != config_hash_) {
    throw std::invalid_argument(
        "FaultDictionary::Extend: session config differs from the "
        "dictionary's");
  }
  if (config.misr_width != misr_width_) {
    throw std::invalid_argument(
        "FaultDictionary::Extend: misr_width " +
        std::to_string(config.misr_width) + " differs from the dictionary's " +
        std::to_string(misr_width_));
  }
  const std::uint64_t new_total = num_random + deterministic.size();
  if (new_total < total_patterns_) {
    throw std::invalid_argument(
        "FaultDictionary::Extend: session shrank (only growth is supported)");
  }
  // The old stream must be a prefix of the grown one. Two shapes qualify:
  // the random phase is unchanged and the old deterministic list is a prefix
  // of the new one, or the old session was purely random and the random
  // phase grew (an LFSR stream's first N patterns are length-invariant).
  const bool same_head =
      num_random == num_random_ && deterministic.size() >= det_count_ &&
      HashEncodedPatterns(deterministic.first(
          static_cast<std::size_t>(det_count_))) == det_hash_;
  const bool random_growth = det_count_ == 0 && num_random >= num_random_;
  if (!same_head && !random_growth) {
    throw std::invalid_argument(
        "FaultDictionary::Extend: grown session does not extend this "
        "dictionary's pattern stream");
  }
  if (config.EffectiveWindow(new_total) != window_) {
    throw std::invalid_argument(
        "FaultDictionary::Extend: the grown session changes the effective "
        "window width (max_windows_per_session rewidening); a full rebuild "
        "is required");
  }
  if (new_total == total_patterns_) return;  // ΔN == 0: nothing to do.

  EnsureOwned();

  // Complete windows keep their rows; a trailing partial window is
  // re-simulated from its first pattern (extending a mid-window MISR would
  // need per-fault mid-states for *all* faults, which costs more than the
  // one-window replay).
  const std::uint32_t start_w =
      total_patterns_ % window_ == 0
          ? window_count_
          : window_count_ - 1;
  const std::uint32_t new_count =
      static_cast<std::uint32_t>((new_total + window_ - 1) / window_);
  const std::size_t new_words = (new_count + 63) / 64;
  const std::size_t old_words = words_per_fault_;

  // Re-stride the bitmask rows to the new word count, clearing every bit at
  // or past start_w (the rebuilt region).
  std::vector<std::uint64_t> grown(faults_.size() * new_words, 0);
  const std::size_t copy_words = std::min(old_words, new_words);
  for (std::size_t f = 0; f < faults_.size(); ++f) {
    for (std::size_t ww = 0; ww < copy_words; ++ww) {
      grown[f * new_words + ww] = owned_windows_[f * old_words + ww];
    }
    for (std::uint32_t w = start_w; w < window_count_; ++w) {
      grown[f * new_words + w / 64] &= ~(std::uint64_t{1} << (w % 64));
    }
  }

  // The signature table is window-major: keep the sections of the complete
  // windows and append the rebuilt ones.
  const std::size_t kept_entries =
      static_cast<std::size_t>(owned_window_offsets_[start_w]);
  owned_window_offsets_.resize(std::size_t{start_w} + 1);
  owned_entry_signatures_.resize(kept_entries);
  owned_entry_faults_.resize(kept_entries);

  owned_windows_ = std::move(grown);
  windows_ = owned_windows_;
  words_per_fault_ = new_words;
  window_count_ = new_count;
  num_random_ = num_random;
  det_count_ = deterministic.size();
  det_hash_ = HashEncodedPatterns(deterministic);
  total_patterns_ = new_total;

  BuildWindows(netlist, config, num_random, deterministic, threads,
               block_width, start_w);
}

std::vector<DiagnosisCandidate> FaultDictionary::Diagnose(
    std::span<const FailDatum> fail_data, std::size_t top_k) const {
  // No fail evidence ranks no candidates, and a zero-sized ranking needs no
  // scoring pass; both are defined results, not incidental loop behavior.
  if (fail_data.empty() || top_k == 0) return {};

  // Observed failing windows as a bitmask row. An index past the row is a
  // failing window no candidate predicts: it widens every union, once per
  // distinct index as the bitmask de-duplicates in-range ones.
  const std::uint64_t row_bits = std::uint64_t{64} * words_per_fault_;
  std::vector<std::uint64_t> observed(words_per_fault_, 0);
  std::vector<std::uint32_t> unpredicted;
  for (const FailDatum& fd : fail_data) {
    if (fd.window_index < row_bits) {
      observed[fd.window_index / 64] |= std::uint64_t{1}
                                        << (fd.window_index % 64);
    } else {
      unpredicted.push_back(fd.window_index);
    }
  }
  std::sort(unpredicted.begin(), unpredicted.end());
  const auto unpredicted_count = static_cast<std::uint64_t>(
      std::unique(unpredicted.begin(), unpredicted.end()) -
      unpredicted.begin());

  // Signature bonus counts: one binary search per fail datum in its
  // window's section of the table finds every fault whose stored faulty
  // signature matches exactly.
  const std::size_t fault_count = faults_.size();
  std::vector<std::uint32_t> matches(fault_count, 0);
  for (const FailDatum& fd : fail_data) {
    const std::uint32_t w = fd.window_index;
    if (w >= window_count_) continue;
    const auto first = entry_signatures_.begin();
    const auto [lo, hi] = std::equal_range(
        first + static_cast<std::ptrdiff_t>(window_offsets_[w]),
        first + static_cast<std::ptrdiff_t>(window_offsets_[w + 1]),
        fd.observed_signature);
    for (auto it = lo; it != hi; ++it) {
      const std::uint32_t f =
          entry_faults_[static_cast<std::size_t>(it - first)];
      // A corrupted mapped entry can mis-rank, never write out of bounds.
      if (f < fault_count) ++matches[f];
    }
  }

  // Score = failing-window-set Jaccard index + matched fraction of the
  // fail data. The union is never empty: every datum is either a set bit
  // of `observed` or an unpredicted window.
  std::vector<double> scores(fault_count);
  for (std::size_t f = 0; f < fault_count; ++f) {
    const auto fw = windows_.subspan(f * words_per_fault_, words_per_fault_);
    std::uint64_t inter = 0, uni = unpredicted_count;
    for (std::size_t w = 0; w < words_per_fault_; ++w) {
      inter += std::popcount(fw[w] & observed[w]);
      uni += std::popcount(fw[w] | observed[w]);
    }
    double score = static_cast<double>(inter) / static_cast<double>(uni);
    score += static_cast<double>(matches[f]) /
             static_cast<double>(fail_data.size());
    scores[f] = score;
  }

  // Top k by (score desc, fault index asc): exactly the order a stable
  // sort by descending score keeps, truncated. top_k past the candidate
  // count returns every candidate.
  std::vector<std::uint32_t> order(fault_count);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  const std::size_t k = std::min(top_k, fault_count);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k), order.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return scores[a] > scores[b] ||
                             (scores[a] == scores[b] && a < b);
                    });
  std::vector<DiagnosisCandidate> ranked;
  ranked.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    ranked.push_back({faults_[order[i]], scores[order[i]]});
  }
  return ranked;
}

}  // namespace bistdse::bist
