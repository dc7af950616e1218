#include "serve/wire.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace bistdse::serve::wire {

namespace {

constexpr std::uint32_t kQueryMagic = 0x51534442u;    // "BDSQ" little-endian
constexpr std::uint32_t kRankingMagic = 0x52534442u;  // "BDSR"
// Encoded element sizes: window index + two signatures; fault node, fanin
// index, polarity and score bits.
constexpr std::size_t kFailDatumBytes = 4 + 8 + 8;
constexpr std::size_t kCandidateBytes = 4 + 1 + 1 + 8;

std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

template <typename T>
void Append(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

void AppendString(std::vector<std::uint8_t>& out, const std::string& s) {
  Append<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void Seal(std::vector<std::uint8_t>& out) {
  Append<std::uint64_t>(out, Fnv1a({out.data(), out.size()}));
}

/// Bounds-checked sequential reader; every defect throws with the codec's
/// name so a malformed upload is attributable from the error alone.
struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  const char* what;

  [[noreturn]] void Fail(const char* problem) const {
    throw std::runtime_error(std::string(what) + ": " + problem);
  }

  template <typename T>
  T Read() {
    if (bytes.size() - pos < sizeof(T)) Fail("truncated payload");
    T value;
    std::memcpy(&value, bytes.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  /// Reads an element count and checks that that many elements of
  /// `element_bytes` fit the bytes left, before anyone allocates for them.
  std::uint32_t ReadCount(std::size_t element_bytes) {
    const auto count = Read<std::uint32_t>();
    if ((bytes.size() - pos) / element_bytes < count) {
      Fail("truncated payload");
    }
    return count;
  }

  std::string ReadString() {
    const auto len = Read<std::uint32_t>();
    if (bytes.size() - pos < len) Fail("truncated payload");
    std::string s(reinterpret_cast<const char*>(bytes.data() + pos), len);
    pos += len;
    return s;
  }

  /// An encoder writes nothing between its last field and the checksum.
  void ExpectEnd() const {
    if (pos != bytes.size()) Fail("trailing bytes");
  }
};

Reader Open(std::span<const std::uint8_t> bytes, std::uint32_t magic,
            const char* what) {
  if (bytes.size() < sizeof(std::uint32_t) + sizeof(std::uint64_t)) {
    throw std::runtime_error(std::string(what) + ": truncated payload");
  }
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t checksum;
  std::memcpy(&checksum, bytes.data() + body, sizeof(checksum));
  if (checksum != Fnv1a(bytes.first(body))) {
    throw std::runtime_error(std::string(what) + ": checksum mismatch");
  }
  Reader reader{bytes.first(body), 0, what};
  if (reader.Read<std::uint32_t>() != magic) reader.Fail("bad magic");
  return reader;
}

}  // namespace

std::vector<std::uint8_t> EncodeQuery(const bist::DictQuery& query) {
  std::vector<std::uint8_t> out;
  Append(out, kQueryMagic);
  AppendString(out, query.shard.ecu);
  AppendString(out, query.shard.profile);
  Append<std::uint32_t>(out, static_cast<std::uint32_t>(query.fail_data.size()));
  for (const bist::FailDatum& f : query.fail_data) {
    Append(out, f.window_index);
    Append(out, f.observed_signature);
    Append(out, f.expected_signature);
  }
  Seal(out);
  return out;
}

bist::DictQuery DecodeQuery(std::span<const std::uint8_t> bytes) {
  Reader reader = Open(bytes, kQueryMagic, "wire query");
  bist::DictQuery query;
  query.shard.ecu = reader.ReadString();
  query.shard.profile = reader.ReadString();
  const auto count = reader.ReadCount(kFailDatumBytes);
  query.fail_data.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    bist::FailDatum f;
    f.window_index = reader.Read<std::uint32_t>();
    f.observed_signature = reader.Read<std::uint64_t>();
    f.expected_signature = reader.Read<std::uint64_t>();
    query.fail_data.push_back(f);
  }
  reader.ExpectEnd();
  return query;
}

std::vector<std::uint8_t> EncodeRanking(
    std::span<const bist::DiagnosisCandidate> ranking) {
  std::vector<std::uint8_t> out;
  Append(out, kRankingMagic);
  Append<std::uint32_t>(out, static_cast<std::uint32_t>(ranking.size()));
  for (const bist::DiagnosisCandidate& c : ranking) {
    Append<std::uint32_t>(out, c.fault.node);
    Append<std::int8_t>(out, c.fault.fanin_index);
    Append<std::uint8_t>(out, c.fault.stuck_value ? 1 : 0);
    Append<std::uint64_t>(out, std::bit_cast<std::uint64_t>(c.score));
  }
  Seal(out);
  return out;
}

std::vector<bist::DiagnosisCandidate> DecodeRanking(
    std::span<const std::uint8_t> bytes) {
  Reader reader = Open(bytes, kRankingMagic, "wire ranking");
  const auto count = reader.ReadCount(kCandidateBytes);
  std::vector<bist::DiagnosisCandidate> ranking;
  ranking.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    bist::DiagnosisCandidate c;
    c.fault.node = reader.Read<std::uint32_t>();
    c.fault.fanin_index = reader.Read<std::int8_t>();
    const auto polarity = reader.Read<std::uint8_t>();
    if (polarity > 1) reader.Fail("bad polarity");
    c.fault.stuck_value = polarity == 1;
    c.score = std::bit_cast<double>(reader.Read<std::uint64_t>());
    ranking.push_back(c);
  }
  reader.ExpectEnd();
  return ranking;
}

}  // namespace bistdse::serve::wire
