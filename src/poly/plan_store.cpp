#include "poly/plan_store.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"
#include "util/status.hpp"

namespace ddm::poly {

namespace {

constexpr char kMagic[8] = {'D', 'D', 'M', 'P', 'L', 'A', 'N', '\n'};

// Fixed header byte offsets — save and load compute the identical layout.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffN = 12;
constexpr std::size_t kOffPieceCount = 16;
constexpr std::size_t kOffCoeffTotal = 24;
constexpr std::size_t kOffTLen = 32;
constexpr std::size_t kOffCertLen = 40;
constexpr std::size_t kOffMaxError = 48;
constexpr std::size_t kOffTolerance = 56;
constexpr std::size_t kOffPayloadBytes = 64;
constexpr std::size_t kOffPayloadChecksum = 72;
constexpr std::size_t kOffHeaderChecksum = 80;
constexpr std::size_t kHeaderSize = 88;

// Doubles live at 64-byte-aligned file offsets so the mapped arrays are
// cache-line aligned exactly like the vectors lower() produces.
constexpr std::size_t kAlign = 64;

constexpr std::size_t align_up(std::size_t offset) {
  return (offset + kAlign - 1) / kAlign * kAlign;
}

// On-disk piece record: five 8-byte fields, 40 bytes, no padding.
constexpr std::size_t kPieceRecordSize = 40;

template <typename T>
void put(std::vector<char>& buffer, std::size_t offset, const T& value) {
  std::memcpy(buffer.data() + offset, &value, sizeof(T));
}

template <typename T>
T get(const char* data, std::size_t offset) {
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

struct StoreMetrics {
  obs::Counter saves = obs::counter("plan_store.saves");
  obs::Counter loads = obs::counter("plan_store.loads");

  static const StoreMetrics& get() {
    static const StoreMetrics metrics;
    return metrics;
  }
};

// Keeps a loaded file's bytes alive for the borrowed coefficient views: a
// read-only mmap on POSIX, an owned heap buffer elsewhere (or when mmap
// fails, e.g. on filesystems without mmap support).
struct FileBytes {
  const char* data = nullptr;
  std::size_t size = 0;
  std::vector<char> owned;
#if defined(__unix__) || defined(__APPLE__)
  void* base = nullptr;
  std::size_t map_len = 0;
  ~FileBytes() {
    if (base != nullptr) ::munmap(base, map_len);
  }
  FileBytes() = default;
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;
#endif
};

std::shared_ptr<FileBytes> read_file(const std::string& path, std::uint32_t n,
                                     const std::string& t) {
  auto bytes = std::make_shared<FileBytes>();
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw PlanStoreError("cannot open file for reading", n, t, path);
  }
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ, MAP_PRIVATE,
                        fd, 0);
    if (base != MAP_FAILED) {
      bytes->base = base;
      bytes->map_len = static_cast<std::size_t>(st.st_size);
      bytes->data = static_cast<const char*>(base);
      bytes->size = bytes->map_len;
      ::close(fd);
      return bytes;
    }
  }
  ::close(fd);
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw PlanStoreError("cannot open file for reading", n, t, path);
  }
  bytes->owned.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  bytes->data = bytes->owned.data();
  bytes->size = bytes->owned.size();
  return bytes;
}

// Filename-safe canonical key: "n4_t4_3.plan" for (4, 4/3), "n6_t2.plan"
// for (6, 2). Rational::to_string is canonical by construction (the type
// normalizes on every mutation), so equal rationals map to one file.
std::string file_name(std::uint32_t n, const std::string& t_text) {
  std::string name = "n";
  name += std::to_string(n);
  name += "_t";
  for (const char c : t_text) name += c == '/' ? '_' : c;
  return name + ".plan";
}

// The process-wide store slot (PlanCache's fallthrough target). Guarded by a
// mutex: get_or_lower is called concurrently and the first call does the
// DDM_PLAN_STORE env read.
std::mutex g_configured_mutex;
std::shared_ptr<PlanStore> g_configured;  // NOLINT: guarded global
bool g_configured_resolved = false;       // NOLINT: guarded global

}  // namespace

std::uint64_t plan_store_checksum(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

PlanStore::PlanStore(std::string directory) : directory_(std::move(directory)) {}

std::shared_ptr<PlanStore> PlanStore::open_directory(const std::string& directory,
                                                     const std::string& what) {
  std::error_code ec;
  if (!std::filesystem::is_directory(directory, ec)) {
    throw Error(what + ": plan store directory '" + directory +
                "' does not exist or is not a directory");
  }
  return std::make_shared<PlanStore>(directory);
}

std::shared_ptr<PlanStore> PlanStore::create_directory(const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec || !std::filesystem::is_directory(directory)) {
    throw Error("plan store: cannot create directory '" + directory + "'");
  }
  return std::make_shared<PlanStore>(directory);
}

std::string PlanStore::path_for(std::uint32_t n, const util::Rational& t) const {
  return (std::filesystem::path(directory_) / file_name(n, t.to_string())).string();
}

void PlanStore::save(std::uint32_t n, const util::Rational& t, const CompiledPiecewise& plan,
                     double tolerance) const {
  const std::string t_text = t.to_string();
  const std::string path = path_for(n, t);
  DDM_SPAN("plan_store.save", {{"n", static_cast<std::int64_t>(n)}});
  if (!(plan.max_error_bound() <= tolerance)) {
    throw PlanStoreError("plan certificate " + std::to_string(plan.max_error_bound()) +
                             " does not clear the requested tolerance " +
                             std::to_string(tolerance) + "; refusing to persist",
                         n, t_text, path);
  }
  const std::vector<double>& breaks = plan.breakpoints();
  const std::vector<CompiledPiece>& pieces = plan.pieces();
  const std::vector<std::string>& certs = plan.piece_certificates();
  if (certs.size() != pieces.size()) {
    throw PlanStoreError("plan carries no per-piece certificates (not produced by lower()?)", n,
                         t_text, path);
  }
  std::string cert_blob;
  for (const std::string& cert : certs) {
    cert_blob += cert;
    cert_blob += '\n';
  }
  const std::span<const double> coeffs = plan.coefficients();
  const std::span<const double> lanes = plan.lane_coefficients();

  const std::size_t breaks_off = align_up(kHeaderSize + t_text.size() + cert_blob.size());
  const std::size_t pieces_off = breaks_off + breaks.size() * sizeof(double);
  const std::size_t coeffs_off = align_up(pieces_off + pieces.size() * kPieceRecordSize);
  const std::size_t lanes_off = align_up(coeffs_off + coeffs.size() * sizeof(double));
  const std::size_t total = lanes_off + lanes.size() * sizeof(double);

  std::vector<char> buffer(total, '\0');
  std::memcpy(buffer.data() + kOffMagic, kMagic, sizeof(kMagic));
  put(buffer, kOffVersion, kPlanStoreFormatVersion);
  put(buffer, kOffN, n);
  put(buffer, kOffPieceCount, static_cast<std::uint64_t>(pieces.size()));
  put(buffer, kOffCoeffTotal, static_cast<std::uint64_t>(coeffs.size()));
  put(buffer, kOffTLen, static_cast<std::uint64_t>(t_text.size()));
  put(buffer, kOffCertLen, static_cast<std::uint64_t>(cert_blob.size()));
  put(buffer, kOffMaxError, plan.max_error_bound());
  put(buffer, kOffTolerance, tolerance);
  put(buffer, kOffPayloadBytes, static_cast<std::uint64_t>(total - kHeaderSize));

  std::memcpy(buffer.data() + kHeaderSize, t_text.data(), t_text.size());
  std::memcpy(buffer.data() + kHeaderSize + t_text.size(), cert_blob.data(), cert_blob.size());
  std::memcpy(buffer.data() + breaks_off, breaks.data(), breaks.size() * sizeof(double));
  for (std::size_t p = 0; p < pieces.size(); ++p) {
    const std::size_t off = pieces_off + p * kPieceRecordSize;
    put(buffer, off, pieces[p].lo);
    put(buffer, off + 8, pieces[p].hi);
    put(buffer, off + 16, static_cast<std::uint64_t>(pieces[p].coeff_begin));
    put(buffer, off + 24, static_cast<std::uint64_t>(pieces[p].coeff_count));
    put(buffer, off + 32, pieces[p].error_bound);
  }
  std::memcpy(buffer.data() + coeffs_off, coeffs.data(), coeffs.size() * sizeof(double));
  std::memcpy(buffer.data() + lanes_off, lanes.data(), lanes.size() * sizeof(double));

  put(buffer, kOffPayloadChecksum,
      plan_store_checksum(buffer.data() + kHeaderSize, total - kHeaderSize));
  put(buffer, kOffHeaderChecksum, plan_store_checksum(buffer.data(), kOffHeaderChecksum));

  // Atomic publish: a crashed save leaves at worst a stale .tmp, never a
  // half-written .plan a reader could map.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    out.flush();
    if (!out) {
      throw PlanStoreError("cannot write temporary file '" + tmp + "'", n, t_text, path);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw PlanStoreError("cannot rename '" + tmp + "' into place", n, t_text, path);
  }
  if (obs::metrics_enabled()) StoreMetrics::get().saves.add();
}

namespace {

// Shared validate-on-load core. `expected_t` empty means "take the identity
// from the file" (the plans validate/list path).
LoadedPlan load_and_validate(const std::string& path, std::uint32_t expected_n,
                             const std::string& expected_t) {
  std::uint32_t n = expected_n;
  std::string t = expected_t.empty() ? "?" : expected_t;
  const auto reject = [&](const std::string& reason, bool stale = false) -> void {
    throw PlanStoreError(reason, n, t, path, stale);
  };

  const std::shared_ptr<FileBytes> bytes = read_file(path, n, t);
  const char* data = bytes->data;
  if (bytes->size < kHeaderSize) reject("truncated file (shorter than the header)");
  if (std::memcmp(data + kOffMagic, kMagic, sizeof(kMagic)) != 0) {
    reject("bad magic (not a ddm plan file)");
  }
  // Version precedes the checksum check on purpose: a future format is
  // allowed to relayout the header, so all we can trust about it is the
  // magic + version prefix — and the caller needs stale vs corrupt anyway.
  const auto version = get<std::uint32_t>(data, kOffVersion);
  if (version != kPlanStoreFormatVersion) {
    reject("stale format version " + std::to_string(version) + " (current " +
               std::to_string(kPlanStoreFormatVersion) + ")",
           /*stale=*/true);
  }
  if (get<std::uint64_t>(data, kOffHeaderChecksum) !=
      plan_store_checksum(data, kOffHeaderChecksum)) {
    reject("header checksum mismatch");
  }

  const auto file_n = get<std::uint32_t>(data, kOffN);
  const auto piece_count = get<std::uint64_t>(data, kOffPieceCount);
  const auto coeff_total = get<std::uint64_t>(data, kOffCoeffTotal);
  const auto t_len = get<std::uint64_t>(data, kOffTLen);
  const auto cert_len = get<std::uint64_t>(data, kOffCertLen);
  const double max_error = get<double>(data, kOffMaxError);
  const double tolerance = get<double>(data, kOffTolerance);
  const auto payload_bytes = get<std::uint64_t>(data, kOffPayloadBytes);

  // Size sanity BEFORE any offset arithmetic: all section sizes must be
  // consistent with the actual byte count, so a truncated payload can never
  // send a reader past the end of the mapping.
  constexpr std::uint64_t kSaneLimit = 1ULL << 40;
  if (piece_count == 0 || piece_count > kSaneLimit || coeff_total > kSaneLimit ||
      t_len > kSaneLimit || cert_len > kSaneLimit) {
    reject("implausible section sizes (corrupt header)");
  }
  if (expected_t.empty() && t_len > 0 && bytes->size >= kHeaderSize + t_len) {
    n = file_n;
    t.assign(data + kHeaderSize, static_cast<std::size_t>(t_len));
  }
  const std::size_t breaks_off =
      align_up(kHeaderSize + static_cast<std::size_t>(t_len) + static_cast<std::size_t>(cert_len));
  const std::size_t pieces_off = breaks_off + (piece_count + 1) * sizeof(double);
  const std::size_t coeffs_off = align_up(pieces_off + piece_count * kPieceRecordSize);
  const std::size_t lanes_off = align_up(coeffs_off + coeff_total * sizeof(double));
  const std::size_t total = lanes_off + coeff_total * util::simd::kCoeffLanes * sizeof(double);
  if (kHeaderSize + payload_bytes != total) {
    reject("payload size field disagrees with the section layout");
  }
  if (bytes->size < total) reject("truncated file (payload cut short)");
  if (bytes->size != total) reject("trailing bytes after the payload");
  if (get<std::uint64_t>(data, kOffPayloadChecksum) !=
      plan_store_checksum(data + kHeaderSize, total - kHeaderSize)) {
    reject("payload checksum mismatch (corrupt plan data)");
  }

  const std::string file_t(data + kHeaderSize, static_cast<std::size_t>(t_len));
  if (expected_t.empty()) {
    n = file_n;
    t = file_t;
  } else if (file_n != expected_n || file_t != expected_t) {
    reject("file names a different plan (n=" + std::to_string(file_n) + ", t=" + file_t + ")");
  }

  // Certificate blob: exactly piece_count newline-terminated rational lines.
  std::vector<std::string> certs;
  certs.reserve(piece_count);
  {
    const char* cert_begin = data + kHeaderSize + t_len;
    std::size_t pos = 0;
    while (pos < cert_len) {
      const char* nl = static_cast<const char*>(
          std::memchr(cert_begin + pos, '\n', static_cast<std::size_t>(cert_len - pos)));
      if (nl == nullptr) break;
      certs.emplace_back(cert_begin + pos, nl);
      pos = static_cast<std::size_t>(nl - cert_begin) + 1;
    }
    if (pos != cert_len || certs.size() != piece_count) {
      reject("certificate blob does not hold one line per piece");
    }
  }

  CompiledPiecewise::StoredParts parts;
  parts.breaks.resize(piece_count + 1);
  std::memcpy(parts.breaks.data(), data + breaks_off, parts.breaks.size() * sizeof(double));
  parts.pieces.resize(piece_count);
  for (std::size_t p = 0; p < piece_count; ++p) {
    const std::size_t off = pieces_off + p * kPieceRecordSize;
    parts.pieces[p].lo = get<double>(data, off);
    parts.pieces[p].hi = get<double>(data, off + 8);
    parts.pieces[p].coeff_begin = static_cast<std::size_t>(get<std::uint64_t>(data, off + 16));
    parts.pieces[p].coeff_count = static_cast<std::size_t>(get<std::uint64_t>(data, off + 24));
    parts.pieces[p].error_bound = get<double>(data, off + 32);
  }

  // The certificate chain: every stored double bound must be EXACTLY the
  // directed round-up of its stored exact rational bound, the header
  // max_error their maximum, and the maximum must still clear the recorded
  // tolerance. This is what "never serve a wrong plan" means: a bound edited
  // after the fact (or a tolerance the plan no longer meets) is caught even
  // when the checksums are internally consistent.
  double recomputed_max = 0.0;
  for (std::size_t p = 0; p < piece_count; ++p) {
    util::Rational cert;
    try {
      cert = util::Rational::parse(certs[p]);
    } catch (const std::exception&) {
      reject("piece " + std::to_string(p) + " carries an unparseable certificate");
    }
    if (cert.signum() < 0) reject("piece " + std::to_string(p) + " has a negative certificate");
    if (certificate_round_up(cert) != parts.pieces[p].error_bound) {
      reject("piece " + std::to_string(p) +
             " certificate does not reproduce the stored error bound");
    }
    recomputed_max = std::max(recomputed_max, parts.pieces[p].error_bound);
  }
  if (recomputed_max != max_error) {
    reject("header max_error disagrees with the per-piece bounds");
  }
  if (!(max_error <= tolerance)) {
    reject("certificate " + std::to_string(max_error) +
           " no longer clears the stored tolerance " + std::to_string(tolerance));
  }

  parts.piece_certs = std::move(certs);
  parts.coeffs = reinterpret_cast<const double*>(data + coeffs_off);
  parts.lane_coeffs = reinterpret_cast<const double*>(data + lanes_off);
  parts.coeff_total = static_cast<std::size_t>(coeff_total);
  parts.max_error = max_error;
  parts.storage = bytes;
  LoadedPlan loaded;
  loaded.n = n;
  loaded.t = t;
  loaded.tolerance = tolerance;
  try {
    loaded.plan =
        std::make_shared<const CompiledPiecewise>(CompiledPiecewise::from_stored(std::move(parts)));
  } catch (const std::invalid_argument& error) {
    reject(error.what());
  }
  if (obs::metrics_enabled()) StoreMetrics::get().loads.add();
  return loaded;
}

}  // namespace

std::shared_ptr<const CompiledPiecewise> PlanStore::load(std::uint32_t n,
                                                         const util::Rational& t) const {
  const std::string path = path_for(n, t);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return nullptr;
  DDM_SPAN("plan_store.load", {{"n", static_cast<std::int64_t>(n)}});
  return load_and_validate(path, n, t.to_string()).plan;
}

LoadedPlan PlanStore::load_path(const std::string& path) const {
  return load_and_validate(path, 0, std::string());
}

std::vector<std::string> PlanStore::list_paths() const {
  std::vector<std::string> paths;
  std::error_code ec;
  std::filesystem::directory_iterator it(directory_, ec);
  if (ec) return paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".plan") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::shared_ptr<PlanStore> PlanStore::configured() {
  std::lock_guard<std::mutex> lock(g_configured_mutex);
  if (!g_configured_resolved) {
    g_configured_resolved = true;
    if (const char* dir = std::getenv("DDM_PLAN_STORE")) {
      if (*dir != '\0') g_configured = open_directory(dir, "DDM_PLAN_STORE");
    }
  }
  return g_configured;
}

void PlanStore::set_configured(std::shared_ptr<PlanStore> store) {
  std::lock_guard<std::mutex> lock(g_configured_mutex);
  g_configured = std::move(store);
  g_configured_resolved = true;
}

}  // namespace ddm::poly
