// pvm::wal — append-only, versioned, checksummed record log.
//
// The write-ahead log behind live migration's dirty-page stream, the
// shadow-engine checkpoint/restore path, and the sweep drivers'
// checkpoint-resume (pvm-matrix / simcheck). One byte format serves all of
// them: a sequence of framed records, each carrying a 16-bit type, a 16-bit
// format version, a monotonically increasing sequence number, and a CRC-64
// over header and payload. Checkpoint records (kCheckpoint) mark consistent
// prefixes; recovery replays records up to the torn tail and reports the
// last checkpoint so a consumer can fall back to the newest consistent
// state.
//
// Crash consistency is the point: recover() accepts arbitrary byte prefixes
// (a process can die mid-append) and truncates at the first record whose
// frame is short, whose magic is wrong, or whose checksum mismatches — the
// classic truncate-at-first-bad-checksum rule. pvm::fault can inject torn
// writes at append time (FaultKind::kWalTornWrite / kWalPartialAppend),
// modelling the death deterministically: the log keeps the partial bytes,
// refuses further appends, and recovery must cope.
//
// Everything is deterministic: no wall clock, no randomness, little-endian
// integer encoding, so the same append sequence produces identical bytes on
// every run — the property the checkpoint-resume byte-identity tests pin.

#ifndef PVM_SRC_WAL_WAL_H_
#define PVM_SRC_WAL_WAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pvm::fault {
class FaultInjector;
}  // namespace pvm::fault

namespace pvm::wal {

// Frame magic ("WALR") — guards against replaying a file that is not a WAL
// and detects mid-stream corruption (a record boundary that does not start
// a record).
inline constexpr std::uint32_t kRecordMagic = 0x52'4c'41'57;  // "WALR" LE
inline constexpr std::uint16_t kFormatVersion = 1;

// Fixed frame: magic(4) type(2) version(2) seq(8) payload_len(4) crc(8).
inline constexpr std::size_t kRecordHeaderBytes = 28;

enum class RecordType : std::uint16_t {
  kData = 1,        // opaque consumer payload
  kCheckpoint = 2,  // consistency marker; payload = consumer state digest
  kHeader = 3,      // stream identity (spec fingerprint); first record
  // Live migration dirty-log stream.
  kDirtyPage = 16,   // payload: u64 page key
  kRoundBegin = 17,  // payload: u64 round number
  // Shadow-engine snapshot stream.
  kSnapshotBegin = 32,  // payload: engine name
  kGpaMapEntry = 33,    // payload: u64 gpa_page, u64 l1_frame, u64 flags
  kShadowLeaf = 34,     // payload: u64 pid, u64 ring, u64 gva, u64 frame,
                        //          u64 flags, u64 gfn
  // Sweep checkpoint-resume streams.
  kCellResult = 48,  // payload: u64 cell index + serialized CellResult
  kCaseResult = 49,  // payload: u64 case index + serialized SimcheckResult
};

struct Record {
  RecordType type = RecordType::kData;
  std::uint16_t version = kFormatVersion;
  std::uint64_t seq = 0;
  std::string payload;
};

// CRC-64/XZ (ECMA-182 polynomial, reflected). Table built on first use;
// deterministic and dependency-free.
std::uint64_t crc64(std::string_view bytes, std::uint64_t seed = 0);

// ---- Little-endian payload encoding helpers ----

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
// Length-prefixed (u32) string.
void put_string(std::string& out, std::string_view s);

// Cursor-based readers; return false on underrun (cursor is left unchanged
// so the caller can report the malformed offset).
bool get_u32(std::string_view bytes, std::size_t* cursor, std::uint32_t* v);
bool get_u64(std::string_view bytes, std::size_t* cursor, std::uint64_t* v);
bool get_string(std::string_view bytes, std::size_t* cursor, std::string* s);

// An append-only log over an in-memory byte buffer, with explicit file
// save/append. The buffer IS the durable representation: save() writes it
// verbatim, recover() parses it verbatim, and the fault injector tears it
// byte-exactly.
class Log {
 public:
  // `site` names this log at fault-injection hooks ("wal:migration:vm0",
  // "wal:simcheck", ...), so plans can target one log among several.
  explicit Log(std::string site = "wal") : site_(std::move(site)) {}

  // Binds the torn-write fault hooks. Null detaches (the default): appends
  // are then always intact.
  void set_faults(fault::FaultInjector* faults) { faults_ = faults; }

  const std::string& site() const { return site_; }

  // Appends one framed record; returns its sequence number. After a torn
  // append (injected crash) the log is dead: further appends are dropped —
  // the process that owned it would no longer be running.
  std::uint64_t append(RecordType type, std::string_view payload);
  std::uint64_t append_checkpoint(std::string_view payload = {});

  // True once an injected torn write has killed the log.
  bool torn() const { return torn_; }

  std::uint64_t record_count() const { return next_seq_; }
  const std::string& bytes() const { return buf_; }

  void clear() {
    buf_.clear();
    next_seq_ = 0;
    torn_ = false;
  }

  // Writes the full buffer to `path` (truncating). Returns false and sets
  // `error` on I/O failure.
  bool save(const std::string& path, std::string* error) const;

 private:
  std::string site_;
  std::string buf_;
  std::uint64_t next_seq_ = 0;
  bool torn_ = false;
  fault::FaultInjector* faults_ = nullptr;
};

// What recovery found in a byte stream.
struct RecoveryResult {
  std::vector<Record> records;  // the valid prefix, in append order
  std::size_t bytes_consumed = 0;
  std::size_t bytes_truncated = 0;  // torn/corrupt tail dropped
  bool torn_tail = false;
  std::string detail;  // human-readable reason for the truncation
  // Index into `records` of the last kCheckpoint, if any: the newest
  // consistent prefix a checkpoint-consistency consumer may use.
  std::optional<std::size_t> last_checkpoint;

  // Records up to and including the last checkpoint (empty when no
  // checkpoint survived) — the replay set for checkpoint-consistent state.
  std::vector<Record> checkpointed_prefix() const;
};

// Parses `bytes`, truncating at the first short frame, bad magic, version
// mismatch, sequence discontinuity, or checksum failure. Never throws: a
// torn or corrupt tail is an expected crash artifact, not an error.
RecoveryResult recover(std::string_view bytes);

// Reads a file fully; a missing file yields an empty stream (fresh log) and
// returns true. Returns false + `error` only on a real I/O failure.
bool load_file(const std::string& path, std::string* bytes, std::string* error);

// Checkpoint-resume for a sweep of deterministic jobs that merge by index
// (simcheck's cases, pvm-matrix's cells). The file is a Log: a kHeader
// record holding the sweep's fingerprint (every option that changes what a
// job computes), then one `result_type` record per finished job whose
// payload is the u64 job index followed by the tool's serialized result.
// A resumed sweep replays the finished jobs and runs only the rest, so its
// report is byte-identical to an uninterrupted one; a torn tail costs only
// the jobs whose records it cut.
class ResumeLog {
 public:
  enum class Status {
    kOk,          // loaded; a missing file is a fresh, empty log
    kUnreadable,  // the file could not be read; error() says why
    kStale,       // the header names a different sweep
  };

  // `tool` prefixes the lines this log prints on stderr ("simcheck: ...")
  // and `unit` names one job in them ("case", "cell"). Job indices run
  // over [0, jobs).
  ResumeLog(std::string tool, std::string unit, std::string path, RecordType result_type,
            std::string fingerprint, std::size_t jobs);

  // Loads and recovers the file, reporting a torn tail on stderr. Unless the
  // file is unreadable or stale, hands each in-range result payload (index
  // stripped) to `replay`, which returns false for a payload that does not
  // decode; that record is skipped. The log then holds the header and the
  // replayed records in index order. Nothing is written to the file here.
  Status load(const std::function<bool(std::size_t index, std::string_view payload)>& replay);

  const std::string& error() const { return error_; }
  std::size_t replayed() const { return replayed_; }

  // Writes the log as it stands; a failure is reported on stderr.
  void save();

  // Appends one finished job's record and saves. Safe from worker threads.
  void append(std::size_t index, std::string_view payload);

  // Rewrites a completed sweep: the header, payload(i) for every job in
  // index order (a job whose payload is nullopt is left out), then a
  // kCheckpoint record; and saves. The file is then the same at any --jobs
  // and after any number of resumes.
  void complete(const std::function<std::optional<std::string>(std::size_t index)>& payload);

 private:
  // Clears the log down to its header record.
  void begin();

  std::string tool_;
  std::string unit_;
  std::string path_;
  RecordType result_type_;
  std::string fingerprint_;
  std::size_t jobs_;
  std::string error_;
  std::size_t replayed_ = 0;
  std::mutex mutex_;  // serializes worker appends to log_ and the file
  Log log_;
};

}  // namespace pvm::wal

#endif  // PVM_SRC_WAL_WAL_H_
