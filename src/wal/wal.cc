#include "src/wal/wal.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <iostream>

#include "src/fault/fault.h"

namespace pvm::wal {

namespace {

// CRC-64/XZ: reflected ECMA-182 polynomial.
constexpr std::uint64_t kCrcPoly = 0xC96C5795D7870F42ull;

std::array<std::uint64_t, 256> build_crc_table() {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kCrcPoly : crc >> 1;
    }
    table[static_cast<std::size_t>(i)] = crc;
  }
  return table;
}

const std::array<std::uint64_t, 256>& crc_table() {
  static const std::array<std::uint64_t, 256> kTable = build_crc_table();
  return kTable;
}

std::uint32_t read_u32_raw(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint64_t read_u64_raw(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint16_t read_u16_raw(const char* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint8_t>(p[0]) |
                                    (static_cast<std::uint16_t>(static_cast<std::uint8_t>(p[1]))
                                     << 8));
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

// The CRC covers the frame header with the crc field itself zeroed, plus the
// payload — so any bit flip in either is caught.
std::string frame_record(RecordType type, std::uint64_t seq, std::string_view payload) {
  std::string frame;
  frame.reserve(kRecordHeaderBytes + payload.size());
  put_u32(frame, kRecordMagic);
  put_u16(frame, static_cast<std::uint16_t>(type));
  put_u16(frame, kFormatVersion);
  put_u64(frame, seq);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  const std::size_t crc_offset = frame.size();
  put_u64(frame, 0);  // crc placeholder
  frame.append(payload);
  const std::uint64_t crc = crc64(frame);
  std::string crc_bytes;
  put_u64(crc_bytes, crc);
  frame.replace(crc_offset, 8, crc_bytes);
  return frame;
}

// A sweep result record's payload: the job index, then the tool's bytes.
std::string indexed_payload(std::size_t index, std::string_view payload) {
  std::string out;
  put_u64(out, index);
  out.append(payload);
  return out;
}

}  // namespace

std::uint64_t crc64(std::string_view bytes, std::uint64_t seed) {
  const auto& table = crc_table();
  std::uint64_t crc = ~seed;
  for (const char c : bytes) {
    crc = table[(crc ^ static_cast<std::uint8_t>(c)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

bool get_u32(std::string_view bytes, std::size_t* cursor, std::uint32_t* v) {
  if (*cursor + 4 > bytes.size()) {
    return false;
  }
  *v = read_u32_raw(bytes.data() + *cursor);
  *cursor += 4;
  return true;
}

bool get_u64(std::string_view bytes, std::size_t* cursor, std::uint64_t* v) {
  if (*cursor + 8 > bytes.size()) {
    return false;
  }
  *v = read_u64_raw(bytes.data() + *cursor);
  *cursor += 8;
  return true;
}

bool get_string(std::string_view bytes, std::size_t* cursor, std::string* s) {
  std::size_t probe = *cursor;
  std::uint32_t len = 0;
  if (!get_u32(bytes, &probe, &len) || probe + len > bytes.size()) {
    return false;
  }
  s->assign(bytes.substr(probe, len));
  *cursor = probe + len;
  return true;
}

std::uint64_t Log::append(RecordType type, std::string_view payload) {
  if (torn_) {
    // The injected crash already happened; the owner process is "dead".
    return next_seq_;
  }
  const std::uint64_t seq = next_seq_++;
  std::string frame = frame_record(type, seq, payload);
  if (faults_ != nullptr) {
    const std::uint64_t drop = faults_->wal_torn_bytes(site_, frame.size());
    if (drop > 0) {
      const std::size_t keep = frame.size() > drop ? frame.size() - drop : 0;
      buf_.append(frame.data(), keep);
      torn_ = true;
      return seq;
    }
  }
  buf_.append(frame);
  return seq;
}

std::uint64_t Log::append_checkpoint(std::string_view payload) {
  return append(RecordType::kCheckpoint, payload);
}

bool Log::save(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  out.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  if (!out) {
    if (error != nullptr) {
      *error = "short write to " + path;
    }
    return false;
  }
  return true;
}

std::vector<Record> RecoveryResult::checkpointed_prefix() const {
  if (!last_checkpoint.has_value()) {
    return {};
  }
  return std::vector<Record>(records.begin(),
                             records.begin() + static_cast<std::ptrdiff_t>(*last_checkpoint) +
                                 1);
}

RecoveryResult recover(std::string_view bytes) {
  RecoveryResult result;
  std::size_t cursor = 0;
  std::uint64_t expected_seq = 0;
  const auto truncate_here = [&](std::string reason) {
    result.bytes_truncated = bytes.size() - cursor;
    result.torn_tail = result.bytes_truncated > 0;
    result.detail = std::move(reason);
  };

  while (cursor < bytes.size()) {
    if (cursor + kRecordHeaderBytes > bytes.size()) {
      truncate_here("short header at offset " + std::to_string(cursor));
      break;
    }
    const char* p = bytes.data() + cursor;
    const std::uint32_t magic = read_u32_raw(p);
    if (magic != kRecordMagic) {
      truncate_here("bad magic at offset " + std::to_string(cursor));
      break;
    }
    const std::uint16_t type = read_u16_raw(p + 4);
    const std::uint16_t version = read_u16_raw(p + 6);
    const std::uint64_t seq = read_u64_raw(p + 8);
    const std::uint32_t payload_len = read_u32_raw(p + 16);
    const std::uint64_t stored_crc = read_u64_raw(p + 20);
    if (version != kFormatVersion) {
      truncate_here("unsupported version " + std::to_string(version) + " at offset " +
                    std::to_string(cursor));
      break;
    }
    if (seq != expected_seq) {
      truncate_here("sequence discontinuity at offset " + std::to_string(cursor) +
                    " (expected " + std::to_string(expected_seq) + ", found " +
                    std::to_string(seq) + ")");
      break;
    }
    const std::size_t frame_size = kRecordHeaderBytes + payload_len;
    if (cursor + frame_size > bytes.size()) {
      truncate_here("torn payload at offset " + std::to_string(cursor));
      break;
    }
    // Re-derive the CRC with the crc field zeroed, exactly as append did.
    std::string check(bytes.substr(cursor, frame_size));
    std::memset(check.data() + 20, 0, 8);
    if (crc64(check) != stored_crc) {
      truncate_here("checksum mismatch at offset " + std::to_string(cursor));
      break;
    }

    Record record;
    record.type = static_cast<RecordType>(type);
    record.version = version;
    record.seq = seq;
    record.payload.assign(bytes.substr(cursor + kRecordHeaderBytes, payload_len));
    if (record.type == RecordType::kCheckpoint) {
      result.last_checkpoint = result.records.size();
    }
    result.records.push_back(std::move(record));
    cursor += frame_size;
    ++expected_seq;
  }
  result.bytes_consumed = cursor;
  return result;
}

bool load_file(const std::string& path, std::string* bytes, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    bytes->clear();  // missing file: a fresh log
    return true;
  }
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) {
    if (error != nullptr) {
      *error = "read failure on " + path;
    }
    return false;
  }
  *bytes = std::move(data);
  return true;
}

ResumeLog::ResumeLog(std::string tool, std::string unit, std::string path,
                     RecordType result_type, std::string fingerprint, std::size_t jobs)
    : tool_(std::move(tool)),
      unit_(std::move(unit)),
      path_(std::move(path)),
      result_type_(result_type),
      fingerprint_(std::move(fingerprint)),
      jobs_(jobs),
      log_("wal:" + tool_) {}

ResumeLog::Status ResumeLog::load(
    const std::function<bool(std::size_t index, std::string_view payload)>& replay) {
  std::string bytes;
  const bool readable = load_file(path_, &bytes, &error_);
  const RecoveryResult recovered = recover(readable ? bytes : std::string_view());
  if (recovered.torn_tail) {
    std::cerr << tool_ << ": checkpoint tail truncated (" << recovered.detail
              << "); rerunning the affected " << unit_ << "(s)\n";
  }
  const bool stale = std::any_of(
      recovered.records.begin(), recovered.records.end(), [this](const Record& record) {
        std::size_t cursor = 0;
        std::string stored;
        return record.type == RecordType::kHeader &&
               (!get_string(record.payload, &cursor, &stored) || stored != fingerprint_);
      });
  // The last record that replays for each job, so the rebuilt log holds
  // each finished job once, in index order, whatever order they finished in.
  std::vector<const Record*> kept(jobs_, nullptr);
  for (const Record& record : recovered.records) {
    std::size_t cursor = 0;
    std::uint64_t index = 0;
    if (!stale && record.type == result_type_ && get_u64(record.payload, &cursor, &index) &&
        index < jobs_ && replay(index, std::string_view(record.payload).substr(cursor))) {
      kept[index] = &record;
    }
  }
  begin();
  replayed_ = 0;
  for (const Record* record : kept) {
    if (record != nullptr) {
      log_.append(result_type_, record->payload);
      ++replayed_;
    }
  }
  if (!readable) {
    return Status::kUnreadable;
  }
  return stale ? Status::kStale : Status::kOk;
}

void ResumeLog::save() {
  std::string error;
  if (!log_.save(path_, &error)) {
    std::cerr << tool_ << ": checkpoint save failed: " << error << "\n";
  }
}

void ResumeLog::append(std::size_t index, std::string_view payload) {
  const std::string record = indexed_payload(index, payload);
  const std::scoped_lock lock(mutex_);
  log_.append(result_type_, record);
  save();
}

void ResumeLog::complete(
    const std::function<std::optional<std::string>(std::size_t index)>& payload) {
  begin();
  for (std::size_t i = 0; i < jobs_; ++i) {
    if (const std::optional<std::string> job = payload(i)) {
      log_.append(result_type_, indexed_payload(i, *job));
    }
  }
  log_.append_checkpoint(fingerprint_);
  save();
}

void ResumeLog::begin() {
  log_.clear();
  std::string header;
  put_string(header, fingerprint_);
  log_.append(RecordType::kHeader, header);
}

}  // namespace pvm::wal
