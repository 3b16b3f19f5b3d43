#include "cas/pack.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>

#include "serialize/binary_io.h"
#include "serialize/crc32.h"
#include "storage/range_planner.h"

namespace mmm {

namespace {

constexpr size_t kHashBytes = 32;
constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

void AppendHashBytes(const std::string& hex, BinaryWriter* out) {
  for (size_t i = 0; i < kHashBytes; ++i) {
    const int hi = i * 2 < hex.size() ? HexValue(hex[i * 2]) : -1;
    const int lo = i * 2 + 1 < hex.size() ? HexValue(hex[i * 2 + 1]) : -1;
    out->WriteUint8(static_cast<uint8_t>(
        hi < 0 || lo < 0 ? 0 : (hi << 4) | lo));
  }
}

std::string HexOf(std::span<const uint8_t> bytes) {
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    hex.push_back(kHexDigits[b >> 4]);
    hex.push_back(kHexDigits[b & 0xf]);
  }
  return hex;
}

}  // namespace

std::string PackBlobName(uint64_t id) {
  char buf[sizeof(kCasPackPrefix) + 20];
  std::snprintf(buf, sizeof(buf), "%s%016llu", kCasPackPrefix,
                static_cast<unsigned long long>(id));
  return buf;
}

bool IsPackBlobName(std::string_view name) {
  return name.starts_with(kCasPackPrefix);
}

uint64_t PackIdOfBlobName(std::string_view name) {
  if (!IsPackBlobName(name)) return 0;
  const std::string_view digits = name.substr(sizeof(kCasPackPrefix) - 1);
  if (digits.size() != 16) return 0;
  uint64_t id = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  return id;
}

void PackBuilder::Add(const std::string& hash_hex,
                      std::span<const uint8_t> bytes) {
  entries_.push_back(
      {hash_hex, data_.size(), bytes.size(), Crc32::Compute(bytes)});
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

std::vector<uint8_t> PackBuilder::Finish() {
  std::vector<uint8_t> index = EncodePackIndex(entries_);
  std::vector<uint8_t> out = std::move(data_);
  out.insert(out.end(), index.begin(), index.end());
  data_.clear();
  entries_.clear();
  return out;
}

std::vector<uint8_t> EncodePackIndex(const std::vector<PackEntry>& entries) {
  BinaryWriter index;
  for (const PackEntry& entry : entries) {
    AppendHashBytes(entry.hash_hex, &index);
    index.WriteUint32(static_cast<uint32_t>(entry.length));
    index.WriteUint32(entry.crc);
  }
  const uint32_t index_crc = Crc32::Compute(index.buffer());
  index.WriteUint32(static_cast<uint32_t>(entries.size()));
  index.WriteUint32(index_crc);
  index.WriteBytes(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(kCasPackMagic), 8));
  return index.TakeBuffer();
}

Result<std::vector<PackEntry>> ReadPackIndex(Env* env,
                                             const std::string& path) {
  MMM_ASSIGN_OR_RETURN(uint64_t size, env->FileSize(path));
  if (size < kCasPackFooterSize) {
    return Status::Corruption("pack ", path, " has ", size,
                              " bytes, too few for its footer");
  }
  MMM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> footer,
      env->ReadFileRange(path, size - kCasPackFooterSize, kCasPackFooterSize));
  if (std::memcmp(footer.data() + 8, kCasPackMagic, 8) != 0) {
    return Status::Corruption("pack ", path, " has no pack footer");
  }
  BinaryReader footer_reader(footer);
  MMM_ASSIGN_OR_RETURN(uint32_t count, footer_reader.ReadUint32());
  MMM_ASSIGN_OR_RETURN(uint32_t index_crc, footer_reader.ReadUint32());
  const uint64_t index_bytes = uint64_t{count} * kCasPackEntrySize;
  if (index_bytes > size - kCasPackFooterSize) {
    return Status::Corruption("pack ", path, " claims ", count,
                              " entries, more than its ", size, " bytes hold");
  }
  const uint64_t data_bytes = size - kCasPackFooterSize - index_bytes;
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> index,
                       env->ReadFileRange(path, data_bytes, index_bytes));
  if (Crc32::Compute(index) != index_crc) {
    return Status::Corruption("pack ", path, " fails its index crc");
  }
  std::vector<PackEntry> entries;
  entries.reserve(count);
  BinaryReader reader(index);
  uint64_t offset = 0;
  for (uint32_t i = 0; i < count; ++i) {
    PackEntry entry;
    entry.hash_hex = HexOf(std::span<const uint8_t>(
        index.data() + reader.offset(), kHashBytes));
    MMM_RETURN_NOT_OK(reader.Skip(kHashBytes));
    MMM_ASSIGN_OR_RETURN(uint32_t length, reader.ReadUint32());
    MMM_ASSIGN_OR_RETURN(entry.crc, reader.ReadUint32());
    entry.offset = offset;
    entry.length = length;
    offset += length;
    entries.push_back(std::move(entry));
  }
  if (offset != data_bytes) {
    return Status::Corruption("pack ", path, " index covers ", offset,
                              " bytes of a ", data_bytes, "-byte data region");
  }
  return entries;
}

namespace {

/// Reads chunks from one pack segment: a ranged stream opened when the
/// segment's first chunk is needed (that is the segment's one round trip),
/// advanced forward only. Each window starts at the chunk asked for and
/// takes in the following chunks of the segment while they fit in
/// `window_bytes`, so no chunk straddles two windows and the cursor never
/// buffers more than one window.
class PackCursor {
 public:
  PackCursor(FileStore* store, uint64_t pack, uint64_t window_bytes)
      : store_(store), pack_(pack), window_bytes_(window_bytes) {}

  /// Starts `segment` (the byte range `[start, end)` of the pack).
  void Begin(size_t segment, uint64_t start, uint64_t end) {
    segment_ = segment;
    start_ = start;
    end_ = end;
    stream_.reset();
    window_ = {};
    window_at_ = 0;
  }
  size_t segment() const { return segment_; }

  /// The bytes of chunk `where`; `next` lists the chunks that follow it in
  /// this segment, in order, so the window can take them in.
  Result<std::span<const uint8_t>> Read(
      const ChunkLocation& where,
      std::span<const ChunkLocation* const> next) {
    if (!stream_.has_value()) {
      MMM_ASSIGN_OR_RETURN(
          StreamFile stream,
          store_->OpenStream(PackBlobName(pack_), start_, end_ - start_,
                             window_bytes_));
      stream_.emplace(std::move(stream));
    }
    if (where.offset < window_at_ ||
        where.offset + where.length > window_at_ + window_.size()) {
      uint64_t end = where.offset + where.length;
      for (const ChunkLocation* following : next) {
        const uint64_t following_end = following->offset + following->length;
        if (following_end - where.offset > window_bytes_) break;
        end = following_end;
      }
      MMM_RETURN_NOT_OK(
          stream_->Skip(where.offset - (start_ + stream_->offset())));
      MMM_ASSIGN_OR_RETURN(window_, stream_->Next(end - where.offset));
      window_at_ = where.offset;
      if (window_.size() != end - where.offset) {
        return Status::OutOfRange("short read at offset ", where.offset);
      }
    }
    return window_.subspan(where.offset - window_at_, where.length);
  }

 private:
  FileStore* store_;
  uint64_t pack_;
  uint64_t window_bytes_;
  size_t segment_ = SIZE_MAX;
  uint64_t start_ = 0;
  uint64_t end_ = 0;
  std::optional<StreamFile> stream_;
  std::span<const uint8_t> window_;
  uint64_t window_at_ = 0;
};

}  // namespace

Status ReadPackedChunks(
    FileStore* store, uint64_t window_bytes,
    std::span<const CasChunkRef> refs, std::span<const ChunkLocation> where,
    const std::function<Status(size_t, std::span<const uint8_t>)>& on_chunk) {
  for (size_t i = 0; i < refs.size(); ++i) {
    if (where[i].pack == 0) {
      return Status::NotFound("chunk ", refs[i].hash_hex, " is in no pack");
    }
    if (where[i].length != refs[i].length) {
      return Status::Corruption("chunk ", refs[i].hash_hex, " has ",
                                where[i].length, " bytes in pack '",
                                PackBlobName(where[i].pack),
                                "', manifest records ", refs[i].length);
    }
  }

  RangePlanner planner(store->latency());
  std::vector<size_t> segment_of(refs.size());
  std::vector<std::vector<const ChunkLocation*>> chunks_of;  // per segment
  for (size_t i = 0; i < refs.size(); ++i) {
    segment_of[i] =
        planner.Add(where[i].pack, where[i].offset, where[i].length);
    chunks_of.resize(planner.ranges().size());
    chunks_of[segment_of[i]].push_back(&where[i]);
  }
  const std::vector<RangePlanner::Range>& segments = planner.ranges();

  std::map<uint64_t, PackCursor> cursors;
  std::vector<size_t> taken(segments.size(), 0);
  for (size_t i = 0; i < refs.size(); ++i) {
    const size_t s = segment_of[i];
    const RangePlanner::Range& segment = segments[s];
    const std::string pack = PackBlobName(segment.stream);
    PackCursor& cursor =
        cursors.try_emplace(segment.stream, store, segment.stream, window_bytes)
            .first->second;
    if (cursor.segment() != s) cursor.Begin(s, segment.start, segment.end);
    const size_t at = taken[s]++;
    auto bytes = cursor.Read(where[i], std::span<const ChunkLocation* const>(
                                           chunks_of[s].data() + at + 1,
                                           chunks_of[s].size() - at - 1));
    if (!bytes.ok()) {
      // A pack shorter than its index says is Corruption; a missing one
      // stays NotFound.
      if (bytes.status().IsOutOfRange()) {
        return Status::Corruption("chunk ", refs[i].hash_hex,
                                  " lies past the end of pack '", pack,
                                  "': ", bytes.status().ToString());
      }
      return bytes.status().WithContext("chunk ", refs[i].hash_hex,
                                        " in pack '", pack, "'");
    }
    if (Crc32::Compute(bytes.ValueOrDie()) != where[i].crc) {
      return Status::Corruption("chunk ", refs[i].hash_hex, " at [",
                                where[i].offset, ", +", where[i].length,
                                ") of pack '", pack, "' fails its crc");
    }
    MMM_RETURN_NOT_OK(on_chunk(i, bytes.ValueOrDie()));
  }
  return Status::OK();
}

}  // namespace mmm
