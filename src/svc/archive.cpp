#include "svc/archive.hpp"

#include <cerrno>
#include <cstring>

#include "bits/crc32.hpp"
#include "io/raw_file.hpp"

namespace repro::svc {
namespace {

std::string errno_text() {
  return errno ? std::strerror(errno) : "unknown error";
}

// Shared by writer and reader: entry names are plain file names, never paths.
// The reader MUST enforce this too — archives are untrusted input, and a
// crafted name like "../../x" or "/etc/y" would otherwise escape the output
// directory when unpack joins it onto a destination path.
bool valid_entry_name(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos && name.find('\\') == std::string::npos;
}

// ---------------------------------------------------------------------------
// Little-endian (de)serialization of the index. Records are variable-length
// (name), so the index is parsed with an explicit bounds-checked cursor —
// any overrun means a corrupt index and throws, never reads past the buffer.
// ---------------------------------------------------------------------------

template <typename V>
void put(Bytes& out, V v) {
  const u8* p = reinterpret_cast<const u8*>(&v);
  out.insert(out.end(), p, p + sizeof(V));
}

struct Cursor {
  const u8* p;
  std::size_t left;

  template <typename V>
  V take() {
    if (left < sizeof(V)) throw CompressionError("PFPA: corrupted index (truncated record)");
    V v;
    std::memcpy(&v, p, sizeof(V));
    p += sizeof(V);
    left -= sizeof(V);
    return v;
  }
  std::string take_string(std::size_t n) {
    if (left < n) throw CompressionError("PFPA: corrupted index (truncated name)");
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
};

Bytes serialize_index(const std::vector<ArchiveEntry>& entries) {
  Bytes out;
  for (const ArchiveEntry& e : entries) {
    put<u16>(out, static_cast<u16>(e.name.size()));
    out.insert(out.end(), e.name.begin(), e.name.end());
    put<u8>(out, static_cast<u8>(e.dtype));
    put<u8>(out, static_cast<u8>(e.eb_type));
    put<double>(out, e.eps);
    put<u64>(out, e.offset);
    put<u64>(out, e.size);
    put<u64>(out, e.value_count);
    put<u64>(out, e.raw_size);
    put<u32>(out, e.crc32);
    put<u32>(out, 0);  // reserved
  }
  return out;
}

std::vector<ArchiveEntry> parse_index(const Bytes& raw, u32 entry_count, u64 file_size) {
  std::vector<ArchiveEntry> entries;
  entries.reserve(entry_count);
  Cursor cur{raw.data(), raw.size()};
  for (u32 i = 0; i < entry_count; ++i) {
    ArchiveEntry e;
    u16 name_len = cur.take<u16>();
    e.name = cur.take_string(name_len);
    if (!valid_entry_name(e.name))
      throw CompressionError("PFPA: corrupted index (unsafe entry name '" + e.name +
                             "' in entry " + std::to_string(i) + ")");
    u8 dtype = cur.take<u8>();
    u8 eb = cur.take<u8>();
    if (dtype > 1 || eb > 2)
      throw CompressionError("PFPA: corrupted index (bad dtype/eb in entry " +
                             std::to_string(i) + ")");
    e.dtype = static_cast<DType>(dtype);
    e.eb_type = static_cast<EbType>(eb);
    e.eps = cur.take<double>();
    e.offset = cur.take<u64>();
    e.size = cur.take<u64>();
    e.value_count = cur.take<u64>();
    e.raw_size = cur.take<u64>();
    e.crc32 = cur.take<u32>();
    cur.take<u32>();  // reserved
    if (e.offset < kArchiveHeaderSize || e.size > file_size || e.offset > file_size - e.size)
      throw CompressionError("PFPA: corrupted index (entry '" + e.name +
                             "' out of bounds)");
    entries.push_back(std::move(e));
  }
  if (cur.left != 0) throw CompressionError("PFPA: corrupted index (trailing bytes)");
  return entries;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

ArchiveWriter::ArchiveWriter(const std::string& path) : path_(path) {
  errno = 0;
  f_ = std::fopen(path.c_str(), "wb");
  if (!f_) throw CompressionError("cannot create " + path + ": " + errno_text());
  Bytes header;
  put<u32>(header, kArchiveMagic);
  put<u16>(header, kArchiveVersion);
  put<u16>(header, 0);  // reserved
  write_raw(header.data(), header.size());
}

ArchiveWriter::~ArchiveWriter() {
  if (f_) std::fclose(f_);
}

void ArchiveWriter::write_raw(const void* data, std::size_t n) {
  errno = 0;
  if (n > 0 && std::fwrite(data, 1, n, f_) != n)
    throw CompressionError("short write on " + path_ + ": " + errno_text());
  offset_ += n;
}

void ArchiveWriter::add(const std::string& name, const pfpl::Header& header,
                        const Bytes& stream, u64 raw_size) {
  if (!f_ || finished_) throw CompressionError("PFPA: add() after finish()");
  if (name.size() > 0xFFFF || !valid_entry_name(name))
    throw CompressionError("PFPA: invalid entry name '" + name + "'");
  for (const ArchiveEntry& e : entries_)
    if (e.name == name) throw CompressionError("PFPA: duplicate entry name '" + name + "'");
  ArchiveEntry e;
  e.name = name;
  e.dtype = header.dtype;
  e.eb_type = header.eb_type;
  e.eps = header.eps;
  e.offset = offset_;
  e.size = stream.size();
  e.value_count = header.value_count;
  e.raw_size = raw_size;
  e.crc32 = bits::crc32(stream.data(), stream.size());
  write_raw(stream.data(), stream.size());
  entries_.push_back(std::move(e));
}

void ArchiveWriter::finish() {
  if (!f_ || finished_) throw CompressionError("PFPA: finish() called twice");
  finished_ = true;
  const u64 index_offset = offset_;
  Bytes index = serialize_index(entries_);
  write_raw(index.data(), index.size());
  Bytes footer;
  put<u64>(footer, index_offset);
  put<u64>(footer, static_cast<u64>(index.size()));
  put<u32>(footer, static_cast<u32>(entries_.size()));
  put<u32>(footer, bits::crc32(index.data(), index.size()));
  put<u32>(footer, kArchiveMagic);
  write_raw(footer.data(), footer.size());
  errno = 0;
  std::FILE* f = f_;
  f_ = nullptr;
  if (std::fclose(f) != 0)
    throw CompressionError("cannot close " + path_ + ": " + errno_text());
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

ArchiveReader::ArchiveReader(const std::string& path) : path_(path) {
  const u64 total = io::file_size(path);
  if (total < kArchiveHeaderSize + kArchiveFooterSize)
    throw CompressionError("PFPA: " + path + " is truncated (no footer)");

  Bytes head = io::read_file_range(path, 0, kArchiveHeaderSize);
  Cursor hc{head.data(), head.size()};
  if (hc.take<u32>() != kArchiveMagic)
    throw CompressionError("PFPA: " + path + ": bad magic");
  u16 version = hc.take<u16>();
  if (version != kArchiveVersion)
    throw CompressionError("PFPA: " + path + ": unsupported version " +
                           std::to_string(version));

  Bytes foot = io::read_file_range(path, total - kArchiveFooterSize, kArchiveFooterSize);
  Cursor fc{foot.data(), foot.size()};
  const u64 index_offset = fc.take<u64>();
  const u64 index_size = fc.take<u64>();
  const u32 entry_count = fc.take<u32>();
  const u32 index_crc = fc.take<u32>();
  if (fc.take<u32>() != kArchiveMagic)
    throw CompressionError("PFPA: " + path + ": bad footer magic");
  if (index_offset < kArchiveHeaderSize || index_size > total ||
      index_offset > total - kArchiveFooterSize - index_size ||
      index_offset + index_size + kArchiveFooterSize != total)
    throw CompressionError("PFPA: " + path + ": corrupted index (bad extent)");

  Bytes index = io::read_file_range(path, index_offset, static_cast<std::size_t>(index_size));
  if (bits::crc32(index.data(), index.size()) != index_crc)
    throw CompressionError("PFPA: " + path + ": corrupted index (checksum mismatch)");
  entries_ = parse_index(index, entry_count, index_offset);
}

const ArchiveEntry& ArchiveReader::find(const std::string& name) const {
  for (const ArchiveEntry& e : entries_)
    if (e.name == name) return e;
  throw CompressionError("PFPA: " + path_ + ": no entry named '" + name + "'");
}

Bytes ArchiveReader::read_entry(const ArchiveEntry& e) const {
  Bytes stream = io::read_file_range(path_, e.offset, static_cast<std::size_t>(e.size));
  if (bits::crc32(stream.data(), stream.size()) != e.crc32)
    throw CompressionError("PFPA: " + path_ + ": entry '" + e.name +
                           "' failed checksum (corrupted payload)");
  return stream;
}

}  // namespace repro::svc
