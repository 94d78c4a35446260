// Tests for the svc layer: the work-stealing thread pool and its for_each
// chunk runner, the chunk primitives pfpl::compress is built from, and the
// PFPA archive container (round-trip, random access, corruption rejection).
// Byte-identity of pool-driven compression for every worker count is pinned
// in tests/test_ingest.cpp, where the pool drives the codec's chunk loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "bits/crc32.hpp"
#include "core/chunked.hpp"
#include "core/pfpl.hpp"
#include "data/rng.hpp"
#include "io/raw_file.hpp"
#include "svc/archive.hpp"
#include "svc/thread_pool.hpp"

using namespace repro;
namespace fs = std::filesystem;

namespace {

std::string tmp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("pfpl_svc_" + name)).string();
}

std::vector<float> wave_f32(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<float> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = static_cast<float>(std::sin(acc) + acc);
  }
  return v;
}

std::vector<double> wave_f64(std::size_t n, u64 seed) {
  data::Rng rng(seed);
  std::vector<double> v(n);
  double acc = 0;
  for (auto& x : v) {
    acc += 0.01 * rng.gaussian();
    x = std::cos(acc) * 3.0 + acc;
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, FuturesReturnValues) {
  svc::ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 100; ++i) futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ExecutesEveryTaskExactlyOnce) {
  svc::ThreadPool pool(3, /*queue_capacity=*/16);  // small bound: forces backpressure
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 500; ++i)
    futs.push_back(pool.submit([i, &sum] { sum.fetch_add(i); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 500 * 501 / 2);
  // A future is ready before its worker counts the task as executed.
  pool.wait_idle();
  auto c = pool.counters();
  EXPECT_EQ(c.submitted, 500u);
  EXPECT_EQ(c.executed, 500u);
  EXPECT_LE(c.peak_pending, 16u);  // the bounded queue held
}

TEST(ThreadPool, WaitIdleDrains) {
  svc::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, GracefulShutdownRunsQueuedTasks) {
  std::atomic<int> done{0};
  {
    svc::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i)
      pool.submit([&done] { done.fetch_add(1); });
    // Destructor must drain the queue, not drop it.
  }
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  svc::ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), CompressionError);
}

TEST(ThreadPool, TaskExceptionsPropagateThroughFuture) {
  svc::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw CompressionError("boom"); });
  EXPECT_THROW(f.get(), CompressionError);
}

// ---------------------------------------------------------------------------
// ThreadPool::for_each — the pool's chunk runner
// ---------------------------------------------------------------------------

TEST(ThreadPoolForEach, EveryIndexRunsExactlyOnce) {
  svc::ThreadPool pool(4);
  // n = 0, n < workers, n == workers, n >> workers.
  for (std::size_t n : {0u, 1u, 3u, 4u, 5000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.for_each(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

TEST(ThreadPoolForEach, SubmitsAtMostOneTaskPerWorker) {
  svc::ThreadPool pool(3);
  pool.for_each(1000, [](std::size_t) {});
  pool.wait_idle();
  EXPECT_EQ(pool.counters().submitted, 3u);
  pool.for_each(2, [](std::size_t) {});
  pool.wait_idle();
  EXPECT_EQ(pool.counters().submitted, 5u);  // n < workers: n tasks
}

TEST(ThreadPoolForEach, FirstExceptionRethrownAfterEveryTaskFinished) {
  svc::ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  bool threw = false;
  try {
    pool.for_each(64, [&](std::size_t i) {
      running.fetch_add(1);
      if (i == 0) {
        running.fetch_sub(1);
        throw CompressionError("chunk 0");
      }
      // Slow bodies keep other workers busy past the throw.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      running.fetch_sub(1);
      finished.fetch_add(1);
    });
  } catch (const CompressionError& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "chunk 0");
    // No body may still be running once the exception reaches the caller.
    EXPECT_EQ(running.load(), 0);
  }
  EXPECT_TRUE(threw);
  const int done = finished.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(finished.load(), done);  // nothing ran after for_each returned
  // The pool is still usable afterwards.
  std::atomic<int> sum{0};
  pool.for_each(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolForEach, AfterShutdownThrows) {
  svc::ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.for_each(8, [](std::size_t) {}), CompressionError);
  EXPECT_NO_THROW(pool.for_each(0, [](std::size_t) {}));
}

TEST(ThreadPoolForEach, DrivesCompressByteIdentically) {
  auto v = wave_f32(4096 * 5 + 31, 3);
  const Field field(v.data(), v.size());
  const pfpl::Params p{1e-3, EbType::ABS};
  svc::ThreadPool pool(3);
  const Bytes pooled = pfpl::compress(
      field, p, [&](std::size_t n, const pfpl::ChunkBody& body) { pool.for_each(n, body); });
  EXPECT_EQ(pooled, pfpl::compress(field, p));
  // A bound that fails planning throws before any chunk is scheduled.
  EXPECT_THROW(pfpl::compress(field, {-1.0, EbType::ABS},
                              [&](std::size_t n, const pfpl::ChunkBody& body) {
                                pool.for_each(n, body);
                              }),
               CompressionError);
}

// ---------------------------------------------------------------------------
// Chunked primitives (the contract svc builds on)
// ---------------------------------------------------------------------------

TEST(Chunked, ManualChunkLoopMatchesOneShot) {
  auto v = wave_f32(4096 * 2 + 100, 7);
  Field field(v.data(), v.size());
  pfpl::Params p{1e-3, EbType::ABS};
  pfpl::Header h = pfpl::plan_header(field, p);
  ASSERT_EQ(h.chunk_count, 3u);
  std::vector<Bytes> payloads(h.chunk_count);
  std::vector<u32> sizes(h.chunk_count);
  // Encode in reverse order to prove order-independence.
  for (std::size_t c = h.chunk_count; c-- > 0;)
    sizes[c] = pfpl::encode_chunk(field, h, c, p.exec, payloads[c]);
  Bytes assembled = pfpl::assemble_stream(h, sizes, payloads, p.exec);
  EXPECT_EQ(assembled, pfpl::compress(field, p));
}

// ---------------------------------------------------------------------------
// PFPA archive
// ---------------------------------------------------------------------------

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file name: ctest runs discovered tests as parallel processes,
    // and a shared path would let one test corrupt another's archive.
    const std::string tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path = tmp_path(tag + "_archive.pfpa");
    f32 = wave_f32(20000, 11);
    f64 = wave_f64(9000, 12);
    const Field fields[] = {Field(f32.data(), f32.size()), Field(f64.data(), f64.size())};
    const pfpl::Params params[] = {{1e-3, EbType::ABS}, {1e-2, EbType::REL}};
    const char* names[] = {"temp.f32", "pres.f64"};
    svc::ArchiveWriter writer(path);
    for (std::size_t i = 0; i < 2; ++i) {
      Entry e{names[i], pfpl::compress(fields[i], params[i]), fields[i].byte_size()};
      writer.add(e.name, pfpl::peek_header(e.stream), e.stream, e.raw_bytes);
      results.push_back(std::move(e));
    }
    writer.finish();
  }
  void TearDown() override { fs::remove(path); }

  struct Entry {
    std::string name;
    Bytes stream;
    u64 raw_bytes = 0;
  };
  std::string path;
  std::vector<float> f32;
  std::vector<double> f64;
  std::vector<Entry> results;
};

TEST_F(ArchiveTest, RoundTrip) {
  svc::ArchiveReader reader(path);
  ASSERT_EQ(reader.entries().size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const svc::ArchiveEntry& e = reader.entries()[i];
    EXPECT_EQ(e.name, results[i].name);
    EXPECT_EQ(e.raw_size, results[i].raw_bytes);
    Bytes stream = reader.read_entry(e);
    EXPECT_EQ(stream, results[i].stream);  // entry bytes survive the container
  }
  auto back = pfpl::decompress_as<float>(reader.read_entry("temp.f32"));
  ASSERT_EQ(back.size(), f32.size());
  for (std::size_t i = 0; i < f32.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(f32[i]) - back[i]), 1e-3) << i;
}

TEST_F(ArchiveTest, RandomAccessReadsOnlyTheEntryRange) {
  svc::ArchiveReader reader(path);
  const svc::ArchiveEntry& e = reader.find("pres.f64");
  // The reader's contract is range-reads only; emulate it directly to prove
  // the entry is self-contained: bytes [offset, offset+size) alone decode.
  Bytes stream = io::read_file_range(path, e.offset, static_cast<std::size_t>(e.size));
  EXPECT_EQ(bits::crc32(stream.data(), stream.size()), e.crc32);
  auto back = pfpl::decompress_as<double>(stream);
  ASSERT_EQ(back.size(), f64.size());
  pfpl::Header h = pfpl::peek_header(stream);
  EXPECT_EQ(h.eb_type, EbType::REL);
}

TEST_F(ArchiveTest, FindMissingEntryThrows) {
  svc::ArchiveReader reader(path);
  EXPECT_THROW(reader.find("nonexistent"), CompressionError);
}

TEST_F(ArchiveTest, CorruptedIndexIsRejected) {
  // Flip one byte inside the index region: the index CRC must catch it.
  Bytes raw = io::read_file(path);
  u64 index_offset, index_size;
  std::memcpy(&index_offset, raw.data() + raw.size() - svc::kArchiveFooterSize, 8);
  std::memcpy(&index_size, raw.data() + raw.size() - svc::kArchiveFooterSize + 8, 8);
  ASSERT_GT(index_size, 0u);
  raw[static_cast<std::size_t>(index_offset) + 3] ^= 0x5A;
  io::write_file(path, raw.data(), raw.size());
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
}

TEST_F(ArchiveTest, HostileEntryNamesAreRejected) {
  // A crafted archive whose index smuggles a path-like entry name must be
  // rejected by the reader even though every CRC and bound checks out —
  // otherwise unpack would join the name onto the output directory and
  // write outside it ("../..", absolute paths, backslash separators).
  const Bytes orig = io::read_file(path);
  u64 index_offset, index_size;
  std::memcpy(&index_offset, orig.data() + orig.size() - svc::kArchiveFooterSize, 8);
  std::memcpy(&index_size, orig.data() + orig.size() - svc::kArchiveFooterSize + 8, 8);
  // First record starts with u16 name_len, then the 8-byte name "temp.f32";
  // overwrite it in place (same length) and re-sign the index so only the
  // name validation — not the CRC — can catch it.
  for (const char* evil : {"../../ab", "/abs/pth", "dir\\file"}) {
    Bytes raw = orig;
    std::memcpy(raw.data() + index_offset + 2, evil, 8);
    u32 crc = bits::crc32(raw.data() + index_offset, static_cast<std::size_t>(index_size));
    std::memcpy(raw.data() + raw.size() - svc::kArchiveFooterSize + 20, &crc, 4);
    io::write_file(path, raw.data(), raw.size());
    EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError) << evil;
  }
}

TEST_F(ArchiveTest, CorruptedEntryPayloadIsRejected) {
  svc::ArchiveReader clean(path);
  const svc::ArchiveEntry e = clean.find("temp.f32");
  Bytes raw = io::read_file(path);
  raw[static_cast<std::size_t>(e.offset) + e.size / 2] ^= 0xFF;
  io::write_file(path, raw.data(), raw.size());
  svc::ArchiveReader reader(path);  // index is intact: open succeeds
  EXPECT_THROW(reader.read_entry("temp.f32"), CompressionError);
  // The other entry is untouched and still extractable (fault isolation).
  EXPECT_NO_THROW(reader.read_entry("pres.f64"));
}

TEST_F(ArchiveTest, SingleBitFlipInEntryPayloadIsRejected) {
  // One flipped bit at the start, middle or end of an entry fails its CRC,
  // whether it lands in the 64-byte fold or in the byte-wise tail.
  const svc::ArchiveEntry e = svc::ArchiveReader(path).find("temp.f32");
  ASSERT_GE(e.size, 64u);
  const Bytes orig = io::read_file(path);
  for (u64 bit : {u64{0}, e.size * 4 + 3, e.size * 8 - 1}) {
    Bytes raw = orig;
    raw[static_cast<std::size_t>(e.offset + bit / 8)] ^= static_cast<u8>(1u << (bit % 8));
    io::write_file(path, raw.data(), raw.size());
    svc::ArchiveReader reader(path);
    try {
      reader.read_entry("temp.f32");
      ADD_FAILURE() << "bit " << bit << " flipped, entry still read";
    } catch (const CompressionError& err) {
      EXPECT_NE(std::string(err.what()).find("failed checksum"), std::string::npos) << err.what();
    }
    EXPECT_NO_THROW(reader.read_entry("pres.f64"));
  }
}

TEST_F(ArchiveTest, TruncatedFileIsRejected) {
  Bytes raw = io::read_file(path);
  io::write_file(path, raw.data(), raw.size() / 2);
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
  io::write_file(path, raw.data(), 4);  // shorter than header+footer
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
}

TEST_F(ArchiveTest, BadFooterMagicIsRejected) {
  Bytes raw = io::read_file(path);
  raw[raw.size() - 1] ^= 0x01;  // footer magic is the last field
  io::write_file(path, raw.data(), raw.size());
  EXPECT_THROW(svc::ArchiveReader reader(path), CompressionError);
}

TEST(Archive, WriterRejectsBadNames) {
  std::string path = tmp_path("badnames.pfpa");
  auto v = wave_f32(100, 13);
  Bytes stream = pfpl::compress(Field(v.data(), v.size()), {1e-3, EbType::ABS});
  pfpl::Header h = pfpl::peek_header(stream);
  svc::ArchiveWriter writer(path);
  EXPECT_THROW(writer.add("", h, stream, 400), CompressionError);
  EXPECT_THROW(writer.add("a/b", h, stream, 400), CompressionError);
  writer.add("ok", h, stream, 400);
  EXPECT_THROW(writer.add("ok", h, stream, 400), CompressionError);  // duplicate
  writer.finish();
  fs::remove(path);
}

TEST(Archive, EmptyArchiveRoundTrips) {
  std::string path = tmp_path("empty.pfpa");
  svc::ArchiveWriter writer(path);
  writer.finish();
  svc::ArchiveReader reader(path);
  EXPECT_TRUE(reader.entries().empty());
  fs::remove(path);
}

TEST(Checksum, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3 check value).
  EXPECT_EQ(bits::crc32("123456789", 9), 0xCBF43926u);
  // Incremental == one-shot.
  u32 a = bits::crc32("12345", 5);
  EXPECT_EQ(bits::crc32("6789", 4, a), 0xCBF43926u);
}
