// I/O substrate tests: in-memory FS accounting, POSIX files, in-place
// update discipline.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "io/file.h"

namespace bullion {
namespace {

TEST(InMemoryFs, WriteReadRoundTrip) {
  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("a");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(Slice("hello ", 6)).ok());
    ASSERT_TRUE((*f)->Append(Slice("world", 5)).ok());
    EXPECT_EQ(*(*f)->Size(), 11u);
  }
  auto r = fs.NewReadableFile("a");
  ASSERT_TRUE(r.ok());
  Buffer buf;
  ASSERT_TRUE((*r)->Read(6, 5, &buf).ok());
  EXPECT_EQ(buf.AsSlice().ToString(), "world");
  EXPECT_EQ(*(*r)->Size(), 11u);
}

TEST(InMemoryFs, ShortReadIsError) {
  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("a");
    ASSERT_TRUE((*f)->Append(Slice("abc", 3)).ok());
  }
  auto r = fs.NewReadableFile("a");
  Buffer buf;
  EXPECT_FALSE((*r)->Read(1, 10, &buf).ok());
  EXPECT_FALSE((*r)->Read(100, 1, &buf).ok());
}

TEST(InMemoryFs, UpdateCannotExtend) {
  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("a");
    ASSERT_TRUE((*f)->Append(Slice("0123456789", 10)).ok());
  }
  auto u = fs.OpenForUpdate("a");
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE((*u)->WriteAt(4, Slice("XY", 2)).ok());
  EXPECT_FALSE((*u)->WriteAt(9, Slice("XY", 2)).ok())
      << "in-place updates must not extend the file";
  auto r = fs.NewReadableFile("a");
  Buffer buf;
  ASSERT_TRUE((*r)->Read(0, 10, &buf).ok());
  EXPECT_EQ(buf.AsSlice().ToString(), "0123XY6789");
}

TEST(InMemoryFs, StatsCountOpsBytesSeeks) {
  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("a");
    std::vector<uint8_t> data(4096, 7);
    ASSERT_TRUE((*f)->Append(Slice(data.data(), data.size())).ok());
  }
  fs.ResetStats();
  auto r = fs.NewReadableFile("a");
  Buffer buf;
  ASSERT_TRUE((*r)->Read(0, 100, &buf).ok());     // seek (first op)
  ASSERT_TRUE((*r)->Read(100, 100, &buf).ok());   // sequential
  ASSERT_TRUE((*r)->Read(1000, 100, &buf).ok());  // seek
  EXPECT_EQ(fs.stats().read_ops, 3u);
  EXPECT_EQ(fs.stats().bytes_read, 300u);
  EXPECT_EQ(fs.stats().seeks, 2u);
}

TEST(InMemoryFs, MissingFileNotFound) {
  InMemoryFileSystem fs;
  EXPECT_FALSE(fs.NewReadableFile("nope").ok());
  EXPECT_FALSE(fs.OpenForUpdate("nope").ok());
  EXPECT_FALSE(fs.FileSize("nope").ok());
  EXPECT_FALSE(fs.Exists("nope"));
  EXPECT_FALSE(fs.Delete("nope").ok());
}

TEST(InMemoryFs, DeleteAndRecreate) {
  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("a");
    ASSERT_TRUE((*f)->Append(Slice("x", 1)).ok());
  }
  EXPECT_TRUE(fs.Exists("a"));
  EXPECT_TRUE(fs.Delete("a").ok());
  EXPECT_FALSE(fs.Exists("a"));
}

TEST(PosixFile, RoundTripAndInPlaceUpdate) {
  std::string path = "/tmp/bullion_io_test.bin";
  {
    auto f = OpenPosixWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(Slice("abcdefgh", 8)).ok());
    ASSERT_TRUE((*f)->Flush().ok());
  }
  {
    auto u = OpenPosixWritableFile(path, /*truncate=*/false);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE((*u)->WriteAt(2, Slice("XY", 2)).ok());
    EXPECT_FALSE((*u)->WriteAt(7, Slice("ZZ", 2)).ok());
  }
  {
    auto r = OpenPosixReadableFile(path);
    ASSERT_TRUE(r.ok());
    Buffer buf;
    ASSERT_TRUE((*r)->Read(0, 8, &buf).ok());
    EXPECT_EQ(buf.AsSlice().ToString(), "abXYefgh");
    EXPECT_EQ(*(*r)->Size(), 8u);
  }
  std::remove(path.c_str());
}

TEST(RandomAccessFile, ShortReadPastEofIsOutOfRange) {
  // Both file kinds report a read that runs past the end as
  // OutOfRange, not as a generic failure or a short buffer.
  const std::string path = "/tmp/bullion_io_test_eof.bin";
  const std::string bytes(1000, '\xab');
  {
    auto w = OpenPosixWritableFile(path, /*truncate=*/true);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(Slice(bytes.data(), bytes.size())).ok());
    ASSERT_TRUE((*w)->Flush().ok());
  }
  InMemoryFileSystem fs;
  {
    auto w = fs.NewWritableFile("a");
    ASSERT_TRUE((*w)->Append(Slice(bytes.data(), bytes.size())).ok());
  }
  auto posix = OpenPosixReadableFile(path);
  ASSERT_TRUE(posix.ok());
  auto mem = fs.NewReadableFile("a");
  ASSERT_TRUE(mem.ok());
  for (const RandomAccessFile* file : {posix->get(), mem->get()}) {
    Buffer out;
    Status st = file->Read(500, 1000, &out);  // 500 bytes past EOF
    EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
  }
  std::remove(path.c_str());
}

TEST(PosixFile, MissingFileFails) {
  EXPECT_FALSE(OpenPosixReadableFile("/nonexistent/zzz").ok());
}

}  // namespace
}  // namespace bullion
