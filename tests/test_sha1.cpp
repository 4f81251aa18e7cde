#include "common/sha1.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/id.hpp"

namespace dhtidx {
namespace {

std::string hex(const Sha1Digest& digest) { return Id{digest}.to_hex(); }

TEST(Sha1, EmptyString) {
  EXPECT_EQ(hex(Sha1::hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex(Sha1::hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(hex(Sha1::hash("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, MillionAs) {
  // FIPS 180-1 appendix test: 1,000,000 repetitions of 'a'.
  Sha1 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(hex(hasher.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-new-block path.
  const std::string input(64, 'x');
  const std::string whole = hex(Sha1::hash(input));
  Sha1 split;
  split.update(input.substr(0, 64));
  EXPECT_EQ(hex(split.finish()), whole);
}

TEST(Sha1, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: length fits after 0x80 in the same block; 56 bytes: it doesn't.
  EXPECT_EQ(hex(Sha1::hash(std::string(55, 'q'))).size(), 40u);
  EXPECT_NE(hex(Sha1::hash(std::string(55, 'q'))), hex(Sha1::hash(std::string(56, 'q'))));
}

TEST(Sha1, PaddingBoundaryDigests) {
  // Every padding shape finish() can take: the 0x80 byte and the length in
  // the same block (n % 64 < 56) or spilling into a second one, at and around
  // each block boundary. Reference digests from Python's hashlib.sha1.
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {1, "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8"},
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {65, "11655326c708d70319be2610e8a57d9a5b959d3b"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
  };
  for (const auto& [n, digest] : cases) {
    EXPECT_EQ(hex(Sha1::hash(std::string(n, 'a'))), digest) << n << " bytes";
  }
}

class Sha1ChunkingTest : public ::testing::TestWithParam<int> {};

TEST_P(Sha1ChunkingTest, IncrementalMatchesOneShot) {
  const int chunk_size = GetParam();
  std::string input;
  for (int i = 0; i < 500; ++i) input.push_back(static_cast<char>('a' + i % 26));
  Sha1 incremental;
  for (std::size_t off = 0; off < input.size(); off += static_cast<std::size_t>(chunk_size)) {
    incremental.update(input.substr(off, static_cast<std::size_t>(chunk_size)));
  }
  EXPECT_EQ(hex(incremental.finish()), hex(Sha1::hash(input)));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha1ChunkingTest,
                         ::testing::Values(1, 3, 7, 13, 63, 64, 65, 128, 499));

TEST(Sha1, DistinctInputsDistinctDigests) {
  EXPECT_NE(hex(Sha1::hash("node-1")), hex(Sha1::hash("node-2")));
  EXPECT_NE(hex(Sha1::hash("a")), hex(Sha1::hash(std::string_view{"a\0", 2})));
}

}  // namespace
}  // namespace dhtidx
