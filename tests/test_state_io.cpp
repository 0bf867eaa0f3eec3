#include "core/state_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace casurf {
namespace {

TEST(StateIo, RoundTripsEveryPrimitive) {
  StateWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.str("hello");
  const std::uint8_t raw[3] = {1, 2, 3};
  w.bytes(raw, sizeof raw);

  StateReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello");
  std::uint8_t out[3] = {};
  r.bytes(out, sizeof out);
  EXPECT_EQ(std::memcmp(out, raw, sizeof raw), 0);
  EXPECT_TRUE(r.at_end());
}

TEST(StateIo, CountingWriterSizesTheWriteExactly) {
  // save_checkpoint sizes its buffer with a counting pass through the same
  // routine, so the count must equal the bytes a real pass writes, and a
  // buffer reserved at that count must never grow.
  const auto write = [](StateWriter& w) {
    w.section("sizing");
    w.u8(1);
    w.u32(2);
    w.u64(3);
    w.i64(-4);
    w.f64(0.5);
    w.str("five");
    const std::uint8_t raw[6] = {};
    w.bytes(raw, sizeof raw);
    w.vec_u64(std::vector<std::uint32_t>{7, 8});
    w.vec_f64({9.0});
  };
  StateWriter counting = StateWriter::counting();
  write(counting);
  EXPECT_TRUE(counting.buffer().empty());

  StateWriter w;
  w.reserve(counting.size());
  const std::size_t capacity = w.buffer().capacity();
  write(w);
  EXPECT_EQ(w.size(), counting.size());
  EXPECT_EQ(w.buffer().capacity(), capacity);
}

TEST(StateIo, DoublesAreBitExact) {
  // The values the text route mangles: negative zero, NaN payloads,
  // denormals, and long mantissas.
  const double cases[] = {-0.0, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::denorm_min(),
                          0.1 + 0.2, 1.0 / 3.0,
                          std::numeric_limits<double>::infinity()};
  StateWriter w;
  for (const double v : cases) w.f64(v);
  StateReader r(w.buffer());
  for (const double v : cases) {
    std::uint64_t expect = 0, got = 0;
    const double read = r.f64();
    std::memcpy(&expect, &v, 8);
    std::memcpy(&got, &read, 8);
    EXPECT_EQ(got, expect);
  }
}

TEST(StateIo, VectorsRoundTripWithLengthCheck) {
  StateWriter w;
  w.vec_u64(std::vector<std::uint32_t>{7, 8, 9});
  w.vec_f64({1.5, -2.5});
  StateReader r(w.buffer());
  EXPECT_EQ((r.vec_u64<std::uint32_t>(3, "u")), (std::vector<std::uint32_t>{7, 8, 9}));
  EXPECT_EQ(r.vec_f64(2, "f"), (std::vector<double>{1.5, -2.5}));

  StateReader wrong(w.buffer());
  EXPECT_THROW((void)wrong.vec_u64<std::uint32_t>(4, "u"), StateFormatError);
}

TEST(StateIo, TruncatedInputThrowsNotCrashes) {
  StateWriter w;
  w.u64(1);
  w.str("abcdef");
  // Every proper prefix must fail loudly.
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    StateReader r(std::span(w.buffer().data(), cut));
    EXPECT_THROW(
        {
          (void)r.u64();
          (void)r.str();
        },
        StateFormatError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(StateIo, SectionMarkersCatchMisalignment) {
  StateWriter w;
  w.section("alpha");
  w.u64(1);
  StateReader ok(w.buffer());
  ok.expect_section("alpha");
  EXPECT_EQ(ok.u64(), 1u);

  StateReader wrong_name(w.buffer());
  EXPECT_THROW(wrong_name.expect_section("beta"), StateFormatError);

  StateWriter plain;
  plain.u64(5);
  StateReader no_marker(plain.buffer());
  EXPECT_THROW(no_marker.expect_section("alpha"), StateFormatError);
}

TEST(StateIo, CorruptVectorLengthRejectedBeforeAllocation) {
  // A bit-flipped length must not trigger a huge allocation: the element
  // count is checked against the remaining stream first.
  StateWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max());  // claimed length
  StateReader r(w.buffer());
  // Rewind-style: feed the same buffer as if it were a vector header.
  StateReader v(w.buffer());
  EXPECT_THROW((void)v.vec_u64<std::uint64_t>(SIZE_MAX, "v"), StateFormatError);
  (void)r;
}

// A stored value that does not fit the field it is restored into is
// rejected by name and value, never truncated: 2^32 + 5 read as a 32-bit
// site must not come back as site 5.
TEST(StateIo, NarrowingReadRejectsValuesThatDoNotFit) {
  const std::uint64_t too_big = (std::uint64_t{1} << 32) + 5;
  StateWriter w;
  w.vec_u64(std::vector<std::uint64_t>{7, too_big});
  w.u64(too_big);
  w.u64(std::numeric_limits<std::uint32_t>::max());
  w.u64(256);

  StateReader vec(w.buffer());
  try {
    (void)vec.vec_u64<std::uint32_t>(SIZE_MAX, "enabled set");
    FAIL() << "vec_u64<uint32_t> accepted 2^32 + 5";
  } catch (const StateFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("enabled set"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967301"), std::string::npos) << what;
  }

  StateReader r(w.buffer());
  EXPECT_EQ(r.vec_u64<std::uint64_t>(2, "wide"),
            (std::vector<std::uint64_t>{7, too_big}));
  EXPECT_THROW((void)r.u64_as<std::uint32_t>("site"), StateFormatError);
  EXPECT_EQ(r.u64_as<std::uint32_t>("site"), std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW((void)r.u64_as<std::uint8_t>("species"), StateFormatError);
  EXPECT_TRUE(r.at_end());
}

TEST(StateIo, ImplausibleStringLengthRejected) {
  StateWriter w;
  w.u64(std::uint64_t{1} << 40);
  StateReader r(w.buffer());
  EXPECT_THROW((void)r.str(), StateFormatError);
}

TEST(StateIo, ExpectEndFlagsTrailingBytes) {
  StateWriter w;
  w.u64(1);
  w.u8(0);
  StateReader r(w.buffer());
  (void)r.u64();
  EXPECT_FALSE(r.at_end());
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_THROW(r.expect_end(), StateFormatError);
}

TEST(StateIo, LittleEndianLayoutIsStable) {
  // The on-disk format is fixed little-endian regardless of host order —
  // checkpoints are portable across machines.
  StateWriter w;
  w.u32(0x11223344);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x44);
  EXPECT_EQ(w.buffer()[1], 0x33);
  EXPECT_EQ(w.buffer()[2], 0x22);
  EXPECT_EQ(w.buffer()[3], 0x11);
}

}  // namespace
}  // namespace casurf
