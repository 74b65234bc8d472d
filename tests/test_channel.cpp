#include "sim_oracle/channel.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ceta {
namespace {

Token make_token(std::int64_t job, Duration release) {
  Token t;
  t.producer_task = 0;
  t.producer_job = job;
  t.producer_release = release;
  t.write_time = release;
  t.provenance = Provenance::of_source(0, release);
  return t;
}

TEST(SimChannel, EmptyReadsNothing) {
  const SimChannel ch(1);
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_FALSE(ch.read().has_value());
  EXPECT_FALSE(ch.newest().has_value());
}

TEST(SimChannel, RegisterOverwrites) {
  SimChannel ch(1);
  ch.write(make_token(0, Duration::ms(0)));
  ch.write(make_token(1, Duration::ms(10)));
  ch.write(make_token(2, Duration::ms(20)));
  EXPECT_EQ(ch.size(), 1u);
  ASSERT_TRUE(ch.read().has_value());
  // Register semantics: the reader sees the newest value.
  EXPECT_EQ(ch.read()->producer_job, 2);
}

TEST(SimChannel, ReadIsNonDestructive) {
  SimChannel ch(1);
  ch.write(make_token(0, Duration::ms(0)));
  (void)ch.read();
  (void)ch.read();
  EXPECT_EQ(ch.size(), 1u);
  EXPECT_TRUE(ch.read().has_value());
}

TEST(SimChannel, FifoReadsOldestOfLastN) {
  SimChannel ch(3);
  for (std::int64_t k = 0; k < 5; ++k) {
    ch.write(make_token(k, Duration::ms(10 * k)));
  }
  EXPECT_EQ(ch.size(), 3u);
  EXPECT_TRUE(ch.full());
  // Last 3 tokens are jobs 2, 3, 4; the read returns the oldest (2) and
  // the newest is 4 — the (n−1)·T sliding-window shift of Lemma 6.
  EXPECT_EQ(ch.read()->producer_job, 2);
  EXPECT_EQ(ch.newest()->producer_job, 4);
}

TEST(SimChannel, FifoPartialFill) {
  SimChannel ch(4);
  ch.write(make_token(0, Duration::ms(0)));
  ch.write(make_token(1, Duration::ms(10)));
  EXPECT_FALSE(ch.full());
  EXPECT_EQ(ch.read()->producer_job, 0);
}

TEST(SimChannel, CapacityOneNeverFullUntilWrite) {
  SimChannel ch(1);
  EXPECT_FALSE(ch.full());
  ch.write(make_token(0, Duration::ms(0)));
  EXPECT_TRUE(ch.full());
}

TEST(SimChannel, RejectsNonPositiveCapacity) {
  EXPECT_THROW(SimChannel(0), PreconditionError);
  EXPECT_THROW(SimChannel(-2), PreconditionError);
}

TEST(SimChannel, TokenCarriesProvenance) {
  SimChannel ch(1);
  Token t = make_token(0, Duration::ms(5));
  t.provenance.merge(Provenance::of_source(7, Duration::ms(1)));
  ch.write(t);
  EXPECT_EQ(ch.read()->provenance.num_sources(), 2u);
  EXPECT_EQ(ch.read()->provenance.disparity(), Duration::ms(4));
}

}  // namespace
}  // namespace ceta
