#include "sim_oracle/provenance.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ceta {
namespace {

TEST(Provenance, EmptyByDefault) {
  Provenance p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.num_sources(), 0u);
  EXPECT_EQ(p.disparity(), Duration::zero());
  EXPECT_THROW(p.min_timestamp(), PreconditionError);
  EXPECT_THROW(p.max_timestamp(), PreconditionError);
}

TEST(Provenance, OfSource) {
  const Provenance p = Provenance::of_source(3, Duration::ms(7));
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.num_sources(), 1u);
  EXPECT_EQ(p.min_timestamp(), Duration::ms(7));
  EXPECT_EQ(p.max_timestamp(), Duration::ms(7));
  EXPECT_EQ(p.disparity(), Duration::zero());
}

TEST(Provenance, MergeDistinctSources) {
  Provenance p = Provenance::of_source(1, Duration::ms(10));
  p.merge(Provenance::of_source(2, Duration::ms(4)));
  EXPECT_EQ(p.num_sources(), 2u);
  EXPECT_EQ(p.min_timestamp(), Duration::ms(4));
  EXPECT_EQ(p.max_timestamp(), Duration::ms(10));
  EXPECT_EQ(p.disparity(), Duration::ms(6));
}

TEST(Provenance, MergeSameSourceKeepsMinMax) {
  Provenance p = Provenance::of_source(1, Duration::ms(10));
  p.merge(Provenance::of_source(1, Duration::ms(30)));
  p.merge(Provenance::of_source(1, Duration::ms(20)));
  EXPECT_EQ(p.num_sources(), 1u);
  ASSERT_EQ(p.stamps().size(), 1u);
  EXPECT_EQ(p.stamps()[0].min_ts, Duration::ms(10));
  EXPECT_EQ(p.stamps()[0].max_ts, Duration::ms(30));
  // Same-source samples taken at different times count toward disparity.
  EXPECT_EQ(p.disparity(), Duration::ms(20));
}

TEST(Provenance, MergeKeepsSortedOrder) {
  Provenance p = Provenance::of_source(5, Duration::ms(1));
  p.merge(Provenance::of_source(2, Duration::ms(2)));
  p.merge(Provenance::of_source(9, Duration::ms(3)));
  p.merge(Provenance::of_source(1, Duration::ms(4)));
  ASSERT_EQ(p.stamps().size(), 4u);
  for (std::size_t i = 1; i < p.stamps().size(); ++i) {
    EXPECT_LT(p.stamps()[i - 1].source, p.stamps()[i].source);
  }
}

TEST(Provenance, MergeWithEmptyIsIdentity) {
  Provenance p = Provenance::of_source(1, Duration::ms(10));
  p.merge(Provenance{});
  EXPECT_EQ(p.num_sources(), 1u);
  Provenance q;
  q.merge(p);
  EXPECT_EQ(q.num_sources(), 1u);
  EXPECT_EQ(q.min_timestamp(), Duration::ms(10));
}

TEST(Provenance, MergeCommutes) {
  Provenance a = Provenance::of_source(1, Duration::ms(5));
  a.merge(Provenance::of_source(3, Duration::ms(9)));
  Provenance b = Provenance::of_source(3, Duration::ms(2));
  b.merge(Provenance::of_source(2, Duration::ms(7)));

  Provenance ab = a;
  ab.merge(b);
  Provenance ba = b;
  ba.merge(a);
  ASSERT_EQ(ab.stamps().size(), ba.stamps().size());
  for (std::size_t i = 0; i < ab.stamps().size(); ++i) {
    EXPECT_EQ(ab.stamps()[i].source, ba.stamps()[i].source);
    EXPECT_EQ(ab.stamps()[i].min_ts, ba.stamps()[i].min_ts);
    EXPECT_EQ(ab.stamps()[i].max_ts, ba.stamps()[i].max_ts);
  }
}

TEST(Provenance, NegativeTimestamps) {
  Provenance p = Provenance::of_source(1, Duration::ms(-10));
  p.merge(Provenance::of_source(2, Duration::ms(5)));
  EXPECT_EQ(p.disparity(), Duration::ms(15));
}

TEST(Provenance, DisparityIsMaxPairwiseDifference) {
  Provenance p = Provenance::of_source(1, Duration::ms(3));
  p.merge(Provenance::of_source(2, Duration::ms(11)));
  p.merge(Provenance::of_source(3, Duration::ms(7)));
  p.merge(Provenance::of_source(1, Duration::ms(6)));
  EXPECT_EQ(p.disparity(), Duration::ms(8));  // 11 − 3
}

}  // namespace
}  // namespace ceta
