// Unit tests for the table-set type (src/storage/table_mask.h): mask algebra,
// bit = RelationId, ascending iteration, the 256-relation limit, and — the
// load-bearing one — a randomized differential proving the mask
// wanted-decision is exactly Writeset::TouchesAny.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/gsi/writeset.h"
#include "src/storage/schema.h"
#include "src/storage/table_mask.h"

namespace tashkent {
namespace {

TEST(TableMask, SetTestOrAndIntersect) {
  TableMask a;
  EXPECT_FALSE(a.any());
  a.Set(0);
  a.Set(63);
  a.Set(64);   // word boundary
  a.Set(255);  // last bit
  EXPECT_TRUE(a.any());
  EXPECT_TRUE(a.Test(0));
  EXPECT_TRUE(a.Test(63));
  EXPECT_TRUE(a.Test(64));
  EXPECT_TRUE(a.Test(255));
  EXPECT_FALSE(a.Test(1));
  EXPECT_FALSE(a.Test(65));

  TableMask b;
  b.Set(64);
  EXPECT_TRUE(Intersects(a, b));
  TableMask c;
  c.Set(65);
  EXPECT_FALSE(Intersects(a, c));

  TableMask u;
  u.OrWith(a);
  u.OrWith(c);
  EXPECT_TRUE(u.Test(255));
  EXPECT_TRUE(u.Test(65));

  TableMask twin;
  twin.Set(255);
  twin.Set(64);
  twin.Set(63);
  twin.Set(0);
  EXPECT_EQ(twin, a);
  twin.Set(1);
  EXPECT_NE(twin, a);

  u.Reset();
  EXPECT_FALSE(u.any());
  EXPECT_EQ(u, TableMask{});
}

TEST(TableMask, SetRejectsBitsPastTheMask) {
  TableMask m;
  m.Set(TableMask::kBits - 1);
  EXPECT_THROW(m.Set(TableMask::kBits), std::out_of_range);
  EXPECT_THROW(m.Set(UINT32_MAX), std::out_of_range);
  // A rejected bit writes nothing.
  TableMask only_last;
  only_last.Set(TableMask::kBits - 1);
  EXPECT_EQ(m, only_last);

  // Nor is a bit past the mask a member.
  EXPECT_FALSE(m.Test(TableMask::kBits));

  Writeset ws;
  ws.table_pages = {{3, 1}, {TableMask::kBits, 1}};
  EXPECT_THROW(ws.BuildMask(), std::out_of_range);
  EXPECT_THROW((TableMask{3, TableMask::kBits}), std::out_of_range);
}

TEST(Schema, AddRefusesThe257thRelation) {
  Schema schema;
  for (uint32_t i = 0; i < TableMask::kBits; ++i) {
    ASSERT_EQ(schema.AddTable("t" + std::to_string(i), PagesToBytes(1)), i);
  }
  EXPECT_THROW(schema.AddTable("one-too-many", PagesToBytes(1)), std::length_error);
  EXPECT_THROW(schema.AddIndex("idx", 0, PagesToBytes(1)), std::length_error);
  EXPECT_EQ(schema.size(), TableMask::kBits);
  EXPECT_EQ(schema.Find("one-too-many"), kInvalidRelation);
}

TEST(TableMask, BuildMaskSetsEachRelationIdsBit) {
  Writeset ws;
  ws.table_pages = {{11, 2}, {4, 1}};
  TableMask expected;
  expected.Set(4);
  expected.Set(11);
  EXPECT_EQ(ws.BuildMask(), expected);
  EXPECT_EQ((TableMask{11, 4, 11}), expected);
}

TEST(TableMask, CountIsTheNumberOfMembers) {
  EXPECT_EQ(TableMask{}.count(), 0u);
  EXPECT_EQ((TableMask{0, 63, 64, 255}).count(), 4u);
  EXPECT_EQ((TableMask{7, 7}).count(), 1u);
}

TEST(TableMask, ForEachMaskBitVisitsAscendingBits) {
  TableMask m;
  m.Set(5);
  m.Set(64);
  m.Set(250);
  std::vector<uint32_t> seen;
  ForEachMaskBit(m, [&seen](uint32_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, (std::vector<uint32_t>{5, 64, 250}));
}

// The equivalence contract, brute-forced: over random writesets and random
// subscriptions drawn from every id the mask holds — with the word boundaries
// 63/64 and the last bit 255 mixed in on purpose — Intersects(ws, sub) equals
// ws.TouchesAny(sub) on every probe.
TEST(TableMaskDifferential, MaskWantedEquivalentToTouchesAny) {
  Rng rng(20260807);
  const RelationId kEdges[] = {0, 63, 64, 127, 128, 191, 192, 255};
  const auto draw = [&rng, &kEdges]() {
    if (rng.NextBelow(4) == 0) {
      return kEdges[rng.NextBelow(sizeof(kEdges) / sizeof(kEdges[0]))];
    }
    return static_cast<RelationId>(rng.NextBelow(TableMask::kBits));
  };
  int hits = 0;
  int misses = 0;
  for (int probe = 0; probe < 10000; ++probe) {
    Writeset ws;
    const uint64_t touches = 1 + rng.NextBelow(5);
    for (uint64_t t = 0; t < touches; ++t) {
      ws.table_pages.push_back(TableWrite{draw(), 1});
    }
    TableMask sub;
    const uint64_t width = rng.NextBelow(24);
    for (uint64_t t = 0; t < width; ++t) {
      sub.Set(draw());
    }
    const bool truth = ws.TouchesAny(sub);
    EXPECT_EQ(Intersects(ws.BuildMask(), sub), truth)
        << "mask and TouchesAny disagree (probe " << probe << ")";
    (truth ? hits : misses)++;
  }
  // Both outcomes are exercised, so the equality is not vacuous.
  EXPECT_GT(hits, 100);
  EXPECT_GT(misses, 100);
}

}  // namespace
}  // namespace tashkent
