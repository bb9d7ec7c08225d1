// Tests for budgets, budget meters, and cooperative cancellation.

#include "support/deadline.h"

#include <cstddef>
#include <limits>

#include <gtest/gtest.h>

namespace bc::support {
namespace {

TEST(BudgetTest, DefaultIsUnlimited) {
  Budget budget;
  EXPECT_TRUE(budget.unlimited());
  budget.node_cap = 10;
  EXPECT_FALSE(budget.unlimited());
  budget.node_cap = 0;
  budget.deadline_s = 1.0;
  EXPECT_FALSE(budget.unlimited());
  budget.deadline_s = 0.0;
  budget.cancel.request_cancel();
  EXPECT_FALSE(budget.unlimited());
}

TEST(BudgetMeterTest, UnlimitedMeterOnlyCounts) {
  BudgetMeter meter;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(meter.charge());
  }
  EXPECT_EQ(meter.nodes_used(), 5000u);
  EXPECT_FALSE(meter.exhausted());
  EXPECT_EQ(meter.trip(), BudgetTrip::kNone);
}

TEST(BudgetMeterTest, NodeCapTripsAtExactUnitCount) {
  Budget budget;
  budget.node_cap = 5;
  BudgetMeter meter(budget);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(meter.charge()) << "charge " << i;
  }
  EXPECT_FALSE(meter.charge());  // the 6th unit exceeds the cap of 5
  EXPECT_EQ(meter.trip(), BudgetTrip::kNodeCap);
}

TEST(BudgetMeterTest, BulkChargesCountEveryUnit) {
  Budget budget;
  budget.node_cap = 100;
  BudgetMeter meter(budget);
  EXPECT_TRUE(meter.charge(100));
  EXPECT_FALSE(meter.charge(1));
  EXPECT_EQ(meter.nodes_used(), 101u);
}

TEST(BudgetMeterTest, NodeHeadroomIsWhereAPerUnitLoopWouldTrip) {
  BudgetMeter unlimited;
  unlimited.charge(1000);
  EXPECT_EQ(unlimited.node_headroom(),
            std::numeric_limits<std::size_t>::max());

  Budget budget;
  budget.node_cap = 10;
  BudgetMeter meter(budget);
  EXPECT_EQ(meter.node_headroom(), 10u);
  ASSERT_TRUE(meter.charge(7));
  EXPECT_EQ(meter.node_headroom(), 3u);
  // Exactly the headroom still fits; one more unit trips.
  ASSERT_TRUE(meter.charge(3));
  EXPECT_EQ(meter.node_headroom(), 0u);
  EXPECT_FALSE(meter.charge());
  EXPECT_EQ(meter.node_headroom(), 0u);
  EXPECT_EQ(meter.trip(), BudgetTrip::kNodeCap);
}

TEST(BudgetMeterTest, TripIsSticky) {
  Budget budget;
  budget.node_cap = 1;
  BudgetMeter meter(budget);
  EXPECT_TRUE(meter.charge());
  EXPECT_FALSE(meter.charge());
  // Still exhausted — and still counting, for diagnostics.
  EXPECT_FALSE(meter.charge(10));
  EXPECT_FALSE(meter.check());
  EXPECT_TRUE(meter.exhausted());
  EXPECT_EQ(meter.nodes_used(), 12u);
  EXPECT_EQ(meter.trip(), BudgetTrip::kNodeCap);
}

TEST(BudgetMeterTest, CancellationTripsChargeAndCheck) {
  Budget budget;
  BudgetMeter charged(budget);
  EXPECT_TRUE(charged.charge());
  budget.cancel.request_cancel();  // copies share the flag
  EXPECT_FALSE(charged.charge());
  EXPECT_EQ(charged.trip(), BudgetTrip::kCancelled);

  BudgetMeter checked(budget);
  EXPECT_FALSE(checked.check());
  EXPECT_EQ(checked.trip(), BudgetTrip::kCancelled);
  EXPECT_EQ(checked.nodes_used(), 0u);  // check() never counts work
}

TEST(BudgetMeterTest, ExpiredDeadlineTripsWithinOneStride) {
  Budget budget;
  budget.deadline_s = 1e-9;  // expired by the time we first poll
  BudgetMeter meter(budget);
  std::size_t charges = 0;
  while (meter.charge()) {
    ++charges;
    ASSERT_LE(charges, kClockPollStride) << "deadline overshot the stride";
  }
  EXPECT_EQ(meter.trip(), BudgetTrip::kDeadline);
  // check() sees an expired deadline immediately, without a stride.
  BudgetMeter fresh(budget);
  EXPECT_FALSE(fresh.check());
  EXPECT_EQ(fresh.trip(), BudgetTrip::kDeadline);
}

TEST(BudgetMeterTest, GenerousDeadlineDoesNotTrip) {
  Budget budget;
  budget.deadline_s = 3600.0;
  BudgetMeter meter(budget);
  for (std::size_t i = 0; i < 3 * kClockPollStride; ++i) {
    ASSERT_TRUE(meter.charge());
  }
  EXPECT_TRUE(meter.check());
}

TEST(CancelTokenTest, CopiesShareState) {
  CancelToken a;
  CancelToken b = a;
  EXPECT_FALSE(b.cancelled());
  a.request_cancel();
  EXPECT_TRUE(b.cancelled());
  // Cancellation is sticky and idempotent.
  b.request_cancel();
  EXPECT_TRUE(a.cancelled());
}

TEST(BudgetTripTest, StringsAndTripDescriptions) {
  EXPECT_EQ(to_string(BudgetTrip::kNone), "none");
  EXPECT_EQ(to_string(BudgetTrip::kNodeCap), "node-cap");
  EXPECT_EQ(to_string(BudgetTrip::kDeadline), "deadline");
  EXPECT_EQ(to_string(BudgetTrip::kCancelled), "cancelled");

  Budget budget;
  budget.node_cap = 2;
  BudgetMeter meter(budget);
  while (meter.charge()) {
  }
  const std::string description = describe_trip(meter);
  EXPECT_NE(description.find("node-cap"), std::string::npos);
  EXPECT_NE(description.find("3"), std::string::npos);  // units counted
}

}  // namespace
}  // namespace bc::support
