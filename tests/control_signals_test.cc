#include "src/obs/control_signals.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

constexpr size_t kKeys = 128;  // Flat expert keys the machines below are sized for.

TEST(StallStateMachineTest, FullMissWithNoIntentIsNeverPrefetched) {
  StallStateMachine machine(kKeys);
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
}

TEST(StallStateMachineTest, QueuedAndLatePrefetchesClassifyAsInFlight) {
  StallStateMachine machine(kKeys);
  machine.OnPrefetchIssued(7);
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kQueuedPromoted),
            StallClass::kPrefetchInFlight);
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kInFlightLate),
            StallClass::kPrefetchInFlight);
}

TEST(StallStateMachineTest, EvictionBeforeFirstUseChargesTheEviction) {
  StallStateMachine machine(kKeys);
  machine.OnPrefetchIssued(7);
  machine.OnEvicted(7);
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kEvictedBeforeUse);
  // The mark is consumed: the next full miss on the same key is an ordinary cold miss.
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
}

TEST(StallStateMachineTest, ServeConsumesPrefetchIntent) {
  StallStateMachine machine(kKeys);
  machine.OnPrefetchIssued(7);
  machine.OnExpertServed(7);  // First use: the prefetch did its job.
  machine.OnEvicted(7);       // Evicting a *used* copy is not thrash.
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
}

TEST(StallStateMachineTest, EvictingUnknownKeyIsIgnored) {
  StallStateMachine machine(kKeys);
  machine.OnEvicted(99);  // Never prefetched: demand-loaded entries carry no intent.
  EXPECT_EQ(machine.ClassifyMiss(99, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
}

TEST(StallStateMachineTest, AttributionPartitionsTotalsByClassAndTier) {
  StallStateMachine machine(kKeys);
  machine.AttributeStall(StallClass::kNeverPrefetched, 0.5);
  machine.AttributeStall(StallClass::kPrefetchInFlight, 0.25);
  machine.AttributeStall(StallClass::kEvictedBeforeUse, 0.0);  // Fully hidden miss.
  machine.AttributeStallTier(StallTier::kHost, 0.5);
  machine.AttributeStallTier(StallTier::kNvme, 0.25);
  machine.AttributeStallTier(StallTier::kHost, 0.0);

  const StallAttribution& stall = machine.stall();
  EXPECT_DOUBLE_EQ(stall.total_seconds, 0.75);
  EXPECT_EQ(stall.total_misses, 3u);
  EXPECT_DOUBLE_EQ(stall.CategorySum(), stall.total_seconds);
  EXPECT_DOUBLE_EQ(stall.TierSum(), stall.total_seconds);
  EXPECT_EQ(stall.misses[static_cast<size_t>(StallClass::kEvictedBeforeUse)], 1u);
  EXPECT_EQ(stall.tier_misses[static_cast<size_t>(StallTier::kHost)], 2u);
}

TEST(StallStateMachineTest, ResetAttributionKeepsPrefetchLifecycleState) {
  StallStateMachine machine(kKeys);
  machine.OnPrefetchIssued(7);
  machine.OnEvicted(7);
  machine.AttributeStall(StallClass::kNeverPrefetched, 1.0);
  machine.ResetAttribution();
  EXPECT_DOUBLE_EQ(machine.stall().total_seconds, 0.0);
  EXPECT_EQ(machine.stall().total_misses, 0u);
  // Warmup intent survives the reset: the evicted-before-use mark still classifies.
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kEvictedBeforeUse);
}

TEST(ControlSignalTrackerTest, EmptyTrackerSamplesZeros) {
  ControlSignalTracker tracker(0.5);
  const ControlSignals s = tracker.Sample(10.0);
  EXPECT_DOUBLE_EQ(s.window_sec, 0.5);
  EXPECT_DOUBLE_EQ(s.total_stall_rate, 0.0);
  EXPECT_DOUBLE_EQ(s.cache_thrash_ratio, 0.0);
  EXPECT_EQ(s.stalls, 0u);
  EXPECT_EQ(s.admissions, 0u);
  EXPECT_EQ(s.iterations, 0u);
}

TEST(ControlSignalTrackerTest, RatesAreStallSecondsPerWindowSecond) {
  ControlSignalTracker tracker(2.0);
  tracker.RecordStall(StallClass::kNeverPrefetched, 0.4, 10.0);
  tracker.RecordStall(StallClass::kNeverPrefetched, 0.2, 11.0);
  const ControlSignals s = tracker.Sample(12.0);
  EXPECT_DOUBLE_EQ(s.window_sec, 2.0);
  EXPECT_DOUBLE_EQ(s.total_stall_rate, 0.3);  // 0.6 stall seconds over a 2 s window.
  EXPECT_EQ(s.stalls, 2u);
}

TEST(ControlSignalTrackerTest, EventsOutsideTheWindowExpire) {
  ControlSignalTracker tracker(1.0);
  tracker.RecordStall(StallClass::kNeverPrefetched, 0.5, 10.0);
  tracker.RecordStall(StallClass::kEvictedBeforeUse, 0.25, 12.0);
  const ControlSignals s = tracker.Sample(12.5);
  EXPECT_EQ(s.stalls, 1u);  // The event at t=10 fell out of [11.5, 12.5].
  EXPECT_DOUBLE_EQ(s.cache_thrash_ratio, 1.0);
}

TEST(ControlSignalTrackerTest, EffectiveWindowShrinksEarlyInTheRun) {
  ControlSignalTracker tracker(10.0);
  tracker.RecordStall(StallClass::kNeverPrefetched, 0.5, 100.0);
  const ControlSignals s = tracker.Sample(100.5);
  // Only 0.5 s elapsed since the first event: rates use that, not the configured 10 s.
  EXPECT_DOUBLE_EQ(s.window_sec, 0.5);
  EXPECT_DOUBLE_EQ(s.total_stall_rate, 1.0);
}

TEST(ControlSignalTrackerTest, SharesSplitTheWindowsStallSeconds) {
  ControlSignalTracker tracker(4.0);
  tracker.RecordStall(StallClass::kEvictedBeforeUse, 0.3, 10.0);
  tracker.RecordStall(StallClass::kPrefetchInFlight, 0.6, 10.5);
  tracker.RecordStall(StallClass::kNeverPrefetched, 0.1, 11.0);
  const ControlSignals s = tracker.Sample(12.0);
  EXPECT_DOUBLE_EQ(s.cache_thrash_ratio, 0.3);
  EXPECT_DOUBLE_EQ(s.inflight_share, 0.6);
}

TEST(ControlSignalTrackerTest, AdmissionAndIterationAggregates) {
  ControlSignalTracker tracker(4.0);
  tracker.RecordAdmission(0.2, 10.0);
  tracker.RecordAdmission(0.6, 11.0);
  tracker.RecordIteration(0.05, 10.5);
  tracker.RecordIteration(0.15, 11.5);
  const ControlSignals s = tracker.Sample(12.0);
  EXPECT_EQ(s.admissions, 2u);
  EXPECT_DOUBLE_EQ(s.queueing_delay_mean, 0.4);
  EXPECT_DOUBLE_EQ(s.queueing_delay_max, 0.6);
  EXPECT_EQ(s.iterations, 2u);
  EXPECT_DOUBLE_EQ(s.iteration_time_mean, 0.1);
}

TEST(ControlSignalTrackerTest, ClearForgetsEverything) {
  ControlSignalTracker tracker(4.0);
  tracker.RecordStall(StallClass::kNeverPrefetched, 0.5, 10.0);
  tracker.RecordAdmission(0.2, 10.0);
  tracker.Clear();
  const ControlSignals s = tracker.Sample(10.1);
  EXPECT_EQ(s.stalls, 0u);
  EXPECT_EQ(s.admissions, 0u);
  EXPECT_DOUBLE_EQ(s.window_sec, 4.0);  // No first-event anchor: configured window again.
}

}  // namespace
}  // namespace fmoe
